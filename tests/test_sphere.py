import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onofri import (
    INFINITY,
    HarmonicField,
    build_grid,
    cap_area,
    evaluate_at,
    integrate,
    moments,
    stereo_inverse,
    stereo_project,
    synthesize,
    unit_point,
)
from onofri.sphere import ConvergenceError, RefinementPolicy, SphericalGrid, _leggauss, _make_grid, _node


def test_stereo_project_examples():
    assert stereo_project([0, 0, -1]) == 0j
    assert stereo_project([1, 0, 0]) == 1 + 0j
    assert stereo_project([0, 0, 1]) is INFINITY


def test_stereo_inverse_examples():
    assert np.allclose(stereo_inverse(0j), [0, 0, -1])
    assert np.allclose(stereo_inverse(1 + 0j), [1, 0, 0])
    # direct evaluation (1/5)(4, 0, 3), cross-checked by the round trip
    w = stereo_inverse(2 + 0j)
    assert np.allclose(w, [0.8, 0.0, 0.6], atol=1e-15)
    assert abs(stereo_project(w) - 2.0) < 1e-13
    assert np.allclose(stereo_inverse(INFINITY), [0, 0, 1])


def test_unit_point_renormalizes():
    w = unit_point([3.0, 0.0, 4.0])
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        unit_point([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        unit_point([np.nan, 0.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30))
def test_stereo_round_trip_plane(x, y):
    z = complex(x, y)
    back = stereo_project(stereo_inverse(z))
    assert back is not INFINITY
    assert abs(back - z) <= 1e-13 * (1 + abs(z))


def test_round_trip_on_grid(grid16):
    for w in grid16.nodes[:: 7]:
        assert np.max(np.abs(stereo_inverse(stereo_project(w)) - w)) < 1e-13


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(-1)


def test_grid_invariants(grid48):
    assert abs(grid48.weights.sum() - 1.0) < 1e-14
    assert np.all(grid48.weights > 0)
    assert grid48.band_limit_exact >= 48
    # Gauss nodes exclude the poles
    assert np.max(np.abs(grid48.nodes[:, 2])) < 1.0


def test_trivial_grid():
    g = build_grid(0)
    assert abs(g.weights.sum() - 1.0) < 1e-14
    assert abs(integrate(g, np.ones(g.node_count)) - 1.0) < 1e-15


def test_integrate_examples(grid16):
    n = grid16.node_count
    assert abs(integrate(grid16, np.ones(n)) - 1.0) < 1e-15
    assert abs(integrate(grid16, grid16.nodes[:, 2])) < 1e-15
    c = 0.3
    assert abs(integrate(grid16, np.exp(2 * c) * np.ones(n)) - math.exp(2 * c)) < 1e-14
    assert abs(integrate(grid16, grid16.nodes[:, 2] ** 2) - 1.0 / 3.0) < 1e-14


def test_integrate_rejects_length_mismatch(grid16):
    with pytest.raises(ValueError):
        integrate(grid16, np.ones(grid16.node_count - 1))


def test_integrate_deterministic(grid48):
    samples = np.sin(3 * grid48.nodes[:, 0]) + grid48.nodes[:, 2] ** 5
    assert integrate(grid48, samples) == integrate(grid48, samples)


def test_moments_match_integrate(grid48):
    nodes = grid48.nodes
    f = np.exp(np.sin(3 * nodes[:, 0]) + nodes[:, 1] * nodes[:, 2])
    ref = [integrate(grid48, f)] + [integrate(grid48, nodes[:, k] * f) for k in range(3)]
    got = moments(grid48, f)
    assert got.shape == (4,)
    assert np.max(np.abs(got - ref)) <= 1e-15 * ref[0]
    assert np.array_equal(moments(grid48, f), got)
    with pytest.raises(ValueError):
        moments(grid48, f[:-1])


def _mp_gauss_point(n, x):
    # Newton from a double node to the 40-digit root of P_n, and its weight
    def pair(x):
        prev, cur = mpmath.mpf(1), x
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return cur, prev

    x = mpmath.mpf(x)
    for _ in range(2):
        p, q = pair(x)
        x -= p * (x * x - 1) / (n * (x * p - q))
    p, q = pair(x)
    return x, 2 * (1 - x * x) / (n * (x * p - q)) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 9, 25, 57, 129, 194])
def test_leggauss_against_mpmath(n):
    t, w = _leggauss(n)
    assert np.all(np.diff(t) > 0)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    with mpmath.workdps(40):
        for k in range((n + 1) // 2):  # the rule is symmetric
            x, weight = _mp_gauss_point(n, t[k])
            assert abs(float(x - mpmath.mpf(t[k]))) <= 1e-16
            assert abs(float((mpmath.mpf(w[k]) - weight) / weight)) <= 1e-12


def _hand_grid(n_theta, n_phi, scale):
    # theta weights that sum to 2 * scale, not 2
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return SphericalGrid(t, scale * wt, phi, min(n_theta - 1, (n_phi - 1) // 2))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 81),
    st.floats(0.25, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_moments_match_nodes_and_weights(n_theta, n_phi, scale, seed):
    grid = _hand_grid(n_theta, n_phi, scale)
    nodes, weights = grid.nodes, grid.weights
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.node_count) * np.exp(rng.uniform(-3.0, 3.0, grid.node_count))
    ref = np.array([np.sum(weights * f)] + [np.sum(weights * nodes[:, k] * f) for k in range(3)])
    got = moments(grid, f)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.sum(weights * np.abs(f))
    assert integrate(grid, f) == got[0]
    assert integrate(grid, np.ones(grid.node_count)) == 1.0


def test_moment_constants_per_grid_instance():
    # read-only, built once per grid, and a hand-built grid with a canonical
    # grid's counts gets its own: its weights sum to 2 * 1.5, not 2
    canonical = _make_grid(9, 17)
    hand = _hand_grid(9, 17, 1.5)
    c = canonical._moment_constants
    assert canonical._moment_constants is c and _make_grid(9, 17)._moment_constants is c
    assert hand._moment_constants is not c
    assert hand._moment_constants.total == pytest.approx(1.5 * c.total, rel=1e-14)
    for arr in (c.rows, c.weights):
        assert not arr.flags.writeable
    for grid in [hand, *RefinementPolicy(theta_cap=200).grids()]:
        assert integrate(grid, np.ones(grid.node_count)) == 1.0


def test_cached_arrays_read_only(grid16):
    t, w = _leggauss(17)
    assert _leggauss(17) is _leggauss(17)
    for arr in (t, w, grid16.cos_theta, grid16.theta_weights, grid16.phi):
        assert not arr.flags.writeable


def test_quadrature_exactness(grid16):
    # every harmonic of degree 1..band_limit_exact integrates to zero
    worst = 0.0
    for l in range(1, grid16.band_limit_exact + 1):
        for m in range(-l, l + 1):
            f = HarmonicField.from_entries(l, {(l, m): 1.0})
            worst = max(worst, abs(integrate(grid16, synthesize(f, grid16).samples)))
    assert worst < 1e-13


@pytest.mark.parametrize("band", [1, 4, 8])
def test_single_harmonics_integrate_exactly_through_2l(band):
    # the SphericalGrid docstring: every Y(l, m) of degree l <= 2L, and of
    # degree 2L + 1 with |m| <= 2L, integrates to its mean; the azimuths
    # alias cos((2L + 1) phi) to 1, so Y(2L + 1, 2L + 1) does not
    grid = build_grid(band)
    nodes = grid.nodes
    for l in range(2 * band + 2):
        for m in range(-min(l, 2 * band), min(l, 2 * band) + 1):
            f = HarmonicField.from_entries(l, {(l, m): 1.0})
            assert abs(integrate(grid, evaluate_at(f, nodes)) - (l == 0)) < 1e-13
    top = 2 * band + 1
    aliased = integrate(grid, evaluate_at(HarmonicField.from_entries(top, {(top, top): 1.0}), nodes))
    assert abs(aliased) > 0.5
    if band == 4:
        assert abs(aliased - 1.028) < 1e-3


def test_cap_area():
    assert abs(cap_area(math.pi) - 4 * math.pi) < 1e-12
    assert abs(cap_area(math.pi / 2) - 2 * math.pi) < 1e-12
    r = 0.01
    assert abs(cap_area(r) / (math.pi * r**2) - 1.0) < 1e-4
    with pytest.raises(ValueError):
        cap_area(-0.1)
    with pytest.raises(ValueError):
        cap_area(3.5)


def test_grid_descriptor_round_trip(grid16):
    from onofri.sphere import SphericalGrid

    clone = SphericalGrid.from_json(grid16.to_json())
    assert clone.theta_count == grid16.theta_count
    assert clone.phi_count == grid16.phi_count
    assert clone.band_limit_exact == grid16.band_limit_exact
    assert np.array_equal(clone.nodes, grid16.nodes)
    with pytest.raises(ValueError):
        SphericalGrid.from_descriptor(
            {"theta_count": 17, "phi_count": 33, "band_limit_exact": 99}
        )


def test_tol_scale_validation(monkeypatch):
    from onofri.config import tol_scale

    monkeypatch.setenv("ONOFRI_TOL_SCALE", "2.5")
    assert tol_scale() == 2.5
    for raw in ("-1", "0", "nan", "inf", "-inf", "abc"):
        monkeypatch.setenv("ONOFRI_TOL_SCALE", raw)
        with pytest.raises(ValueError, match="ONOFRI_TOL_SCALE"):
            tol_scale()


def test_refinement_policy_growth_and_cap():
    counts = [g.theta_count for g in RefinementPolicy().grids()]
    assert counts == [25, 38, 57, 86, 129, 194, 291, 437]
    assert [g.theta_count for g in RefinementPolicy(theta_cap=16).grids()] == [16]
    assert [g.theta_count for g in RefinementPolicy().grids(min_band=40)][:2] == [41, 62]

    # smooth integrand converges; a one-grid policy cannot and names the cap
    value, grid = RefinementPolicy().refine(lambda g: integrate(g, np.exp(g.nodes[:, 2])), "the integral")
    assert abs(value[0] - math.sinh(1.0)) < 1e-12 and grid.theta_count == 38
    starved = RefinementPolicy(theta_cap=16)
    with pytest.raises(ConvergenceError, match="^the integral did not converge within the grid cap .theta cap 16.$"):
        starved.refine(lambda g: integrate(g, np.exp(g.nodes[:, 2])), "the integral")
    with pytest.raises(ConvergenceError, match="^the integral has no grid: theta cap 2 is below the 3 theta rows that band 2 needs$"):
        RefinementPolicy(theta_cap=2).refine(lambda g: integrate(g, g.nodes[:, 2]), "the integral", min_band=2)


@pytest.mark.parametrize("band", [0, 6, 33, 72])
def test_one_node_equals_the_node_array(band):
    grid = build_grid(band)
    nodes = grid.nodes
    for index in range(grid.node_count):
        assert np.array_equal(_node(grid, index), nodes[index])
