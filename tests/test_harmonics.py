import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from onofri import (
    ConformalMap,
    GridField,
    HarmonicField,
    analyze,
    build_grid,
    coeff_index,
    dilation,
    dirichlet_energy,
    evaluate_at,
    field_from_json,
    field_to_json,
    integrate,
    laplacian,
    normalize,
    rotation,
    solve_lambda0,
    stability_check,
    synthesize,
    transform,
)
from onofri import harmonics
from onofri.functionals import _compose, _Composition
from onofri.harmonics import (
    _grid_table,
    _harmonic_slopes,
    _layout,
    _rotated,
    _turn,
)
from onofri.mobius import _dilated_meridian
from onofri.sampling import random_conformal, random_field
from onofri.sphere import SphericalGrid, _azimuth_rows, _make_grid, unit_point
from reference import _mp_basis, _mp_legendre, _padded_turn_stack


def w3_field():
    # w3 = Y_10 / sqrt(3) in the unit-norm basis
    return HarmonicField.from_entries(1, {(1, 0): 1.0 / math.sqrt(3.0)})


def test_synthesize_trivial(grid16):
    zero = HarmonicField.zero(3)
    assert np.all(synthesize(zero, grid16).samples == 0.0)
    const = HarmonicField.constant(0.7, l_max=2)
    assert np.allclose(synthesize(const, grid16).samples, 0.7, atol=1e-15)


def test_synthesize_w3(grid16):
    samples = synthesize(w3_field(), grid16).samples
    assert np.max(np.abs(samples - grid16.nodes[:, 2])) < 1e-13


def test_synthesize_requires_band(grid16):
    with pytest.raises(ValueError):
        synthesize(HarmonicField.zero(grid16.band_limit_exact + 1), grid16)


def test_analyze_orthonormality(grid16):
    f = HarmonicField.from_entries(5, {(1, 0): 1.0})
    got = analyze(synthesize(f, grid16), 5)
    assert abs(got.coeffs[coeff_index(1, 0)] - 1.0) < 1e-13
    others = got.coeffs.copy()
    others[coeff_index(1, 0)] = 0.0
    assert np.max(np.abs(others)) < 1e-12


def test_analyze_constant(grid16):
    g = GridField(grid16, np.full(grid16.node_count, 2.5))
    assert abs(analyze(g, 0).coeffs[coeff_index(0, 0)] - 2.5) < 1e-14


def brute_force_coeff(l, m, samples_fn, n=400):
    # independent oracle: dense Gauss-Legendre x trapezoid quadrature of
    # the inner product against an explicitly constructed harmonic
    t, wt = np.polynomial.legendre.leggauss(n)
    phi = 2 * np.pi * np.arange(2 * n) / (2 * n)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(1 - tt**2)
    w = np.stack([s * np.cos(pp), s * np.sin(pp), tt], axis=-1)
    if (l, m) == (0, 0):
        y = np.ones_like(tt)
    elif (l, m) == (2, 0):
        y = math.sqrt(5.0) * (3 * tt**2 - 1) / 2
    else:
        raise NotImplementedError
    vals = samples_fn(w)
    return float(np.sum(wt[:, None] / (2 * len(phi)) * vals * y))


def test_analyze_w3_squared(grid16):
    samples = grid16.nodes[:, 2] ** 2
    got = analyze(GridField(grid16, samples), 4)
    c00 = brute_force_coeff(0, 0, lambda w: w[..., 2] ** 2)
    c20 = brute_force_coeff(2, 0, lambda w: w[..., 2] ** 2)
    assert abs(c00 - 1.0 / 3.0) < 1e-13
    assert abs(c20 - 2.0 / (3.0 * math.sqrt(5.0))) < 1e-13
    assert abs(got.coeffs[coeff_index(0, 0)] - c00) < 1e-13
    assert abs(got.coeffs[coeff_index(2, 0)] - c20) < 1e-13


@pytest.mark.parametrize("l_max", [0, 1, 9, 32, 64])
def test_analyze_synthesize_identity(l_max, rng):
    # build_grid(l_max) resolves exactly band l_max
    grid = build_grid(l_max)
    u = random_field(rng, l_max, 0.8)
    back = analyze(synthesize(u, grid), l_max)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_analyze_exact_at_band_limit(grid16, rng):
    # the guarantee holds right up to l_max == band_limit_exact
    L = grid16.band_limit_exact
    u = random_field(rng, L, 0.5)
    back = analyze(synthesize(u, grid16), L)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_parseval(grid48, rng):
    u = random_field(rng, 10, 0.7)
    quad = integrate(grid48, synthesize(u, grid48).samples ** 2)
    assert abs(quad - np.sum(u.coeffs**2)) < 1e-12


def test_dirichlet_energy_examples():
    assert dirichlet_energy(HarmonicField.constant(4.2)) == 0.0
    assert abs(dirichlet_energy(w3_field()) - 2.0 / 3.0) < 1e-15
    shifted = w3_field() + HarmonicField.constant(3.0)
    assert abs(dirichlet_energy(shifted) - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("band", [0, 1, 2, 5, 8, 16, 32, 64])
def test_dirichlet_energy_and_laplacian_read_l_l_plus_1_exactly(band):
    # the per-slot l(l + 1) table gives the plain formula's sum bit for bit,
    # summed in the same pairwise order, and the Laplacian's values
    rng = np.random.default_rng(band)
    l = np.repeat(np.arange(band + 1), 2 * np.arange(band + 1) + 1)
    for amplitude in np.geomspace(1e-3, 100.0, 6):
        for _ in range(6):
            f = random_field(rng, band, amplitude)
            assert dirichlet_energy(f) == float(np.sum(l * (l + 1) * f.coeffs**2))
            assert np.array_equal(laplacian(f).coeffs, -l * (l + 1) * f.coeffs)


def finite_difference_energy(u, grid, h=1e-4):
    # central differences along two orthonormal tangent directions;
    # geodesic steps keep the probe on the sphere
    nodes = grid.nodes
    helper = np.where(np.abs(nodes[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    e1 = np.cross(nodes, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(nodes, e1)
    grad2 = np.zeros(nodes.shape[0])
    for e in (e1, e2):
        plus = nodes * math.cos(h) + e * math.sin(h)
        minus = nodes * math.cos(h) - e * math.sin(h)
        grad2 += ((evaluate_at(u, plus) - evaluate_at(u, minus)) / (2 * h)) ** 2
    return integrate(grid, grad2)


def test_energy_matches_finite_differences(grid48, rng):
    u = random_field(rng, 8, 0.5)
    spectral = dirichlet_energy(u)
    fd = finite_difference_energy(u, grid48)
    assert abs(fd - spectral) < 1e-6 * max(1.0, spectral)


def test_laplacian_examples(grid16):
    assert np.all(laplacian(HarmonicField.constant(1.0)).coeffs == 0.0)
    lap = laplacian(w3_field())
    assert np.max(np.abs(lap.coeffs + 2.0 * w3_field().coeffs)) < 1e-15


def test_laplacian_sign():
    u = HarmonicField(3, np.ones(16))
    lap = laplacian(u)
    l = u.degrees()
    assert np.all(lap.coeffs[l > 0] < 0.0)
    assert lap.coeffs[0] == 0.0


def test_green_identity(grid48, rng):
    u = random_field(rng, 7, 0.6)
    v = random_field(rng, 7, 0.6)
    quad = integrate(
        grid48, synthesize(u, grid48).samples * synthesize(laplacian(v), grid48).samples
    )
    l = u.degrees()
    spectral = -np.sum(l * (l + 1) * u.coeffs * v.coeffs)
    assert abs(quad - spectral) < 1e-12


@pytest.mark.parametrize("l_max", [0, 1, 9, 32, 64])
def test_evaluate_at_matches_synthesize(l_max, rng):
    grid = build_grid(l_max)
    u = random_field(rng, l_max, 0.5)
    tracemalloc.start()
    try:
        direct = evaluate_at(u, grid.nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the points go in blocks: 8.3 MiB of table at band 64
    tensor = synthesize(u, grid).samples
    assert np.max(np.abs(direct - tensor)) < 1e-12
    k = grid.node_count // 2
    single = evaluate_at(u, grid.nodes[k])
    assert abs(single - tensor[k]) < 1e-12


def test_evaluate_at_poles(rng):
    u = random_field(rng, 5, 0.5)
    for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        val = evaluate_at(u, np.array(pole))
        assert np.isfinite(val)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3), (3, 4), (3, 2)])
def test_evaluate_at_shapes(rng, shape):
    # (..., 3) points give (...) values, one point a scalar; any other last axis is refused
    u = random_field(rng, 6, 0.5)
    pts = rng.normal(size=shape)
    if shape[-1] != 3:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            evaluate_at(u, pts)
        return
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    got = evaluate_at(u, pts)
    assert np.shape(got) == shape[:-1] and np.isscalar(got) == (len(shape) == 1)
    expect = [_harmonic_slopes(w, 6)[0][0] @ u.coeffs for w in pts.reshape(-1, 3)]
    assert np.max(np.abs(np.reshape(got, -1) - expect)) < 1e-12


def test_evaluate_at_renormalizes_its_points():
    # a point is a direction, as in ConformalMap.apply and stereo_project: a
    # scaled vector is its unit vector, a zero or NaN one is refused
    u = HarmonicField.from_entries(1, {(1, 1): 1.0})
    assert evaluate_at(u, [3.0, 4.0, 0.0]) == evaluate_at(u, [0.6, 0.8, 0.0])
    scaled = evaluate_at(u, [[3.0, 4.0, 0.0], [0.0, 0.0, -2.0]])
    assert np.array_equal(scaled, evaluate_at(u, [[0.6, 0.8, 0.0], [0.0, 0.0, -1.0]]))
    with pytest.raises(ValueError, match="zero vector"):
        evaluate_at(u, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_at(u, [[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]])


def test_basis_values_match_evaluate_at(rng):
    u = random_field(rng, 12, 0.5)
    points = [rng.normal(size=3), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
    for w in points:
        w = np.asarray(w, dtype=float) / np.linalg.norm(w)
        assert abs(_harmonic_slopes(w, 12)[0][0] @ u.coeffs - evaluate_at(u, w)) < 1e-12


def test_basis_matches_scipy(rng):
    # outside reference for normalization, Condon-Shortley phase and the
    # cos/sin assignment: Y_lm = sqrt(4 pi) (-1)^m times Re Y_l^0 (m = 0),
    # sqrt(2) Re Y_l^m (m > 0) or sqrt(2) Im Y_l^|m| (m < 0) of scipy's
    # complex orthonormal harmonics.  Points 1e-9 and 1e-12 off each pole
    # check that sin(theta) keeps its relative accuracy there; the reference
    # takes theta = atan2(hypot(x, y), |z|), since arccos(z) rounds to the
    # pole and pi - theta carries pi's rounding, and the parity
    # Y_lm(-z) = (-1)^(l+m) Y_lm(z) for z < 0
    from scipy.special import sph_harm_y  # scipy >= 1.15

    L = 64
    pts = rng.normal(size=(50, 3))
    near = [
        [e * c, e * s, z] for e in (1e-9, 1e-12) for z in (1.0, -1.0) for c, s in ((1, 0), (0.6, -0.8))
    ]
    near = np.array(near) / np.linalg.norm(near, axis=1)[:, None]
    pts = np.vstack([pts / np.linalg.norm(pts, axis=1)[:, None], [[0, 0, 1.0], [0, 0, -1.0]], near])
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    m = np.arange(l.size) - l * l - l
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), np.abs(pts[:, 2]))[:, None]
    phi = np.arctan2(pts[:, 1], pts[:, 0])[:, None]
    parity = np.where(pts[:, 2:] < 0.0, (-1.0) ** (l + m), 1.0)
    y = sph_harm_y(l, np.abs(m), theta, phi)
    trig = np.where(m == 0, y.real, math.sqrt(2.0) * np.where(m > 0, y.real, y.imag))
    ref = math.sqrt(4.0 * math.pi) * (-1.0) ** np.abs(m) * parity * trig
    got = np.array([_harmonic_slopes(w, L)[0][0] for w in pts])
    assert np.max(np.abs(got - ref)) < 1e-12
    for l_max in range(L + 1):
        u = random_field(rng, l_max, 1.0)
        n = u.coeffs.size
        assert np.max(np.abs(evaluate_at(u, pts) - ref[:, :n] @ u.coeffs)) < 1e-12
    # near the poles the m >= 1 harmonics are of order sin(theta)^|m|: match
    # them relatively, through both point evaluators
    k = np.flatnonzero(m[:81] != 0)  # l <= 8
    expect = ref[-len(near):, k]
    evaluated = np.array([evaluate_at(HarmonicField(8, c), near) for c in np.eye(81)[k]]).T
    for values in (got[-len(near):, k], evaluated):
        assert np.all(np.abs(values - expect) <= 1e-12 * np.abs(expect))
    for w in near:  # surface gradients stay tangent
        slopes, frame = _harmonic_slopes(w, 8)
        grad = slopes[1:3].T @ frame
        norms = np.linalg.norm(grad, axis=1)
        assert np.all(np.abs(grad @ w) <= 1e-15 * norms)


def test_basis_matches_mpmath(rng):
    # the library's accuracy, which test_basis_matches_scipy cannot see past
    # scipy's own 4e-13: 200 points at band 64, the poles and points 1e-9
    # off them among them.  The slopes' rounding grows with the degree, and
    # their azimuth factors' with the order, so the measured error is not
    # 1e-14 max(1, |Y|) but up to 5.9 (l + 1) eps max(1, |Y|) here
    # (7.9e-14), 7.1e-15 at the near-pole points.  Bound: 16 (l + 1) eps max(1, |Y|).  Then points on the
    # meridian phi = 0, whose azimuth factors are exact, at the 8 abscissas
    # of build_grid(300) nearest each pole: there evaluate_at errs by at most
    # 0.29 (l + 1) eps max(1, |Y|) over the slots below, where with the
    # three-term recurrence's table it erred by 4.4 at (64, 0) (and by 6.7 at
    # (52, 1)): evaluate_at's bound there is 1 (l + 1) eps max(1, |Y|).  At
    # the other points the rounding of m phi and of evaluate_at's own
    # renormalization sets its error, 7.0 (l + 1) eps max(1, |Y|) (10.5 with
    # the recurrence's table): its bound there is 8
    L = 64
    pts = rng.normal(size=(190, 3))
    near = [[1e-9 * c, 1e-9 * s, z] for z in (1.0, -1.0) for c, s in ((1, 0), (0.6, -0.8), (-0.28, 0.96), (0, -1))]
    t = build_grid(300).cos_theta[np.r_[:8, -8:0]]
    meridian = np.stack([np.sin(np.arccos(np.abs(t))), np.zeros_like(t), t], axis=1)
    pts = unit_point(np.vstack([pts, [[0, 0, 1.0], [0, 0, -1.0]], near, meridian]))
    ref = _mp_basis(pts, L)
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    bound = 16 * (l + 1) * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
    got = np.array([_harmonic_slopes(w, L)[0][0] for w in pts])
    assert np.all(np.abs(got - ref) <= bound)
    # evaluate_at: single harmonics of every order at l = 64, and low degrees
    slots = [coeff_index(64, m) for m in range(-64, 65, 8)] + [coeff_index(64, 1), coeff_index(59, 2)]
    slots += [coeff_index(k, m) for k in (0, 1, 7) for m in (-k, 0, k)]
    bound = bound * np.where(np.arange(len(pts)) < len(pts) - len(meridian), 8.0 / 16.0, 1.0 / 16.0)[:, None]
    for k in slots:
        one = HarmonicField(L, np.eye(1, l.size, k)[0])
        assert np.all(np.abs(evaluate_at(one, pts) - ref[:, k]) <= bound[:, k])
    # and whole fields, against the reference sums
    for l_max in (1, 8, 64):
        u = random_field(rng, l_max, 1.0)
        n = u.coeffs.size
        want = [math.fsum(u.coeffs * row[:n]) for row in ref]
        assert np.all(np.abs(evaluate_at(u, pts) - want) <= np.abs(u.coeffs) @ bound[:, :n].T)


def test_layout_cached_read_only():
    lay = _layout(7)
    assert _layout(7) is lay
    assert HarmonicField.zero(7).degrees() is lay.degrees
    for arr in lay:
        assert not arr.flags.writeable
    # flat slot (l, m) sits at [|m|, m < 0, l] of an order-major (8, 2, 8) array
    slots = [(l, m) for l in range(8) for m in range(-l, l + 1)]
    assert [coeff_index(l, m) for l, m in slots] == list(range(64))
    expected = [np.ravel_multi_index((abs(m), int(m < 0), l), (8, 2, 8)) for l, m in slots]
    assert lay.slots.tolist() == expected
    assert np.array_equal(lay.scale, [1.0 if m == 0 else math.sqrt(2.0) for _, m in slots])


@pytest.mark.parametrize("l_max", [0, 1, 8, 32, 64])
def test_azimuth_tables_cached_read_only(rng, l_max):
    # the one azimuth table: cos(m phi) in row 2m and sin(m phi) in row 2m + 1,
    # bit for bit the values the transforms computed afresh before it was cached
    grid = build_grid(max(l_max, 1))
    rows = _azimuth_rows(l_max, grid.phi.tobytes())
    arg = np.arange(l_max + 1)[:, None] * grid.phi[None, :]
    assert np.array_equal(rows[0::2], np.cos(arg)) and np.array_equal(rows[1::2], np.sin(arg))
    assert not rows.flags.writeable
    assert _azimuth_rows(l_max, build_grid(max(l_max, 1)).phi.tobytes()) is rows
    # a hand-built grid with the canonical azimuth count but shifted azimuths
    # gets its own table, and the transforms read it
    phi = grid.phi + 0.1
    hand = SphericalGrid(grid.cos_theta, grid.theta_weights, phi, grid.band_limit_exact)
    shifted = _azimuth_rows(l_max, phi.tobytes())
    arg = np.arange(l_max + 1)[:, None] * phi[None, :]
    assert np.array_equal(shifted[0::2], np.cos(arg)) and np.array_equal(shifted[1::2], np.sin(arg))
    u = random_field(rng, l_max, 0.5)
    samples = synthesize(u, hand).samples
    assert np.max(np.abs(samples - evaluate_at(u, hand.nodes))) < 1e-12
    assert np.max(np.abs(analyze(GridField(hand, samples), l_max).coeffs - u.coeffs)) < 1e-12


def test_harmonic_gradients_at(rng):
    # tangent, equal to geodesic differences of the values away from the
    # poles, and the right limit at them: grad Y_1m = sqrt(3) (e_m - (e_m.w) w)
    pts = [rng.normal(size=3) for _ in range(6)]
    for w in pts:
        w = w / np.linalg.norm(w)
        a = np.cross(w, [0.3, 0.5, 0.8])
        a /= np.linalg.norm(a)
        for l_max in (0, 1, 7, 32):
            slopes, frame = _harmonic_slopes(w, l_max)
            grad = slopes[1:3].T @ frame
            assert np.max(np.abs(grad @ w)) < 1e-13
            for e in (a, np.cross(w, a)):
                h = 1e-4
                ahead = _harmonic_slopes(math.cos(h) * w + math.sin(h) * e, l_max)[0][0]
                behind = _harmonic_slopes(math.cos(h) * w - math.sin(h) * e, l_max)[0][0]
                diff = (ahead - behind) / (2 * math.sin(h))
                assert np.max(np.abs(grad @ e - diff)) < 1e-5 * (1 + l_max) ** 2
    for pole in (1.0, -1.0):
        w = np.array([0.0, 0.0, pole])
        slopes, frame = _harmonic_slopes(w, 5)
        grad = slopes[1:3].T @ frame
        axes = np.eye(3)[[1, 2, 0]]  # flat slots (1, -1), (1, 0), (1, 1): y, z, x
        expect = math.sqrt(3.0) * (axes - np.outer(axes @ w, w))
        assert np.max(np.abs(grad[1:4] - expect)) < 1e-15
        # every other degree's gradient at a pole comes from its m = 1 pair only
        m_abs = np.abs(np.arange(36) - _layout(5).degrees ** 2 - _layout(5).degrees)
        assert np.all(grad[m_abs != 1] == 0.0)


def test_harmonic_second_slopes(rng):
    # the last two rows are the theta-derivatives of dY/dtheta and
    # (1/sin theta) dY/dphi, here against fourth-order differences along the
    # meridian
    def at(theta, phi):
        return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])

    h = 1e-4
    for l_max in (0, 1, 7, 32):
        for _ in range(4):
            theta, phi = rng.uniform(0.2, 2.9), rng.uniform(-math.pi, math.pi)
            rows, _ = _harmonic_slopes(at(theta, phi), l_max)
            assert rows.shape == (5, (l_max + 1) ** 2)
            near = [_harmonic_slopes(at(theta + k * h, phi), l_max)[0][1:3] for k in (-2, -1, 1, 2)]
            diff = (near[0] - 8.0 * near[1] + 8.0 * near[2] - near[3]) / (12.0 * h)
            assert np.max(np.abs(rows[3:] - diff)) <= 1e-8 * (1 + l_max) ** 3


def _legendre_loop(l_max, t):
    # one (l, m) pair at a time, the normalized three-term recurrence in l
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    out = np.empty(((l_max + 1) * (l_max + 2) // 2, t.size))
    idx = lambda l, m: l * (l + 1) // 2 + m
    pmm = np.ones_like(t)
    for m in range(l_max + 1):
        if m > 0:
            pmm = pmm * s * math.sqrt((2 * m + 1) / (2 * m))
        out[idx(m, m)] = pmm
        if m + 1 <= l_max:
            out[idx(m + 1, m)] = math.sqrt(2 * m + 3) * t * pmm
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((2 * l + 1) * (2 * l - 1) / ((l - m) * (l + m)))
            b = math.sqrt(
                (2 * l + 1) * (l - 1 - m) * (l - 1 + m) / ((2 * l - 3) * (l - m) * (l + m))
            )
            out[idx(l, m)] = a * t * out[idx(l - 1, m)] - b * out[idx(l - 2, m)]
    return out


def _legendre_point_bound(l_max):
    # measured on 600 random points at band 65: up to 0.93 (l + 1) eps max(1, |P|) (3.5 on 60 draws of
    # 300 from the unsplit table's sums); per column l of the (m, l) rows
    return 2 * (np.arange(l_max + 1) + 1) * np.finfo(float).eps


@pytest.mark.parametrize("l_max", [0, 1, 2, 7, 33, 65])
def test_legendre_point_matches_table(rng, l_max):
    # the one-point rows (_legendre_point) against the 50-digit recurrence at the
    # same abscissa and sine: random points, then the caller-supplied sines of
    # points 1e-9, 1e-200 and 0 off each pole
    w = rng.normal(size=(200, 3))
    w /= np.linalg.norm(w, axis=1)[:, None]
    points = [(p[2], math.hypot(p[0], p[1])) for p in w]
    points += [(z * math.sqrt(1.0 - s * s), s) for s in (1e-9, 1e-200, 0.0) for z in (1.0, -1.0)]
    bound = _legendre_point_bound(l_max)
    for (t, s), exact in zip(points, _mp_legendre(l_max, points)):
        got = harmonics._legendre_point(l_max, t, s)
        assert np.all(np.abs(got - exact) <= bound * np.maximum(1.0, np.abs(exact)))
    for pole in (1.0, -1.0):
        assert np.all(harmonics._legendre_point(l_max, pole, 0.0)[1:] == 0.0)  # the rows m > 0


def test_point_tables_cached_and_read_only():
    # the theta-Fourier weights and the caps' cosine weights are built once
    # per band, and no call writes to them
    table = harmonics._fourier_weights(9)
    assert harmonics._fourier_weights(9) is table
    assert harmonics._cap_weights(9) is harmonics._cap_weights(9)
    arrays = [table, harmonics._cap_weights(9)]
    assert not any(arr.flags.writeable for arr in arrays)
    before = [arr.copy() for arr in arrays]
    for t, s in ((0.3, math.sqrt(0.91)), (-0.3, math.sqrt(0.91)), (0.99995, math.sqrt(0.0000999975)), (-1.0, 0.0)):
        harmonics._legendre_point(9, t, s)
    assert all(np.array_equal(arr, old) for arr, old in zip(arrays, before))


@pytest.mark.parametrize("l_max", [1, 7, 33, 65])
def test_legendre_point_across_the_cap(l_max):
    # the trigonometric rows just outside the polar caps and the cosine
    # series just inside agree with the 50-digit recurrence at the same
    # abscissa and sine, the rows m > 0 are exactly 0 at both poles, and
    # inside the caps the rows m >= 1 keep their relative accuracy: against
    # s^m times the reference at sine 1, which the fixed point keeps to 50
    # digits where s^m is far below its last place
    m = np.arange(l_max + 1)[:, None]  # the order of each (m, l) row
    cap = harmonics._CAP
    sines = (np.nextafter(cap, 0.0), cap - 1e-9, cap, np.nextafter(cap, 1.0), cap + 1e-9, 1e-5)
    points = [(z * math.sqrt(1.0 - s * s), s) for s in sines for z in (1.0, -1.0)]
    bound = _legendre_point_bound(l_max)
    unit = _mp_legendre(l_max, [(t, 1.0) for t, _ in points])
    for (t, s), exact, at_one in zip(points, _mp_legendre(l_max, points), unit):
        got = harmonics._legendre_point(l_max, t, s)
        assert np.all(np.abs(got - exact) <= bound * np.maximum(1.0, np.abs(exact)))
        if s < cap:  # relative, wherever s^m has not reached underflow
            expect = at_one * s**m
            low = (m > 0) & (np.abs(expect) > 1e-250)
            assert np.all(np.abs(got - expect)[low] <= 1e-12 * np.abs(expect[low]))
    for pole in (1.0, -1.0):
        assert np.all(harmonics._legendre_point(l_max, pole, 0.0)[1:] == 0.0)


def test_grid_table_keyed_on_abscissas(grid16, rng):
    # a hand-built grid with the canonical theta count but shifted abscissas
    # must not be served the canonical grid's cached table
    u = random_field(rng, 8, 0.5)
    synthesize(u, grid16)
    t = 0.9 * grid16.cos_theta + 0.01
    hand = SphericalGrid(t, grid16.theta_weights, grid16.phi, grid16.band_limit_exact)
    assert np.max(np.abs(synthesize(u, hand).samples - evaluate_at(u, hand.nodes))) < 1e-12
    table = _grid_table(8, t.tobytes())
    exact = _mp_legendre(8, [(x, math.sin(math.acos(abs(x)))) for x in t]).transpose(1, 2, 0)  # (m, l, theta)
    bound = 2 * (np.arange(9)[:, None] + 1) * np.finfo(float).eps
    assert np.all(np.abs(table - exact) <= bound * np.maximum(1.0, np.abs(exact)))
    assert not table.flags.writeable


@pytest.mark.parametrize("n", [72, 300])
def test_grid_tables_match_the_50_digit_reference(n):
    # the one source of the grid transforms, at bands 32, 64 and 128 on 28
    # abscissas of build_grid(n), the 6 nearest each pole among them, against
    # the 50-digit recurrence at the same abscissas and sines sin(arccos |t|).
    # Measured: up to 1.80 (l + 1) eps max(1, |P|), 4.0e-14 at band 128; the
    # three-term recurrence the tables came from before read 4.0e-13 at band
    # 64 and 7.8e-13 at band 128 on build_grid(300)
    t = build_grid(n).cos_theta
    ends = np.concatenate((np.arange(6), np.arange(t.size - 6, t.size)))
    t = np.ascontiguousarray(t[np.union1d(ends, np.linspace(6, t.size - 7, 16).round().astype(int))])
    assert t.size == 28
    exact = _mp_legendre(128, [(x, math.sin(math.acos(abs(x)))) for x in t]).transpose(1, 2, 0)  # (m, l, theta)
    for L in (32, 64, 128):
        ref = exact[: L + 1, : L + 1]
        bound = 2 * (np.arange(L + 1)[:, None] + 1) * np.finfo(float).eps
        assert np.all(np.abs(_grid_table(L, t.tobytes()) - ref) <= bound * np.maximum(1.0, np.abs(ref)))


def _dense_analyze(g, l_max):
    # the dense contraction analyze ran before its tables were order-major:
    # every row of a (l, m >= 0) table against every order's azimuthal sums,
    # keeping the diagonal through a (m, rows) matrix that sums rows of equal m
    grid = g.grid
    table = _legendre_loop(l_max, grid.cos_theta)
    l, m = np.tril_indices(l_max + 1)
    sum_m = np.zeros((l_max + 1, l.size))
    sum_m[m, np.arange(l.size)] = np.where(m == 0, 1.0, math.sqrt(2.0))
    f2d = g.samples.reshape(grid.theta_count, grid.phi_count)
    arg = np.arange(l_max + 1)[:, None] * grid.phi[None, :]
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    wt = grid.theta_weights[:, None] / (2.0 * grid.phi_count)
    coeffs = np.empty((l_max + 1) ** 2)
    coeffs[l * l + l - m] = np.einsum("rm,mr->r", table @ (wt * (f2d @ sin_t.T)), sum_m)
    coeffs[l * l + l + m] = np.einsum("rm,mr->r", table @ (wt * (f2d @ cos_t.T)), sum_m)
    return coeffs


@pytest.mark.parametrize("l_max", [0, 1, 8, 32, 64])
def test_analyze_matches_dense_contraction(rng, l_max):
    # canonical grids and a hand-built one with unequal node counts, on samples
    # that are not band-limited
    for grid in (build_grid(max(l_max, 1)), _make_grid(l_max + 3, 2 * l_max + 7)):
        g = GridField(grid, rng.standard_normal(grid.node_count))
        got = analyze(g, l_max).coeffs
        expect = _dense_analyze(g, l_max)
        assert np.max(np.abs(got - expect)) <= 1e-15 * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("l_max", [0, 1, 8, 32])
def test_synthesis_matches_evaluate_at(rng, l_max):
    # synthesize at the grid's abscissas, and a composition's samples at the
    # abscissas a dilation maps the meridian to
    u = random_field(rng, l_max, 0.5)
    grid = build_grid(max(l_max, 1))
    expect = evaluate_at(u, grid.nodes)
    got = synthesize(u, grid).samples
    assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))
    for _ in range(3):
        comp = _compose(u, random_conformal(rng, allow_reflect=True))
        expect = evaluate_at(comp.field, dilation(comp.lam).apply(grid.nodes))
        got = comp.samples(grid)[0]
        assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_composition_profiles_match_mpmath(grid72, rng):
    # the order-m profiles of v o dilation(lam) from the theta-Fourier weights,
    # against the 50-digit recurrence at the closed-form image (x', s') of 9 of
    # build_grid(72)'s abscissas, both ends among them.  Measured: up to
    # 1.2e-15 sum|c| (2.3e-15 on another draw), where the recurrence's own
    # table reads 2.8e-16 sum|c|: rounding level, looser than the recurrence.
    rows = np.linspace(0, grid72.theta_count - 1, 9).round().astype(int)
    for lam in (1 / 200, 1 / 50, 1.7, 6.0, 200.0):
        x, s, _ = _dilated_meridian(lam, grid72.cos_theta[rows])
        exact = _mp_legendre(64, list(zip(x, s))).transpose(1, 2, 0)  # (m, l, point)
        for L in (8, 32, 64):
            u = random_field(rng, L, 0.5)
            table = exact[: L + 1, : L + 1]
            got = _Composition(u, lam, np.eye(3)).profiles(grid72)[0][..., rows]
            assert np.max(np.abs(got - u._order_major @ table)) <= 1e-14 * np.sum(np.abs(u.coeffs))


def test_field_json_round_trip(rng):
    u = random_field(rng, 4, 0.9)
    back = field_from_json(field_to_json(u))
    assert back.l_max == u.l_max
    assert np.array_equal(back.coeffs, u.coeffs)
    # flat order is (l ascending, m ascending): c[1] is (1,-1), c[2] is (1,0)
    f = HarmonicField.from_entries(1, {(1, -1): 5.0, (1, 0): 7.0})
    coeffs = json.loads(field_to_json(f))["coeffs"]
    assert coeffs[1] == 5.0 and coeffs[2] == 7.0
    # a numpy integer band is stored as a Python int, which JSON can write
    assert json.loads(field_to_json(HarmonicField(np.int64(1), np.zeros(4))))["l_max"] == 1


def test_field_rejects_malformed_band():
    # a negative band passed the length check at (l_max + 1)^2 = 0 or 1, and a
    # float band was taken as given; the file reader's cases are in test_cli
    for l_max in (-1, -2, 1.7, "1"):
        with pytest.raises((ValueError, TypeError)):
            HarmonicField(l_max, np.zeros(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_field_rejects_nonfinite_coefficients(bad):
    # a non-finite field is refused where it is made, in the words the file
    # reader gives, and never reaches a synthesis or exp_moments
    with pytest.raises(ValueError, match="^field coefficients must be finite$"):
        HarmonicField.from_entries(2, {(0, 0): 0.1, (2, 1): bad})


def test_field_immutable(rng):
    u = random_field(rng, 3, 0.5)
    with pytest.raises((ValueError, RuntimeError)):
        u.coeffs[0] = 1.0


def test_coeff_index_layout():
    assert coeff_index(0, 0) == 0
    assert [coeff_index(1, m) for m in (-1, 0, 1)] == [1, 2, 3]
    assert coeff_index(2, -2) == 4
    with pytest.raises(ValueError):
        coeff_index(1, 2)


def test_from_entries_names_a_degree_above_the_band():
    for l_max in (0, 2):  # an entry past the band, not an index past the array
        with pytest.raises(ValueError, match=rf"\(l, m\) = \(3, 0\) at band {l_max}$"):
            HarmonicField.from_entries(l_max, {(3, 0): 1.0})


@pytest.mark.parametrize("l_max", [0, 1, 3, 8, 32, 33, 64, 65])
def test_frame_change_is_exact(l_max, rng):
    # w -> f(Q w) for orthogonal Q, a rotation and a reflected frame
    u = random_field(rng, l_max, 1.0)
    pts = rng.normal(size=(500, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    l = u.degrees()
    for reflect in (False, True):
        frame = random_conformal(rng)._cartan()[2]
        if reflect:
            frame = frame @ np.diag([1.0, -1.0, 1.0])
        moved = _rotated(u, frame)
        assert moved.l_max == l_max
        assert np.max(np.abs(evaluate_at(moved, pts) - evaluate_at(u, pts @ frame.T))) < 1e-13
        energy = np.bincount(l, u.coeffs**2)
        assert np.max(np.abs(np.bincount(l, moved.coeffs**2) - energy)) < 1e-13 * (1.0 + energy.max())


def _turn_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _turn_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _random_frame(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


def _sampled_rotation(f, frame):
    # the frame change by exact quadrature of scattered samples, the formula
    # _rotated had before its per-degree blocks: the reference here
    grid = build_grid(f.l_max)
    return analyze(GridField(grid, evaluate_at(f, grid.nodes @ frame.T)), f.l_max)


@pytest.mark.parametrize("l_max", [0, 1, 2, 3, 8, 32, 33, 64, 65])
def test_frame_change_matches_sampled_rotation(l_max, rng):
    # random rotations, pure z-turns, b = pi and b next to 0 and pi, where
    # the Euler angles a and c are ill-determined, and reflected frames; an
    # odd band fills a class of the turn blocks to their edge
    u = random_field(rng, l_max, 1.0)
    rotations = [_random_frame(rng) for _ in range(3)]
    frames = [np.eye(3), _turn_z(0.7), _turn_z(-2.9), *rotations]
    frames += [np.diag([-1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0])]
    frames += [_turn_z(0.4) @ _turn_y(b) @ _turn_z(-1.3) for b in (1e-9, math.pi - 1e-9)]
    frames += [_turn_y(1e-9), _turn_y(math.pi - 1e-9)]
    frames += [np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -1.0, 1.0])]
    frames += [q @ np.diag([1.0, 1.0, -1.0]) for q in rotations[:2]]
    frames += [rotations[2] @ np.diag([-1.0, 1.0, 1.0])]
    for frame in frames:
        moved = _rotated(u, frame)
        assert np.max(np.abs(moved.coeffs - _sampled_rotation(u, frame).coeffs)) <= 1e-13


@pytest.mark.parametrize("l_max", [1, 8, 32])
def test_frame_changes_compose(l_max, rng):
    # f o (AB) = (f o A) o B, so the coefficient maps compose in reverse
    u = random_field(rng, l_max, 1.0)
    for flip_a, flip_b in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        a = _random_frame(rng) @ np.diag([1.0, 1.0, flip_a])
        b = _random_frame(rng) @ np.diag([flip_b, 1.0, 1.0])
        twice = _rotated(_rotated(u, a), b)
        assert np.max(np.abs(twice.coeffs - _rotated(u, a @ b).coeffs)) <= 1e-13


def _class_orders(l_max):
    # the order at each place r of the classes (m >= 0 even, m > 0 odd, m < 0 even, m < 0 odd) of _turn's stacks
    r = 2 * np.arange(l_max // 2 + 1)
    return np.array([r, r + 1, -r, -r - 1])


def _block(l_max, l):
    # the turn block D of degree l, slots m = -l..l, reassembled from the four
    # blocks of the band-l_max turn: class c's rows meet class _PARTNER[l % 2][c]'s
    # columns, and every place past l, and class 2's place 0, is 0
    blocks = _turn(l_max).blocks.reshape(4, l_max + 1, l_max // 2 + 1, l_max // 2 + 1)[:, l]
    mu = _class_orders(l_max)
    held = [(np.abs(row) <= l) & ((np.arange(row.size) > 0) | (c != 2)) for c, row in enumerate(mu)]
    out = np.full((2 * l + 1, 2 * l + 1), np.nan)
    for c, p in enumerate(harmonics._PARTNER[l % 2]):
        rows, cols = mu[c][held[c]] + l, mu[p][held[p]] + l
        out[np.ix_(rows, cols)] = blocks[c][np.ix_(held[c], held[p])]
        assert not blocks[c][~held[c]].any() and not blocks[c][:, ~held[p]].any()
    zero = np.isnan(out)  # the entries that no pair of classes meets
    out[zero] = 0.0
    return out


def test_turn_blocks_cached_orthogonal_and_lean(rng):
    # one read-only set of blocks per band in a bounded cache; built with no
    # basis matrix and no padded stack, the band-32 blocks and their build
    # take a fraction of the 19 MB such a (L+1)^2 x N matrix would hold
    assert _turn.cache_info().maxsize is not None
    _turn.cache_clear()
    tracemalloc.start()
    try:
        turn = _turn(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _turn(32) is turn and not any(arr.flags.writeable for arr in turn)
    assert turn.blocks.shape == (2, 2, 33, 17, 17)
    quarter = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    y = np.array([_harmonic_slopes(w, 12)[0][0] for w in pts])
    y_turned = np.array([_harmonic_slopes(quarter @ w, 12)[0][0] for w in pts])
    for l in range(13):  # Y_l(T w) = D Y_l(w)
        part = slice(l * l, (l + 1) ** 2)
        assert np.max(np.abs(y_turned[:, part] - y[:, part] @ _block(12, l).T)) < 1e-13
    for l in range(65):
        block = _block(64, l)
        assert np.max(np.abs(block @ block.T - np.eye(2 * l + 1))) < 1e-14


@pytest.mark.parametrize("l_max", [0, 1, 2, 3, 8, 32, 33, 64, 65])
def test_turn_stack_holds_every_block(l_max):
    # the four blocks of each degree, zero past l and at the empty place,
    # reassemble bit for bit into the zero-padded stack that was built before
    # them, and into the same block in every band
    stack = _padded_turn_stack(l_max)
    for l in range(l_max + 1):
        part = slice(0, 2 * l + 1)
        assert np.array_equal(_block(l_max, l), stack[l, part, part])
        assert np.array_equal(_block(l_max, l), _block(65, l))


def test_rotations_make_no_linalg_call(monkeypatch, rng):
    # the reflection test and the Euler angles come from the frame's entries in
    # floats, and the root find's objective from the lift's closed forms: neither
    # calls numpy.linalg (the root find's one Lorentz check is not a step)
    u = random_field(rng, 8, 0.5)
    x0 = normalize(u).x0
    module = sys.modules["onofri.normalize"]
    mom = module.exp_moments(u, module._tight(module.DEFAULT_POLICY))
    frames = [random_conformal(rng)._cartan()[2] for _ in range(3)]
    frames += [frames[0] @ np.diag([1.0, -1.0, 1.0]), np.eye(3), np.diag([1.0, 1.0, -1.0])]
    expected = [_rotated(u, frame).coeffs for frame in frames]
    root = module._root_find_lambda0(x0, mom)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(module, "lorentz_lift", lambda tau: None)
    for frame, coeffs in zip(frames, expected):
        assert np.array_equal(_rotated(u, frame).coeffs, coeffs)
    assert module._root_find_lambda0(x0, mom) == root


def test_no_hot_path_calls_evaluate_at(monkeypatch, rng):
    # evaluate_at serves callers of the public API alone
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate_at called")

    monkeypatch.setattr(harmonics, "evaluate_at", forbidden)
    u = random_field(rng, 6, 0.4)
    result = normalize(u)
    assert abs(solve_lambda0(u, result.x0, method="root_find") - result.lambda0) < 1e-8
    tau = rotation(rng.normal(size=3), 0.8).compose(dilation(1.5))
    tau = ConformalMap.from_matrix(tau.compose(rotation(rng.normal(size=3), 2.0)).mat, reflect=True)
    grid = build_grid(48)
    transform(u, tau, 16, grid, tail_threshold=None)
    stability_check(u)


def test_transform_runs_no_grid_transform(monkeypatch, rng):
    # transform sums per order: no synthesis, no analysis and no azimuth
    # table, under any module's binding of them
    def forbidden(*args, **kwargs):
        raise AssertionError("grid transform called")

    for name in ("synthesize", "analyze", "_azimuth_rows"):
        for module in [m for key, m in sys.modules.items() if key.startswith("onofri")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    tau = ConformalMap.from_matrix(rotation(rng.normal(size=3), 0.8).compose(dilation(4.0)).mat, reflect=True)
    for u in (random_field(rng, 8, 0.5), random_field(rng, 32, 0.5)):
        transform(u, tau, 32, build_grid(72), tail_threshold=None)
