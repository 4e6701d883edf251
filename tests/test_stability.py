import math

import numpy as np
import pytest

from onofri import (
    ConformalMap,
    HarmonicField,
    ManifoldPoint,
    build_extremal,
    build_grid,
    center_of_mass,
    chart_params,
    conformal_mass,
    dilation,
    dirichlet_energy,
    distance_to_manifold,
    grad_distance,
    lorentz_lift,
    psi_field,
    rotation,
    stability_check,
    translation,
)
from onofri.sampling import random_conformal, random_field
from onofri.stability import _ball_of, _ball_psi, _chart_of_ball, _g


def test_manifold_point_map():
    m = ManifoldPoint(math.log(2.0), 0.5, -0.25)
    tau = m.to_map()
    # plane action z -> lambda (z + beta)
    z = 0.3 + 0.1j
    expect = 2.0 * (z + complex(0.5, -0.25))
    assert abs(tau.plane_image(z) - expect) < 1e-14


def test_chart_params_round_trip(rng):
    m = ManifoldPoint(0.4, -1.2, 0.7)
    back = chart_params(m.to_map())
    assert abs(back.log_lambda - m.log_lambda) < 1e-12
    assert abs(back.beta1 - m.beta1) < 1e-12
    assert abs(back.beta2 - m.beta2) < 1e-12
    # left rotations do not move the chart point
    rho = rotation([0.3, -0.5, np.sqrt(1 - 0.34)], 1.3)
    back2 = chart_params(rho.compose(m.to_map()))
    assert abs(back2.log_lambda - m.log_lambda) < 1e-10
    assert abs(back2.beta1 - m.beta1) < 1e-10


def test_chart_covers_psi_of_composition(rng, grid48):
    # the chart map in the coset of tau has the same Jacobian, hence the same psi
    tau = random_conformal(rng, lam_eff_cap=6.0)
    m = chart_params(tau)
    j1 = tau.jacobian(grid48.nodes)
    j2 = m.to_map().jacobian(grid48.nodes)
    assert np.max(np.abs(j1 - j2)) < 1e-10


def test_grad_distance_constant_shift(grid72):
    e = build_extremal(dilation(2.0))
    u = psi_field(e, 24, grid72).field + HarmonicField.constant(5.0)
    m = ManifoldPoint(math.log(2.0), 0.0, 0.0)
    assert grad_distance(u, m, 24) < 1e-7


def test_grad_distance_trivial():
    assert grad_distance(HarmonicField.zero(4), ManifoldPoint(0, 0, 0), 4) < 1e-20


def test_grad_distance_off_manifold(grid72):
    e = build_extremal(dilation(2.0))
    psi_energy = dirichlet_energy(psi_field(e, 24, grid72).field)
    d = grad_distance(HarmonicField.zero(4), ManifoldPoint(math.log(2.0), 0, 0), 24)
    assert abs(d - psi_energy) < 1e-9
    assert d > 0.01


def test_distance_on_manifold(grid72):
    u = psi_field(build_extremal(dilation(2.0)), 32, grid72).field
    res = distance_to_manifold(u, 32, grid72)
    assert res.distance < 1e-7
    assert abs(res.argmin.log_lambda - math.log(2.0)) < 1e-4
    assert abs(res.argmin.beta1) < 1e-4 and abs(res.argmin.beta2) < 1e-4


def test_distance_zero_field(grid48):
    res = distance_to_manifold(HarmonicField.zero(4), 4, grid48)
    assert res.distance < 1e-12


def test_distance_perturbation_bound(grid72):
    # adding a pure degree-3 mode of energy 12 * eps^2 moves the field that
    # far at most; the optimizer must do at least as well as staying put
    eps = 0.05
    u = psi_field(build_extremal(dilation(2.0)), 24, grid72).field
    pert = HarmonicField.from_entries(3, {(3, 3): eps})
    bumped = u + pert
    pert_energy = dirichlet_energy(pert)
    assert abs(pert_energy - 12 * eps**2) < 1e-15
    res = distance_to_manifold(bumped, 24, grid72)
    assert res.distance <= pert_energy * 1.000001
    assert res.distance >= pert_energy * 0.95


def test_distance_chart_completeness(rng, grid72):
    # the (lambda, beta) family reaches psi of arbitrary bounded compositions
    for _ in range(3):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        u = psi_field(build_extremal(tau), 32, grid72).field
        res = distance_to_manifold(u, 32, grid72)
        assert res.distance < 1e-6
        target = chart_params(tau)
        assert abs(res.argmin.log_lambda - target.log_lambda) < 1e-3


def test_stability_zero_field():
    rep = stability_check(HarmonicField.zero(4))
    assert abs(rep.deficit) < 1e-12
    assert rep.distance < 1e-10
    assert abs(rep.slack) < 1e-10


def test_stability_on_manifold(grid72):
    u = psi_field(build_extremal(dilation(2.0)), 32, grid72).field
    rep = stability_check(u, 32, grid72)
    assert rep.deficit <= 1e-8
    assert rep.distance <= 1e-7
    assert abs(rep.slack) <= 1e-7


def test_stability_random_sweep(rng):
    for k in range(4):
        u = random_field(rng, 6, 0.4)
        rep = stability_check(u, seed=k)
        assert rep.deficit >= -1e-9
        assert rep.distance >= 0.0
        assert rep.slack >= -1e-8
        assert rep.trace["converged"]


def test_warm_start_dominance(rng):
    u = random_field(rng, 6, 0.4)
    rep = stability_check(u)
    warm = next(s for s in rep.trace["distance"]["starts"] if s["kind"] == "recentering")
    assert warm["start_value"] <= 6.0 * rep.deficit + 1e-9


def test_stability_report_json(rng):
    import json

    rep = stability_check(random_field(rng, 4, 0.3))
    d = json.loads(rep.to_json())
    assert set(d) == {"deficit", "distance", "slack", "argmin", "trace"}
    assert set(d["argmin"]) == {"log_lambda", "beta1", "beta2"}


def test_stability_far_out_extremal(grid72):
    # |a| = 0.995 lies outside the former (log lambda, beta) search box, where
    # the certificate used to fail with slack -9.25e-3 on an exact extremal
    u = psi_field(build_extremal(dilation(20.0)), 32, grid72, tail_threshold=None).field
    rep = stability_check(u, 32, grid72)
    assert rep.slack >= 0.0
    assert rep.trace["converged"]
    # the grid-72 projection of psi aliases its tail, which moves the argmin
    assert abs(rep.argmin.log_lambda - math.log(20.0)) < 1e-4


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.995, 0.9999])
def test_g_matches_legendre_q(r):
    mpmath = pytest.importorskip("mpmath")
    g = _g(40, math.atanh(r))
    with mpmath.workdps(40):
        z = 1 / mpmath.mpf(r)
        for l in range(1, 41):
            q_up = mpmath.re(mpmath.legenq(l + 1, 0, z, type=3))
            q_down = mpmath.re(mpmath.legenq(l - 1, 0, z, type=3))
            expect = float(-1.5 * (q_up - q_down) / (2 * l + 1))
            assert g[l] == pytest.approx(expect, rel=1e-12)
    assert g[0] == 0.0


def test_g_limit_at_the_sphere():
    from scipy.integrate import quad
    from scipy.special import eval_legendre

    limit = _g(40, math.inf)
    for l in range(1, 41):
        # g_l(1) = -(3/4) * integral of ln(1 - t) P_l(t) over [-1, 1]
        integral, _ = quad(
            lambda t: eval_legendre(l, t), -1, 1, weight="alg-logb", wvar=(0, 0), limit=200
        )
        assert limit[l] == pytest.approx(-0.75 * integral, rel=1e-10)
    # g_l increases to the limit as |a| -> 1, at rate (1 - |a|) ln(1 - |a|)
    near = _g(40, 8.0)
    assert np.all(near[1:] < limit[1:])
    assert np.max(np.abs(near[1:] - limit[1:])) < 1e-5


def test_closed_form_psi_coefficients(rng):
    grid = build_grid(300)
    for _ in range(3):
        b = rng.normal(size=3)
        b *= rng.uniform(0.2, 2.0) / np.linalg.norm(b)
        e = build_extremal(_chart_of_ball(b).to_map())
        quad = psi_field(e, 32, grid, tail_threshold=None).field.coeffs.copy()
        quad[0] = 0.0
        assert np.max(np.abs(quad - _ball_psi(b, 32))) < 1e-12


def _com_of_ball(b):
    t = np.linalg.norm(b)
    return np.tanh(t) * b / t if t > 0 else np.zeros(3)


def test_ball_chart_round_trip():
    for radius in (0.0, 0.3, 0.9, 0.99, 0.999):
        a = radius * np.array([0.48, -0.6, 0.64])
        m = _chart_of_ball(np.arctanh(radius) * a / max(radius, 1e-300))
        assert np.max(np.abs(build_extremal(m.to_map()).com - a)) < 1e-9
        assert np.max(np.abs(_com_of_ball(_ball_of(m)) - a)) < 1e-12
    # a reflected map goes through chart_params to its own center of mass
    tau = dilation(3.0).compose(translation(0.4 - 0.7j))
    tau = ConformalMap(tau.mobius, reflect=True)
    com = center_of_mass(tau)
    b = _ball_of(chart_params(tau))
    assert np.linalg.norm(com) > 0.5
    assert np.max(np.abs(_com_of_ball(b) - com)) < 1e-10
    assert abs(math.cosh(np.linalg.norm(b)) - conformal_mass(tau)) < 1e-10


def test_ball_of_matches_lorentz_row(rng):
    # oracle: the first row of the Lorentz lift is (M, -M a), M = cosh atanh|a|
    for _ in range(500):
        m = ManifoldPoint(rng.uniform(-8.0, 8.0), *rng.normal(scale=2.0, size=2))
        v = -lorentz_lift(m.to_map().mobius)[0, 1:]
        s = float(np.linalg.norm(v))
        expect = v * (math.asinh(s) / s)
        assert np.linalg.norm(_ball_of(m) - expect) <= 1e-14 * np.linalg.norm(expect)
