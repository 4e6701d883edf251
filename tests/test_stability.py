import json
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
    chang_gui_report,
    conformal_mass,
    dilation,
    dirichlet_energy,
    distance_to_manifold,
    grad_distance,
    identity_map,
    integrate,
    lorentz_lift,
    normalize,
    psi_field,
    psi_values,
    rotation,
    stability_check,
    transform,
    translation,
)
from onofri import stability
from onofri.extremals import _psi_energy
from onofri.harmonics import _by_order, _grid_table, _harmonic_slopes, _layout, _synthesis, coeff_index, project_samples, synthesize
from onofri.sampling import random_conformal, random_field, random_rotation
from onofri.sphere import ConvergenceError, SphericalGrid
from onofri.stability import (
    _SCAN_T,
    _ball_of,
    _band_coeffs,
    _best_first,
    _chart_of_ball,
    _degree_one_point,
    _degree_one_start,
    _degree_weights,
    _distance,
    _g,
    _polish,
    _scan_weights,
)
from onofri.extremals import _ball_point


def _whole_distance(u, l_max, b):
    return _distance(_band_coeffs(u, l_max), np.asarray(b, dtype=float), l_max)[1]


def _nelder_mead(u, l_max, b0):
    # an independent polish of the same objective, from its own start
    from scipy.optimize import minimize

    res = minimize(
        lambda b: _whole_distance(u, l_max, b),
        b0,
        method="Nelder-Mead",
        options={
            "xatol": 1e-10,
            "fatol": 1e-15 * (1.0 + _whole_distance(u, l_max, b0)),
            "maxiter": 4000,
            "initial_simplex": np.vstack([b0, b0 + 0.05 * np.eye(3)]),
        },
    )
    return float(res.fun)


def test_manifold_point_map():
    m = ManifoldPoint(math.log(2.0), 0.5, -0.25)
    tau = m.to_map()
    # plane action z -> lambda (z + beta)
    z = 0.3 + 0.1j
    expect = 2.0 * (z + complex(0.5, -0.25))
    a, b, c, d = tau.mat.ravel()
    assert c == 0 and not tau.reflect and abs((a * z + b) / d - expect) < 1e-14


def test_chart_covers_psi_of_composition(rng, grid48):
    # the chart map in the coset of tau has the same Jacobian, hence the same psi
    tau = random_conformal(rng, lam_eff_cap=6.0)
    m = ManifoldPoint(*_chart_by_qr(tau))
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
        assert abs(res.argmin.log_lambda - _chart_by_qr(tau)[0]) < 1e-3


def _stalling_maps():
    # two extremals whose distance search used to stall: a map at dilation 6
    # between random rotations (59 evaluations), and the second of a run of
    # random maps (44 evaluations)
    rng = np.random.default_rng(3)
    at_cap = random_rotation(rng).compose(dilation(6.0)).compose(random_rotation(rng))
    rng = np.random.default_rng(8)
    random_rotation(rng), random_rotation(rng)
    random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
    return [at_cap, random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)]


@pytest.mark.parametrize("k", [0, 1])
def test_polish_ends_at_a_minimum_of_rounding_size(grid72, k):
    # d is of rounding size at these minima, and the line search used to
    # reject points there for a rise of d by rounding alone, again and again;
    # the polish now ends at the first point that passes its gradient tests
    u = psi_field(build_extremal(_stalling_maps()[k]), 32, grid72).field
    res = distance_to_manifold(u, 32, grid72)
    assert res.converged
    assert res.distance < 1e-8
    assert res.nfev <= 12


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
    # the paper's candidate: the extremal whose map undoes the re-centering
    # bounds the distance from above, and by 6 times the deficit
    for _ in range(10):
        u = random_field(rng, 6, 0.4)
        rep = stability_check(u)
        result = normalize(u)
        warm = ManifoldPoint(-math.log(result.lambda0), -result.x0.real, -result.x0.imag)
        d_warm = grad_distance(u, warm, 6)
        assert rep.distance <= d_warm <= 6.0 * rep.deficit + 1e-9


def test_stability_report_json(rng):
    rep = stability_check(random_field(rng, 4, 0.3))
    d = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert set(d) == {"deficit", "distance", "slack", "argmin", "trace"}
    assert set(d["argmin"]) == {"log_lambda", "beta1", "beta2"}
    assert set(d["trace"]) == {"converged", "functional_grid", "distance"}
    assert set(d["trace"]["distance"]) == {
        "distance", "argmin", "converged", "nfev", "start_value", "band_distance", "scanned",
        "min_curvature", "start",
    }
    assert 0 <= d["trace"]["distance"]["scanned"] <= _SCAN_T.size
    assert d["trace"]["distance"]["start"] in {"degree-1", "scan", "origin"}


@pytest.mark.parametrize("slack, converged, raises", [(-1e-6, True, True), (-1e-9, True, False), (-1e-6, False, False)])
def test_a_converged_violation_of_the_certificate_raises(monkeypatch, grid48, slack, converged, raises):
    # slack = deficit - distance / 6 below -1e-8 on a converged search contradicts
    # the bound and raises; a slack within it, or an unconverged search, reports
    monkeypatch.delenv("ONOFRI_TOL_SCALE", raising=False)
    u = random_field(np.random.default_rng(3), 4, 0.3)
    deficit = chang_gui_report(2.0 / 3.0, u).value
    found = stability.DistanceResult(
        6.0 * (deficit - slack), ManifoldPoint(0.0, 0.0, 0.0), converged, 1, 0.0, 0.0, 0, 0.0, "origin"
    )
    monkeypatch.setattr(stability, "distance_to_manifold", lambda u, l_max, grid: found)
    if raises:
        with pytest.raises(ConvergenceError, match="^stability certificate violated on a converged run"):
            stability_check(u, grid=grid48)
    else:
        assert stability_check(u, grid=grid48).slack == pytest.approx(slack, rel=1e-6)


def test_stability_far_out_extremal(grid72):
    # |a| = 0.995 lies outside the former (log lambda, beta) search box, where
    # the certificate used to fail with slack -9.25e-3 on an exact extremal
    u = psi_field(build_extremal(dilation(20.0)), 32, grid72, tail_threshold=None).field
    rep = stability_check(u, 32, grid72)
    assert rep.slack >= 0.0
    assert rep.trace["converged"]
    # psi's energy beyond band 32 stays in d, and its slope moves the argmin
    # off ln 20; it must score no worse than the extremal's own point
    start = _ball_of(ManifoldPoint(*_chart_by_qr(dilation(20.0))))
    assert rep.distance <= _whole_distance(u, 32, start)
    assert rep.distance == pytest.approx(_nelder_mead(u, 32, start), rel=1e-10)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.995, 0.9999])
def test_g_matches_legendre_q(r):
    mpmath = pytest.importorskip("mpmath")
    g, dg, d2g = _g(40, math.atanh(r))

    def g_of(l, t):  # t = atanh r, so 1/r = coth t
        z = mpmath.coth(t)
        q_up = mpmath.re(mpmath.legenq(l + 1, 0, z, type=3))
        q_down = mpmath.re(mpmath.legenq(l - 1, 0, z, type=3))
        return -1.5 * (q_up - q_down) / (2 * l + 1)

    def dg_of(l, t):
        z = mpmath.coth(t)
        return 1.5 * (z * z - 1) * mpmath.re(mpmath.legenq(l, 0, z, type=3))

    with mpmath.workdps(40):
        t = mpmath.atanh(mpmath.mpf(r))
        for l in range(1, 41):
            assert g[l] == pytest.approx(float(g_of(l, t)), rel=1e-12)
        for l in (1, 2, 3, 8, 20, 40):
            assert dg[l] == pytest.approx(float(mpmath.diff(lambda s: g_of(l, s), t)), rel=1e-10)
            # g'' as the derivative of g' = (3/2)(z^2 - 1) Q_l(z), which the line above checks
            assert d2g[l] == pytest.approx(float(mpmath.diff(lambda s: dg_of(l, s), t)), rel=1e-10)
    assert g[0] == 0.0 and dg[0] == 0.0 and d2g[0] == 0.0


@pytest.mark.parametrize("l_max", [6, 32, 64])
def test_g1_within_rounding(l_max):
    # g_1 = -(Q_2 - Q_0)/2: the closed form from t = 1 on, the ratios below it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (0.05, 0.3, 1.0, 2.0, math.log(20.0), math.log(50.0), 5.0):
            z = mpmath.coth(mpmath.mpf(t))
            q2, q0 = (mpmath.re(mpmath.legenq(n, 0, z, type=3)) for n in (2, 0))
            expect = float(-0.5 * (q2 - q0))
            assert abs(_g(l_max, t)[0][1] - expect) <= 1e-15 * abs(expect)


def test_g1_is_a_sixth_of_the_energy_slope():
    # g_1 = (3/4)(coth t - t csch^2 t) = E_psi'/6, the identity the degree-1 start inverts; _g's
    # ratio path errs by up to 1.5e-14 below t = 1
    for l_max in (1, 6, 32, 64):
        for t in (0.05, 0.3, 1.0, 2.0, math.log(20.0), math.log(50.0), 5.0):
            slope = _psi_energy(t)[1]
            assert abs(_g(l_max, t)[0][1] - slope / 6.0) <= 1e-13 * slope / 6.0


def test_degree_one_point_recovers_the_ball_point():
    # b from the degree-1 part of psi's projection at every band, and psi there carries at least
    # the projection's energy; isometries have b = 0, t = 0's own point, which is no candidate
    rng = np.random.default_rng(4242)
    taus = [random_conformal(rng, lam_eff_cap=50.0, allow_reflect=True) for _ in range(20)]
    assert any(tau.reflect for tau in taus)
    for tau in taus:
        b = _ball_point(tau)
        for l_max in (1, 2, 8, 32, 64):
            c = _band_coeffs(psi_field(build_extremal(tau), l_max, tail_threshold=None).field, l_max)
            point = _degree_one_point(c)
            assert np.linalg.norm(point - b) <= 1e-12 * (1.0 + np.linalg.norm(b))
            start = _degree_one_start(c, float(_degree_weights(l_max)[2] @ (c * c)), l_max)
            if b.any():
                assert np.array_equal(start, point)
            else:
                assert start is None and not point.any()


def test_degree_one_point_needs_a_slope_below_its_limit():
    # E_psi' < 9/2: a degree-1 part of norm 9 / (4 sqrt 3) or more is no extremal's
    edge = 4.5 / (2.0 * math.sqrt(3.0))
    assert _degree_one_point(np.array([0.0, 0.0, edge, 0.0])) is None
    assert np.linalg.norm(_degree_one_point(np.array([0.0, 0.0, 0.999 * edge, 0.0]))) > 3.0
    assert _degree_one_start(np.zeros(1), 0.0, 0) is None


def test_classification_maps_take_one_evaluation():
    # the maps of the classification check (seed 111): the degree-1 point ends every polish at
    # its first evaluation, and the scan synthesizes nothing
    rng = np.random.default_rng(111)
    grid = build_grid(72)
    for _ in range(10):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        res = distance_to_manifold(psi_field(build_extremal(tau), 32).field, 32, grid)
        assert res.converged and res.nfev == 1 and res.scanned == 0
        assert res.start == ("degree-1" if _ball_point(tau).any() else "origin")


def _comparison_fields(rng):
    # random fields of bands 2-32 and amplitudes 0.05-3, psi of random maps, and psi plus noise
    for k in range(60):
        l_max = int(rng.choice([2, 4, 6, 8, 16, 32]))
        if k % 3 == 0:
            yield l_max, random_field(rng, l_max, float(np.exp(rng.uniform(math.log(0.05), math.log(3.0)))))
            continue
        tau = random_conformal(rng, lam_eff_cap=20.0, allow_reflect=True)
        u = psi_field(build_extremal(tau), l_max, tail_threshold=None).field
        yield l_max, u + random_field(rng, l_max, 1e-2) if k % 3 == 2 else u


def test_degree_one_start_is_never_worse_than_the_scan_alone(monkeypatch):
    # the search with the degree-1 point turned off; where the polish starts elsewhere, a node
    # below the candidate's value is the node the scan alone finds, and the polish is the same
    rng = np.random.default_rng(4343)
    fields = [(l_max, u, build_grid(max(4 * l_max, 48))) for l_max, u in _comparison_fields(rng)]
    results = [distance_to_manifold(u, l_max, grid) for l_max, u, grid in fields]
    monkeypatch.setattr(stability, "_degree_one_start", lambda c, energy, l_max: None)
    for (l_max, u, grid), res in zip(fields, results):
        alone = distance_to_manifold(u, l_max, grid)
        assert res.distance <= alone.distance + 1e-12 * max(1.0, alone.distance)
        assert res.converged == alone.converged
        assert res.scanned <= alone.scanned
        if res.start != "degree-1":
            assert res.distance == alone.distance and res.start == alone.start
    assert {res.start for res in results} == {"degree-1", "scan", "origin"}


def test_a_replaced_degree_one_point_counts_in_nfev(monkeypatch, grid48):
    # these pass the energy test, but a scanned node beats their degree-1 points: the search is
    # the scan's alone, and nfev counts the candidate's evaluation too
    fields = [
        psi_field(build_extremal(dilation(20.0)), 2, tail_threshold=None).field,
        HarmonicField.from_entries(1, {(1, 0): 0.5}),
    ]
    results = [distance_to_manifold(u, u.l_max, grid48) for u in fields]
    monkeypatch.setattr(stability, "_degree_one_start", lambda c, energy, l_max: None)
    for u, res in zip(fields, results):
        alone = distance_to_manifold(u, u.l_max, grid48)
        assert res.start == alone.start == "scan"
        assert res.distance == alone.distance and res.nfev == alone.nfev + 1
        assert res.scanned <= alone.scanned


@pytest.mark.parametrize(
    "t", [1e-6, 1e-4, 0.999e-3, 1e-3, 1.001e-3, 2e-3, 1e-2, 0.1, 0.3, 0.4999999, 0.5, 0.5000001, 1.0, 3.0,
          10.0, 20.0],
)
def test_psi_energy_within_rounding(t):
    # (9/2)(t coth t - 1) and its two t-derivatives: the series below t = 0.5, the closed forms
    # from there on, which cancel to 2e-10 at t = 1e-3 and 1e-14 at t = 0.3
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpf(t)
        energy = 4.5 * (s * mpmath.coth(s) - 1)
        expect = energy, 4.5 * (mpmath.coth(s) - s * mpmath.csch(s) ** 2), 2 * mpmath.csch(s) ** 2 * energy
        for got, want in zip(_psi_energy(t), expect):
            assert abs(got - float(want)) <= 1e-14 * abs(float(want))


def test_g_limit_at_the_sphere():
    from scipy.integrate import quad
    from scipy.special import eval_legendre

    l = np.arange(1, 41)
    limit = 1.5 / (l * (l + 1.0))  # g_l at |a| = 1
    for k in l:
        # g_l(1) = -(3/4) * integral of ln(1 - t) P_l(t) over [-1, 1]
        integral, _ = quad(
            lambda t: eval_legendre(k, t), -1, 1, weight="alg-logb", wvar=(0, 0), limit=200
        )
        assert limit[k - 1] == pytest.approx(-0.75 * integral, rel=1e-10)
    # g_l increases to the limit as |a| -> 1, at rate (1 - |a|) ln(1 - |a|)
    near = _g(40, 8.0)[0]
    assert np.all(near[1:] < limit)
    assert np.max(np.abs(near[1:] - limit)) < 1e-5
    # far past the reach of the backward recurrence (about 10 e^t steps), the
    # forward one takes over at the same cost
    assert _g(40, 30.0)[0][1:] == pytest.approx(limit, rel=1e-11)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("l_max", [0, 1, 2, 6, 32, 64])
def test_g_on_an_array_is_the_calls_at_each_t(l_max):
    # each row of g, g' and g'' is bit for bit the scalar call: t on both sides of the switch
    # xi (l_max + 2) = 1 between the forward and the backward recurrence, of t = 1, where g_1
    # takes its closed form, and at 1e-3 and 30
    switch = math.atanh(1.0 / math.cosh(1.0 / (l_max + 2)))
    t = np.array([1e-3, 0.1, switch * (1.0 - 1e-6), switch * (1.0 + 1e-6), 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.5, 30.0])
    rows = _g(l_max, t)
    assert all(row.shape == (t.size, l_max + 1) for row in rows)
    for k, x in enumerate(t):
        for row, one in zip(rows, _g(l_max, float(x))):
            assert one.shape == (l_max + 1,) and _same_bits(row[k], one)
    assert _same_bits(_g(l_max, t[:1])[0], _g(l_max, 1e-3)[0][None])


def test_closed_form_psi_coefficients(rng):
    # psi_field's closed form against the quadrature of psi's samples, the mean included; the
    # reference tail is the quadrature's band energy against that of |grad psi|^2, which is
    # (9/4)(|a|^2 - (a.w)^2)/(1 - a.w)^2 as psi = -(3/2) ln(1 - a.w) + const
    grid = build_grid(300)
    reflected = ConformalMap.from_matrix(translation(0.4 - 0.3j).compose(dilation(1.7)).mat, reflect=True)
    # at dilation(50) psi's coefficients fall only like exp(-0.04 l), and the reference
    # aliases at 1.3e-13; the closed form is within 2e-14 of mpmath there
    cases = [(identity_map(), 1e-14), (reflected, 1e-14), (dilation(50.0), 3e-13)]
    for _ in range(3):
        b = rng.normal(size=3)
        b *= rng.uniform(1.5, 2.5) / np.linalg.norm(b)
        cases.append((_chart_of_ball(b).to_map(), 1e-14))
    for tau, tol in cases:
        e = build_extremal(tau)
        proj = psi_field(e, 32, tail_threshold=None)
        quad = project_samples(psi_values(e, grid.nodes), grid, 32).field
        assert np.max(np.abs(proj.field.coeffs - quad.coeffs)) < tol
        aw = grid.nodes @ e.com
        energy = integrate(grid, 2.25 * (e.com @ e.com - aw * aw) / (1.0 - aw) ** 2)
        tail = 1.0 - dirichlet_energy(quad) / energy if energy > 0.0 else 0.0
        if max(tail, proj.tail_fraction) > 1e-12:
            assert proj.tail_fraction == pytest.approx(tail, rel=1e-2)
        else:
            assert abs(tail) <= 1e-12 and proj.tail_fraction <= 1e-12


def _com_of_ball(b):
    t = np.linalg.norm(b)
    return np.tanh(t) * b / t if t > 0 else np.zeros(3)


def test_ball_chart_round_trip():
    for radius in (0.0, 0.3, 0.9, 0.99, 0.999):
        a = radius * np.array([0.48, -0.6, 0.64])
        m = _chart_of_ball(np.arctanh(radius) * a / max(radius, 1e-300))
        assert np.max(np.abs(build_extremal(m.to_map()).com - a)) < 1e-9
        assert np.max(np.abs(_com_of_ball(_ball_of(m)) - a)) < 1e-12
    # a reflected map goes through its chart point to its own center of mass
    tau = dilation(3.0).compose(translation(0.4 - 0.7j))
    tau = ConformalMap.from_matrix(tau.mat, reflect=True)
    com = center_of_mass(tau)
    b = _ball_of(ManifoldPoint(*_chart_by_qr(tau)))
    assert np.linalg.norm(com) > 0.5
    assert np.max(np.abs(_com_of_ball(b) - com)) < 1e-10
    assert abs(math.cosh(np.linalg.norm(b)) - conformal_mass(tau)) < 1e-10


def _chart_by_qr(tau):
    # the reference: the QR of the (conjugated) matrix, upper factor with positive diagonal
    m = np.conj(tau.mat) if tau.reflect else tau.mat
    _, r = np.linalg.qr(m)
    d = np.diag(r)
    r = (np.conj(d / np.abs(d))[:, None]) * r
    beta = complex(r[0, 1] / r[0, 0])
    return np.array([math.log(float(r[0, 0].real) ** 2), beta.real, beta.imag])


def _chart_of_ball_by_qr(b):
    # the reference: a rotation turning b/|b| to the north pole, then dilation(e^-|b|)
    axis = np.cross(b, [0.0, 0.0, 1.0])
    s = float(np.linalg.norm(axis))
    turn = rotation(axis / s if s > 0.0 else [1.0, 0.0, 0.0], math.atan2(s, b[2]))
    return _chart_by_qr(dilation(math.exp(-np.linalg.norm(b))).compose(turn))


def _chart_array(m):
    return np.array([m.log_lambda, m.beta1, m.beta2])


def test_chart_of_ball_matches_rotation_dilation_qr(rng):
    points = rng.normal(size=(300, 3))
    points *= (rng.uniform(0.0, 6.0, size=300) / np.linalg.norm(points, axis=1))[:, None]
    edges = [np.zeros(3)] + [
        np.array(b, dtype=float)
        for t in (10.0, 20.0, 30.0)
        for b in ((0.0, 0.0, t), (0.0, 0.0, -t), (1e-9, 0.0, t), (1e-9, 0.0, -t))
    ]
    for b in list(points) + edges:
        ref = _chart_of_ball_by_qr(b)
        got = _chart_array(_chart_of_ball(b))
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    mpmath = pytest.importorskip("mpmath")
    # where b/|b| is near e3, lambda = e^-t (1 + b3/t)/2 + e^t rho^2/(2 t (t + b3)) keeps
    # the e^t term that cosh t - sinh t b3/t would cancel away; near -e3 the QR reference
    # itself is off by 1e-6 relative in beta, within the absolute gate above
    for t in (10.0, 20.0, 30.0, -10.0, -20.0, -30.0):
        with mpmath.workdps(40):
            rho, z = mpmath.mpf("1e-9"), mpmath.mpf(t)
            r = mpmath.sqrt(rho**2 + z**2)
            lam = mpmath.cosh(r) - mpmath.sinh(r) * z / r
            expect = [float(mpmath.log(lam)), float(-mpmath.sinh(r) / r * rho / lam)]
        got = _chart_of_ball(np.array([1e-9, 0.0, t]))
        assert abs(got.log_lambda - expect[0]) <= 1e-14 * abs(expect[0])
        assert abs(got.beta1 - expect[1]) <= 1e-14 * abs(expect[1])


def test_ball_of_matches_lorentz_row(rng):
    # oracle: the first row of the Lorentz lift is (M, -M a), M = cosh atanh|a|
    for _ in range(500):
        m = ManifoldPoint(rng.uniform(-8.0, 8.0), *rng.normal(scale=2.0, size=2))
        v = -lorentz_lift(m.to_map())[0, 1:]
        s = float(np.linalg.norm(v))
        expect = v * (math.asinh(s) / s)
        assert np.linalg.norm(_ball_of(m) - expect) <= 1e-14 * np.linalg.norm(expect)


# values of the whole distance d at an interior minimum; a search confined to
# u's band used to end at |a| = 1 on each of them and report converged: false
_ENVELOPE = [
    ("2.5 Y20", HarmonicField.from_entries(2, {(2, 0): 2.5}), 29.552491487851597, 29.552491),
    ("3 Y20", HarmonicField.from_entries(2, {(2, 0): 3.0}), 43.2604360103665, 43.260436),
    ("5 Y20", HarmonicField.from_entries(2, {(2, 0): 5.0}), 127.37520946551165, 127.375209),
    ("-3 Y20", HarmonicField.from_entries(2, {(2, 0): -3.0}), 51.13282802462821, 51.132828),
    ("random, seed 3", random_field(np.random.default_rng(3), 6, 2.0), 25.070835394386638, 25.0708),
]


@pytest.mark.parametrize(
    "u, pinned, rounded", [c[1:] for c in _ENVELOPE], ids=[c[0] for c in _ENVELOPE]
)
def test_envelope_cases_converge(u, pinned, rounded):
    rep = stability_check(u)
    dist = rep.trace["distance"]
    assert rep.trace["converged"] and dist["converged"]
    b = _ball_of(rep.argmin)
    assert 0.5 < np.linalg.norm(b) < 4.0  # interior: well inside the ball |a| < 1
    assert rep.distance == pytest.approx(pinned, rel=1e-9)
    assert rep.distance == pytest.approx(rounded, abs=10.0 ** -len(repr(rounded).split(".")[1]))
    assert rep.distance >= dist["band_distance"]
    assert rep.distance == pytest.approx(_nelder_mead(u, u.l_max, np.zeros(3) + 0.3), rel=1e-12)
    assert dist["nfev"] <= 40


def _central_gradient(c, b, l_max, h=1e-3):
    # fourth-order central differences of d
    out = np.empty(3)
    for k, e in enumerate(np.eye(3)):
        f = [_distance(c, b + s * h * e, l_max)[1] for s in (-2, -1, 1, 2)]
        out[k] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    return out


@pytest.mark.parametrize("l_max", [6, 32])
def test_distance_gradient_matches_differences(rng, l_max):
    c = _band_coeffs(random_field(rng, l_max, 1.0), l_max)
    points = [np.zeros(3), np.array([0.0, 0.0, 1.7]), np.array([0.0, 0.0, -0.4])]
    for _ in range(6):
        b = rng.normal(size=3)
        points.append(rng.uniform(0.05, 4.0) * b / np.linalg.norm(b))
    for b in points:
        _, d, grad, _ = _distance(c, b, l_max)
        expect = _central_gradient(c, b, l_max)
        assert np.max(np.abs(grad - expect)) <= 1e-9 * (1.0 + d)


def _hessian_by_differences(c, b, l_max, h):
    # fourth-order central differences of the exact gradient, column by column
    out = np.empty((3, 3))
    for k, e in enumerate(np.eye(3)):
        g = [_distance(c, b + s * h * e, l_max)[2] for s in (-2, -1, 1, 2)]
        out[:, k] = (g[0] - 8.0 * g[1] + 8.0 * g[2] - g[3]) / (12.0 * h)
    return out


@pytest.mark.parametrize("l_max", [1, 6, 32])
def test_distance_hessian_matches_differences(l_max):
    rng = np.random.default_rng(370 + l_max)
    c = _band_coeffs(random_field(rng, l_max, 1.0), l_max)
    # b = 0 (the closed form), t log-uniform in [1e-3, 8] and both ends, and
    # points at the poles and within 1e-9 of them, where sin(theta) rounds away
    radii = [1e-3, 8.0, *np.exp(rng.uniform(math.log(1e-3), math.log(8.0), 8))]
    directions = [rng.normal(size=3) for _ in radii]
    radii += [0.3, 1.7, 0.02, 5.0]
    directions += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                   np.array([1e-9, -2e-9, 1.0]), np.array([-3e-10, 1e-9, -1.0])]
    points = [np.zeros(3)] + [t * v / np.linalg.norm(v) for t, v in zip(radii, directions)]
    for b in points:
        _, d, grad, hess = _distance(c, b, l_max)
        expect = _hessian_by_differences(c, b, l_max, 1e-4 * max(1.0, np.linalg.norm(b)))
        assert np.max(np.abs(hess - expect)) <= 1e-6 * np.max(np.abs(expect))
        assert np.max(np.abs(hess - hess.T)) <= 1e-14 * np.max(np.abs(hess))


def _envelope_sweep():
    # fields of bands 1-32 and amplitudes 0.05-5, eight a cell, drawn in this order
    rng = np.random.default_rng(5)
    return {
        (amp, band, k): random_field(rng, band, amp)
        for amp in (0.05, 0.4, 1, 2, 3, 5) for band in (1, 2, 3, 6, 8, 16, 32) for k in range(8)
    }


def test_polish_halves_a_step(monkeypatch):
    # the full Newton step fails Armijo's test on this field, and half of it is taken
    u = _envelope_sweep()[2, 16, 1]
    points, steps = [], []
    distance, newton_step = stability._distance, stability._newton_step

    def record_distance(c, b, l_max):
        points.append(b)
        return distance(c, b, l_max)

    def record_step(hess, grad):
        steps.append((points[-1], newton_step(hess, grad)))  # from the last point evaluated
        return steps[-1][1]

    monkeypatch.setattr(stability, "_distance", record_distance)
    monkeypatch.setattr(stability, "_newton_step", record_step)
    res = distance_to_manifold(u, 16, build_grid(64))
    (start, step), (taken, _) = steps[:2]
    assert any(np.array_equal(p, start + step) for p in points)  # tried, and not taken
    assert np.array_equal(taken, start + 0.5 * step)
    assert res.converged and res.nfev == 6
    assert res.distance == pytest.approx(98.03789756034759, rel=1e-12)


@pytest.mark.parametrize("gradient, nfev, end", [
    (lambda b: 100.0 * b, 2, 0.0),  # the gradient shrinks: the step is taken, and the polish ends there
    (lambda b: np.array([3e-7, 0.0, 0.0]), 2, 3e-9),  # it does not: the polish ends where it was
    (lambda b: np.full(3, np.nan), 2, 3e-9),  # a NaN slope ends it too
])
def test_polish_where_d_cannot_judge_the_step(monkeypatch, gradient, nfev, end):
    # d = 1 + 50 |b|^2 from b = 3e-9 e1: the gradient, 3e-7, fails the end test, and the Newton
    # decrease, 9e-16, is below d's rounding
    def distance(c, b, l_max):
        return 0.0, 1.0 + 50.0 * float(b @ b), gradient(b), 100.0 * np.eye(3)

    monkeypatch.setattr(stability, "_distance", distance)
    start = np.array([3e-9, 0.0, 0.0])
    b, _, calls = stability._polish(None, start, distance(None, start, 0), 0)
    assert calls == nfev and np.array_equal(b, [end, 0.0, 0.0])


def test_polish_over_the_envelope():
    # one field a cell of bands 1-32 and amplitudes 0.05-5
    grid = build_grid(64)
    for (amp, band, k), u in _envelope_sweep().items():
        if k == 1:
            res = distance_to_manifold(u, band, grid)
            assert res.converged and res.nfev <= 6, (amp, band)


def test_polish_takes_few_evaluations():
    # Newton on d's exact Hessian from the scan's point: about 3 evaluations
    # a field, where the BFGS polish took about 9
    rng = np.random.default_rng(3707)
    grid = build_grid(48)
    nfev = [distance_to_manifold(random_field(rng, 6, 0.4), 6, grid).nfev for _ in range(50)]
    assert np.mean(nfev) <= 4.0
    assert max(nfev) <= 6


def test_a_saddle_is_not_a_minimum(monkeypatch, grid48):
    # for u = 2.5 Y20, b = 0 is a stationary point of d with negative curvature
    # along z: a polish started there ends at once on the gradient test, and
    # only the curvature tells that it has not converged
    u = HarmonicField.from_entries(2, {(2, 0): 2.5})
    monkeypatch.setattr(stability, "_best_first", lambda target, l_max, grid: (np.zeros(3), 0))
    res = distance_to_manifold(u, 2, grid48)
    assert res.nfev == 1
    # 3 I less (12/5) times u_2's quadratic form, whose z z entry is sqrt(5) a
    assert res.min_curvature == pytest.approx(3.0 - 2.4 * math.sqrt(5.0) * 2.5, rel=1e-14)
    assert not res.converged
    monkeypatch.undo()
    found = distance_to_manifold(u, 2, grid48)
    assert found.converged and found.min_curvature > 0.0
    assert found.distance < res.distance - 1.0


def _scipy_polish(target, start, l_max):
    # reference: the polish as it ran through scipy's BFGS, ended at the first
    # evaluated point that passes both gradient tests, else finished by at most
    # three quasi-Newton steps on the gradient alone; returns d and nfev
    from scipy.optimize import minimize

    gtol = 1e-8 * (1.0 + _distance(target, start, l_max)[1])
    nfev = 1

    class Reached(Exception):
        pass

    def objective(b):
        nonlocal nfev
        nfev += 1
        found = _distance(target, b, l_max)
        _, d, grad, _ = found
        if np.max(np.abs(grad)) <= gtol and np.linalg.norm(grad) <= 1e-7 * (1.0 + d):
            raise Reached(found)
        return d, grad

    try:
        res = minimize(objective, start, jac=True, method="BFGS", options={"gtol": gtol})
    except Reached as reached:
        return reached.args[0][1], nfev
    b = res.x
    _, d, grad, _ = _distance(target, b, l_max)
    for _ in range(3):
        if np.linalg.norm(grad) <= 1e-7 * (1.0 + d):
            break
        step = b - res.hess_inv @ grad
        _, d_step, grad_step, _ = _distance(target, step, l_max)
        nfev += 1
        if np.linalg.norm(grad_step) >= np.linalg.norm(grad):
            break
        b, d, grad = step, d_step, grad_step
    return d, nfev


def test_polish_matches_scipy_bfgs():
    rng = np.random.default_rng(7)
    grids, ours, theirs = {}, [], []
    for _ in range(50):
        l_max = int(rng.integers(2, 9))
        u = random_field(rng, l_max, rng.uniform(0.3, 3.0))
        grid = grids.setdefault(l_max, build_grid(max(4 * l_max, 48)))
        res = distance_to_manifold(u, l_max, grid)
        target = _band_coeffs(u, l_max)
        d_ref, nfev_ref = _scipy_polish(target, _best_first(target, l_max, grid)[0], l_max)
        assert res.converged
        assert abs(res.distance - d_ref) <= 1e-12 * max(1.0, d_ref)
        ours.append(res.nfev)
        theirs.append(nfev_ref)
    assert np.median(ours) <= np.median(theirs) + 1
    assert max(ours) <= 40


def test_whole_distance_bounds_band_distance_and_matches_nelder_mead(rng):
    grids = {}
    for _ in range(12):
        l_max = int(rng.integers(2, 9))
        u = random_field(rng, l_max, rng.uniform(0.3, 3.0))
        grid = grids.setdefault(l_max, build_grid(max(4 * l_max, 48)))
        res = distance_to_manifold(u, l_max, grid)
        assert res.converged
        assert res.distance >= res.band_distance >= 0.0
        start = _ball_of(res.argmin) + 0.2
        assert res.distance == pytest.approx(_nelder_mead(u, l_max, start), rel=1e-12)


def _moved_fields(rng, grid):
    # four band-6 fields u and v = u o tau + psi_tau at band 40, for maps of
    # dilation 1.2-3, the last one reflected
    pairs = []
    for k, lam in enumerate((1.2, 2.0, 3.0, 2.5)):
        u = random_field(rng, 6, 0.5)
        tau = rotation(rng.normal(size=3), rng.uniform(0, 6.3))
        tau = tau.compose(dilation(lam)).compose(rotation(rng.normal(size=3), 1.0))
        if k == 3:
            tau = ConformalMap.from_matrix(tau.mat, reflect=True)
        pairs.append((u, transform(u, tau, 40, grid).field))
    return pairs


def test_distance_is_conformally_invariant(rng):
    # d(u o tau) = d(u): the family is a conformal orbit and the gradient
    # energy is conformally invariant; psi truncated at a band is not
    grid = build_grid(96)
    moved_band = []
    for u, v in _moved_fields(rng, grid):
        before = distance_to_manifold(u, 6, build_grid(48))
        after = distance_to_manifold(v, 40, grid)
        assert before.converged and after.converged
        assert after.distance == pytest.approx(before.distance, rel=1e-10)
        moved_band.append(abs(after.band_distance - before.band_distance))
    assert max(moved_band) > 1e-9


def test_deficit_is_conformally_invariant(rng):
    # the sharp functional at alpha = 2/3 is invariant under u -> u o tau + psi_tau;
    # the deficit feels the band-40 tail of v to first order, which sets the
    # worst agreement, 3.4e-10 at the dilation 3
    for u, v in _moved_fields(rng, build_grid(96)):
        before = chang_gui_report(2.0 / 3.0, u).value
        assert chang_gui_report(2.0 / 3.0, v).value == pytest.approx(before, rel=1e-9)


def _reference_scan(target, l_max, grid):
    # the scan as one synthesis per degree and one product per scanned t over
    # grid.nodes: the first strict improvement on the best value so far wins
    degrees = _layout(l_max).degrees
    parts = np.empty((l_max, grid.node_count))
    for l in range(1, l_max + 1):
        parts[l - 1] = synthesize(HarmonicField(l_max, np.where(degrees == l, target, 0.0)), grid).samples
    weights, psi_energy = stability._scan_weights(l_max)
    best, b = 0.0, np.zeros(3)
    for t, w, e in zip(_SCAN_T, weights, psi_energy):
        values = e - 2.0 * (w @ parts)
        i = int(np.argmin(values))
        if values[i] < best:
            best, b = float(values[i]), t * grid.nodes[i]
    return b


@pytest.mark.parametrize("l_max", [2, 6, 8, 32])
def test_scan_matches_the_per_degree_reference(l_max):
    # values that are equal, or nearly so, can round apart differently in the
    # blocked and the per-t products, so a tie at rounding level (the nodes of
    # one polar ring) may resolve otherwise; these fields have none
    if l_max == 32:
        tau = random_conformal(np.random.default_rng(4), lam_eff_cap=6.0, allow_reflect=True)
        grid = build_grid(72)
        u = psi_field(build_extremal(tau), 32, grid).field
    else:
        grid = build_grid(48)
        u = random_field(np.random.default_rng(17 + l_max), l_max, 1.5)
    target = _band_coeffs(u, l_max)
    b = _best_first(target, l_max, grid)[0]
    assert np.linalg.norm(b) > 0.0
    assert np.array_equal(b, _reference_scan(target, l_max, grid))


def test_scan_of_a_zero_field_stays_at_the_constant_extremal():
    assert np.array_equal(_best_first(np.zeros(49), 6, build_grid(48))[0], np.zeros(3))
    # every floor is psi's energy, above t = 0's value: no t is synthesized
    assert _best_first(np.zeros(49), 6, build_grid(48))[1] == 0
    assert distance_to_manifold(HarmonicField.zero(6), 6, build_grid(48)).scanned == 0


def test_scan_of_band_zero_stays_at_the_constant_extremal():
    assert np.array_equal(_best_first(np.zeros(1), 0, build_grid(48))[0], np.zeros(3))
    d = distance_to_manifold(HarmonicField.constant(0.7), 0, build_grid(48))
    assert d.converged and d.distance == 0.0
    assert stability_check(HarmonicField.constant(1.0)).trace["converged"]


def _every_radius(target, l_max, grid):
    # each scanned t synthesized as the scan synthesizes it: per t, its least
    # node and value; and the first least (t, node) below 0, t ascending
    weights, psi_energy = _scan_weights(l_max)
    degrees = _layout(l_max).degrees
    table = _grid_table(l_max, grid.cos_theta.tobytes())
    least, best, b = [], 0.0, np.zeros(3)
    for t, w, e in zip(_SCAN_T, weights, psi_energy):
        x = np.concatenate(([0.0], -2.0 * w))[degrees] * target
        values = _synthesis(_by_order(x, l_max) @ table, grid)
        i = int(np.argmin(values))
        least.append(float(values[i] + e))
        if least[-1] < best:
            best, b = least[-1], t * grid.nodes[i]
    return np.array(least), b


def _psi_coeffs(l_max, b):
    # psi_b's band-l_max coefficients g_l(t) Y_lm(b / t), t = |b|, without the constant
    t = np.linalg.norm(b)
    c = _g(l_max, t)[0][_layout(l_max).degrees] * _harmonic_slopes(b / t, l_max)[0][0]
    c[0] = 0.0
    return c


def _least_node(target, l_max, grid, t):
    # d - E(u) at radius t on every node of grid, synthesized as the scan
    # synthesizes it: the least value and its point b
    l = np.arange(l_max + 1)
    x = -2.0 * (l * (l + 1) * _g(l_max, t)[0])[_layout(l_max).degrees] * target
    values = _synthesis(_by_order(x, l_max) @ _grid_table(l_max, grid.cos_theta.tobytes()), grid)
    i = int(np.argmin(values))
    return values[i] + _psi_energy(t)[0], t * grid.nodes[i]


def test_the_scan_reaches_a_minimizer_past_t_3(grid72):
    # psi of b = 5 e3 plus 1.575 psi of b = -2 e3, at band 32: d's global
    # minimizer lies at t = 3.88 on +e3, and a local minimum near -2.5 e3 is
    # lower than every node at t <= 3 of the first ray, so polished from the
    # least node of any scanned t <= 3, d ends there, about 1.4 higher.  The
    # degree-1 test rejects the field, and only the scan's nodes beyond t = 3
    # find the minimizer: a scan cut to t <= 3 fails here.  d is held to a
    # dense scan, 240 radii in (0, 6] over the nodes of build_grid(144),
    # polished by Nelder-Mead from its least node
    l_max = 32
    c = _psi_coeffs(l_max, np.array([0.0, 0.0, 5.0])) + 1.575 * _psi_coeffs(l_max, np.array([0.0, 0.0, -2.0]))
    u = HarmonicField(l_max, c)
    target = _band_coeffs(u, l_max)
    assert _degree_one_start(target, float(_degree_weights(l_max)[2] @ (target * target)), l_max) is None
    result = distance_to_manifold(u, l_max, grid72)
    assert result.converged and result.start == "scan"
    assert 3.0 < np.linalg.norm(_ball_of(result.argmin)) < 6.0
    dense = build_grid(144)
    start = min((_least_node(target, l_max, dense, t) for t in np.linspace(0.025, 6.0, 240)), key=lambda v: v[0])[1]
    assert result.distance == pytest.approx(_nelder_mead(u, l_max, start), rel=1e-10)
    for t in _SCAN_T[_SCAN_T <= 3.0]:
        b = _least_node(target, l_max, grid72, t)[1]
        assert _polish(target, b, _distance(target, b, l_max), l_max)[1][1] > result.distance + 1.0


def _bound_inputs(rng, l_max, grid, count):
    # random fields of amplitude 0.4-3, and psi of random maps with
    # lambda_eff <= 20, in turn
    for k in range(count):
        if k % 2:
            tau = random_conformal(rng, lam_eff_cap=20.0, allow_reflect=True)
            yield psi_field(build_extremal(tau), l_max, grid, tail_threshold=None).field
        else:
            yield random_field(rng, l_max, rng.uniform(0.4, 3.0))


@pytest.mark.parametrize("l_max", [6, 16, 32, 64])
def test_no_scanned_value_goes_below_the_unsold_bound(l_max):
    # sum_m Y_lm^2 = 2l + 1 bounds |u_l| by sqrt(2l + 1) |c_l| at every node:
    # the least computed value of every scanned t is at least psi's energy
    # less the reach, the scan's floor before its rounding margin
    rng = np.random.default_rng(280 + l_max)
    grid = build_grid(max(l_max, 48))
    weights, psi_energy = _scan_weights(l_max)
    for u in _bound_inputs(rng, l_max, grid, 10):
        target = _band_coeffs(u, l_max)
        norms = [np.linalg.norm(target[l * l : (l + 1) ** 2]) for l in range(1, l_max + 1)]
        reach = 2.0 * (weights @ (np.sqrt(2.0 * np.arange(1, l_max + 1) + 1.0) * norms))
        least, _ = _every_radius(target, l_max, grid)
        assert np.all(least >= psi_energy - reach)


def test_best_first_scan_equals_the_exhaustive_scan():
    # the scan stops once no floor can beat its best value; synthesizing all
    # 60 scanned t under the same tie rule gives the same start bit for bit
    rng = np.random.default_rng(2828)
    grids = {n: build_grid(n) for n in (48, 72)}
    psi_scanned = []
    for k in range(120):
        if k % 6 == 5:  # the classify inputs: psi of a map with lambda_eff <= 6 at band 32
            l_max, grid = 32, grids[72]
            tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
            u = psi_field(build_extremal(tau), 32, grid).field
        else:  # the certify inputs and their neighbours
            l_max, grid = int(rng.integers(1, 9)), grids[48]
            u = random_field(rng, l_max, rng.uniform(0.3, 3.0))
        target = _band_coeffs(u, l_max)
        b, scanned = _best_first(target, l_max, grid)
        assert np.array_equal(b, _every_radius(target, l_max, grid)[1])
        assert np.array_equal(b, _best_first(target, l_max, grid)[0])
        if l_max == 32:
            psi_scanned.append(scanned)
    # on psi itself the best value, near -E(psi), is below nearly every
    # floor: these 20 synthesize at most 2 of the 60 scanned t
    assert max(psi_scanned) <= 3


def test_distance_refuses_a_grid_below_the_band():
    with pytest.raises(ValueError, match="grid resolves band"):
        distance_to_manifold(random_field(np.random.default_rng(2), 8, 0.5), 8, build_grid(4))


def test_a_band_below_the_field_is_refused():
    # the deficit counts every degree of u: truncated to band 4 this exact
    # extremal read a violated certificate (slack -1.2e-5), to band 8 a
    # distance of 1e-8 against 2e-20 at its own band
    u = psi_field(build_extremal(dilation(2.0)), 32).field
    assert stability_check(u, 32).distance < 1e-12
    for band in (4, 8):
        with pytest.raises(ValueError, match=f"band {band} is below the field's band 32"):
            stability_check(u, band)
        with pytest.raises(ValueError, match=f"band {band} is below the field's band 32"):
            grad_distance(u, ManifoldPoint(0.0, 0.0, 0.0), band)


def test_scan_ties_resolve_to_the_first_t_then_the_first_node(monkeypatch):
    # a zonal field ties every node of a theta row, and equal weights with
    # equal energies at t indices 5, 17 and 18 tie those t across two blocks
    # (the per-t reference is no oracle here: its matrix-vector product
    # rounds the last node apart from the rest of its row)
    grid = build_grid(48)
    u = HarmonicField.from_entries(2, {(1, 0): 0.8, (2, 0): -0.3})
    weights = np.tile(_scan_weights(2)[0][5], (_SCAN_T.size, 1))
    energy = np.full(_SCAN_T.size, 1e3)
    energy[[5, 17, 18]] = _scan_weights(2)[1][5]
    monkeypatch.setattr(stability, "_scan_weights", lambda l_max: (weights, energy))
    b = _best_first(_band_coeffs(u, 2), 2, grid)[0]
    parts = [HarmonicField.from_entries(2, {(l, 0): u.coeffs[coeff_index(l, 0)]}) for l in (1, 2)]
    rows = np.array([synthesize(p, grid).samples[:: grid.phi_count] for p in parts])
    best_row = int(np.argmax(weights[5] @ rows))
    assert np.array_equal(b, _SCAN_T[5] * grid.nodes[best_row * grid.phi_count])


def test_scan_weights_are_read_only():
    weights, energy = _scan_weights(5)
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        energy[0] = 1.0


@pytest.mark.parametrize("l_max", [1, 6, 8, 32, 64])
def test_scan_weights_are_the_calls_at_each_scanned_t(l_max):
    # one _g call on the scanned t, bit for bit the 60 scalar calls
    l = np.arange(l_max + 1)
    weights, energy = _scan_weights(l_max)
    assert _same_bits(weights, (l * (l + 1) * np.array([_g(l_max, t)[0] for t in _SCAN_T]))[:, 1:])
    assert _same_bits(energy, np.array([_psi_energy(t)[0] for t in _SCAN_T]))


def test_scan_builds_no_grid_table_it_does_not_read():
    # an extremal's projection synthesizes no scanned t, so its scan builds no table of the grid
    u = psi_field(build_extremal(rotation(np.array([1.0, 2.0, 2.0]), 0.7).compose(dilation(3.0))), 23).field
    grid = build_grid(47)
    before = _grid_table.cache_info()
    result = distance_to_manifold(u, 23, grid)
    after = _grid_table.cache_info()
    assert result.scanned == 0 and result.distance < 1e-12
    assert after.misses == before.misses


def test_distance_reads_no_nodes_or_flat_weights(monkeypatch, grid72):
    # the scan and the polish build no node-sized array of the grid
    u = psi_field(build_extremal(dilation(2.0)), 32, grid72).field
    v = random_field(np.random.default_rng(5), 6, 0.5)

    def refuse(_grid):
        raise AssertionError("the distance built a node-sized array")

    monkeypatch.setattr(SphericalGrid, "nodes", property(refuse))
    monkeypatch.setattr(SphericalGrid, "weights", property(refuse))
    assert distance_to_manifold(u, 32, build_grid(72)).converged
    assert stability_check(v).trace["converged"]


def test_distance_evaluates_d_only_where_it_reports(monkeypatch, grid48):
    # every evaluation of d is one that nfev counts, and the band copy of the
    # field is the one HarmonicField the search builds
    rng = np.random.default_rng(39)
    fields = [HarmonicField.zero(6)] + [random_field(rng, 6, 0.4) for _ in range(20)]
    calls = {"d": 0, "fields": 0}
    distance, post_init = stability._distance, HarmonicField.__post_init__

    def counted_distance(*args):
        calls["d"] += 1
        return distance(*args)

    def counted_post_init(self):
        calls["fields"] += 1
        post_init(self)

    monkeypatch.setattr(stability, "_distance", counted_distance)
    monkeypatch.setattr(HarmonicField, "__post_init__", counted_post_init)
    for u in fields:
        calls.update(d=0, fields=0)
        res = distance_to_manifold(u, 6, grid48)
        assert calls == {"d": res.nfev, "fields": 1}
