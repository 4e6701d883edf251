import functools
import gc
import importlib
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from onofri import (
    INFINITY,
    ConformalMap,
    ConvergenceError,
    HarmonicField,
    RefinementPolicy,
    SphericalGrid,
    build_extremal,
    build_grid,
    chang_gui_report,
    dilation,
    evaluate_at,
    exp_moments,
    moments,
    normalize,
    onofri_value,
    psi_field,
    recentering_map,
    rotation,
    solve_lambda0,
    solve_x0,
    synthesize,
    transform,
    translation,
    translation_to,
)
from onofri.functionals import ExpMoments, _compose
from onofri.harmonics import _grid_table
from onofri.lorentz import ETA, lorentz_lift
from onofri.mobius import _lift
from onofri.normalize import _composed_com, transported_com
from onofri.sampling import random_conformal, random_field
from onofri.sphere import _make_grid


def w3_times(eps):
    return HarmonicField.from_entries(1, {(1, 0): eps / math.sqrt(3.0)})


def com_of_exp(u: HarmonicField) -> np.ndarray:
    # the center of mass of e^{2u}: int w e^{2u} / int e^{2u}
    mom = exp_moments(u)
    return mom.moment / mom.mass


def test_com_of_exp_zero_field():
    assert np.max(np.abs(com_of_exp(HarmonicField.zero(2)))) < 1e-14


def test_com_of_exp_extremal(grid72):
    proj = psi_field(build_extremal(dilation(2.0)), 32, grid72)
    com = com_of_exp(proj.field)
    assert np.max(np.abs(com - [0.0, 0.0, -0.6])) < 1e-8


def test_com_of_exp_zonal_monotone():
    com = com_of_exp(w3_times(0.2))
    assert abs(com[0]) < 1e-12 and abs(com[1]) < 1e-12
    assert 0.0 < com[2] < 1.0


def test_solve_x0_symmetric():
    assert abs(solve_x0(HarmonicField.zero(2))) < 1e-14
    # antipodally symmetric field: even zonal harmonic
    even = HarmonicField.from_entries(2, {(2, 0): 0.4})
    assert abs(solve_x0(even)) < 1e-12


def test_solve_x0_translation_axis(grid72):
    proj = psi_field(build_extremal(translation_to([1.0, 0.0, 0.0])), 32, grid72)
    x0 = solve_x0(proj.field)
    assert abs(x0.imag) < 1e-10
    assert abs(x0.real) > 1e-3


def _degree_one(r):
    # u = r x3: M = int e^{2u} = sinh 2r / (2r), m3 = int x3 e^{2u} = cosh 2r / (2r) - sinh 2r / (4 r^2)
    # and lambda0 = sqrt((M + m3) / (M - m3)), at 40 digits: in floats M - m3 loses about log10(2r) digits
    with mpmath.workdps(40):
        q = 2 * mpmath.mpf(r)
        mass, m3 = mpmath.sinh(q) / q, mpmath.cosh(q) / q - mpmath.sinh(q) / q**2
        return mass, m3, mpmath.sqrt((mass + m3) / (mass - m3))


@pytest.mark.parametrize("r", [0.5, -0.5, 5.0, -5.0, 40.0, -40.0, 80.0, -80.0, 160.0, -160.0])
def test_degree_one_family_in_closed_form(r):
    # measured: the moments within 3.5e-14 relative (r = 160), the sharp
    # functional at alpha = 2/3 within 4.5e-16 max(1, |value|), lambda0 within
    # 3.1e-14 relative (r = -160).  At r = 0.5 the value is 1.2e-3, a difference
    # of terms near 0.11 that rounds at 1.7e-16: relative to itself it reads 1.4e-13
    u = w3_times(r)
    mass, m3, lam0 = _degree_one(r)
    mom = exp_moments(u)
    assert abs(mom.mass - mass) <= 1e-13 * mass
    assert abs(mom.moment[2] - m3) <= 1e-13 * abs(m3)
    assert np.max(np.abs(mom.moment[:2])) <= 1e-13 * mass
    with mpmath.workdps(40):
        value = (2 * mpmath.mpf(r) ** 2 / 3) * 2 / 3 - mpmath.log(mass**2 - m3**2) / 2  # E = 2 r^2 / 3
    assert abs(chang_gui_report(2.0 / 3.0, u).value - value) <= 1e-15 * max(1.0, abs(value))
    assert abs(normalize(u).lambda0 - lam0) <= 1e-13 * lam0


def test_solve_lambda0_trivial():
    assert abs(solve_lambda0(HarmonicField.zero(2), 0j) - 1.0) < 1e-12


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_solve_lambda0_undoes_dilation(mu, grid72):
    # composing with dilation(1/mu) makes the transported field constant
    proj = psi_field(build_extremal(dilation(mu)), 32, grid72)
    x0 = solve_x0(proj.field)
    assert abs(x0) < 1e-9
    lam = solve_lambda0(proj.field, x0)
    assert abs(lam - 1.0 / mu) < 1e-8


def test_solve_lambda0_direction():
    # mass of e^{2u} sits at the north pole, so g(1) = com3 > 0; g decreases
    # in lambda, hence the root lies above 1 (cross-checked by the residual)
    u = w3_times(0.3)
    lam = solve_lambda0(u, 0j)
    assert lam > 1.0
    com = transported_com(u, recentering_map(0j, lam))
    assert np.linalg.norm(com) < 1e-12
    assert np.linalg.norm(transported_com(u, recentering_map(0j, 1.0 / lam))) > 1e-2


def test_recentering_map_matches_translation_after_dilation():
    for x0 in (0.3 + 0.2j, -1.5 + 2.0j, 0j):
        for lam in (1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e6):
            ref = translation(x0).compose(dilation(lam)).mat
            got = recentering_map(x0, lam).mat
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    for x0, lam in ((0.3 + 0.2j, 0.0), (0.3 + 0.2j, -1.0), (0.3 + 0.2j, math.nan), (INFINITY, 1.0)):
        with pytest.raises(ValueError):
            recentering_map(x0, lam)


def test_lambda0_methods_agree(rng):
    u = random_field(rng, 6, 0.4)
    x0 = solve_x0(u)
    lam_cf = solve_lambda0(u, x0, method="closed_form")
    lam_rf = solve_lambda0(u, x0, method="root_find")
    assert abs(lam_cf - lam_rf) < 1e-8
    for method in ("hybrid", "newton"):
        with pytest.raises(ValueError):
            solve_lambda0(u, x0, method=method)


def test_root_find_brackets_both_directions():
    # roots on either side of 1, the middle of the range in ln lambda:
    # w3_times(0.3)'s lambda0 > 1, w3_times(-0.3)'s < 1
    for eps in (0.3, -0.3):
        u = w3_times(eps)
        x0 = solve_x0(u)
        lam_cf = solve_lambda0(u, x0)
        assert (lam_cf > 1.0) == (eps > 0.0)
        assert abs(solve_lambda0(u, x0, method="root_find") - lam_cf) < 1e-8


def _counting_lifts(monkeypatch):
    # every objective evaluation lifts one matrix: the entries (a, b, c, d) it reads the lift's closed forms at
    module = importlib.import_module("onofri.normalize")
    lifted, lift_entries = [], module._lift_entries
    monkeypatch.setattr(module, "_lift_entries", lambda *mat: lifted.append(mat) or lift_entries(*mat))
    return lifted


def _sign_change(x0, m, lam_cf):
    # the interval where the computed objective changes sign, on the floats lam_cf (1 + k eps), |k| <= 200:
    # from the least at which it is <= 0 to the greatest at which it is >= 0 (or the other way round)
    module = importlib.import_module("onofri.normalize")
    lams = lam_cf * (1.0 + np.arange(-200, 201) * np.finfo(float).eps)
    values = np.array([v3 / v0 for v0, v3 in (module._transported_ends(x0, m, lam) for lam in lams)])
    assert values[0] > 0.0 > values[-1]  # the sign changes inside the grid
    ends = lams[values <= 0.0].min(), lams[values >= 0.0].max()
    return min(ends), max(ends)


def test_root_find_matches_the_closed_form_on_the_lambda0_objective(monkeypatch):
    # 200 recenter fields (band 8, amplitude 0.5) and bands 1-16 at four
    # amplitudes, in at most 16 evaluations of the objective, the two ends
    # included.  The computed objective changes sign on a band of rounding
    # about its root.  (a) On every field the Illinois steps land within the
    # stop rule's tolerance of that band: 1e-15 + 4 eps lambda on the bracket,
    # or one float of ln lambda where a step rounds onto an end, plus the
    # grid's step eps lambda.  (b) On every field but one the band lies within
    # 1e-14 of the closed form, and so does the root find's lambda.  Field 231
    # (band 8, amplitude 3.0, lambda0 = 0.066) is the one: there the objective
    # steps by 8e-15 and its band is 2.57e-14 wide, from -1.96e-14 to
    # +0.61e-14 about the closed form, which is itself 6.5e-15 from the exact
    # root of its moments; it keeps (a), the closed form inside the band and
    # the band's measured width.  The next widest band, field 235's (band 9,
    # amplitude 3.0), is 1.02e-14 wide and within 5.4e-15 of the closed form
    module = importlib.import_module("onofri.normalize")
    lifted = _counting_lifts(monkeypatch)
    rng = np.random.default_rng(3001)
    fields = [random_field(rng, 8, 0.5) for _ in range(200)]
    fields += [random_field(rng, band, amp) for band in range(1, 17) for amp in (0.05, 0.5, 1.5, 3.0)]
    eps = np.finfo(float).eps
    for k, u in enumerate(fields):
        mom = exp_moments(u, module._tight(module.DEFAULT_POLICY))
        x0 = solve_x0(u)
        lam_cf = solve_lambda0(u, x0)
        lo, hi = _sign_change(x0, (float(mom.mass), *mom.moment.tolist()), lam_cf)
        lifted.clear()
        lam_rf = solve_lambda0(u, x0, method="root_find")
        assert len(lifted) <= 16
        tol = 1e-15 + 4 * eps * lam_rf + lam_rf * math.ulp(math.log(lam_rf)) + eps * lam_cf
        assert lo - tol <= lam_rf <= hi + tol
        if k == 231:
            assert lo <= lam_cf <= hi and hi - lo <= 2.6e-14 * lam_cf
        else:
            assert max(hi - lam_cf, lam_cf - lo) <= 1e-14 * lam_cf
            assert abs(lam_rf - lam_cf) <= 1e-14 * lam_cf


def test_objective_ends_match_the_four_by_four_form(rng):
    # v0 and v3 of L^{-1} m, from the lift's closed forms in floats, against
    # eta L^T eta m in numpy, term by term, over the root find's range of lambda
    module = importlib.import_module("onofri.normalize")
    eps = np.finfo(float).eps
    for _ in range(500):
        x0 = complex(*rng.normal(size=2))
        lam = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        com = rng.normal(size=3)
        m = (1.0, *(com * rng.uniform(0.0, 1.0) / np.linalg.norm(com)).tolist())
        r = 1.0 / math.sqrt(lam)
        terms = ETA @ _lift(np.array([[lam * r, x0 * r], [0.0, r]])).T @ ETA * np.array(m)  # v_i = sum_j terms[i, j]
        for v, i in zip(module._transported_ends(x0, m, lam), (0, 3)):
            assert abs(v - terms[i].sum()) <= 4 * eps * np.abs(terms[i]).sum()


def test_tight_policy_is_kept_per_policy():
    # the tight copy of a policy is built, and validated, once per distinct policy
    module = importlib.import_module("onofri.normalize")
    for policy in (RefinementPolicy(), RefinementPolicy(rtol=1e-14), RefinementPolicy(theta_cap=100, rtol=1e-6)):
        tight = module._tight(policy)
        assert module._tight(policy) is tight
        assert tight.rtol == min(policy.rtol, 1e-12) and tight.theta_cap == policy.theta_cap
    assert module._tight(RefinementPolicy()) is module._tight(RefinementPolicy(theta_cap=512, rtol=1e-9))


def _moments(com) -> ExpMoments:
    return ExpMoments(1.0, np.asarray(com, dtype=float), None, np.zeros(4))


def test_root_find_names_an_empty_range():
    # a center of mass 1e-14 from a pole puts lambda0 near 1.4e7 or 7e-8,
    # outside [1e-6, 1e6]; the closed form still finds it
    module = importlib.import_module("onofri.normalize")
    for w3 in (1.0 - 1e-14, -1.0 + 1e-14):
        mom = _moments([0.0, 0.0, w3])
        lam_cf = module._closed_form_lambda0(0j, mom)
        assert not 1e-6 <= lam_cf <= 1e6
        with pytest.raises(ConvergenceError, match=r"no root for lambda0 on \[1e-06, 1e\+06\]"):
            module._root_find_lambda0(0j, mom)


def test_root_find_returns_an_endpoint_zero(monkeypatch):
    # m = (1, 0, 0, 0) is centred at lambda = 1, where the lift is the identity
    # and the objective exactly 0: an end of the range at 1 is the root
    module = importlib.import_module("onofri.normalize")
    lifted = _counting_lifts(monkeypatch)
    for lam_range in ((1e-6, 1.0), (1.0, 1e6)):
        monkeypatch.setattr(module, "_LAMBDA_RANGE", lam_range)
        lifted.clear()
        assert module._root_find_lambda0(0j, _moments([0.0, 0.0, 0.0])) == 1.0
        assert len(lifted) == 2


def test_root_find_names_a_nonfinite_objective(monkeypatch):
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)
    monkeypatch.setattr(module, "_lift_entries", lambda *mat: (math.nan,) * 16)
    with pytest.raises(ConvergenceError, match=r"objective for lambda0 is nan at lambda = 1e-06"):
        solve_lambda0(u, x0, method="root_find")


def test_root_find_names_an_unconverged_iteration(monkeypatch):
    # maxiter steps after the two ends, then the last lambda is named
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)
    root_find = module._root_find_lambda0
    lifted = _counting_lifts(monkeypatch)
    for maxiter in (0, 1, 5):
        monkeypatch.setattr(module, "_root_find_lambda0", functools.partial(root_find, maxiter=maxiter))
        lifted.clear()
        lam = 1e6 if maxiter == 0 else r"\d"
        with pytest.raises(ConvergenceError, match=rf"root find for lambda0 did not converge: lambda = {lam}"):
            solve_lambda0(u, x0, method="root_find")
        assert len(lifted) == maxiter + 2


def test_one_lorentz_check_per_result(monkeypatch):
    # the root find's steps move m by the unchecked lift; lorentz_lift checks the
    # lift of the reported root's map once, and normalize checks its tau once
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)
    checked = []

    def counted(a):
        checked.append(a)
        return lorentz_lift(a)

    monkeypatch.setattr(module, "lorentz_lift", counted)
    root = solve_lambda0(u, x0, method="root_find")
    assert len(checked) == 1
    assert np.array_equal(checked[0].mat, recentering_map(x0, root).mat)
    checked.clear()
    res = normalize(u)
    assert len(checked) == 1 and np.array_equal(checked[0].mat, res.tau.mat)


def test_root_find_steps_build_no_map(monkeypatch):
    # each step lifts recentering_map(x0, lam)'s matrix, bit for bit, without
    # building the map: the one map the root find builds is its root's
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)
    lifted, built = _counting_lifts(monkeypatch), []
    make_map = module.recentering_map
    monkeypatch.setattr(module, "recentering_map", lambda x, lam: built.append(lam) or make_map(x, lam))
    root = solve_lambda0(u, x0, method="root_find")
    assert built == [root]
    # a range of one lambda evaluates the objective there and finds no root
    for lam in np.random.default_rng(1).lognormal(0.0, 3.0, 50):
        monkeypatch.setattr(module, "_LAMBDA_RANGE", (lam, lam))
        lifted.clear()
        with pytest.raises(ConvergenceError, match="no root"):
            solve_lambda0(u, x0, method="root_find")
        assert np.array_equal(lifted[0], make_map(x0, lam).mat.ravel())


def test_root_find_raises_when_its_root_fails_the_lorentz_check(monkeypatch):
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)

    def failing(a):
        raise ArithmeticError("lift is not proper orthochronous")

    monkeypatch.setattr(module, "lorentz_lift", failing)
    with pytest.raises(ArithmeticError, match="proper orthochronous"):
        solve_lambda0(u, x0, method="root_find")


def test_grid_com_matches_scattered_evaluation(rng):
    # the tensor-grid composition against u sampled at every mapped node; the
    # two quadratures of one integral agree once both have converged
    grid = build_grid(128)
    u = random_field(rng, 6, 0.5)
    maps = [random_conformal(rng, lam_eff_cap=6.0) for _ in range(3)]
    maps.append(ConformalMap.from_matrix(random_conformal(rng, lam_eff_cap=6.0).mat, reflect=True))
    for tau in maps:
        mapped, jac = tau.apply(grid.nodes), tau.jacobian(grid.nodes)
        v = moments(grid, np.exp(2.0 * evaluate_at(u, mapped)) * jac**1.5)
        assert np.max(np.abs(_composed_com(_compose(u, tau), grid) - v[1:] / v[0])) <= 1e-13


def test_composed_com_is_the_lorentz_transport_of_the_moments(rng):
    # (1, tau w) = sqrt(J) L (1, w) makes the moments of e^{2 u o tau} J^{3/2}
    # equal to L^{-1} m; the conjugation z -> conj(z) that a reflected map
    # applies first is w2 -> -w2, so it acts on them by S = diag(1, 1, -1, 1)
    grid = build_grid(160)
    flip = np.diag([1.0, 1.0, -1.0, 1.0])
    for _ in range(8):
        u = random_field(rng, 8, 0.5)
        m = moments(grid, np.exp(2.0 * synthesize(u, grid).samples))
        drawn = random_conformal(rng, lam_eff_cap=4.0)
        for tau in (drawn, ConformalMap.from_matrix(drawn.mat, reflect=True)):
            v = ETA @ lorentz_lift(drawn).T @ ETA @ m
            if tau.reflect:
                v = flip @ v
            assert np.max(np.abs(_composed_com(_compose(u, tau), grid) - v[1:] / v[0])) <= 1e-13


def test_root_find_composes_no_field(monkeypatch):
    # the root find transports the tight moments; only the checks' oracle
    # samples u o tau
    module = importlib.import_module("onofri.normalize")
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)

    def refuse(*_args):
        raise AssertionError("the root find composed u with a map")

    monkeypatch.setattr(module, "_compose", refuse)
    assert abs(solve_lambda0(u, x0, method="root_find") - solve_lambda0(u, x0)) < 1e-14


def test_normalize_keeps_mapped_tables_out_of_the_grid_cache():
    # transported_com tabulates at mapped abscissas, new with every map; only
    # real grids are cached
    u = random_field(np.random.default_rng(0), 8, 0.5)
    solve_x0(u)  # every real grid of u is cached now
    before = _grid_table.cache_info()
    transported_com(u, normalize(u).tau)
    after = _grid_table.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_root_find_leaves_no_node_arrays_behind():
    # nothing node-sized may outlive the root find, even if a reference cycle
    # kept its objective until the next garbage collection
    u = random_field(np.random.default_rng(0), 8, 0.5)
    x0 = solve_x0(u)
    solve_lambda0(u, x0, method="root_find")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve_lambda0(u, x0, method="root_find")
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert left <= 256 * 1024


def test_hot_paths_read_no_nodes_or_flat_weights(monkeypatch):
    # every quadrature on these paths sums by theta row; the (N, 3) nodes and
    # the flat weights are for checks and tests only
    u = random_field(np.random.default_rng(1), 8, 0.5)
    grid = build_grid(48)

    def refuse(_grid):
        raise AssertionError("a hot path built a node-sized array")

    monkeypatch.setattr(SphericalGrid, "nodes", property(refuse))
    monkeypatch.setattr(SphericalGrid, "weights", property(refuse))
    exp_moments(u)
    chang_gui_report(2.0 / 3.0, u)
    onofri_value(1.0, u)
    res = normalize(u)
    solve_lambda0(u, res.x0, method="root_find")
    transform(u, res.tau, 16, grid, tail_threshold=None)


def test_normalize_zero_field():
    res = normalize(HarmonicField.zero(2))
    assert abs(res.lambda0 - 1.0) < 1e-12
    assert abs(res.x0) < 1e-13
    assert res.residual_com_norm < 1e-12
    assert np.allclose(res.tau.mat, np.eye(2), rtol=0.0, atol=1e-10) and not res.tau.reflect


def test_normalize_computes_exp_moments_once(monkeypatch, rng):
    module = importlib.import_module("onofri.normalize")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return exp_moments(*args, **kwargs)

    u = random_field(rng, 6, 0.5)
    monkeypatch.setattr(module, "exp_moments", counted)
    result = normalize(u)
    assert len(calls) == 1
    monkeypatch.undo()
    assert result.x0 == solve_x0(u)
    assert result.lambda0 == solve_lambda0(u, result.x0)


def test_recentering_runs_one_quadrature(refine_calls, rng):
    # normalize, solve_x0 and both solve_lambda0 paths read one tight quadrature
    u = random_field(rng, 6, 0.5)
    result = normalize(u)
    x0 = solve_x0(u)
    lam_rf = solve_lambda0(u, x0, method="root_find")
    assert len(refine_calls) == 1
    assert x0 == result.x0 and abs(lam_rf - result.lambda0) < 1e-8


def test_normalize_random_fields(rng):
    for _ in range(3):
        u = random_field(rng, 6, 0.4)
        res = normalize(u)
        assert res.residual_com_norm < 1e-10
        assert res.lambda0 > 0


def test_normalize_extremal_gives_constant(grid72, rng):
    tau = random_conformal(rng, lam_eff_cap=6.0)
    proj = psi_field(build_extremal(tau), 32, grid72)
    res = normalize(proj.field)
    assert res.residual_com_norm < 1e-10
    moved = transform(proj.field, res.tau, 32, grid72, tail_threshold=None)
    c = moved.field.coeffs.copy()
    c[0] = 0.0
    l = moved.field.degrees()
    assert float(np.sum(l * (l + 1) * c * c)) < 1e-7


def test_normalize_first_two_components_translation_only(rng):
    # x0 alone (lambda = 1) already kills the first two components
    u = random_field(rng, 6, 0.4)
    x0 = solve_x0(u)
    com = transported_com(u, recentering_map(x0, 1.0))
    assert abs(com[0]) < 1e-10 and abs(com[1]) < 1e-10


def test_normalize_raises_above_the_residual_tolerance(monkeypatch):
    # the closed form leaves a residual of rounding size; a tolerance far below
    # it must raise, not return
    monkeypatch.setenv("ONOFRI_TOL_SCALE", "1e-12")
    with pytest.raises(ConvergenceError, match="normalization residual"):
        normalize(w3_times(0.25))


def test_transported_com_names_the_theta_cap():
    starved = RefinementPolicy(theta_cap=9)
    with pytest.raises(ConvergenceError, match="transported center of mass .* grid cap .theta cap 9."):
        transported_com(w3_times(2.0), dilation(4.0), starved)


def test_normalize_names_the_theta_cap():
    # a starved policy stops the tight exponential moments, and the error says
    # which quadrature and which cap
    starved = RefinementPolicy(theta_cap=9)
    with pytest.raises(ConvergenceError, match="exponential moments .* grid cap .theta cap 9."):
        normalize(w3_times(2.0), starved)


@pytest.mark.parametrize("lam", [10.0, 20.0])
def test_normalize_dilation_cap_projections(lam, grid72):
    # the band-32 projections at the dilation cap normalize, and the composed
    # quadrature on a fine grid confirms the algebraic residual
    u = psi_field(build_extremal(dilation(lam)), 32, grid72, tail_threshold=None).field
    res = normalize(u)
    assert res.residual_com_norm < 1e-10 and res.com_error_estimate < 1e-10
    com = _composed_com(_compose(u, res.tau), _make_grid(900, 1799))
    assert np.linalg.norm(com) <= 1e-12


def test_normalize_dilation_50_converges_or_names_its_limit(grid72):
    u = psi_field(build_extremal(dilation(50.0)), 32, grid72, tail_threshold=None).field
    try:
        res = normalize(u)
    except ConvergenceError as exc:
        assert "theta cap" in str(exc) or "not below" in str(exc), str(exc)
    else:
        assert res.com_error_estimate < 1e-10


def _sweep_draw(k):
    # draw k of the sweep over band 6-32 and amplitude 1.2-3, seed 7
    rng = np.random.default_rng(7)
    for _ in range(k + 1):
        band, amplitude = int(rng.integers(6, 33)), rng.uniform(1.2, 3.0)
        u = random_field(rng, band, amplitude)
    return u


@pytest.mark.parametrize("k, band", [(5, 18), (17, 11)])
def test_normalize_large_random_fields(k, band):
    # the composed quadrature's refinement does not settle on these by the
    # theta cap, but on a fine grid it agrees with the Lorentz residual
    u = _sweep_draw(k)
    assert u.l_max == band
    res = normalize(u)
    com = _composed_com(_compose(u, res.tau), _make_grid(768, 1535))
    assert np.linalg.norm(com) <= 1e-12


def test_normalize_composes_no_field(monkeypatch, rng):
    # the residual is the Lorentz transport of the tight moments; u o tau is
    # sampled only by the checks' oracle
    module = importlib.import_module("onofri.normalize")

    def refuse(*_args):
        raise AssertionError("normalize composed u with a map")

    monkeypatch.setattr(module, "_compose", refuse)
    res = normalize(random_field(rng, 8, 0.5))
    assert res.residual_com_norm < 1e-10


def test_normalize_error_estimate_names_itself(monkeypatch, rng):
    # a large last refinement step of the moments must raise, not return
    module = importlib.import_module("onofri.normalize")

    def coarse(*args, **kwargs):
        mom = exp_moments(*args, **kwargs)
        return mom._replace(delta=np.full(4, 1e-6 * mom.mass))

    monkeypatch.setattr(module, "exp_moments", coarse)
    with pytest.raises(ConvergenceError, match="normalization error estimate .* exponential moments"):
        normalize(random_field(rng, 6, 0.4))


def test_error_estimate_is_the_transported_refinement_step(rng):
    u = random_field(rng, 6, 0.4)
    res = normalize(u)
    mom = exp_moments(u, RefinementPolicy(rtol=1e-12))
    v = ETA @ lorentz_lift(res.tau).T @ ETA
    m = np.concatenate([[mom.mass], mom.moment])
    assert res.com_error_estimate == np.linalg.norm((v @ mom.delta)[1:]) / (v @ m)[0]
    assert 0.0 < res.com_error_estimate < 1e-10


def test_normalize_zonal_field(rng):
    u = w3_times(0.25)
    res = normalize(u)
    assert abs(res.x0) < 1e-10
    assert res.lambda0 > 1.0
    assert res.residual_com_norm < 1e-10


def test_plane_pullback_against_disk_quadrature():
    # int over |x| <= 50 of (1+|x|^2)^-3 dx versus the sphere-side value
    # (pi/2) int (1 - w3) dw = pi/2, up to the analytic truncation deficit
    n = 2000
    t, wt = np.polynomial.legendre.leggauss(n)
    s = 25.0 * (t + 1.0)          # radius in [0, 50]
    ds = 25.0 * wt
    radial = float(np.sum(ds * s / (1 + s * s) ** 3)) * 2 * math.pi
    deficit = math.pi / (1 + 50.0**2) ** 2 / 2  # exact tail of the radial integral
    assert abs(radial - (math.pi / 2 - deficit)) < 1e-10
    assert abs(radial - math.pi / 2) < 3e-7


def test_normalization_result_json(rng):
    res = normalize(random_field(rng, 4, 0.3))
    d = json.loads(json.dumps(res.to_dict(), sort_keys=True))
    assert set(d) == {"x0", "lambda0", "tau", "residual_com_norm", "com_error_estimate"}
    assert len(d["x0"]) == 2


def test_uniqueness_up_to_rotation(rng):
    # rotating u about the x3-axis rotates x0 accordingly, lambda0 unchanged
    u = random_field(rng, 5, 0.4)
    res = normalize(u)
    from onofri.functionals import transform as tf

    grid = build_grid(72)
    rot = rotation([0.0, 0.0, 1.0], 0.9)
    u_rot = tf(u, rot, u.l_max + 0, grid, tail_threshold=None).field
    res_rot = normalize(u_rot)
    assert abs(res_rot.lambda0 - res.lambda0) < 1e-7
    assert abs(abs(res_rot.x0) - abs(res.x0)) < 1e-7
