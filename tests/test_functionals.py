import math
from dataclasses import replace

import numpy as np
import pytest

from onofri import (
    ConformalMap,
    HarmonicField,
    build_extremal,
    build_grid,
    cg_bound_slack,
    chang_gui_report,
    chang_gui_value,
    dilation,
    dirichlet_energy,
    evaluate_at,
    exp_moments,
    identity_map,
    normalize,
    onofri_value,
    psi_field,
    rotation,
    transform,
)
from onofri.functionals import _compose, _exp_moments
from onofri.harmonics import _legendre_table, _rotated, _synthesis, project_samples, synthesize
from onofri.mobius import _dilated_meridian
from onofri.sampling import random_conformal, random_field
from onofri.sphere import DEFAULT_POLICY, ConvergenceError, RefinementPolicy, _make_grid, moments


def w3_times(eps):
    return HarmonicField.from_entries(1, {(1, 0): eps / math.sqrt(3.0)})


def test_onofri_trivial_cases():
    assert abs(onofri_value(1.0, HarmonicField.zero(2))) < 1e-14
    assert abs(onofri_value(0.7, HarmonicField.constant(0.9))) < 1e-13


def test_onofri_equality_case(grid72):
    # J_1 vanishes on (1/2) ln J up to additive constants
    e = build_extremal(dilation(2.0))
    half_log_j = psi_field(e, 32, grid72).field * (2.0 / 3.0)
    assert abs(onofri_value(1.0, half_log_j)) < 1e-6


def test_chang_gui_trivial():
    rep = chang_gui_report(2.0 / 3.0, HarmonicField.zero(3))
    assert rep.value == 0.0
    assert rep.lorentzian == pytest.approx(1.0, abs=1e-14)
    assert rep.grid["theta_count"] > 0
    # constants cancel exactly as well
    rep_c = chang_gui_report(2.0 / 3.0, HarmonicField.constant(1.3))
    assert abs(rep_c.value) < 1e-12


def test_chang_gui_report_assembly(rng):
    u = random_field(rng, 5, 0.4)
    rep = chang_gui_report(1.0, u)
    assert rep.energy == pytest.approx(dirichlet_energy(u), abs=1e-15)
    assert rep.mean == pytest.approx(u.mean(), abs=1e-15)
    assert rep.value == pytest.approx(
        rep.alpha * rep.energy + 2 * rep.mean - 0.5 * math.log(rep.lorentzian), abs=1e-14
    )
    assert rep.lorentzian > 0
    assert rep.grid["theta_count"] > 0


def test_chang_gui_zero_on_extremal(grid72):
    proj = psi_field(build_extremal(dilation(2.0)), 32, grid72)
    assert abs(chang_gui_value(2.0 / 3.0, proj.field)) < 1e-8


def test_chang_gui_small_perturbation():
    u = w3_times(0.1)
    rep = chang_gui_report(2.0 / 3.0, u)
    assert rep.value >= 0.0


def test_nonconvergence_raises(rng):
    u = random_field(rng, 5, 0.4)
    starved = RefinementPolicy(theta_cap=9)
    with pytest.raises(ConvergenceError, match="exponential moments .* grid cap .theta cap 9."):
        chang_gui_report(1.0, u, policy=starved)
    with pytest.raises(ConvergenceError, match="theta cap 9"):
        exp_moments(u, starved)


def test_exp_moments_shared_by_equal_fields_and_policies(refine_calls, rng):
    u = random_field(rng, 4, 0.6)
    first = exp_moments(u)
    assert exp_moments(HarmonicField(u.l_max, u.coeffs.copy())) is first
    assert exp_moments(u, replace(DEFAULT_POLICY)) is first
    assert len(refine_calls) == 1
    # a different tolerance or cap is a different quadrature
    assert exp_moments(u, RefinementPolicy(rtol=1e-10)) is not first
    assert exp_moments(u, RefinementPolicy(theta_cap=400)) is not first
    assert len(refine_calls) == 3
    # the two functionals of one field share one quadrature
    refine_calls.clear()
    v = random_field(rng, 4, 0.6)
    chang_gui_report(1.0, v)
    onofri_value(1.0, v)
    assert len(refine_calls) == 1


def test_exp_moments_keeps_four_fields(rng):
    u, *others = (random_field(rng, 2, 0.5) for _ in range(8))
    first = exp_moments(u)
    for v in others[:3]:
        exp_moments(v)
    assert exp_moments(u) is first
    for v in others[3:]:
        exp_moments(v)
    assert exp_moments(u) is not first


def test_exp_moments_read_only(rng):
    mom = exp_moments(random_field(rng, 3, 0.5))
    for arr in (mom.moment, mom.delta):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_exp_moments_errors_not_kept(refine_calls, rng):
    u = random_field(rng, 5, 0.4)
    starved = RefinementPolicy(theta_cap=9)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="theta cap 9"):
            exp_moments(u, starved)
    assert len(refine_calls) == 2


@pytest.mark.parametrize("band", [0, 1, 8, 16, 32])
def test_exp_moments_step_matches_synthesize(monkeypatch, band, rng):
    # each refinement step, observed on every grid of the ladder, is the
    # quadrature of e^{2(u - mean)} from synthesize and moments
    steps = []

    def every_grid(policy, func, what, min_band=0):
        for grid in policy.grids(min_band):
            steps.append((grid, func(grid).copy()))
        return steps[-1][1], steps[-1][0]

    monkeypatch.setattr(RefinementPolicy, "refine", every_grid)
    _exp_moments.cache_clear()
    try:
        for amplitude in (0.25, 0.8, 3.0):
            u = random_field(rng, band, amplitude)
            steps.clear()
            exp_moments(u)
            assert len(steps) == len(list(DEFAULT_POLICY.grids(band)))
            for grid, got in steps:
                ref = moments(grid, np.exp(2.0 * (synthesize(u, grid).samples - u.mean())))
                assert np.max(np.abs(got - ref)) <= 1e-15 * ref[0]
    finally:
        _exp_moments.cache_clear()  # keep no moments of the stubbed refinement


def test_exp_moments_overflow_fails_at_once(refine_calls):
    # e^{2u} overflows on the first grid: no climb to the cap, and no warning
    # (warnings fail the suite)
    u = random_field(np.random.default_rng(0), 8, 400.0)
    with pytest.raises(ConvergenceError, match=r"not finite on the grid of 25 theta rows: e\^\(2\(u - mean\)\) overflows$"):
        exp_moments(u)
    assert len(refine_calls) == 1


def test_exp_moments_large_mean_names_the_overflow():
    # e^(2 mean) is past the largest float although e^(2(u - mean)) is 1:
    # a refusal naming the overflow, not a bare OverflowError
    with pytest.raises(ConvergenceError, match=r"not finite: e\^\(2u\) overflows at mean\(u\) = 400$"):
        exp_moments(HarmonicField.constant(400.0))
    assert math.isfinite(exp_moments(HarmonicField.constant(354.0)).mass)


def test_sharp_functional_names_an_overflowing_lorentzian():
    # the mass e^400 is a float, its square is not
    with pytest.raises(ConvergenceError, match="^Lorentzian quantity overflows: the mass of e\\^\\(2u\\) is 5.221e\\+173$"):
        chang_gui_report(1.0, HarmonicField.constant(200.0))
    assert math.isfinite(onofri_value(1.0, HarmonicField.constant(200.0)))


def test_exp_moments_constant():
    mom = exp_moments(HarmonicField.constant(0.5))
    assert abs(mom.mass - math.exp(1.0)) < 1e-12
    assert np.max(np.abs(mom.moment)) < 1e-12


def test_transform_identity(grid72, rng):
    u = random_field(rng, 6, 0.4)
    moved = transform(u, identity_map(), 6, grid72)
    assert np.max(np.abs(moved.field.coeffs - u.coeffs)) < 1e-12


def test_transform_by_rotation(grid72, rng):
    # a rotation has J = 1 and psi = 0: transform returns u o R, its tail at rounding level
    u = random_field(rng, 8, 0.5)
    tau = rotation([0.3, -1.0, 0.6], 1.1)
    moved = transform(u, tau, 8, grid72)
    pts = rng.normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    assert np.max(np.abs(evaluate_at(moved.field, pts) - evaluate_at(u, tau.apply(pts)))) < 1e-13
    assert moved.tail_fraction == 0.0


def test_transform_of_zero_is_psi(grid72):
    tau = dilation(2.0)
    moved = transform(HarmonicField.zero(2), tau, 24, grid72)
    proj = psi_field(build_extremal(tau), 24, grid72)
    assert np.max(np.abs(moved.field.coeffs - proj.field.coeffs)) < 1e-10
    assert moved.tail_fraction == proj.tail_fraction
    # at lambda = 20 the tail is real, and both read it exactly: psi is added in closed form, so
    # no grid's quadrature of it enters
    tau = dilation(20.0)
    proj = psi_field(build_extremal(tau), 24, tail_threshold=None)
    assert proj.tail_fraction > 1e-3
    for n in (72, 300):
        moved = transform(HarmonicField.zero(2), tau, 24, build_grid(n), tail_threshold=None)
        assert moved.tail_fraction == pytest.approx(proj.tail_fraction, rel=1e-7)


@pytest.mark.parametrize("lam", [10.0, 50.0])
@pytest.mark.parametrize("n", [24, 48, 72])
def test_transform_of_zero_is_psi_on_coarse_grids(lam, n):
    # a quadrature of sampled ln J missed psi_field here by up to 2.7e-3 (lambda = 50, build_grid(24), band 8)
    tau = dilation(lam)
    for l_max in (8, 24, 32, 48, 72):
        if l_max > n:
            continue
        moved = transform(HarmonicField.zero(2), tau, l_max, build_grid(n), tail_threshold=None)
        proj = psi_field(build_extremal(tau), l_max, tail_threshold=None)
        assert np.max(np.abs(moved.field.coeffs - proj.field.coeffs)) <= 1e-14


def test_transform_keeps_no_energy_at_band_zero():
    # band 0 keeps none of psi's energy: the tail is 1, as psi_field's, and the gate refuses it
    tau = dilation(2.0)
    moved = transform(HarmonicField.zero(0), tau, 0, build_grid(4), tail_threshold=None)
    assert moved.tail_fraction == psi_field(build_extremal(tau), 0, tail_threshold=None).tail_fraction == 1.0
    with pytest.raises(ConvergenceError, match="^transform tail energy fraction 1.000e\\+00 exceeds threshold$"):
        transform(HarmonicField.zero(0), tau, 0, build_grid(4))


def test_transform_reads_no_tail_from_rounding(grid72):
    # the coefficients of a field near a constant round at about eps (1 + |mean|) whatever its
    # energy; psi comes in closed form, so neither it nor the mean adds rounding that a floor of
    # 1e-14 of the energies would read as a tail
    assert transform(HarmonicField.zero(2), dilation(1.0 + 3e-13), 32, grid72).tail_fraction == 0.0
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = random_field(rng, 8, 1e-12)
        assert transform(u, normalize(u).tau, 32, grid72).tail_fraction == 0.0
    for _ in range(10):
        u = random_field(rng, 8, 1e-12) + HarmonicField.constant(rng.uniform(-9.0, 9.0))
        assert transform(u, normalize(u).tau, 32, grid72).tail_fraction == 0.0


@pytest.mark.parametrize("seed, l_max", [(2, 48), (7, 32), (15, 32), (31, 32), (50, 32), (58, 48)])
def test_transform_reads_a_small_real_tail(grid72, seed, l_max):
    # re-centerings whose real tail is 1e-14 to 1e-12 of the energy, which a floor bounding the
    # rounding of sampled psi read as 0; a band-140 projection on build_grid(300) is the reference
    rng = np.random.default_rng(seed)
    u = random_field(rng, 8, 1.0) + HarmonicField.constant(rng.uniform(-9.0, 9.0))
    tau = normalize(u).tau
    wide = transform(u, tau, 140, build_grid(300), tail_threshold=None).field
    l = wide.degrees()
    spectrum = l * (l + 1) * wide.coeffs**2
    reference = spectrum[(l_max + 1) ** 2:].sum() / spectrum.sum()
    assert 1e-14 < reference < 1e-12
    assert transform(u, tau, l_max, grid72).tail_fraction == pytest.approx(reference, rel=0.1, abs=0.0)


def test_composition_energy_matches_a_wide_transform(rng):
    # E(u o tau + psi_tau) in closed form against the energy of a band-140
    # projection, whose tail is below rounding at lambda_eff <= 6
    grid = build_grid(300)
    for _ in range(20):
        u = random_field(rng, int(rng.integers(1, 9)), 0.5)
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        wide = dirichlet_energy(transform(u, tau, 140, grid, tail_threshold=None).field)
        assert abs(_compose(u, tau).energy() - wide) <= 1e-12 * wide


def test_transform_keeps_the_closed_form_mean(rng):
    # the mean of u o tau + psi_tau is mean(u) + c + (E(u) - E(u o tau + psi_tau))/3, with c psi's
    # normalizer; the kept energy is at most the whole
    grid = build_grid(160)
    for _ in range(40):
        u = random_field(rng, int(rng.integers(1, 9)), 0.5)
        tau = random_conformal(rng, lam_eff_cap=10.0, allow_reflect=True)
        moved = transform(u, tau, 48, grid, tail_threshold=None)
        total = _compose(u, tau).energy()
        mean = u.mean() + build_extremal(tau).normalizer + (dirichlet_energy(u) - total) / 3.0
        assert abs(moved.field.coeffs[0] - mean) <= 1e-13
        assert dirichlet_energy(moved.field) <= total * (1.0 + 1e-14)


def test_transform_tail_gate(grid48, rng):
    u = random_field(rng, 8, 0.5)
    with pytest.raises(ConvergenceError):
        transform(u, dilation(4.0), 8, grid48, tail_threshold=1e-10)


def test_transform_refuses_a_grid_below_the_band(grid16, grid72):
    # build_grid(16)'s quadrature is exact to band 16 only, so its band-32 coefficients would be wrong
    u = random_field(np.random.default_rng(0), 8, 0.5)
    with pytest.raises(ValueError, match="grid resolves band 16 < requested l_max 32"):
        transform(u, dilation(3.0), 32, grid16)
    with pytest.raises(ConvergenceError):
        transform(u, dilation(3.0), 32, grid72)


def test_conformal_invariance(grid104, rng):
    worst = 0.0
    for _ in range(3):
        u = random_field(rng, 8, 0.3)
        base = chang_gui_value(2.0 / 3.0, u)
        for _ in range(2):
            tau = random_conformal(rng, lam_eff_cap=3.0, allow_reflect=True)
            moved = transform(u, tau, 48, grid104).field
            worst = max(worst, abs(chang_gui_value(2.0 / 3.0, moved) - base))
    assert worst < 1e-6


def test_constant_shift_invariance(rng):
    u = random_field(rng, 5, 0.4)
    shifted = u + HarmonicField.constant(-0.8)
    assert abs(chang_gui_value(2.0 / 3.0, shifted) - chang_gui_value(2.0 / 3.0, u)) < 1e-10


def test_constant_shift_invariance_small_mass():
    # e^{2u} = e^{-16} e^{2v}: the refinement must still stop on a relative test
    v = random_field(np.random.default_rng(0), 8, 2.0)
    u = v + HarmonicField.constant(-8.0)
    assert abs(chang_gui_value(2.0 / 3.0, u) - chang_gui_value(2.0 / 3.0, v)) <= 1e-10
    assert abs(onofri_value(2.0 / 3.0, u) - onofri_value(2.0 / 3.0, v)) <= 1e-10


def test_ordering_sharp_vs_classical(rng):
    # the Lorentzian quantity is at most the squared mass, so I >= J
    for _ in range(5):
        u = random_field(rng, 6, 0.5)
        assert chang_gui_value(1.0, u) >= onofri_value(1.0, u) - 1e-10


def test_cg_bound_trivial():
    assert abs(cg_bound_slack(1.0, HarmonicField.zero(2))) < 1e-14
    with pytest.raises(ValueError):
        cg_bound_slack(0.5, HarmonicField.zero(2))


def test_cg_bound_on_extremal(grid72):
    proj = psi_field(build_extremal(dilation(2.0)), 32, grid72)
    assert abs(cg_bound_slack(2.0 / 3.0, proj.field)) < 1e-8


@pytest.mark.parametrize("alpha", [2.0 / 3.0, 1.0, 2.0])
def test_cg_bound_random_sweep(alpha, rng):
    for _ in range(8):
        u = random_field(rng, 8, 0.5)
        assert cg_bound_slack(alpha, u) >= -1e-8


@pytest.mark.parametrize(
    "make_u, tau, grid_name, l_max, bound",
    [
        pytest.param(lambda r: random_field(r, 6, 0.5), rotation([0, 1, 0], 0.9), "grid48", 24, 1e-10, id="rotation"),
        pytest.param(lambda r: w3_times(1.0), dilation(2.0), "grid72", 32, 1e-6, id="dilation"),
        pytest.param(lambda r: HarmonicField.constant(2.0), dilation(3.0), "grid48", 24, 1e-12, id="constant"),
    ],
)
def test_dirichlet_invariance(request, rng, make_u, tau, grid_name, l_max, bound):
    # E is conformally invariant: projecting u o tau loses only truncation and quadrature error
    u, grid = make_u(rng), request.getfixturevalue(grid_name)
    proj = project_samples(_compose(u, tau).samples(grid)[0], grid, l_max)
    assert abs(dirichlet_energy(proj.field) - dirichlet_energy(u)) < bound
    assert proj.tail_fraction < 1e-6


def test_report_json(rng):
    import json

    u = random_field(rng, 4, 0.3)
    rep = chang_gui_report(2.0 / 3.0, u)
    d = json.loads(rep.to_json())
    assert set(d) == {
        "alpha", "energy", "mean", "log_mass", "lorentzian", "value", "grid",
    }


def _sampled_transform(u, tau, l_max, grid):
    # the path transform took before its per-order sums and Fourier profiles:
    # the composition's samples at every node from the recurrence's Legendre
    # table at the dilated meridian, plus psi_field's closed form synthesized
    # to the band of the tail estimate, projected by quadrature over every
    # azimuth, and rotated back
    comp = _compose(u, tau)
    t, s, _ = _dilated_meridian(comp.lam, grid.cos_theta)
    samples = _synthesis(comp.field._order_major @ _legendre_table(u.l_max, t, s), grid)
    psi = psi_field(build_extremal(tau), min(2 * l_max, grid.band_limit_exact), tail_threshold=None).field
    samples = samples + synthesize(_rotated(psi, comp.frame.T), grid).samples
    proj = project_samples(samples, grid, l_max)
    return _rotated(proj.field, comp.frame).coeffs, proj.tail_fraction


@pytest.mark.parametrize("l_max", [8, 32])
@pytest.mark.parametrize("band", [0, 1, 8, 32])
def test_transform_matches_the_sampled_path(rng, band, l_max):
    # build_grid(n) has 2n + 1 azimuths, more than band + min(2 l_max, n):
    # there the azimuthal sums are exact and the two paths' coefficients agree
    # to rounding.  With A, B and C the energies up to l_max, in (l_max, 2 l_max]
    # and above, the exact tail (B + C)/(A + B + C) is never below the sampled
    # estimate B/(A + B), as A C >= 0
    u = random_field(rng, band, 0.5)
    spin = rotation(rng.normal(size=3), 1.1)
    maps = [
        identity_map(),
        spin,
        ConformalMap.from_matrix(spin.compose(dilation(3.0)).mat, reflect=True),
        random_conformal(rng, lam_eff_cap=50.0, allow_reflect=True),
        rotation(rng.normal(size=3), 2.3).compose(dilation(50.0)).compose(spin),
    ]
    for n in (24, 48, 72, 300):
        grid = build_grid(n)
        if n < l_max:
            continue
        assert grid.phi_count > band + min(2 * l_max, n)
        for tau in maps:
            got = transform(u, tau, l_max, grid, tail_threshold=None)
            coeffs, tail = _sampled_transform(u, tau, l_max, grid)
            assert np.max(np.abs(got.field.coeffs - coeffs)) <= 1e-14 * max(1.0, np.max(np.abs(coeffs)))
            assert got.tail_fraction >= tail - 1e-14


def test_transform_does_not_alias_on_few_azimuths(rng):
    # 49 azimuths are too few for band 40 plus the tail band 16: sampled
    # orders 33-40 alias into 9-16 and move the sampled tail, and the per-order
    # sums give the coefficients the sampled path gives on the same rows with
    # 201 azimuths; the exact tail (0.85) is above that path's estimate (0.55)
    u = random_field(rng, 40, 0.5)
    tau = rotation([1.0, 2.0, 3.0], 0.7).compose(dilation(2.0))
    got = transform(u, tau, 8, _make_grid(25, 49), tail_threshold=None)
    coeffs, tail = _sampled_transform(u, tau, 8, _make_grid(25, 201))
    assert np.max(np.abs(got.field.coeffs - coeffs)) <= 1e-14 * max(1.0, np.max(np.abs(coeffs)))
    assert got.tail_fraction >= tail - 1e-14
    assert abs(_sampled_transform(u, tau, 8, _make_grid(25, 49))[1] - tail) > 1e-5


def test_dilated_meridian_matches_mpmath():
    # against the chart at 40 digits, each abscissa t taken as exact: z -> lam z
    # takes |z|^2 = (1 + t)/(1 - t) to r = lam^2 |z|^2, where the image cos is
    # (r - 1)/(r + 1), its sine 2 sqrt(r)/(r + 1), and the Jacobian
    # lam^2 (1 + |z|^2)^2 / (1 + r)^2
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for n in (72, 300):
        t = build_grid(n).cos_theta
        for lam in (1.0, 1.3, 6.0, 50.0, 1e3):
            x, s, jac = _dilated_meridian(lam, t)
            with mpmath.workdps(40):
                for k, tk in enumerate(t):
                    z2 = (1 + mpmath.mpf(tk)) / (1 - mpmath.mpf(tk))
                    r = mpmath.mpf(lam) ** 2 * z2
                    assert abs(x[k] - (r - 1) / (r + 1)) <= 4 * eps
                    exact = 2 * mpmath.sqrt(r) / (r + 1)
                    assert abs(s[k] - exact) <= 8 * eps * exact
                    exact = mpmath.mpf(lam) ** 2 * (1 + z2) ** 2 / (1 + r) ** 2
                    assert abs(jac[k] - exact) <= 8 * eps * exact
