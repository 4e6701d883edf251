import math

import numpy as np
import pytest

from onofri import (
    ConformalMap,
    HarmonicField,
    Projection,
    build_extremal,
    build_grid,
    center_of_mass,
    conformal_mass,
    dilation,
    euler_lagrange_residual,
    generator_com,
    generator_mass,
    identity_map,
    integrate,
    inversion,
    moments,
    psi_field,
    psi_values,
    recentering_map,
    rotation,
    sqrt_jacobian_residual,
    synthesize,
    transform,
    translation_to,
)
from onofri import harmonics
from onofri.extremals import _ball_point
from onofri.harmonics import coeff_index
from onofri.sampling import (
    random_conformal,
    random_rotation,
    random_translation_point,
)
from onofri.sphere import ConvergenceError, RefinementPolicy


def test_mass_closed_forms():
    assert generator_mass("dilation", 1.0) == 1.0
    assert abs(generator_mass("dilation", 2.0) - 1.25) < 1e-15
    p = np.array([1.0, 0.0, 0.0])
    assert abs(generator_mass("translation", p) - 1.5) < 1e-15
    assert generator_mass("rotation") == 1.0
    assert generator_mass("inversion") == 1.0
    # the south pole is the base point: translation to it is the identity
    assert abs(generator_mass("translation", [0.0, 0.0, -1.0]) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        generator_mass("boost")


def test_com_closed_forms():
    assert np.allclose(generator_com("dilation", 1.0), 0.0)
    assert np.allclose(generator_com("dilation", 2.0), [0, 0, -0.6])
    assert np.allclose(generator_com("translation", [1.0, 0, 0]), [-2 / 3, 0, 1 / 3])
    assert np.allclose(generator_com("rotation"), 0.0)
    assert np.allclose(generator_com("translation", [0.0, 0.0, -1.0]), 0.0)


def test_translation_closed_form_accepts_plane_offset():
    # passing beta = S(p) directly gives the same values
    p = random_translation_point(np.random.default_rng(5))
    beta = complex(p[0], p[1]) / (1 - p[2])
    assert abs(generator_mass("translation", beta) - generator_mass("translation", p)) < 1e-13
    assert np.allclose(generator_com("translation", beta), generator_com("translation", p), atol=1e-13)


def test_mass_numeric_examples():
    assert abs(conformal_mass(identity_map()) - 1.0) < 1e-14
    assert abs(conformal_mass(dilation(2.0)) - 1.25) < 1e-12
    assert abs(conformal_mass(translation_to([1.0, 0, 0])) - 1.5) < 1e-12


def test_mass_numeric_on_pinned_grid(grid48):
    assert abs(moments(grid48, dilation(2.0).jacobian(grid48.nodes) ** 1.5)[0] - 1.25) < 1e-12


def test_mass_numeric_nonconvergent():
    starved = RefinementPolicy(theta_cap=6)
    with pytest.raises(ConvergenceError, match="conformal-map moments .* grid cap .theta cap 6."):
        conformal_mass(dilation(4.0), policy=starved)


def test_com_numeric_examples():
    assert np.max(np.abs(center_of_mass(identity_map()))) < 1e-14
    assert np.max(np.abs(center_of_mass(dilation(2.0)) - [0, 0, -0.6])) < 1e-12
    got = center_of_mass(translation_to([1.0, 0, 0]))
    assert np.max(np.abs(got - [-2 / 3, 0, 1 / 3])) < 1e-12


@pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 4.0])
def test_generator_closed_forms_match_quadrature(lam):
    tau = dilation(lam)
    assert abs(conformal_mass(tau) - generator_mass("dilation", lam)) < 1e-10
    assert np.max(np.abs(center_of_mass(tau) - generator_com("dilation", lam))) < 1e-10


def test_build_extremal_identity():
    e = build_extremal(identity_map())
    assert abs(e.mass - 1.0) < 1e-13
    assert np.max(np.abs(e.com)) < 1e-13
    assert abs(e.normalizer) < 1e-13


def test_build_extremal_dilation2():
    e = build_extremal(dilation(2.0))
    assert abs(e.normalizer + 0.5 * math.log(1.25)) < 1e-12
    assert abs((1 - e.com @ e.com) - 0.64) < 1e-12
    assert abs(math.exp(4 * e.normalizer) - 1.25 ** (-2)) < 1e-12


def test_build_extremal_matches_quadrature(rng):
    # the closed form against the J^(3/2) quadrature oracle
    for k in range(8):
        tau = random_conformal(rng, allow_reflect=True)
        if k % 2:
            tau = ConformalMap(tau.mobius, reflect=not tau.reflect)
        e = build_extremal(tau)
        mass = conformal_mass(tau)
        assert abs(e.mass - mass) < 1e-12
        assert np.max(np.abs(e.com - center_of_mass(tau))) < 1e-12
        assert abs(e.normalizer + 0.5 * math.log(mass)) < 1e-12


def test_ball_point_matches_cartan_frame(rng):
    # the reference: b = -ln(lam) O_V^T e3 from the Cartan split
    maps = [random_conformal(rng, allow_reflect=True) for _ in range(400)]
    maps += [
        identity_map(),
        inversion(),
        dilation(1e4),
        recentering_map(0.3 + 0.2j, 1e-6),
        recentering_map(0.3 + 0.2j, 1e6),
    ]
    for tau in maps:
        _, lam, frame = tau._cartan()
        ref = -math.log(lam) * frame[2]
        b = _ball_point(tau)
        assert np.max(np.abs(b - ref)) <= 1e-14 * max(1.0, np.linalg.norm(ref))
    for tau in (random_rotation(rng), rotation([1.0, -2.0, 0.5], 2.3), inversion()):
        assert np.linalg.norm(_ball_point(tau)) <= 1e-15


def test_build_extremal_matches_generator_closed_forms(rng):
    cases = [("dilation", lam, dilation(lam)) for lam in (0.25, 0.5, 2.0, 4.0)]
    for _ in range(3):
        p = random_translation_point(rng)
        cases.append(("translation", p, translation_to(p)))
    cases += [("rotation", None, random_rotation(rng)), ("inversion", None, inversion())]
    for kind, param, tau in cases:
        e = build_extremal(tau)
        assert abs(e.mass - generator_mass(kind, param)) < 1e-12, kind
        assert np.max(np.abs(e.com - generator_com(kind, param))) < 1e-12, kind


def test_extremal_near_the_sphere():
    # |a| = 1 - 2e-8: the closed form needs no quadrature grid
    e = build_extremal(dilation(1e4))
    assert e.mass == pytest.approx(5000.00005, rel=1e-14)
    assert e.com[2] == pytest.approx(generator_com("dilation", 1e4)[2], rel=1e-15)
    # at dilation(50) the J^(3/2) quadrature hits the theta cap; transform needs only c
    grid = build_grid(300)
    tau = dilation(50.0)
    proj = transform(HarmonicField.zero(8), tau, 8, grid, tail_threshold=None)
    assert isinstance(proj, Projection)
    psi = psi_field(build_extremal(tau), 8, grid, tail_threshold=None).field
    assert np.max(np.abs(proj.field.coeffs - psi.coeffs)) < 1e-10


def test_extremal_invariants_random(rng):
    for _ in range(6):
        tau = random_conformal(rng, allow_reflect=True)
        e = build_extremal(tau)
        assert e.mass >= 1.0 - 1e-10
        a2 = float(e.com @ e.com)
        assert a2 < 1.0
        assert abs(e.normalizer + 0.5 * math.log(e.mass)) < 1e-12
        assert abs(math.exp(4 * e.normalizer) - (1 - a2)) < 1e-8


def test_left_rotation_invariance(rng, grid48):
    tau = random_conformal(rng)
    rho = random_rotation(rng)
    e1 = build_extremal(tau)
    e2 = build_extremal(rho.compose(tau))
    assert abs(e1.mass - e2.mass) < 1e-10
    assert abs(e1.normalizer - e2.normalizer) < 1e-10
    psi1 = psi_values(e1, grid48.nodes)
    psi2 = psi_values(e2, grid48.nodes)
    assert np.max(np.abs(psi1 - psi2)) < 1e-10


def test_psi_field_identity(grid48):
    proj = psi_field(build_extremal(identity_map()), 8, grid48)
    assert np.max(np.abs(proj.field.coeffs)) < 1e-14
    assert proj.tail_fraction == 0.0


def test_psi_field_samples_no_grid(monkeypatch, rng):
    # the quadrature of psi's samples is the tests' reference alone
    taus = [identity_map(), dilation(50.0), random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)]
    extremals = [build_extremal(tau) for tau in taus]

    def forbidden(*args, **kwargs):
        raise AssertionError("psi_field sampled a grid")

    monkeypatch.setattr(harmonics, "project_samples", forbidden)
    monkeypatch.setattr(harmonics, "analyze", forbidden)
    monkeypatch.setattr(ConformalMap, "jacobian", forbidden)
    for e in extremals:
        assert psi_field(e, 32, tail_threshold=None).field.l_max == 32


def test_psi_field_zonal(grid72):
    proj = psi_field(build_extremal(dilation(2.0)), 24, grid72)
    c = proj.field.coeffs.copy()
    for l in range(25):
        c[coeff_index(l, 0)] = 0.0
    assert np.max(np.abs(c)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_psi_mass_recheck(lam, grid72):
    # int exp(2 * synthesized psi) recovers 1 at moderate band limits
    e = build_extremal(dilation(lam))
    proj = psi_field(e, 24, grid72)
    val = integrate(grid72, np.exp(2.0 * synthesize(proj.field, grid72).samples))
    assert abs(val - 1.0) < 1e-8


def test_psi_field_tail_gate(grid48):
    e = build_extremal(dilation(4.0))
    with pytest.raises(ConvergenceError):
        psi_field(e, 4, grid48, tail_threshold=1e-12)


def test_sqrt_jacobian_identity(grid48, rng):
    assert sqrt_jacobian_residual(build_extremal(identity_map()), grid48) < 1e-14
    assert sqrt_jacobian_residual(build_extremal(dilation(2.0)), grid48) < 1e-10
    for _ in range(4):
        e = build_extremal(random_conformal(rng, allow_reflect=True))
        assert sqrt_jacobian_residual(e, grid48) < 1e-8


def test_euler_lagrange_identity(grid48):
    # psi == 0 and a == 0: the residual is |0 + 1 - 1|
    assert euler_lagrange_residual(build_extremal(identity_map()), 8, grid48) < 1e-13


@pytest.mark.parametrize(
    "tau",
    [
        dilation(2.0),
        dilation(0.5),
        translation_to([1.0, 0.0, 0.0]),
        translation_to([-0.3, 0.4, -math.sqrt(1 - 0.25)]),
    ],
    ids=["dil2", "dil-half", "trans-x", "trans-generic"],
)
def test_euler_lagrange_residual_generators(tau, grid72):
    e = build_extremal(tau)
    assert euler_lagrange_residual(e, 32, grid72) < 1e-6


def test_extremal_json_round_trip():
    import json

    e = build_extremal(dilation(2.0))
    d = json.loads(e.to_json())
    assert set(d) == {"tau", "mass", "com", "normalizer"}
    assert abs(d["mass"] - e.mass) == 0.0
    assert d["com"][2] == pytest.approx(-0.6, abs=1e-12)


def test_zero_functional_value(grid72, rng):
    from onofri import chang_gui_value

    for _ in range(3):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        proj = psi_field(build_extremal(tau), 32, grid72)
        assert abs(chang_gui_value(2.0 / 3.0, proj.field)) < 1e-8
