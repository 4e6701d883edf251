import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onofri import (
    INFINITY,
    ConformalMap,
    dilation,
    identity_map,
    inversion,
    jacobian_area_oracle,
    recentering_map,
    rotation,
    stereo_inverse,
    stereo_project,
    translation,
    translation_to,
)
from onofri.sampling import random_conformal, random_unit_vector

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


def is_identity(m: ConformalMap, tol: float = 1e-12) -> bool:
    return not m.reflect and np.allclose(m.mat, np.eye(2), rtol=0.0, atol=tol)


def chart_jacobian(m: ConformalMap, z: complex) -> float:
    # the closed form in the plane chart, straight from the definition
    num = 1 + abs(z) ** 2
    den = abs(m.a * z + m.b) ** 2 + abs(m.c * z + m.d) ** 2
    return (num / den) ** 2


def inverted_chart_jacobian(m: ConformalMap, zeta: complex) -> float:
    # same formula after the chart switch z = 1/zeta
    num = 1 + abs(zeta) ** 2
    den = abs(m.d * zeta + m.c) ** 2 + abs(m.b * zeta + m.a) ** 2
    return (num / den) ** 2


complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def test_mobius_normalization():
    m = ConformalMap(2, 0, 0, 2)
    assert abs(_det(m) - 1.0) < 1e-15
    assert abs(m.a - 1.0) < 1e-15
    with pytest.raises(ValueError):
        ConformalMap(1, 1, 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConformalMap(math.nan, 0, 0, 1),
        lambda: dilation(math.inf),
        lambda: translation(complex(math.inf)),
        # ad - bc overflows to inf, which once scaled the matrix to zero
        lambda: ConformalMap.from_dict({"a": [1e200, 0], "b": [0, 0], "c": [0, 0], "d": [1e200, 0]}),
    ],
    ids=["nan-entry", "infinite-dilation", "infinite-translation", "overflowing-determinant"],
)
def test_nonfinite_matrix_is_refused(build):
    with pytest.raises(ValueError, match="matrix entries and determinant must be finite"):
        build()


def test_sign_convention_deterministic():
    m1 = ConformalMap(-1, 0, 0, -1)
    m2 = ConformalMap(1, 0, 0, 1)
    assert np.allclose(m1.mat, m2.mat)


def _det(m: ConformalMap) -> complex:
    return m.a * m.d - m.b * m.c


def _det_rounding(m: ConformalMap) -> float:
    # ad - bc of the stored entries rounds at about eps (|a||d| + |b||c|)
    return 8.0 * np.finfo(float).eps * (abs(m.a) * abs(m.d) + abs(m.b) * abs(m.c))


@settings(max_examples=25, deadline=None)
@given(complex_entries, complex_entries, complex_entries, complex_entries)
# m o m has entries near 44 here, so its determinant rounds at 2.3e-13
@example(1.5 + 0.75j, 1.5 + 1j, 1 + 0.75j, 1 + 0.875j)
def test_unimodularity_preserved(a, b, c, d):
    if abs(a * d - b * c) < 0.1:
        return
    m = ConformalMap(a, b, c, d)
    for checked in (m, m.compose(m.inverse()), m.compose(m)):
        assert abs(_det(checked) - 1.0) <= _det_rounding(checked)


def test_dilation_examples():
    assert is_identity(dilation(1.0))
    assert not is_identity(dilation(1.00001))  # 5e-6 off I, far above the default tol
    d4 = dilation(4.0)
    assert abs(d4.a - 2.0) < 1e-15 and abs(d4.d - 0.5) < 1e-15
    for lam in (0.3, 1.0, 5.0):
        assert np.allclose(dilation(lam).apply(SOUTH), SOUTH, atol=1e-15)
    with pytest.raises(ValueError):
        dilation(0.0)
    with pytest.raises(ValueError):
        dilation(-2.0)


def test_translation_examples():
    assert is_identity(translation(0j))
    assert is_identity(translation(stereo_project(SOUTH)))
    t = translation(1 + 0j)
    assert np.allclose(t.apply(SOUTH), stereo_inverse(1 + 0j), atol=1e-15)
    p = np.array([1.0, 0.0, 0.0])
    assert np.allclose(translation_to(p).apply(SOUTH), p, atol=1e-15)
    with pytest.raises(ValueError):
        translation(INFINITY)
    with pytest.raises(ValueError):
        translation_to(NORTH)


def test_rotation_examples(rng):
    assert is_identity(rotation([0, 0, 1], 0.0))
    # rotation by pi about the x1-axis is the Mobius map z -> 1/z
    r = rotation([1, 0, 0], math.pi)
    assert np.max(np.abs(np.abs(r.mat) - np.array([[0, 1], [1, 0]]))) < 1e-15
    pts = np.array([random_unit_vector(rng) for _ in range(12)])
    expect = pts * np.array([1.0, -1.0, -1.0])
    assert np.max(np.abs(r.apply(pts) - expect)) < 1e-14
    assert np.max(np.abs(r.jacobian(pts) - 1.0)) < 1e-14
    # generic axis-angle agrees with the Rodrigues rotation
    axis = random_unit_vector(rng)
    angle = 1.234
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    rod = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    got = rotation(axis, angle).apply(pts)
    assert np.max(np.abs(got - pts @ rod.T)) < 1e-13


def test_inversion_examples(rng):
    inv = inversion()
    assert inv.reflect
    assert is_identity(inv.compose(inv))
    pts = np.array([random_unit_vector(rng) for _ in range(10)])
    assert np.max(np.abs(inv.jacobian(pts) - 1.0)) < 1e-14
    # the equator |z| = 1 is fixed
    eq = np.array([math.cos(0.3), math.sin(0.3), 0.0])
    z = stereo_project(inv.apply(eq))
    assert abs(abs(z) - 1.0) < 1e-14
    # plane action is x / |x|^2
    z0 = 0.5 + 0.25j
    img = stereo_project(inv.apply(stereo_inverse(z0)))
    assert abs(img - z0 / abs(z0) ** 2) < 1e-15


def test_apply_examples(rng):
    w0 = random_unit_vector(rng)
    assert np.max(np.abs(identity_map().apply(w0) - w0)) < 1e-15
    w = np.array([1.0, 0.0, 0.0])
    img = dilation(2.0).apply(w)
    assert np.allclose(img, [0.8, 0.0, 0.6], atol=1e-15)
    # composition consistency as a group action
    t1 = random_conformal(rng, allow_reflect=True)
    t2 = random_conformal(rng, allow_reflect=True)
    pts = np.array([random_unit_vector(rng) for _ in range(20)])
    lhs = t1.compose(t2).apply(pts)
    rhs = t1.apply(t2.apply(pts))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_pole_cases():
    # c z + d = 0 at z = 2 for this map: the image is the north pole
    m = ConformalMap(1, 0, 1, -2)
    w = stereo_inverse(2 + 0j)
    assert np.allclose(m.apply(w), NORTH, atol=1e-13)
    # the north pole maps through a/c
    img = m.apply(NORTH)
    assert np.allclose(img, stereo_inverse(m.a / m.c), atol=1e-13)
    # a map with c = 0 fixes the north pole
    assert np.allclose(dilation(2.0).apply(NORTH), NORTH, atol=1e-15)


def test_jacobian_examples(rng):
    pts = np.array([random_unit_vector(rng) for _ in range(10)])
    assert np.max(np.abs(identity_map().jacobian(pts) - 1.0)) < 1e-15
    assert abs(dilation(2.0).jacobian(SOUTH) - 4.0) < 1e-14
    assert abs(dilation(2.0).jacobian([1, 0, 0]) - 0.64) < 1e-14
    assert abs(translation(1 + 0j).jacobian(SOUTH) - 0.25) < 1e-14
    # positive and finite everywhere, including at the poles
    tau = random_conformal(rng, allow_reflect=True)
    for w in (NORTH, SOUTH):
        j = tau.jacobian(w)
        assert np.isfinite(j) and j > 0


def test_cartan_factors_reproduce_map(rng):
    # tau = R_U o dilation(lam) o O_V, with the reflection folded into O_V
    pts = rng.normal(size=(1000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    reflected = ConformalMap.from_matrix(random_conformal(rng).mat, reflect=True)
    maps = [
        identity_map(),
        rotation([1.0, -2.0, 0.5], 2.3),
        inversion(),
        reflected,
        dilation(20.0),
        translation(5 + 1j),
        recentering_map(0.3 + 0.2j, 1e-6),
        recentering_map(0.3 + 0.2j, 1e6),
    ]
    for tau in maps:
        rot, lam, frame = tau._cartan()
        assert lam >= 1.0
        for q in (rot, frame):
            assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-15
        assert np.linalg.det(rot) > 0.0
        assert (np.linalg.det(frame) < 0.0) == tau.reflect
        image = dilation(lam).apply(pts @ frame.T) @ rot.T
        assert np.max(np.abs(image - tau.apply(pts))) <= 1e-14


def _cartan_by_spinors(tau):
    # the reference: each SVD factor's rotation from its spinor action on the basis
    u, s, vh = np.linalg.svd(tau.mat)
    basis = np.eye(3)
    rot = ConformalMap.from_matrix(u).apply(basis).T
    frame = ConformalMap.from_matrix(vh, tau.reflect).apply(basis).T
    return rot, max(float(s[0]) ** 2, 1.0), frame


def test_cartan_lift_blocks_match_spinor_frames(rng):
    # the spatial blocks of the closed-form lift agree with the spinor images
    maps = [random_conformal(rng, allow_reflect=True) for _ in range(400)]
    maps += [
        identity_map(),
        inversion(),
        dilation(1e4),
        recentering_map(0.3 + 0.2j, 1e-6),
        recentering_map(0.3 + 0.2j, 1e6),
        rotation([1.0, -2.0, 0.5], 2.3),
        rotation([0.0, 0.0, 1.0], 1.0),
        ConformalMap.from_matrix(rotation([1.0, 1.0, 1.0], 0.7).mat, reflect=True),
    ]
    for tau in maps:
        rot, lam, frame = tau._cartan()
        ref_rot, ref_lam, ref_frame = _cartan_by_spinors(tau)
        assert lam == ref_lam
        assert np.max(np.abs(rot - ref_rot)) <= 1e-14
        assert np.max(np.abs(frame - ref_frame)) <= 1e-14


def test_jacobian_chart_agreement(rng):
    # the spinor evaluation agrees with the explicit chart formula on both
    # sides of the chart switch, and the two chart formulas agree in overlap
    tau = random_conformal(rng)
    for _ in range(25):
        w = random_unit_vector(rng)
        z = stereo_project(w)
        if z is INFINITY:
            continue
        expected = chart_jacobian(tau, z)
        assert abs(tau.jacobian(w) - expected) < 1e-12 * (1 + expected)
        if abs(z) > 1e-6:
            alt = inverted_chart_jacobian(tau, 1.0 / z)
            assert abs(alt - expected) < 1e-12 * (1 + expected)


def test_jacobian_reflect_insensitive(rng):
    m = random_conformal(rng)
    flipped = ConformalMap.from_matrix(m.mat, reflect=True)
    w = random_unit_vector(rng)
    z = stereo_project(w)
    # reflected map evaluates the same formula at conj(z)
    assert abs(flipped.jacobian(w) - chart_jacobian(m, z.conjugate())) < 1e-12


def test_chain_rule(rng):
    t1 = random_conformal(rng, allow_reflect=True)
    t2 = random_conformal(rng, allow_reflect=True)
    pts = np.array([random_unit_vector(rng) for _ in range(30)])
    lhs = t1.compose(t2).jacobian(pts)
    rhs = t1.jacobian(t2.apply(pts)) * t2.jacobian(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_compose_invert_group_laws(rng):
    taus = [random_conformal(rng, allow_reflect=True) for _ in range(4)]
    for tau in taus:
        assert is_identity(tau.compose(tau.inverse()))
    assert np.allclose(
        dilation(2.0).compose(dilation(3.0)).mat, dilation(6.0).mat
    )


def test_dilation_group_one_parameter():
    lhs = dilation(2.0).compose(dilation(0.5))
    assert is_identity(lhs, tol=1e-15)


def test_area_oracle_trivial(rng):
    p = random_unit_vector(rng)
    assert abs(jacobian_area_oracle(identity_map(), p, 0.1) - 1.0) < 1e-10
    r = rotation(random_unit_vector(rng), 1.1)
    assert abs(jacobian_area_oracle(r, p, 0.1) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        jacobian_area_oracle(identity_map(), p, 0.6)
    with pytest.raises(ValueError):
        jacobian_area_oracle(identity_map(), p, 0.0)


def test_area_oracle_richardson():
    tau = dilation(2.0)
    e1 = abs(jacobian_area_oracle(tau, SOUTH, 0.05) - tau.jacobian(SOUTH))
    e2 = abs(jacobian_area_oracle(tau, SOUTH, 0.025) - tau.jacobian(SOUTH))
    assert 0.8 * 4 <= e1 / e2 <= 1.2 * 4


def test_area_oracle_independent_of_formula(rng):
    tau = random_conformal(rng, lam_eff_cap=4.0)
    p = random_unit_vector(rng)
    assert abs(jacobian_area_oracle(tau, p, 0.02) / tau.jacobian(p) - 1.0) < 5e-3


def test_jacobian_positive_on_whole_grid(grid48, rng):
    # includes nodes adjacent to both poles
    for _ in range(3):
        tau = random_conformal(rng, allow_reflect=True)
        j = tau.jacobian(grid48.nodes)
        assert np.all(np.isfinite(j)) and np.all(j > 0.0)


def test_left_rotation_invariance(rng):
    tau = random_conformal(rng)
    rho = rotation(random_unit_vector(rng), 0.77)
    pts = np.array([random_unit_vector(rng) for _ in range(20)])
    assert np.max(np.abs(rho.compose(tau).jacobian(pts) - tau.jacobian(pts))) < 1e-12


def test_total_mass_of_jacobian(grid72, rng):
    from onofri import integrate

    tau = random_conformal(rng)
    assert abs(integrate(grid72, tau.jacobian(grid72.nodes)) - 1.0) < 1e-9


def test_conformal_map_json_round_trip(rng):
    tau = random_conformal(rng, allow_reflect=True)
    back = ConformalMap.from_dict(json.loads(json.dumps(tau.to_dict(), sort_keys=True)))
    assert back.reflect == tau.reflect
    assert np.allclose(back.mat, tau.mat, atol=1e-15)
    d = tau.to_dict()
    assert set(d) == {"a", "b", "c", "d", "reflect"}
    assert isinstance(d["a"], list) and len(d["a"]) == 2
