import math

import numpy as np
import pytest

from onofri import (
    ConformalMap,
    dilation,
    hermitian_of,
    homomorphism_check,
    identity_map,
    inversion,
    lightcone_residual,
    lorentz_lift,
    minkowski_of,
    quadratic_form,
)
from onofri import lorentz
from onofri.lorentz import ETA
from onofri.sampling import random_unimodular, random_unit_vector

BOOST_SQRT2 = np.array(
    [
        [1.25, 0.0, 0.0, 0.75],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.75, 0.0, 0.0, 1.25],
    ]
)


def test_hermitian_examples():
    assert np.allclose(hermitian_of([1, 0, 0, 0]), np.eye(2))
    assert np.allclose(hermitian_of([1, 0, 0, 1]), [[2, 0], [0, 0]])
    h = hermitian_of([2, 1, 0, 0])
    assert abs(np.linalg.det(h).real - 3.0) < 1e-15
    v = np.array([0.3, -1.2, 0.5, 2.0])
    assert np.allclose(minkowski_of(hermitian_of(v)), v)
    assert abs(np.linalg.det(hermitian_of(v)).real - quadratic_form(v)) < 1e-13


def test_quadratic_form():
    assert quadratic_form([1, 0, 0, 0]) == 1.0
    assert quadratic_form([1, 1, 0, 0]) == 0.0
    assert quadratic_form([2, 1, 0, 0]) == 3.0


def test_lift_identity_and_center():
    assert np.allclose(lorentz_lift(identity_map()), np.eye(4))
    assert np.allclose(lorentz_lift(ConformalMap(-1, 0, 0, -1)), np.eye(4))


def test_lift_refuses_a_reflected_map(rng):
    # a reflected map reverses orientation: neither it nor its matrix has a lift
    a = random_unimodular(rng)
    flipped = ConformalMap.from_matrix(a.mat, reflect=True)
    for tau in (flipped, inversion()):
        with pytest.raises(ValueError, match="orientation-preserving"):
            lorentz_lift(tau)
    for pair in ((a, flipped), (flipped, a)):
        with pytest.raises(ValueError, match="orientation-preserving"):
            homomorphism_check(*pair)


def test_lift_boost():
    # lightlike eigenvectors (1,0,0,+-1) scale by 2 and 1/2
    L = lorentz_lift(dilation(2.0))
    assert np.max(np.abs(L - BOOST_SQRT2)) < 1e-14
    up = np.array([1.0, 0, 0, 1.0])
    dn = np.array([1.0, 0, 0, -1.0])
    assert np.allclose(L @ up, 2.0 * up)
    assert np.allclose(L @ dn, 0.5 * dn)


def test_lift_invariants(rng):
    for _ in range(20):
        m = random_unimodular(rng)
        L = lorentz_lift(m)
        assert np.max(np.abs(L.T @ ETA @ L - ETA)) < 1e-11
        assert abs(np.linalg.det(L) - 1.0) < 1e-11
        assert L[0, 0] >= 1.0 - 1e-12


def _lift_by_loop(a: ConformalMap) -> np.ndarray:
    # the reference: one conjugation per basis vector, decoded one at a time
    basis = ([1.0, 0, 0, 1.0], [1.0, 0, 0, -1.0], [0, 1.0, 1.0, 0], [0, 1.0, -1.0, 0])
    m = a.mat
    u1, u2, u3, u4 = [minkowski_of(m @ hermitian_of(b) @ m.conj().T) for b in basis]
    return np.column_stack([(u1 + u2) / 2.0, (u3 + u4) / 2.0, (u3 - u4) / 2.0, (u1 - u2) / 2.0])


@pytest.mark.parametrize(
    "broken, message",
    [
        (2.0 * np.eye(4), "does not preserve the Lorentzian form"),
        (np.diag([1.0, 1.0, 1.0, -1.0]), "is not proper orthochronous"),  # det -1
        (np.diag([-1.0, -1.0, 1.0, 1.0]), "is not proper orthochronous"),  # L00 = -1
    ],
)
def test_lift_raises_on_each_broken_invariant(monkeypatch, broken, message):
    # the closed-form entries carry no check of their own; lorentz_lift's raises do
    monkeypatch.setattr(lorentz, "_lift", lambda m: broken)
    with pytest.raises(ArithmeticError, match=message):
        lorentz_lift(identity_map())


def test_closed_form_lift_matches_the_loop(rng):
    for _ in range(500):
        a = random_unimodular(rng)
        ref = _lift_by_loop(a)
        assert np.max(np.abs(lorentz_lift(a) - ref)) <= 1e-15 * np.max(np.abs(ref)) ** 2
    assert np.array_equal(lorentz_lift(ConformalMap(-1, 0, 0, -1)), np.eye(4))
    assert np.array_equal(lorentz_lift(identity_map()), np.eye(4))


def test_homomorphism(rng):
    i = identity_map()
    assert homomorphism_check(i, i) == 0.0
    for _ in range(10):
        a = random_unimodular(rng)
        b = random_unimodular(rng)
        assert homomorphism_check(a, b) < 1e-11
        assert np.max(np.abs(lorentz_lift(a) @ lorentz_lift(a.inverse()) - np.eye(4))) < 1e-11


def test_lorentzian_preservation(rng):
    for _ in range(10):
        L = lorentz_lift(random_unimodular(rng))
        v = rng.standard_normal(4) * 3.0
        tol = 1e-10 * (1.0 + float(v @ v))
        assert abs(quadratic_form(L @ v) - quadratic_form(v)) < tol


def test_future_cone_preserved(rng):
    pts = np.array([random_unit_vector(rng) for _ in range(50)])
    cone = np.concatenate([np.ones((50, 1)), pts], axis=1)
    for _ in range(10):
        L = lorentz_lift(random_unimodular(rng))
        assert np.min((cone @ L.T)[:, 0]) > 0.0


def test_lightcone_identity_trivial(rng):
    w = random_unit_vector(rng)
    assert lightcone_residual(identity_map(), w) < 1e-15


def test_lightcone_identity_dilation():
    # left side (1, south); right side 2 * L (1,0,0,-1) = 2 * (1/2)(1,0,0,-1)
    south = np.array([0.0, 0.0, -1.0])
    tau = dilation(2.0)
    assert lightcone_residual(tau, south) < 1e-15
    L = lorentz_lift(tau)
    rhs = math.sqrt(tau.jacobian(south)) * (L @ np.array([1.0, 0, 0, -1.0]))
    assert np.allclose(rhs, [1.0, 0, 0, -1.0])


def test_lightcone_identity_random(rng):
    pts = np.array([random_unit_vector(rng) for _ in range(100)])
    worst = 0.0
    for _ in range(20):
        tau = random_unimodular(rng)
        worst = max(worst, float(np.max(lightcone_residual(tau, pts))))
    assert worst < 1e-11


def test_lightcone_rejects_reflect(rng):
    with pytest.raises(ValueError):
        lightcone_residual(inversion(), random_unit_vector(rng))
