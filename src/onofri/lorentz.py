"""Hermitian-matrix model of Minkowski space and the lift to SO+(1,3).

An orientation-preserving ``ConformalMap`` tau, with determinant-one matrix
A = tau.mat, acts on Hermitian matrices by H -> A H A*, preserving
det = t^2 - |q|^2; in the coordinates (t, q) that action is the proper
orthochronous Lorentz matrix of tau (the spinor correspondence
SL(2, C) -> SO+(1,3)).  On the sphere the lift satisfies
(1, tau(w)) = sqrt(J_tau(w)) * L @ (1, w), which ties the conformal group to
the Lorentz group and is what makes the sharp functional conformally
invariant.  A reflected map has no lift: it reverses orientation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mobius import ConformalMap, _lift
from .sphere import unit_point

__all__ = [
    "ETA",
    "hermitian_of",
    "homomorphism_check",
    "lightcone_residual",
    "lorentz_lift",
    "lorentz_residuals",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_ETA_UPPER = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, -1.0)  # ETA's entries (i, j), i <= j, row by row

def hermitian_of(v) -> np.ndarray:
    """Encode (t, q) as [[t+q3, q1+i q2], [q1-i q2, t-q3]]; det equals the form."""
    t, q1, q2, q3 = np.asarray(v, dtype=float)
    return np.array(
        [[t + q3, q1 + 1j * q2], [q1 - 1j * q2, t - q3]], dtype=complex
    )


def lorentz_lift(tau: ConformalMap) -> np.ndarray:
    """The unique Lorentz matrix L with A H(v) A* = H(L v) for all v, where A = tau.mat.

    Its sixteen entries are closed forms in the entries of A (``mobius._lift``);
    -A gives the same matrix.  A reflected tau raises ValueError: it reverses
    orientation and has no lift.  Raises ArithmeticError if the result fails the SO+(1,3)
    invariants beyond a tolerance scaled by the entry magnitudes.  The lambda0 root find's
    steps read the unchecked closed forms, ``mobius._lift_entries``, and check its root's map
    here; ``normalize``, its tau.
    """
    if tau.reflect:
        raise ValueError("the Lorentz lift is defined for orientation-preserving maps only")
    L = _lift(tau.mat)
    scale = 1.0 + max(map(abs, L.ravel().tolist())) ** 2
    res = lorentz_residuals(L)
    if res["metric"] > 1e-11 * scale:
        raise ArithmeticError("lift does not preserve the Lorentzian form")
    if res["det"] > 1e-11 * scale or res["orthochronous"] > 1e-12 * scale:
        raise ArithmeticError("lift is not proper orthochronous")
    return L


def homomorphism_check(a: ConformalMap, b: ConformalMap) -> float:
    """Max-norm deviation of lift(a o b) from lift(a) @ lift(b); reflected maps raise ValueError."""
    return float(np.max(np.abs(lorentz_lift(a.compose(b)) - lorentz_lift(a) @ lorentz_lift(b))))


def lightcone_residual(tau: ConformalMap, w) -> float | np.ndarray:
    """Norm of (1, tau(w)) - sqrt(J(w)) * L @ (1, w) per point.

    Only proved (and only true) for orientation-preserving maps, so
    reflect=True is rejected (``lorentz_lift`` raises ValueError).
    """
    w = unit_point(w)
    single = w.ndim == 1
    w = np.atleast_2d(w)
    L = lorentz_lift(tau)
    lhs = np.concatenate([np.ones((w.shape[0], 1)), tau.apply(w)], axis=1)
    cone = np.concatenate([np.ones((w.shape[0], 1)), w], axis=1)
    rhs = np.sqrt(tau.jacobian(w))[:, None] * (cone @ L.T)
    res = np.linalg.norm(lhs - rhs, axis=1)
    return float(res[0]) if single else res


def lorentz_residuals(L: np.ndarray) -> dict:
    """Defect of the SO+(1,3) invariants.

    In Python floats from the sixteen entries (a 4x4 determinant and two 4x4 products in numpy
    cost several lifts): L^T ETA L - ETA on and above the diagonal, det L by 2x2 minors, and L00.
    """
    e = np.asarray(L, dtype=float).ravel().tolist()
    columns = (e[0::4], e[1::4], e[2::4], e[3::4])
    metric = max([abs(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 - eta) for ((a0, a1, a2, a3), (b0, b1, b2, b3)), eta
                  in zip(itertools.combinations_with_replacement(columns, 2), _ETA_UPPER)])
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = e
    det = ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
           + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
           - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    return {"metric": metric, "det": abs(det - 1.0), "orthochronous": max(0.0, 1.0 - a0)}
