"""Hermitian-matrix model of Minkowski space and the lift to SO+(1,3).

A determinant-one complex 2x2 matrix A acts on Hermitian matrices by
H -> A H A*, preserving det = t^2 - |q|^2; in the coordinates (t, q) that
action is the proper orthochronous Lorentz matrix of A.
On the sphere the lift satisfies (1, tau(w)) = sqrt(J_tau(w)) * L @ (1, w)
for orientation-preserving tau, which ties the conformal group to the
Lorentz group and is what makes the sharp functional conformally invariant.
"""

from __future__ import annotations

import numpy as np

from .mobius import ConformalMap, MobiusMap, _lift, _spinor
from .sphere import unit_point

__all__ = [
    "ETA",
    "hermitian_of",
    "homomorphism_check",
    "lightcone_residual",
    "lorentz_lift",
    "lorentz_residuals",
    "minkowski_of",
    "quadratic_form",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

def quadratic_form(v) -> float:
    """t^2 - q1^2 - q2^2 - q3^2, computed exactly as written."""
    v = np.asarray(v, dtype=float)
    return float(v[0] * v[0] - v[1] * v[1] - v[2] * v[2] - v[3] * v[3])


def hermitian_of(v) -> np.ndarray:
    """Encode (t, q) as [[t+q3, q1+i q2], [q1-i q2, t-q3]]; det equals the form."""
    t, q1, q2, q3 = np.asarray(v, dtype=float)
    return np.array(
        [[t + q3, q1 + 1j * q2], [q1 - 1j * q2, t - q3]], dtype=complex
    )


def minkowski_of(h) -> np.ndarray:
    """Inverse of :func:`hermitian_of` (imaginary round-off discarded).

    Decodes a stack of matrices along its leading axes too.
    """
    h = np.asarray(h, dtype=complex)
    t = (h[..., 0, 0] + h[..., 1, 1]).real / 2.0
    q3 = (h[..., 0, 0] - h[..., 1, 1]).real / 2.0
    return np.stack([t, h[..., 0, 1].real, h[..., 0, 1].imag, q3], axis=-1)


def lorentz_lift(a: MobiusMap) -> np.ndarray:
    """The unique Lorentz matrix with A H(v) A* = H(L v) for all v.

    Its sixteen entries are closed forms in the entries of A (``mobius._lift``);
    -A gives the same matrix.  Raises if the result fails the SO+(1,3)
    invariants beyond a tolerance scaled by the entry magnitudes.  The lambda0 root find
    steps on the unchecked ``_lift`` and checks its root's map here; ``normalize``, its tau.
    """
    L = _lift(a.mat)
    scale = 1.0 + float(np.abs(L).max()) ** 2
    res = lorentz_residuals(L)
    if res["metric"] > 1e-11 * scale:
        raise ArithmeticError("lift does not preserve the Lorentzian form")
    if res["det"] > 1e-11 * scale or res["orthochronous"] > 1e-12 * scale:
        raise ArithmeticError("lift is not proper orthochronous")
    return L


def homomorphism_check(a: MobiusMap, b: MobiusMap) -> float:
    """Max-norm deviation of lift(a @ b) from lift(a) @ lift(b)."""
    return float(np.max(np.abs(lorentz_lift(a @ b) - lorentz_lift(a) @ lorentz_lift(b))))


def lightcone_residual(tau: ConformalMap, w) -> float | np.ndarray:
    """Norm of (1, tau(w)) - sqrt(J(w)) * L @ (1, w) per point.

    Only proved (and only true) for orientation-preserving maps, so
    reflect=True is rejected.
    """
    if tau.reflect:
        raise ValueError("light-cone identity requires an orientation-preserving map")
    w = unit_point(w)
    single = w.ndim == 1
    w = np.atleast_2d(w)
    L = lorentz_lift(tau.mobius)
    image, jac = tau._image_and_jacobian(_spinor(w))
    lhs = np.concatenate([np.ones((w.shape[0], 1)), image], axis=1)
    cone = np.concatenate([np.ones((w.shape[0], 1)), w], axis=1)
    rhs = np.sqrt(jac)[:, None] * (cone @ L.T)
    res = np.linalg.norm(lhs - rhs, axis=1)
    return float(res[0]) if single else res


def lorentz_residuals(L: np.ndarray) -> dict:
    """Defect of the SO+(1,3) invariants, for reporting."""
    L = np.asarray(L, dtype=float)
    return {
        "metric": float(np.max(np.abs(L.T @ ETA @ L - ETA))),
        "det": float(abs(np.linalg.det(L) - 1.0)),
        "orthochronous": float(max(0.0, 1.0 - L[0, 0])),
    }
