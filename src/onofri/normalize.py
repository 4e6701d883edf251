"""Conformal re-centering: choose tau with the center of mass of e^{2 u_tau} at 0.

In the stereographic chart the map is z -> lambda0 * z + x0.  The offset x0
kills the first two components of the center of mass independently of
lambda0, and the scale lambda0 then kills the third; both parameters have
closed forms in terms of exponential moments of u, all of which pull back to
sphere-side integrals:

    x0       = int (w1 + i w2) e^{2u} / int (1 - w3) e^{2u}
    lambda0^2 = (2 int e^{2u} - (1 + |x0|^2) int (1 - w3) e^{2u})
                / int (1 - w3) e^{2u}

``normalize`` uses these closed forms alone and checks them without a second
quadrature: the light-cone identity (1, tau(w)) = sqrt(J_tau(w)) L (1, w),
with L the Lorentz lift of tau, makes L^{-1} m the moment 4-vector of
e^{2 u o tau} J_tau^{3/2}, where m = (int e^{2u}, int w e^{2u}).  So the
residual is the center of mass of L^{-1} m, and the last refinement step of m,
transported the same way, estimates its error.  The composed quadrature of
u o tau (``transported_com``) stays as the checks' oracle for that identity.
The root-finding path of ``solve_lambda0`` checks the closed-form algebra:
it finds the zero in lambda of the third center-of-mass component of
L^{-1} m, which is strictly decreasing (it equals A/lambda - B*lambda with
A, B > 0 up to a positive factor) and so a tanh-like function of ln lambda.
Regula falsi in ln lambda with the Illinois modification finds it on
[1e-6, 1e6].  Its steps use the unchecked ``mobius._lift``; the SO+(1,3) check of
``lorentz_lift`` runs once on the map of the returned lambda0, once on ``normalize``'s tau.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import scaled
from .functionals import ExpMoments, _compose, _Composition, exp_moments
from .harmonics import HarmonicField
from .lorentz import ETA, lorentz_lift
from .mobius import ConformalMap, _lift
from .sphere import (
    DEFAULT_POLICY,
    INFINITY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    moments,
)

__all__ = [
    "NormalizationResult",
    "normalize",
    "recentering_map",
    "solve_lambda0",
    "solve_x0",
]

_LAMBDA_RANGE = (1e-6, 1e6)
_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))  # eta L^T eta = _SIGNS * L^T


def _tight(policy: RefinementPolicy) -> RefinementPolicy:
    # The 1e-10 residual contract needs moments quite a bit tighter than the
    # 1e-9 functional-evaluation default; solver errors propagate linearly.
    return replace(policy, rtol=min(policy.rtol, 1e-12))


def _x0(mom: ExpMoments) -> complex:
    return complex(mom.moment[0], mom.moment[1]) / (mom.mass - mom.moment[2])


def solve_x0(u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY) -> complex:
    """Plane offset zeroing the first two components of the transported center of mass."""
    return _x0(exp_moments(u, _tight(policy)))


def recentering_map(x0: complex, lam0: float) -> ConformalMap:
    """The chart map z -> lam0 * z + x0: [[lam0, x0], [0, 1]], scaled to determinant one."""
    if not lam0 > 0 or x0 is INFINITY:
        raise ValueError("re-centering needs lam0 > 0 and a finite x0")
    return ConformalMap(lam0, x0, 0.0, 1.0)


def _composed_com(comp: _Composition, grid: SphericalGrid) -> np.ndarray:
    # e^{2u(tau w)} J_tau(w)^{3/2} is e^{2(u o tau + psi)} up to a constant factor
    samples, jac = comp.samples(grid)
    weight = np.exp(2.0 * samples).reshape(-1, grid.phi_count) * (jac**1.5)[:, None]
    v = moments(grid, weight.reshape(-1))
    return comp.frame.T @ v[1:] / v[0]


def _inverse_lift(mat: np.ndarray) -> np.ndarray:
    """L^{-1} = eta L^T eta, with L the unchecked Lorentz lift of a unimodular 2x2 ``mat``."""
    return _SIGNS * _lift(mat).T


def _four_vector(mom: ExpMoments) -> np.ndarray:
    return np.concatenate([[mom.mass], mom.moment])


def _root_find_lambda0(x0: complex, mom: ExpMoments, maxiter: int = 100) -> float:
    m = _four_vector(mom)

    # g's closure holds m and x0 alone, so the root find keeps nothing node-sized alive.  Its matrix
    # is recentering_map(x0, lam)'s bit for bit: numpy divides that one by sqrt(lam) through 1/sqrt(lam)
    def g(lam: float) -> float:
        r = 1.0 / math.sqrt(lam)
        v = _inverse_lift(np.array([[lam * r, x0 * r], [0.0, r]])) @ m
        value = float(v[3] / v[0])
        if not math.isfinite(value):
            raise ConvergenceError(f"root-find objective for lambda0 is {value} at lambda = {lam!r}")
        return value

    # Regula falsi in eta = ln lambda, Illinois-style (Dowell & Jarratt, BIT 11 (1971) 168): an end
    # that survives two steps in a row has its value halved.  It stops as Brent's method would at
    # xtol 1e-15 and rtol 4 eps, or where a step rounds onto an end of the eta bracket
    lo, hi = _LAMBDA_RANGE
    f_lo, f_hi = g(lo), g(hi)
    if min(f_lo, f_hi) > 0 or max(f_lo, f_hi) < 0:
        raise ConvergenceError(f"no root for lambda0 on [{lo:g}, {hi:g}]")
    a, b, side, steps = math.log(lo), math.log(hi), 0, 0
    lam, f = (lo, f_lo) if f_lo == 0 else (hi, f_hi)
    while f != 0 and math.exp(b) - math.exp(a) > 1e-15 + 4 * math.ulp(1.0) * lam:
        if steps == maxiter:
            raise ConvergenceError(f"root find for lambda0 did not converge: lambda = {lam!r}")
        steps += 1
        eta = a + (b - a) * f_lo / (f_lo - f_hi)
        if not a < eta < b:
            break
        lam = math.exp(eta)
        f = g(lam)
        if (f > 0) == (f_lo > 0):
            a, f_lo, f_hi, side = eta, f, f_hi / 2 if side < 0 else f_hi, -1
        else:
            b, f_hi, f_lo, side = eta, f, f_lo / 2 if side > 0 else f_lo, 1
    lorentz_lift(recentering_map(x0, lam))  # the SO+(1,3) check, on the reported map
    return lam


def _closed_form_lambda0(x0: complex, mom: ExpMoments) -> float:
    denom = mom.mass - mom.moment[2]
    numer = 2.0 * mom.mass - (1.0 + abs(x0) ** 2) * denom
    if numer <= 0.0:
        raise ConvergenceError("closed-form numerator for lambda0 is non-positive: quadrature failure")
    return math.sqrt(numer / denom)


def solve_lambda0(
    u: HarmonicField,
    x0: complex,
    policy: RefinementPolicy = DEFAULT_POLICY,
    method: str = "closed_form",
) -> float:
    """The dilation factor zeroing the third transported moment.

    ``closed_form`` evaluates the moment identity above (the numerator is a
    variance, so non-positivity flags quadrature failure), as ``normalize``
    does.  ``root_find`` transports the same tight moment 4-vector m by the
    Lorentz lift of ``recentering_map(x0, lambda)`` and finds the zero of the
    third center-of-mass component of L^{-1} m by Illinois regula falsi in
    ln lambda on [1e-6, 1e6], about 11 lifts per root; it checks the
    closed-form algebra against the map that ``recentering_map`` builds, with
    no second quadrature.  Raises ConvergenceError if the component has one
    sign on the whole range, is not finite, or if 100 steps do not converge.
    """
    if method not in ("closed_form", "root_find"):
        raise ValueError(f"unknown method {method!r}")
    mom = exp_moments(u, _tight(policy))
    if method == "root_find":
        return _root_find_lambda0(x0, mom)
    return _closed_form_lambda0(x0, mom)


@dataclass(frozen=True)
class NormalizationResult:
    """The re-centering map together with the achieved residual and its error estimate."""

    x0: complex
    lambda0: float
    tau: ConformalMap
    residual_com_norm: float
    com_error_estimate: float

    def to_dict(self) -> dict:
        return {
            "x0": [self.x0.real, self.x0.imag],
            "lambda0": self.lambda0,
            "tau": self.tau.to_dict(),
            "residual_com_norm": self.residual_com_norm,
            "com_error_estimate": self.com_error_estimate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def transported_com(
    u: HarmonicField,
    tau: ConformalMap,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Center of mass of e^{2(u o tau + psi)} from exact samples (no band limit).

    u o tau is synthesized exactly for the stored expansion: its order-m
    profiles at the closed-form image of the meridian, from the theta-Fourier
    form of the Legendre functions, meet the azimuths (see
    ``functionals._Composition``), so the residual
    is limited by quadrature alone.  ``normalize`` does not call it; it is the
    checks' oracle for the Lorentz transport of the moments, on mild fields
    only (criterion 8's band 8, amplitude 0.5).  On a concentrated field, a
    band-32 one of amplitude 2.6, it reads 1.9e-5 on 768 theta rows and
    2.5e-6 on 1,024, as it did from the meridian's spinors, and does not
    settle by the cap of 512, while its tau's Lorentz residual is 5.7e-15:
    the quadrature, not the meridian, limits it.
    """
    comp = _compose(u, tau)
    com, _ = _tight(policy).refine(lambda g: _composed_com(comp, g), "transported center of mass", u.l_max)
    return com


def normalize(u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY) -> NormalizationResult:
    """Find tau = (z -> lambda0 z + x0) zeroing the center of mass of e^{2 u_tau}.

    x0 and lambda0 are the closed forms above, from one tight quadrature of the
    exponential moments m.  The residual is the center of mass of L^{-1} m,
    with L the Lorentz lift of tau; its error estimate is the same first-order
    transport of the last refinement step dm of m, |(L^{-1} dm)[1:]| divided by
    (L^{-1} m)[0].  Raises ConvergenceError if either is not below 1e-10
    (scaled), the residual checked first.
    """
    mom = exp_moments(u, _tight(policy))
    x0 = _x0(mom)
    lam0 = _closed_form_lambda0(x0, mom)
    tau = recentering_map(x0, lam0)
    inverse = _SIGNS * lorentz_lift(tau).T  # tau's one SO+(1,3) check
    v = inverse @ _four_vector(mom)
    residual = float(np.linalg.norm(v[1:]) / v[0])
    if residual >= scaled(1e-10):
        raise ConvergenceError(f"normalization residual {residual:.3e} not below {scaled(1e-10):.1e}")
    error = float(np.linalg.norm((inverse @ mom.delta)[1:]) / v[0])
    if error >= scaled(1e-10):
        raise ConvergenceError(
            f"normalization error estimate {error:.3e} from the last refinement of the "
            f"exponential moments not below {scaled(1e-10):.1e}"
        )
    return NormalizationResult(x0, lam0, tau, residual, error)
