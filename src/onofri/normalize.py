"""Conformal re-centering: choose tau with the center of mass of e^{2 u_tau} at 0.

In the stereographic chart the map is z -> lambda0 * z + x0.  The offset x0
kills the first two components of the center of mass independently of
lambda0, and the scale lambda0 then kills the third; both parameters have
closed forms in terms of exponential moments of u, all of which pull back to
sphere-side integrals:

    x0       = int (w1 + i w2) e^{2u} / int (1 - w3) e^{2u}
    lambda0^2 = (2 int e^{2u} - (1 + |x0|^2) int (1 - w3) e^{2u})
                / int (1 - w3) e^{2u}

The root-finding path finds the zero of the third moment of e^{2 u_tau} in
lambda by Brent's method; the moment is strictly decreasing (it equals
A/lambda - B*lambda with A, B > 0 up to a positive factor).  The path exists
as an independent check of the closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .config import scaled
from .functionals import ExpMoments, _compose, _Composition, exp_moments
from .harmonics import HarmonicField
from .mobius import ConformalMap, dilation, translation
from .sphere import (
    DEFAULT_POLICY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    _make_grid,
    moments,
)

__all__ = [
    "NormalizationResult",
    "com_of_exp",
    "normalize",
    "recentering_map",
    "solve_lambda0",
    "solve_x0",
]

_LAMBDA_RANGE = (1e-6, 1e6)


def _tight(policy: RefinementPolicy) -> RefinementPolicy:
    # The 1e-10 residual contract needs moments quite a bit tighter than the
    # 1e-9 functional-evaluation default; solver errors propagate linearly.
    return replace(policy, rtol=min(policy.rtol, 1e-12))


def com_of_exp(
    u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Center of mass of e^{2u}: int w e^{2u} / int e^{2u}; norm < 1 strictly."""
    mom = exp_moments(u, policy)
    com = mom.moment / mom.mass
    if float(com @ com) >= 1.0:
        raise ConvergenceError("center of mass escaped the unit ball: quadrature failure")
    return com


def _x0(mom: ExpMoments) -> complex:
    return complex(mom.moment[0], mom.moment[1]) / (mom.mass - mom.moment[2])


def solve_x0(u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY) -> complex:
    """Plane offset zeroing the first two components of the transported center of mass."""
    return _x0(exp_moments(u, _tight(policy)))


def recentering_map(x0: complex, lam0: float) -> ConformalMap:
    """The chart map z -> lam0 * z + x0 (translation after dilation)."""
    return translation(x0).compose(dilation(lam0))


def _composed_com(comp: _Composition, grid: SphericalGrid) -> np.ndarray:
    # e^{2u(tau w)} J_tau(w)^{3/2} is e^{2(u o tau + psi)} up to a constant factor
    samples, jac = comp.samples(grid)
    weight = np.exp(2.0 * samples).reshape(-1, grid.phi_count) * (jac**1.5)[:, None]
    v = moments(grid, weight.reshape(-1))
    return comp.frame.T @ v[1:] / v[0]


def _grid_com(u: HarmonicField, tau: ConformalMap, grid: SphericalGrid) -> np.ndarray:
    return _composed_com(_compose(u, tau), grid)


def _root_find_lambda0(
    u: HarmonicField,
    x0: complex,
    policy: RefinementPolicy,
    theta_count: int,
    bracket_init: float = 1.0,
) -> float:
    # Fix one grid, 2.25x finer than the tight exponential moments needed, for
    # all lambda evaluations so the root-found function is smooth in lambda.
    n = min(policy.theta_cap, max(math.ceil(2.25 * theta_count), 96))
    grid = _make_grid(n, 2 * n - 1)
    values = {}

    # brentq keeps g in a reference cycle until the next garbage collection,
    # so g's closure must own nothing node-sized; brentq re-evaluates the
    # bracket ends, hence the memo
    def g(lam: float) -> float:
        if lam not in values:
            values[lam] = float(_grid_com(u, recentering_map(x0, lam), grid)[2])
        return values[lam]

    # g is decreasing: grow the bracket by decades until the sign changes
    lo = hi = float(bracket_init)
    g_lo = g_hi = g(lo)
    while g_hi > 0:
        lo, g_lo, hi = hi, g_hi, hi * 10.0
        if hi > _LAMBDA_RANGE[1]:
            raise ConvergenceError("no bracket for lambda0 below 1e6")
        g_hi = g(hi)
    while g_lo < 0:
        hi, g_hi, lo = lo, g_lo, lo / 10.0
        if lo < _LAMBDA_RANGE[0]:
            raise ConvergenceError("no bracket for lambda0 above 1e-6")
        g_lo = g(lo)
    root, info = brentq(g, lo, hi, xtol=1e-15, full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(f"Brent iteration for lambda0 did not converge: {info.flag}")
    return root


def _lambda0(
    u: HarmonicField,
    x0: complex,
    mom: ExpMoments,
    policy: RefinementPolicy,
    method: str,
    bracket_init: float = 1.0,
) -> float:
    # mom: the tight exponential moments of u, shared by both paths
    if method not in ("closed_form", "root_find", "hybrid"):
        raise ValueError(f"unknown method {method!r}")
    lam_cf = lam_rf = None
    if method in ("closed_form", "hybrid"):
        denom = mom.mass - mom.moment[2]
        numer = 2.0 * mom.mass - (1.0 + abs(x0) ** 2) * denom
        if numer <= 0.0:
            raise ConvergenceError(
                "closed-form numerator for lambda0 is non-positive: quadrature failure"
            )
        lam_cf = math.sqrt(numer / denom)
    if method in ("root_find", "hybrid"):
        lam_rf = _root_find_lambda0(u, x0, policy, mom.grid.theta_count, bracket_init)
    if method == "hybrid":
        if abs(lam_cf - lam_rf) > scaled(1e-8):
            raise ConvergenceError(
                f"lambda0 paths disagree: closed form {lam_cf!r} vs root find {lam_rf!r}"
            )
        return lam_cf
    return lam_cf if method == "closed_form" else lam_rf


def solve_lambda0(
    u: HarmonicField,
    x0: complex,
    policy: RefinementPolicy = DEFAULT_POLICY,
    method: str = "closed_form",
    bracket_init: float = 1.0,
) -> float:
    """The dilation factor zeroing the third transported moment.

    ``closed_form`` evaluates the moment identity above (the numerator is a
    variance, so non-positivity flags quadrature failure); ``root_find``
    finds the root by Brent's method; ``hybrid`` runs both and insists they
    agree to 1e-8.
    """
    return _lambda0(u, x0, exp_moments(u, _tight(policy)), policy, method, bracket_init)


@dataclass(frozen=True)
class NormalizationResult:
    """The re-centering map together with the achieved residual."""

    x0: complex
    lambda0: float
    tau: ConformalMap
    residual_com_norm: float
    method: str

    def to_dict(self) -> dict:
        return {
            "x0": [self.x0.real, self.x0.imag],
            "lambda0": self.lambda0,
            "tau": self.tau.to_dict(),
            "residual_com_norm": self.residual_com_norm,
            "method": self.method,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def transported_com(
    u: HarmonicField,
    tau: ConformalMap,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Center of mass of e^{2(u o tau + psi)} from exact samples (no band limit).

    u o tau is synthesized exactly for the stored expansion (see
    ``functionals._Composition``), so the residual is limited by quadrature
    alone.
    """
    comp = _compose(u, tau)
    com, _, converged = _tight(policy).refine(
        lambda grid: _composed_com(comp, grid), min_band=u.l_max
    )
    if not converged:
        raise ConvergenceError("transported center of mass did not converge")
    return com


def normalize(
    u: HarmonicField,
    policy: RefinementPolicy = DEFAULT_POLICY,
    method: str = "closed_form",
    residual_tol: float = 1e-10,
) -> NormalizationResult:
    """Find tau = (z -> lambda0 z + x0) zeroing the center of mass of e^{2 u_tau}.

    Falls back to the root-find path if the closed form misses the residual
    tolerance, and raises if both paths do.
    """
    mom = exp_moments(u, _tight(policy))
    x0 = _x0(mom)
    lam0 = _lambda0(u, x0, mom, policy, method)
    tau = recentering_map(x0, lam0)
    residual = float(np.linalg.norm(transported_com(u, tau, policy)))
    used = method
    if residual >= scaled(residual_tol) and method in ("closed_form", "root_find"):
        other = "root_find" if method == "closed_form" else "closed_form"
        lam0 = _lambda0(u, x0, mom, policy, other)
        tau = recentering_map(x0, lam0)
        residual = float(np.linalg.norm(transported_com(u, tau, policy)))
        used = "hybrid"
    if residual >= scaled(residual_tol):
        raise ConvergenceError(
            f"normalization residual {residual:.3e} above tolerance after both paths"
        )
    return NormalizationResult(x0, lam0, tau, residual, used)
