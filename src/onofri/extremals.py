"""The extremal family psi = (3/4) ln J + c with its mass and center of mass.

For a conformal map tau, the mass is the integral of J^(3/2), the center of
mass is the J^(3/2)-weighted average of the position vector, and the
normalizer c = -(1/2) ln(mass) makes exp(2 psi) integrate to 1.  These
quantities satisfy two exact identities checked throughout the suite:
exp(4c) = 1 - |a|^2, and sqrt(J(w)) = mass * (1 - |a|^2) / (1 - a.w).
`build_extremal` has all three in closed form; the quadrature is the oracle.

So has psi's expansion (`psi_field`).  The second identity makes psi equal to
-(3/2) ln(1 - a.w) plus a constant, so by Funk-Hecke its coefficients of degree
l >= 1 are g_l(r) Y_lm(a/r), r = |a|, with Q_n the Legendre function of the
second kind and g_l(r) = -(3/2) (Q_{l+1}(1/r) - Q_{l-1}(1/r)) / (2l + 1).  With
t = atanh(r), psi's gradient energy is (9/2)(t coth t - 1), and as the sharp
functional vanishes on psi, its mean is c less a third of that.  The quadrature
of psi's samples is their oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import HarmonicField, Projection, _basis_point, _exact_tail, _layout
from .harmonics import laplacian, synthesize
from .mobius import ConformalMap, _lift
from .sphere import (
    DEFAULT_POLICY,
    RefinementPolicy,
    SphericalGrid,
    moments,
    stereo_inverse,
    unit_point,
)

__all__ = [
    "Extremal",
    "build_extremal",
    "center_of_mass",
    "conformal_mass",
    "euler_lagrange_residual",
    "generator_com",
    "generator_mass",
    "psi_field",
    "psi_values",
    "sqrt_jacobian_residual",
]


# ---------------------------------------------------------------------------
# closed forms for the generators

def _generator_param(kind: str, param):
    """A dilation's factor or a translation's target point, checked; None for isometries."""
    if kind == "dilation":
        lam = float(param)
        if not lam > 0:
            raise ValueError("dilation factor must be positive")
        return lam
    if kind == "translation":
        p = unit_point(_translation_point(param))
        if p[2] >= 1.0 - 1e-14:
            raise ValueError("translation target cannot be the north pole")
        return p
    if kind in ("rotation", "inversion"):
        return None
    raise ValueError(f"not a generator kind: {kind!r}")


def generator_mass(kind: str, param=None) -> float:
    """Closed-form mass of a single generator.

    ``kind`` is one of dilation / translation / rotation / inversion;
    ``param`` is the factor for dilations and the target point (or plane
    offset as complex) for translations.
    """
    x = _generator_param(kind, param)
    if kind == "dilation":
        return (1.0 + x * x) / (2.0 * x)
    if kind == "translation":
        return 0.5 * (3.0 - x[2]) / (1.0 - x[2])
    return 1.0


def generator_com(kind: str, param=None) -> np.ndarray:
    """Closed-form center of mass of a single generator (see generator_mass)."""
    x = _generator_param(kind, param)
    if kind == "dilation":
        return np.array([0.0, 0.0, (1.0 - x * x) / (1.0 + x * x)])
    if kind == "translation":
        return np.array([-2.0 * x[0], -2.0 * x[1], 1.0 + x[2]]) / (3.0 - x[2])
    return np.zeros(3)


def _translation_point(param) -> np.ndarray:
    if np.ndim(param) == 1 and np.shape(param) == (3,):
        return unit_point(param)
    return stereo_inverse(complex(param))


# ---------------------------------------------------------------------------
# quadrature

def _conformal_moments(tau, policy) -> np.ndarray:
    """Moments of J^(3/2) on a refined grid."""
    # every node through tau.jacobian, not M^H M: this is the oracle of
    # build_extremal, whose closed forms come from _ball_point
    return policy.refine(lambda g: moments(g, tau.jacobian(g.nodes) ** 1.5), "conformal-map moments")[0]


def conformal_mass(tau: ConformalMap, policy: RefinementPolicy = DEFAULT_POLICY) -> float:
    """Quadrature of J^(3/2), refined adaptively."""
    return float(_conformal_moments(tau, policy)[0])


def center_of_mass(tau: ConformalMap, policy: RefinementPolicy = DEFAULT_POLICY) -> np.ndarray:
    """J^(3/2)-weighted mean position; always strictly inside the unit ball."""
    v = _conformal_moments(tau, policy)
    return v[1:] / v[0]


def _ball_point(tau: ConformalMap) -> np.ndarray:
    """Hyperbolic coordinate b = atanh|a| a/|a| of tau's center of mass a.

    J_tau depends on M^H M alone (M conjugated if reflected); its Minkowski vector (t, q) is the first
    row of M's lift.  dilation(e^t) has a = -tanh(t) e3 and q = sinh(t) e3; rotations turn both alike.
    """
    q = _lift(np.conj(tau.mat) if tau.reflect else tau.mat)[0, 1:]
    s = math.hypot(*q)
    return -math.asinh(s) / s * q if s > 0.0 else np.zeros(3)


def _g(l_max: int, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g_l(tanh t), dg_l/dt and d2g_l/dt2 for l = 0..l_max and t > 0, with g_0 = 0.

    Q_0(coth t) = t, and the Q_n decay like exp(-n xi), xi = acosh(coth t).
    Where they decay over the band (xi (l_max + 2) >= 1) the ratios
    Q_n/Q_{n-1} come from the continued fraction of the recurrence, run
    backward from the asymptotic ratio exp(-xi) for 20/xi steps beyond the
    band, so that the error dies out.  Nearer the sphere they barely decay,
    and the forward recurrence loses at most a factor exp(2 xi (l_max + 2))
    to rounding; so no t costs more than O(l_max) steps.  The derivative
    follows from (2l+1) Q_l = Q'_{l+1} - Q'_{l-1} and coth' = -1/sinh^2: it is
    (3/2) (z^2 - 1) Q_l(z), z = coth t, and with (z^2 - 1) Q'_l = l (z Q_l - Q_{l-1})
    the second is -(3/2) (z^2 - 1) ((l + 2) z Q_l - l Q_{l-1}), from the same Q's.
    For t >= 1, g_1 comes from the closed form Q_2 - Q_0 = (3/2)((z^2 - 1) Q_0 - z):
    2e-16 relative, where the ratios give 1.5e-14 (band 32, t = ln 50).  Below
    t = 1 the closed form cancels (3e-14 at t = 0.05), and the ratios stay.
    That closed form, g_1 = (3/4)(coth t - t csch^2 t), is a sixth of the slope of
    psi's energy (9/2)(t coth t - 1) (:func:`_psi_energy`): g_1 = E_psi'/6, which
    the distance search inverts to read an extremal's b from its degree-1 part.
    """
    z = 1.0 / math.tanh(t)
    delta = 2.0 * math.exp(-2.0 * t) / -math.expm1(-2.0 * t)  # z - 1, never overflowing
    xi = math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
    q = np.empty(l_max + 2)  # Q_0 .. Q_{l_max+1}
    if xi * (l_max + 2) < 1.0:
        q[0], q[1] = t, (t - 1.0) + delta * t
        for n in range(1, l_max + 1):
            q[n + 1] = ((2 * n + 1) * z * q[n] - n * q[n - 1]) / (n + 1)
    else:
        h = math.exp(-xi)
        for n in range(l_max + 2 + math.ceil(20.0 / xi), 0, -1):
            h = n / ((2 * n + 1) * z - (n + 1) * h)
            if n <= l_max + 1:
                q[n] = h
        q[0] = 1.0
        q = t * np.cumprod(q)
    l = np.arange(1, l_max + 1)
    g, dg = np.zeros(l_max + 1), np.zeros(l_max + 1)
    g[1:] = -1.5 * (q[2:] - q[:-2]) / (2 * l + 1)
    dg[1:] = 1.5 * q[1:-1] * delta * (2.0 + delta)  # z^2 - 1 = 1/sinh^2 t
    if l_max >= 1 and t >= 1.0:
        g[1] = 0.75 * (z - delta * (2.0 + delta) * t)
    d2g = np.zeros(l_max + 1)
    d2g[1:] = -1.5 * delta * (2.0 + delta) * ((l + 2) * z * q[1:-1] - l * q[:-2])
    return g, dg, d2g


@lru_cache(maxsize=1)
def _psi_series() -> tuple[tuple[float, float, float], ...]:
    """Coefficients of psi's energy (9/2)(t coth t - 1) over t^2, its t-derivative over t and its
    second, in powers t^(2j), j = 11 down to 0.

    They come from t coth t = 1 + sum_k a_k t^(2k), a_k = 2^(2k) B_2k / (2k)! with B_n the
    Bernoulli numbers.  The series converges for t < pi; at t = 0.5 its thirteenth term is below
    1.4e-17 of the sum.
    """
    a = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875, 4 / 18243225,
         -3617 / 162820783125, 87734 / 38979295480125, -349222 / 1531329465290625,
         310732 / 13447856940643125, -472728182 / 201919571963756521875)
    return tuple((4.5 * a[k - 1], 9.0 * k * a[k - 1], 9.0 * k * (2 * k - 1) * a[k - 1]) for k in range(12, 0, -1))


def _psi_energy(t: float) -> tuple[float, float, float]:
    """Gradient energy (9/2)(t coth t - 1) of psi at |b| = t, and its first two t-derivatives."""
    if t < 0.5:  # the series, where the closed forms cancel: to 1e-14 at t = 0.3, 2e-10 at t = 1e-3
        x, energy, slope, curvature = t * t, 0.0, 0.0, 0.0
        for a, b, c in _psi_series():
            energy, slope, curvature = energy * x + a, slope * x + b, curvature * x + c
        return x * energy, t * slope, curvature
    csch = 2.0 * math.exp(-t) / -math.expm1(-2.0 * t)
    energy = 4.5 * (t / math.tanh(t) - 1.0)
    return energy, 4.5 * (1.0 / math.tanh(t) - t * csch * csch), 2.0 * csch * csch * energy


@dataclass(frozen=True)
class Extremal:
    """A conformal map with cached mass, center of mass and normalizer."""

    tau: ConformalMap
    mass: float
    com: np.ndarray
    normalizer: float

    def to_dict(self) -> dict:
        return {
            "tau": self.tau.to_dict(),
            "mass": self.mass,
            "com": [float(x) for x in self.com],
            "normalizer": self.normalizer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def build_extremal(tau: ConformalMap) -> Extremal:
    """Mass cosh t, center of mass tanh(t) b/t and normalizer -(1/2) ln cosh t,
    exact from the ball point b of tau, t = |b| = ln(lam)."""
    b = _ball_point(tau)
    t = float(np.linalg.norm(b))
    com = b * (math.tanh(t) / t) if t > 0.0 else np.zeros(3)
    return Extremal(tau, math.cosh(t), com, -0.5 * math.log(math.cosh(t)))


def psi_values(e: Extremal, points: np.ndarray) -> np.ndarray:
    """Exact samples of (3/4) ln J + c at arbitrary unit vectors."""
    return 0.75 * np.log(e.tau.jacobian(points)) + e.normalizer


def psi_field(
    e: Extremal,
    l_max: int,
    grid: SphericalGrid | None = None,
    tail_threshold: float | None = 1e-6,
) -> Projection:
    """Band-limited coefficients of psi in closed form, with its exact tail-energy fraction
    (:func:`harmonics._exact_tail`: a tail energy at or below 1e-14 of psi's reads 0);
    ``grid`` is accepted for callers that pass one by position and is unused."""
    b = _ball_point(e.tau)
    t = math.hypot(*b)
    energy, coeffs = _psi_energy(t)[0], np.zeros((l_max + 1) ** 2)
    if t > 0.0:
        coeffs = _g(l_max, t)[0][_layout(l_max).degrees] * _basis_point(b / t, l_max)
    coeffs[0] = e.normalizer - energy / 3.0
    return _exact_tail(HarmonicField(l_max, coeffs), energy, energy, tail_threshold, "psi")


def sqrt_jacobian_residual(e: Extremal, grid: SphericalGrid) -> float:
    """Max nodal defect of sqrt(J) = mass * (1 - |a|^2) / (1 - a.w)."""
    nodes = grid.nodes
    lhs = np.sqrt(e.tau.jacobian(nodes))
    a2 = float(e.com @ e.com)
    rhs = e.mass * (1.0 - a2) / (1.0 - nodes @ e.com)
    return float(np.max(np.abs(lhs - rhs)))


def euler_lagrange_residual(e: Extremal, l_max: int, grid: SphericalGrid) -> float:
    """Sup-norm residual of (2/3) Lap(psi) + (1 - a.w)/(1 - |a|^2) e^{2 psi} - 1.

    The Laplacian acts on psi's band-limited coefficients (the only truncation
    in play); the exponential uses exact psi samples.
    """
    proj = psi_field(e, l_max, tail_threshold=None)
    lap = synthesize(laplacian(proj.field), grid).samples
    nodes = grid.nodes
    a2 = float(e.com @ e.com)
    weight = (1.0 - nodes @ e.com) / (1.0 - a2)
    res = (2.0 / 3.0) * lap + weight * np.exp(2.0 * psi_values(e, nodes)) - 1.0
    return float(np.max(np.abs(res)))
