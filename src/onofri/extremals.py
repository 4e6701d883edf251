"""The extremal family psi = (3/4) ln J + c with its mass and center of mass.

For a conformal map tau, the mass is the integral of J^(3/2), the center of
mass is the J^(3/2)-weighted average of the position vector, and the
normalizer c = -(1/2) ln(mass) makes exp(2 psi) integrate to 1.  These
quantities satisfy two exact identities checked throughout the suite:
exp(4c) = 1 - |a|^2, and sqrt(J(w)) = mass * (1 - |a|^2) / (1 - a.w).
`build_extremal` has all three in closed form; the quadrature is the oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import scaled
from .harmonics import Projection, laplacian, project_samples, synthesize
from .mobius import ConformalMap
from .sphere import (
    DEFAULT_POLICY,
    ConvergenceError,
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

def _conformal_moments(tau, policy, grid=None) -> tuple[np.ndarray, SphericalGrid]:
    """Moments of J^(3/2) on the pinned grid, else on a refined one, with the grid used."""

    def values(g: SphericalGrid) -> np.ndarray:
        return moments(g, tau.jacobian(g.nodes) ** 1.5)

    if grid is not None:
        return values(grid), grid
    value, grid, converged = policy.refine(values)
    if not converged:
        raise ConvergenceError("conformal-map moments did not converge within the grid cap")
    return value, grid


def conformal_mass(
    tau: ConformalMap,
    policy: RefinementPolicy = DEFAULT_POLICY,
    grid: SphericalGrid | None = None,
) -> float:
    """Quadrature of J^(3/2); refined adaptively unless a grid is pinned."""
    return float(_conformal_moments(tau, policy, grid)[0][0])


def center_of_mass(
    tau: ConformalMap,
    policy: RefinementPolicy = DEFAULT_POLICY,
    grid: SphericalGrid | None = None,
) -> np.ndarray:
    """J^(3/2)-weighted mean position; always strictly inside the unit ball."""
    v, _ = _conformal_moments(tau, policy, grid)
    return v[1:] / v[0]


def _ball_point(tau: ConformalMap) -> np.ndarray:
    """Hyperbolic coordinate b = atanh|a| a/|a| of tau's center of mass a.

    tau = R_U o dilation(lam) o O_V gives J_tau(w) = J_dilation(O_V w), and
    dilation(lam) has a = -tanh(ln lam) e3, so b = -ln(lam) O_V^T e3.
    """
    _, lam, frame = tau._cartan()
    return -math.log(lam) * frame[2]


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
    return _psi_of_jacobian(e, e.tau.jacobian(points))


def _psi_of_jacobian(e: Extremal, jac: np.ndarray) -> np.ndarray:
    return 0.75 * np.log(jac) + e.normalizer


def psi_field(
    e: Extremal,
    l_max: int,
    grid: SphericalGrid,
    tail_threshold: float | None = 1e-6,
) -> Projection:
    """Band-limited projection of psi plus its tail-energy fraction."""
    proj = project_samples(psi_values(e, grid.nodes), grid, l_max)
    if tail_threshold is not None and proj.tail_fraction > scaled(tail_threshold):
        raise ConvergenceError(
            f"psi tail energy fraction {proj.tail_fraction:.3e} exceeds threshold"
        )
    return proj


def sqrt_jacobian_residual(e: Extremal, grid: SphericalGrid) -> float:
    """Max nodal defect of sqrt(J) = mass * (1 - |a|^2) / (1 - a.w)."""
    nodes = grid.nodes
    lhs = np.sqrt(e.tau.jacobian(nodes))
    a2 = float(e.com @ e.com)
    rhs = e.mass * (1.0 - a2) / (1.0 - nodes @ e.com)
    return float(np.max(np.abs(lhs - rhs)))


def euler_lagrange_residual(
    e: Extremal,
    l_max: int,
    grid: SphericalGrid,
    tail_threshold: float | None = None,
) -> float:
    """Sup-norm residual of (2/3) Lap(psi) + (1 - a.w)/(1 - |a|^2) e^{2 psi} - 1.

    The Laplacian acts on the band-limited projection (the only truncation in
    play); the exponential uses exact psi samples.
    """
    proj = psi_field(e, l_max, grid, tail_threshold)
    lap = synthesize(laplacian(proj.field), grid).samples
    nodes = grid.nodes
    a2 = float(e.com @ e.com)
    weight = (1.0 - nodes @ e.com) / (1.0 - a2)
    res = (2.0 / 3.0) * lap + weight * np.exp(2.0 * psi_values(e, nodes)) - 1.0
    return float(np.max(np.abs(res)))
