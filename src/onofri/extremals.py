"""The extremal family psi = (3/4) ln J + c with its mass and center of mass.

For a conformal map tau, the mass is the integral of J^(3/2), the center of
mass is the J^(3/2)-weighted average of the position vector, and the
normalizer c = -(1/2) ln(mass) makes exp(2 psi) integrate to 1.  These
quantities satisfy two exact identities checked throughout the suite:
exp(4c) = 1 - |a|^2, and sqrt(J(w)) = mass * (1 - |a|^2) / (1 - a.w).
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
    "com_of_dilation",
    "com_of_translation",
    "conformal_mass",
    "euler_lagrange_residual",
    "generator_com",
    "generator_mass",
    "mass_of_dilation",
    "mass_of_translation",
    "psi_field",
    "psi_values",
    "sqrt_jacobian_residual",
]


# ---------------------------------------------------------------------------
# closed forms for the generators

def mass_of_dilation(lam: float) -> float:
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    return (1.0 + lam * lam) / (2.0 * lam)


def mass_of_translation(p) -> float:
    """Mass of the translation taking the south pole to the unit vector p."""
    p = unit_point(p)
    if p[2] >= 1.0 - 1e-14:
        raise ValueError("translation target cannot be the north pole")
    return 0.5 * (3.0 - p[2]) / (1.0 - p[2])


def com_of_dilation(lam: float) -> np.ndarray:
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    return np.array([0.0, 0.0, (1.0 - lam * lam) / (1.0 + lam * lam)])


def com_of_translation(p) -> np.ndarray:
    p = unit_point(p)
    if p[2] >= 1.0 - 1e-14:
        raise ValueError("translation target cannot be the north pole")
    return np.array([-2.0 * p[0], -2.0 * p[1], 1.0 + p[2]]) / (3.0 - p[2])


def generator_mass(kind: str, param=None) -> float:
    """Closed-form mass of a single generator.

    ``kind`` is one of dilation / translation / rotation / inversion;
    ``param`` is the factor for dilations and the target point (or plane
    offset as complex) for translations.
    """
    if kind == "dilation":
        return mass_of_dilation(float(param))
    if kind == "translation":
        return mass_of_translation(_translation_point(param))
    if kind in ("rotation", "inversion"):
        return 1.0
    raise ValueError(f"not a generator kind: {kind!r}")


def generator_com(kind: str, param=None) -> np.ndarray:
    """Closed-form center of mass of a single generator (see generator_mass)."""
    if kind == "dilation":
        return com_of_dilation(float(param))
    if kind == "translation":
        return com_of_translation(_translation_point(param))
    if kind in ("rotation", "inversion"):
        return np.zeros(3)
    raise ValueError(f"not a generator kind: {kind!r}")


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


@dataclass(frozen=True)
class Extremal:
    """A conformal map with cached mass, center of mass and normalizer."""

    tau: ConformalMap
    mass: float
    com: np.ndarray
    normalizer: float
    grid_used: dict

    def to_dict(self) -> dict:
        return {
            "tau": self.tau.to_dict(),
            "mass": self.mass,
            "com": [float(x) for x in self.com],
            "normalizer": self.normalizer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def build_extremal(
    tau: ConformalMap, policy: RefinementPolicy = DEFAULT_POLICY
) -> Extremal:
    """Compute mass, center of mass and normalizer, and check their identities.

    Violations beyond tolerance mean the quadrature failed (the identities are
    exact), so they raise ConvergenceError rather than returning bad data.
    """
    value, grid = _conformal_moments(tau, policy)
    mass = float(value[0])
    com = value[1:] / mass
    if mass < 1.0 - scaled(1e-10):
        raise ConvergenceError(f"mass {mass} below the Jensen floor 1")
    a2 = float(com @ com)
    if a2 >= 1.0:
        raise ConvergenceError("center of mass escaped the open unit ball")
    normalizer = -0.5 * math.log(mass)
    if abs(math.exp(4.0 * normalizer) - (1.0 - a2)) > scaled(1e-8):
        raise ConvergenceError(
            "normalizer/center-of-mass identity violated beyond tolerance: "
            f"exp(4c)={math.exp(4.0 * normalizer):.3e} vs 1-|a|^2={1.0 - a2:.3e}"
        )
    return Extremal(tau, mass, com, normalizer, grid.descriptor())


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
