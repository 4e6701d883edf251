"""Seeded random families used by the verification suites.

Amplitude and parameter caps (the "test manifest"):

* random fields: coefficients ~ N(0, (scale / (1+l)^1.5)^2), l_max <= 8 and
  scale <= 0.5 in the functional suites, so e^{2u} stays resolvable;
* random conformal maps: <= 3 generator factors with dilation factors in
  [1/4, 4] and plane offsets |beta| <= 2; suites that project ln J at a
  finite band additionally cap the composite's *effective* dilation (top
  singular value squared), because the spectral tail of ln J decays like
  rho(lambda_eff)^-l and three legal factors can reach lambda_eff ~ 80;
* translation targets: unit vectors with w3 <= 1/2;
* unimodular matrices: normalized entries of modulus <= 2.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonics import HarmonicField, _layout
from .mobius import ConformalMap, dilation, inversion, rotation, translation

__all__ = [
    "effective_dilation",
    "random_field",
    "random_conformal",
    "random_rotation",
    "random_translation_point",
    "random_unimodular",
    "random_unit_vector",
]

_P3_MAX = 0.5
_MAX_FACTORS = 3
_LAM_RANGE = (0.25, 4.0)
_BETA_MAX = 2.0
_ENTRY_BOUND = 2.0


def random_field(rng: np.random.Generator, l_max: int, scale: float) -> HarmonicField:
    """Band-limited field with degree-damped Gaussian coefficients."""
    l = _layout(l_max).degrees
    coeffs = scale * rng.standard_normal(l.size) / (1.0 + l) ** 1.5
    return HarmonicField(l_max, coeffs)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_rotation(rng: np.random.Generator) -> ConformalMap:
    return rotation(random_unit_vector(rng), rng.uniform(0.0, 2.0 * math.pi))


def random_translation_point(rng: np.random.Generator) -> np.ndarray:
    """Unit vector bounded away from the north pole (keeps |S(p)| moderate)."""
    while True:
        p = random_unit_vector(rng)
        if p[2] <= _P3_MAX:
            return p


def effective_dilation(tau: ConformalMap) -> float:
    """Top singular value squared of the matrix; 1 exactly for isometries."""
    s = np.linalg.svd(tau.mat, compute_uv=False)
    return float(s[0] ** 2)


def _random_factor(rng: np.random.Generator, allow_reflect: bool) -> ConformalMap:
    kinds = ["rotation", "dilation", "translation"]
    if allow_reflect:
        kinds.append("inversion")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "rotation":
        return random_rotation(rng)
    if kind == "dilation":
        lo, hi = math.log(_LAM_RANGE[0]), math.log(_LAM_RANGE[1])
        return dilation(math.exp(rng.uniform(lo, hi)))
    if kind == "translation":
        radius = _BETA_MAX * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return translation(radius * complex(math.cos(angle), math.sin(angle)))
    return inversion()


def random_conformal(
    rng: np.random.Generator,
    lam_eff_cap: float | None = None,
    allow_reflect: bool = False,
) -> ConformalMap:
    """Composition of 1..3 bounded generators, optionally capped in
    effective dilation (resampled until the cap holds)."""
    for _ in range(1000):
        tau = _random_factor(rng, allow_reflect)
        for _ in range(int(rng.integers(0, _MAX_FACTORS))):
            tau = tau.compose(_random_factor(rng, allow_reflect))
        if lam_eff_cap is None or effective_dilation(tau) <= lam_eff_cap:
            return tau
    raise RuntimeError("could not sample a map under the effective-dilation cap")


def random_unimodular(rng: np.random.Generator) -> ConformalMap:
    """Orientation-preserving map whose determinant-one matrix has entries within a bound.

    Rejection-sampled to keep the Lorentz-lift conditioning tame.
    """
    for _ in range(1000):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0]
        if abs(det) < 0.3:
            continue
        m = ConformalMap.from_matrix(raw)
        if np.max(np.abs(m.mat)) <= _ENTRY_BOUND:
            return m
    raise RuntimeError("could not sample a bounded unimodular matrix")
