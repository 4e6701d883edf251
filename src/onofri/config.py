"""Tolerance scaling shared by library invariant checks and the CLI."""

from __future__ import annotations

import math
import os

__all__ = ["tol_scale", "scaled"]

ENV_VAR = "ONOFRI_TOL_SCALE"


def tol_scale() -> float:
    """Global tolerance multiplier, read from ONOFRI_TOL_SCALE (default 1)."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{ENV_VAR} must be a finite number > 0, got {raw!r}")
    return value


def scaled(tolerance: float) -> float:
    return tolerance * tol_scale()
