"""Distance to the extremal family and the quantitative stability certificate.

Every extremal is psi = (3/4) ln J_tau + c, and the identity
sqrt(J) = M (1 - |a|^2) / (1 - a.w) makes psi = -(3/2) ln(1 - a.w) modulo
constants, where a, the center of mass, is a point of the open unit ball
that fixes the extremal.  By Funk-Hecke the coefficients of psi are
g_l(r) Y_lm(a/r) with r = |a| and

    g_l(r) = -(3/2) (Q_{l+1}(1/r) - Q_{l-1}(1/r)) / (2l + 1),

Q_n the Legendre function of the second kind, so the gradient distance

    d(a) = E(u) - 2 sum_l l(l+1) g_l(r) u_l(a/r) + sum_l l(l+1)(2l+1) g_l(r)^2

needs no quadrature (u_l is the degree-l part of u).  For each r on a scan
the cross term is a band-limited field in a/r, synthesized on the grid; the
best node over the scan, or the re-centering candidate when it scores lower,
seeds a simplex polish in the hyperbolic coordinate b = atanh(r) a/r.  The
search is deterministic.

Results are reported in the chart z -> lambda * (z + beta), lambda > 0,
beta complex: left rotations leave the Jacobian unchanged, and QR (Iwasawa)
decomposition puts exactly one representative of each rotation-coset in it.
The certificate checked here is

    deficit >= distance / 6,

with the deficit the sharpened-functional value at alpha = 2/3 and the
distance the infimum over the ball of the gradient norm squared of u - psi,
both fields truncated at the same band limit (constants carry no gradient
energy, so the l = 0 mode is ignored).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .config import scaled
from .harmonics import HarmonicField, _layout, dirichlet_energy, harmonics_at, synthesize
from .lorentz import lorentz_lift
from .mobius import ConformalMap, MobiusMap, dilation, rotation
from .normalize import normalize
from .sphere import (
    DEFAULT_POLICY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    build_grid,
)
from .functionals import chang_gui_report

__all__ = [
    "DistanceResult",
    "ManifoldPoint",
    "StabilityReport",
    "chart_params",
    "distance_to_manifold",
    "grad_distance",
    "stability_check",
]

# scanned values of atanh|a| besides 0; the last is |a| = 1 - 1.2e-5
_SCAN_T = np.linspace(0.1, 6.0, 60)
# the polish reaches atanh|a| = 8 (|a| = 1 - 2.3e-7); beyond it the backward
# recurrence for Q_n would need more than 3e4 steps
_T_EDGE = 8.0


@dataclass(frozen=True)
class ManifoldPoint:
    """Chart coordinates (log lambda, beta) of one extremal modulo rotations."""

    log_lambda: float
    beta1: float
    beta2: float

    def to_map(self) -> ConformalMap:
        r = math.exp(0.5 * self.log_lambda)
        beta = complex(self.beta1, self.beta2)
        return ConformalMap(MobiusMap(r, r * beta, 0.0, 1.0 / r))

    def to_dict(self) -> dict:
        return asdict(self)


def chart_params(tau: ConformalMap) -> ManifoldPoint:
    """Chart coordinates of the rotation-coset of tau.

    QR-decompose the matrix as (rotation) @ (upper triangular, positive
    diagonal); reflections conjugate the matrix first, since the Jacobian of
    a reflected map equals that of the conjugated holomorphic one.
    """
    m = np.conj(tau.mobius.mat) if tau.reflect else tau.mobius.mat
    _, r = np.linalg.qr(m)
    d = np.diag(r)
    r = (np.conj(d / np.abs(d))[:, None]) * r
    lam = float(r[0, 0].real) ** 2
    beta = complex(r[0, 1] / r[0, 0])
    return ManifoldPoint(math.log(lam), beta.real, beta.imag)


def _ball_of(m: ManifoldPoint) -> np.ndarray:
    """Hyperbolic coordinate b = atanh|a| a/|a| of the chart point's center of mass.

    The first row of the Lorentz lift is (M, -M a) with M = cosh atanh|a|,
    so |M a| = sinh atanh|a|.
    """
    v = -lorentz_lift(m.to_map().mobius)[0, 1:]
    s = float(np.linalg.norm(v))
    return v * (math.asinh(s) / s) if s > 0.0 else np.zeros(3)


def _chart_of_ball(b: np.ndarray) -> ManifoldPoint:
    """Chart point of the extremal with center of mass tanh|b| b/|b|.

    dilation(lambda) with lambda = exp(-|b|) has its center of mass at
    tanh|b| times the north pole, and composing with a rotation R moves the
    center of mass to R^T of it; R turns b/|b| to the north pole.
    """
    axis = np.cross(b, [0.0, 0.0, 1.0])
    s = float(np.linalg.norm(axis))
    turn = rotation(axis / s if s > 0.0 else [1.0, 0.0, 0.0], math.atan2(s, b[2]))
    return chart_params(dilation(math.exp(-np.linalg.norm(b))).compose(turn))


def _g(l_max: int, t: float) -> np.ndarray:
    """g_l(tanh t) for l = 0..l_max and t > 0, with g_0 = 0.

    Q_0(coth t) = t, and the ratios Q_n/Q_{n-1} come from the continued
    fraction of the recurrence, run backward from the asymptotic ratio
    exp(-xi), xi = acosh(coth t), far enough that the error dies out.  At
    |a| = 1 (t infinite) the Q_n diverge but g_l = 3/(2 l (l+1)) stays finite.
    """
    l = np.arange(1, l_max + 1)
    g = np.zeros(l_max + 1)
    if math.isinf(t):
        g[1:] = 1.5 / (l * (l + 1.0))
        return g
    z = 1.0 / math.tanh(t)
    delta = 2.0 / math.expm1(2.0 * t)  # z - 1 without cancellation
    xi = math.log1p(delta + math.sqrt(delta * (2.0 + delta)))
    h = math.exp(-xi)
    ratios = np.empty(l_max + 1)
    for n in range(l_max + 2 + math.ceil(20.0 / xi), 0, -1):
        h = n / ((2 * n + 1) * z - (n + 1) * h)
        if n <= l_max + 1:
            ratios[n - 1] = h
    q = t * np.cumprod(np.concatenate([[1.0], ratios]))  # Q_0 .. Q_{l_max+1}
    g[1:] = -1.5 * (q[2:] - q[:-2]) / (2 * l + 1)
    return g


def _ball_psi(b: np.ndarray, l_max: int) -> np.ndarray:
    """Coefficients of -(3/2) ln(1 - a.w), a = tanh|b| b/|b|, with the l = 0 slot zeroed."""
    t = float(np.linalg.norm(b))
    if t == 0.0:
        return np.zeros((l_max + 1) ** 2)
    return _g(l_max, t)[_layout(l_max).degrees] * harmonics_at(b / t, l_max)


def _distance(coeffs: np.ndarray, b: np.ndarray, l_max: int) -> float:
    # sum of l(l+1) (u_lm - psi_lm)^2, which cannot come out negative
    diff = coeffs - _ball_psi(b, l_max)
    diff[0] = 0.0
    return dirichlet_energy(HarmonicField(l_max, diff))


def grad_distance(u: HarmonicField, m: ManifoldPoint, l_max: int) -> float:
    """Gradient-norm distance to one chart point, both fields at band l_max."""
    return _distance(u.to_lmax(l_max).coeffs, _ball_of(m), l_max)


@lru_cache(maxsize=8)
def _scan_weights(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    # per scanned t: l(l+1) g_l for l >= 1, and the psi energy sum l(l+1)(2l+1) g_l^2
    l = np.arange(l_max + 1)
    g = np.array([_g(l_max, t) for t in _SCAN_T])
    return (l * (l + 1) * g)[:, 1:], (l * (l + 1) * (2 * l + 1) * g * g).sum(axis=1)


def _scan(target: np.ndarray, l_max: int, grid: SphericalGrid) -> np.ndarray:
    """Best scanned t and best grid node of the cross term, as a point b."""
    degrees = _layout(l_max).degrees
    parts = np.empty((l_max, grid.node_count))  # degree-l parts of u on the grid
    for l in range(1, l_max + 1):
        part = HarmonicField(l_max, np.where(degrees == l, target, 0.0))
        parts[l - 1] = synthesize(part, grid).samples
    weights, psi_energy = _scan_weights(l_max)
    best, b = 0.0, np.zeros(3)  # t = 0: the constant extremal
    for t, w, e in zip(_SCAN_T, weights, psi_energy):
        values = e - 2.0 * (w @ parts)
        i = int(np.argmin(values))
        if values[i] < best:
            best, b = float(values[i]), t * grid.nodes[i]
    return b


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    argmin: ManifoldPoint
    converged: bool
    nfev: int
    starts: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def distance_to_manifold(
    u: HarmonicField,
    l_max: int,
    grid: SphericalGrid,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> DistanceResult:
    """Infimum of the gradient distance over the ball, by the closed form.

    Candidates: the best node of the scan, and the inverse of the
    re-centering map (the candidate the stability argument itself
    produces).  The lower-scoring one seeds a Nelder-Mead polish in
    b = atanh|a| a/|a|; a polish that ends at the reach of the recurrence
    (|b| = 8) is reported as not converged.
    """
    target = u.to_lmax(l_max).coeffs

    def objective(b: np.ndarray) -> float:
        return _distance(target, b, l_max) if np.linalg.norm(b) <= _T_EDGE else math.inf

    starts = {"scan": _scan(target, l_max, grid)}
    note = None
    try:
        norm_result = normalize(u, policy)
        warm = ManifoldPoint(
            -math.log(norm_result.lambda0), -norm_result.x0.real, -norm_result.x0.imag
        )
        starts["recentering"] = _ball_of(warm)
    except ConvergenceError as exc:  # the scan alone still seeds the polish
        note = str(exc)
    values = {kind: objective(b) for kind, b in starts.items()}
    chosen = min(values, key=values.get)
    rows = [{"kind": k, "start_value": v, "polished": k == chosen} for k, v in values.items()]
    if note is not None:
        rows.append({"kind": "recentering", "error": note})
    b0 = starts[chosen]
    res = minimize(
        objective,
        b0,
        method="Nelder-Mead",
        options={
            "xatol": 1e-10,
            "fatol": 1e-15 * (1.0 + values[chosen]),
            "maxiter": 4000,
            "initial_simplex": np.vstack([b0, b0 + 0.05 * np.eye(3)]),
        },
    )
    return DistanceResult(
        distance=float(res.fun),
        argmin=_chart_of_ball(res.x),
        converged=bool(res.success and np.linalg.norm(res.x) < _T_EDGE - 1e-6),
        nfev=int(res.nfev) + len(starts),
        starts=tuple(rows),
    )


@dataclass(frozen=True)
class StabilityReport:
    """Deficit, distance, and the certificate slack deficit - distance/6."""

    deficit: float
    distance: float
    slack: float
    argmin: ManifoldPoint
    trace: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def stability_check(
    u: HarmonicField,
    l_max: int | None = None,
    grid: SphericalGrid | None = None,
    policy: RefinementPolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> StabilityReport:
    """Certify deficit >= distance/6 for one field.

    A converged run with slack below -1e-8 would contradict the bound and
    therefore raises as a numerics failure.  ``seed`` is accepted for
    callers that pass one and is unused: the search is deterministic.
    """
    if l_max is None:
        l_max = u.l_max
    if grid is None:
        grid = build_grid(max(4 * l_max, 48))
    report = chang_gui_report(2.0 / 3.0, u, policy)
    dist = distance_to_manifold(u, l_max, grid, policy=policy)
    slack = report.value - dist.distance / 6.0
    converged = report.converged and dist.converged
    if converged and slack < -scaled(1e-8):
        raise ConvergenceError(
            f"stability certificate violated on a converged run: slack {slack:.3e}"
        )
    warm = next((s for s in dist.starts if s.get("kind") == "recentering"), None)
    warm_ok = None
    if warm is not None and "start_value" in warm:
        warm_ok = bool(warm["start_value"] <= 6.0 * max(dist.distance, 1e-9))
    trace = {
        "converged": converged,
        "functional_grid": report.grid,
        "distance": dist.to_dict(),
        "warm_start_dominates": warm_ok,
    }
    return StabilityReport(
        deficit=report.value,
        distance=dist.distance,
        slack=slack,
        argmin=dist.argmin,
        trace=trace,
    )
