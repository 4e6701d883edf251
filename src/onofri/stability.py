"""Distance to the extremal family and the quantitative stability certificate.

With psi's coefficients g_l(tanh t) Y_lm(b/t) and gradient energy
(9/2)(t coth t - 1) in closed form (see :mod:`onofri.extremals`), the
gradient distance from a band-L field u to psi,

    d(b) = E(u) - 2 sum_{l<=L} l(l+1) g_l(tanh t) u_l(b/t) + (9/2)(t coth t - 1),

needs no quadrature and no truncation of psi (u_l is the degree-l part of u,
E(u) its gradient energy).  Its gradient is closed-form too: dg_l/dt =
(3/2) Q_l(coth t)/sinh^2 t, and the surface gradient of u_l comes from the
Legendre derivative relations.  A scan over t and the grid's nodes, which
synthesizes only the t that Unsold's bound cannot rule out (see
:func:`_best_first`), seeds a BFGS polish of d with its exact gradient, run
in this module: Armijo backtracking from scipy's first step, ended at the
first point whose gradient is at most 1e-8 (1 + d at the start) in every
component and 1e-7 (1 + d) in norm, or by at most three quasi-Newton steps
where rounding stalls the line search.  The search is deterministic.

Results are reported in the chart z -> lambda * (z + beta), lambda > 0,
beta complex: left rotations leave the Jacobian and M^H M unchanged, and the
chart, read off M^H M, holds exactly one representative of each rotation-coset.
The certificate checked here is

    deficit >= distance / 6,

with the deficit the sharpened-functional value at alpha = 2/3 and the
distance the infimum over the ball of the gradient norm squared of u - psi,
psi taken whole (constants carry no gradient energy, so the l = 0 mode is
ignored).  The part of it in u's band, the distance to psi truncated at that
band, is reported beside it as ``band_distance``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .config import scaled
from .extremals import _ball_point, _g, _psi_energy
from .harmonics import HarmonicField, _grid_table, _harmonic_slopes, _layout, _synthesis
from .mobius import ConformalMap, MobiusMap
from .sphere import (
    DEFAULT_POLICY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    _node,
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
# a scanned t's floor is lowered by _SCAN_MARGIN (1 + its reach) against rounding (see _best_first)
_SCAN_MARGIN = 1e-12
# a polish has converged when |grad d| <= _GRAD_TOL (1 + d)
_GRAD_TOL = 1e-7
# BFGS iterations of a polish at most, scipy's default for three variables
_MAX_STEPS = 600
# Armijo's sufficient-decrease constant, scipy's c1
_ARMIJO = 1e-4
# decreases of d below _ROUNDING (1 + d) are not resolved: d rounds at eps E(u)
_ROUNDING = 1e-14


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
        return dict(vars(self))


def chart_params(tau: ConformalMap) -> ManifoldPoint:
    """Chart coordinates of tau's rotation-coset: lambda and lambda beta are the first row of
    M^H M (M conjugated if reflected), as for the chart map [[r, r beta], [0, 1/r]], r^2 = lambda."""
    m = np.conj(tau.mobius.mat) if tau.reflect else tau.mobius.mat
    h = m.conj().T @ m
    beta = complex(h[0, 1] / h[0, 0])
    return ManifoldPoint(math.log(h[0, 0].real), beta.real, beta.imag)


def _ball_of(m: ManifoldPoint) -> np.ndarray:
    """Hyperbolic coordinate b = atanh|a| a/|a| of the chart point's center of mass."""
    return _ball_point(m.to_map())


def _chart_of_ball(b: np.ndarray) -> ManifoldPoint:
    """Chart point of the extremal with center of mass tanh|b| b/|b|.

    Its M^H M has Minkowski vector (cosh t, -sinh(t) b/t), t = |b|: lambda = cosh t - sinh(t) b3/t
    and lambda beta = -sinh(t) (b1 + i b2)/t.  With s = t sign(b3), lambda is summed as
    (e^-s (1 + |b3|/t) + e^s rho^2/(t (t + |b3|)))/2, rho^2 = b1^2 + b2^2, free of cancellation.
    """
    t = math.hypot(*b)
    if t == 0.0:
        return ManifoldPoint(0.0, 0.0, 0.0)
    e, z = math.exp(-math.copysign(t, b[2])), abs(b[2])
    lam = 0.5 * (e * (1.0 + z / t) + (b[0] * b[0] + b[1] * b[1]) / (e * t * (t + z)))
    beta = -(math.sinh(t) / t) * complex(b[0], b[1]) / lam
    return ManifoldPoint(math.log(lam), beta.real, beta.imag)


def _distance(c: np.ndarray, b: np.ndarray, l_max: int) -> tuple[float, float, np.ndarray]:
    """Band part, whole distance d(b) and its gradient, for coefficients c with c[0] = 0.

    d is summed as the band part, the non-negative sum of l(l+1)(c_lm - psi_lm)^2
    for l <= l_max, plus psi's energy beyond the band, so d >= band part >= 0.
    The surface gradient of sum_l l(l+1) g_l u_l at b/t is two contractions of
    the weighted coefficients, with the theta and phi slopes of the basis.
    """
    deg = _layout(l_max).degrees
    ll = np.arange(l_max + 1) * np.arange(1.0, l_max + 2)  # l(l+1)
    t = math.hypot(b[0], b[1], b[2])
    if t == 0.0:  # psi = 0, and only g_1 ~ t/2 has a slope: Y_1m = sqrt(3) (y, z, x)
        band = float(ll[deg] @ (c * c))
        grad = -2.0 * math.sqrt(3.0) * c[[3, 1, 2]] if l_max > 0 else np.zeros(3)
        return band, band, grad
    g, dg = _g(l_max, t)
    slopes, frame = _harmonic_slopes(b / t, l_max)
    diff = c - g[deg] * slopes[0]
    band = float(ll[deg] @ (diff * diff))
    psi, dpsi = _psi_energy(t)
    tail = max(psi - float((ll * (2 * np.arange(l_max + 1) + 1)) @ (g * g)), 0.0)
    radial = dpsi - 2.0 * float((ll * dg)[deg] @ (c * slopes[0]))  # d/dt at fixed b/t
    grad = radial * (b / t) - (2.0 / t) * ((slopes[1:] @ ((ll * g)[deg] * c)) @ frame)
    return band, band + tail, grad


def _band_coeffs(u: HarmonicField, l_max: int) -> np.ndarray:
    if l_max < u.l_max:  # truncating u would drop degrees that its deficit counts
        raise ValueError(f"band {l_max} is below the field's band {u.l_max}")
    c = u.to_lmax(l_max).coeffs.copy()
    c[0] = 0.0
    return c


def grad_distance(u: HarmonicField, m: ManifoldPoint, l_max: int) -> float:
    """Gradient-norm distance from u, at band l_max, to the whole extremal at one chart point."""
    return _distance(_band_coeffs(u, l_max), _ball_of(m), l_max)[1]


@lru_cache(maxsize=8)
def _scan_weights(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    # per scanned t: l(l+1) g_l for l >= 1, and psi's gradient energy
    l = np.arange(l_max + 1)
    g = np.array([_g(l_max, t)[0] for t in _SCAN_T])
    weights = (l * (l + 1) * g)[:, 1:]
    energy = np.array([_psi_energy(t)[0] for t in _SCAN_T])
    weights.setflags(write=False)
    energy.setflags(write=False)
    return weights, energy


def _best_first(target: np.ndarray, l_max: int, grid: SphericalGrid) -> tuple[np.ndarray, int]:
    """The scan's point b, and the number of scanned t it synthesized.

    At a scanned t, d - E(u) at node w is psi's energy less 2 sum_l w_l u_l(w),
    w_l = l(l+1) g_l > 0: one synthesis of coefficients x_lm = -2 w_l c_lm.  As
    sum_m Y_lm(w)^2 = 2l + 1 (Unsold), no node goes below psi's energy less the
    reach 2 sum_l w_l sqrt(2l + 1) |c_l|.  The floor is that less _SCAN_MARGIN
    (1 + reach), above the rounding: in the synthesis (3L + 3) eps times
    sum_lm |x_lm Y_lm| <= reach, in the table at most 260 eps sqrt(2l + 1) per
    degree on band-64 grids (1600 eps at |cos theta| = 1 - 1e-6), and eps of
    psi's energy (at most 22.5).  The t go in stable ascending order of floor
    until one is not below the best value so far, which it can then neither
    beat nor tie.  The best is the first least (t, node), t-major, among the
    values below 0, that of t = 0.
    """
    if grid.band_limit_exact < l_max:
        raise ValueError(f"grid resolves band {grid.band_limit_exact} < field l_max {l_max}")
    weights, psi_energy = _scan_weights(l_max)
    deg = _layout(l_max).degrees
    # sqrt(2l + 1) |c_l|, the most |u_l| reaches on the sphere, for l >= 1
    bounds = np.sqrt((2 * np.arange(l_max + 1) + 1) * np.bincount(deg, target * target, l_max + 1))
    reach = 2.0 * (weights @ bounds[1:])
    floor = psi_energy - reach - _SCAN_MARGIN * (1.0 + reach)
    table = _grid_table(l_max, grid.cos_theta.tobytes())
    best, found, scanned = 0.0, (-1, 0), 0  # t index -1: t = 0, the constant extremal
    for i in np.argsort(floor, kind="stable"):
        if floor[i] >= best:
            break
        x = np.concatenate(([0.0], -2.0 * weights[i]))[deg] * target
        values = _synthesis(HarmonicField(l_max, x), table, grid)
        node = int(np.argmin(values))
        value = float(values[node] + psi_energy[i])
        scanned += 1
        if value < best or (value == best and i < found[0]):
            best, found = value, (int(i), node)
    if found[0] < 0:
        return np.zeros(3), scanned
    return _SCAN_T[found[0]] * _node(grid, found[1]), scanned


def _small_gradient(d: float, grad: np.ndarray) -> bool:
    """The convergence test of the polish: |grad d| <= _GRAD_TOL (1 + d)."""
    return bool(np.linalg.norm(grad) <= _GRAD_TOL * (1.0 + d))


def _polish(
    target: np.ndarray, b: np.ndarray, found: tuple[float, float, np.ndarray], l_max: int
) -> tuple[np.ndarray, tuple[float, float, np.ndarray], int]:
    """BFGS on d from b, whose _distance is ``found``: the end, its _distance, and the calls made.

    The inverse Hessian starts at I, each line search tries scipy's BFGS first
    step min(1, 2.02 (d_prev - d) / -slope) and backtracks by safeguarded
    quadratic interpolation until Armijo's decrease holds, and an update is
    made only where s.y > 0, which keeps the inverse Hessian positive
    definite.  The polish ends at the first point it evaluates whose gradient
    is at most 1e-8 (1 + d_start) in every component and 1e-7 (1 + d) in
    norm.  d carries rounding of order eps E(u), so near a minimum Armijo's
    test can fail on rounding alone: where the decrease it asks for is below
    that, the polish ends with at most three quasi-Newton steps on the
    gradient alone, each kept while it shrinks the gradient.
    """
    gtol = 1e-8 * (1.0 + found[1])

    def passes(found: tuple[float, float, np.ndarray]) -> bool:
        _, d, grad = found
        return bool(np.max(np.abs(grad)) <= gtol) and _small_gradient(d, grad)

    nfev = 1
    if passes(found):
        return b, found, nfev
    _, d, grad = found
    inverse = np.eye(3)
    d_prev = d + float(np.linalg.norm(grad)) / 2.0
    for _ in range(_MAX_STEPS):
        step = -inverse @ grad
        slope = float(grad @ step)
        first = 2.02 * (d - d_prev) / slope if slope != 0.0 else 0.0
        alpha = min(1.0, first) if first > 0.0 else 1.0
        while -alpha * slope > _ROUNDING * (1.0 + d):
            trial = b + alpha * step
            tried = _distance(target, trial, l_max)
            nfev += 1
            if passes(tried):
                return trial, tried, nfev
            if tried[1] <= d + _ARMIJO * alpha * slope:
                break
            q = -slope * alpha * alpha / (2.0 * (tried[1] - d - slope * alpha))
            alpha = min(max(q, 0.1 * alpha), 0.5 * alpha) if math.isfinite(q) else 0.1 * alpha
        else:  # the line search cannot lower d
            for _ in range(3):
                if _small_gradient(d, grad):
                    break
                trial = b - inverse @ grad
                tried = _distance(target, trial, l_max)
                nfev += 1
                if np.linalg.norm(tried[2]) >= np.linalg.norm(grad):
                    break
                b, found = trial, tried
                _, d, grad = found
            return b, found, nfev
        s, y = trial - b, tried[2] - grad
        sy = float(s @ y)
        if sy > 0.0:
            left = np.eye(3) - np.outer(s, y) / sy
            inverse = left @ inverse @ left.T + np.outer(s, s) / sy
        d_prev, b, found = d, trial, tried
        _, d, grad = found
    return b, found, nfev


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    argmin: ManifoldPoint
    converged: bool
    nfev: int
    start_value: float
    band_distance: float
    scanned: int

    def to_dict(self) -> dict:
        return {**vars(self), "argmin": self.argmin.to_dict()}  # asdict's deep copy: 5% of a certify item


def distance_to_manifold(u: HarmonicField, l_max: int, grid: SphericalGrid) -> DistanceResult:
    """Infimum of the gradient distance over the ball, by the closed form.

    The best node of the scan seeds a BFGS polish in b = atanh|a| a/|a|
    with the exact gradient; ``start_value`` is d there, ``nfev`` counts
    the evaluations of d from there on, and ``scanned`` the scanned t that
    the scan synthesized (of 60).  The polish ends at the first point
    it evaluates whose gradient is at most 1e-8 (1 + start_value) in every
    component and 1e-7 (1 + d) in norm, or, where its line search can no
    longer lower d beyond rounding, after at most three quasi-Newton steps
    that shrink the gradient.  It has converged when the gradient at its end
    is at most 1e-7 (1 + d) and the end lies in the a-priori ball:
    d(b*) <= d(0) = E(u) bounds psi's gradient energy by 4 E(u).
    """
    target = _band_coeffs(u, l_max)
    energy = _distance(target, np.zeros(3), l_max)[1]  # d(0) = E(u)
    start, scanned = _best_first(target, l_max, grid)
    found = _distance(target, start, l_max)
    b, (band, d, grad), nfev = _polish(target, start, found, l_max)
    return DistanceResult(
        distance=d,
        argmin=_chart_of_ball(b),
        converged=_small_gradient(d, grad)
        and _psi_energy(float(np.linalg.norm(b)))[0] <= 4.0 * energy * (1.0 + 1e-12),
        nfev=nfev,
        start_value=found[1],
        band_distance=band,
        scanned=scanned,
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
    """Certify deficit >= distance/6 for one field, at a band l_max not below u's.

    A converged run with slack below -1e-8 would contradict the bound and
    therefore raises as a numerics failure.  ``seed`` is accepted for
    callers that pass one and is unused: the search is deterministic.
    """
    if l_max is None:
        l_max = u.l_max
    if grid is None:
        grid = build_grid(max(4 * l_max, 48))
    report = chang_gui_report(2.0 / 3.0, u, policy)
    dist = distance_to_manifold(u, l_max, grid)
    slack = report.value - dist.distance / 6.0
    if dist.converged and slack < -scaled(1e-8):
        raise ConvergenceError(
            f"stability certificate violated on a converged run: slack {slack:.3e}"
        )
    trace = {
        "converged": dist.converged,
        "functional_grid": report.grid,
        "distance": dist.to_dict(),
    }
    return StabilityReport(
        deficit=report.value,
        distance=dist.distance,
        slack=slack,
        argmin=dist.argmin,
        trace=trace,
    )
