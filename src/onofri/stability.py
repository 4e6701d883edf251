"""Distance to the extremal family and the quantitative stability certificate.

With psi's coefficients g_l(tanh t) Y_lm(b/t) and gradient energy
(9/2)(t coth t - 1) in closed form (see :mod:`onofri.extremals`), the
gradient distance from a band-L field u to psi,

    d(b) = E(u) - 2 sum_{l<=L} l(l+1) g_l(tanh t) u_l(b/t) + (9/2)(t coth t - 1),

needs no quadrature and no truncation of psi (u_l is the degree-l part of u,
E(u) its gradient energy).  Its gradient and Hessian are closed-form too:
dg_l/dt = (3/2) Q_l(coth t)/sinh^2 t and its t-derivative come from the same
Q's, and the first and second derivatives of u_l on the sphere from the
Legendre raising and lowering relations.  The polish starts from the best
of three points.  psi_b's degree-1 part is g_1(tanh t) Y_1m(b/t) with
g_1 = E_psi'/6, so the degree-1 part of u names one b in closed form
(:func:`_degree_one_point`), exact on every band projection of an extremal;
it is tried where psi there carries at least E(u), which such a projection
always passes and most other fields fail at a table lookup.  Then a scan
over t and the grid's nodes, which synthesizes only the t that Unsold's
bound cannot rule out (see :func:`_best_first`), looks for a node below the
better of b = 0 and the degree-1 point.  From the best, a Newton polish
of d runs on its exact Hessian, its eigenvalues taken in absolute value and
floored, with Armijo backtracking from the full step; :func:`_polish` states
where it ends.  A saddle can end it too, and the Hessian's least eigenvalue
at the end, ``min_curvature``, tells it apart.  The search is deterministic.

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
from .harmonics import HarmonicField, _by_order, _grid_table, _harmonic_slopes, _layout, _synthesis
from .mobius import ConformalMap
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
# Newton steps of a polish at most: where d cannot resolve a step, the gradient norm judges it, so
# d need not fall strictly from step to step; 1018 fields of bands 1-32 and amplitudes 0.05-5 take
# at most 4
_MAX_STEPS = 100
# a Newton step floors the Hessian's |eigenvalues| at _CURVATURE_FLOOR max(1, their largest)
_CURVATURE_FLOOR = 1e-8
# Armijo's sufficient-decrease constant, scipy's c1
_ARMIJO = 1e-4
# decreases of d below _ROUNDING (1 + d) are not resolved: d rounds at eps E(u)
_ROUNDING = 1e-14
# the degree-1 point is tried where psi there carries at least E(u) (1 - _ENERGY_MARGIN): psi's band
# projections only drop energy, but rounding put psi's energy up to 4e-15 below E(u) on 1,869 of them
# (bands 1-96, lambda_eff up to 50)
_ENERGY_MARGIN = 1e-12
# the inversion of E_psi' ends after a Newton step below _ROOT_STEP (1 + t): the next would be below 1e-16 t
_ROOT_STEP = 1e-8


@dataclass(frozen=True)
class ManifoldPoint:
    """Chart coordinates (log lambda, beta) of one extremal modulo rotations."""

    log_lambda: float
    beta1: float
    beta2: float

    def to_map(self) -> ConformalMap:
        r = math.exp(0.5 * self.log_lambda)
        beta = complex(self.beta1, self.beta2)
        return ConformalMap(r, r * beta, 0.0, 1.0 / r)

    def to_dict(self) -> dict:
        return dict(vars(self))


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


def _hessian_at_zero(c: np.ndarray, l_max: int) -> np.ndarray:
    """d's Hessian at b = 0: 3 I from psi's energy (3/2) t^2, less (12/5) Q for the degree-2 part.

    Near b = 0, g_2(tanh t) = t^2/10 + O(t^4), so the l = 2 term -12 g_2 u_2(b/t) is -(6/5) b.Q b
    with Q the quadratic form of u_2, from Y_2m = sqrt(15) (xy, yz, xz, (x^2 - y^2)/2) at
    m = -2, -1, 1, 2 and sqrt(5) (2z^2 - x^2 - y^2)/2 at m = 0.  The l = 1 term and the higher
    degrees are odd or of degree 3 and more in b.
    """
    hess = 3.0 * np.eye(3)
    if l_max < 2:
        return hess
    s, r = 0.5 * math.sqrt(15.0), 0.5 * math.sqrt(5.0)
    q22, q21, q20, q11, q12 = c[4:9].tolist()  # m = -2, -1, 0, 1, 2
    q = np.array([
        [s * q12 - r * q20, s * q22, s * q11],
        [s * q22, -s * q12 - r * q20, s * q21],
        [s * q11, s * q21, 2.0 * r * q20],
    ])
    return hess - 2.4 * q


@lru_cache(maxsize=16)
def _degree_weights(l_max: int) -> tuple[np.ndarray, ...]:
    """Read-only weights of d at one band: each slot's degree, l(l+1) per degree and per slot,
    and (2l + 1) l(l+1) per degree."""
    deg = _layout(l_max).degrees
    ll = np.arange(l_max + 1) * np.arange(1.0, l_max + 2)
    weights = deg, ll, ll[deg], ll * (2 * np.arange(l_max + 1) + 1)
    for arr in weights:
        arr.setflags(write=False)
    return weights


def _distance(c: np.ndarray, b: np.ndarray, l_max: int) -> tuple:
    """Band part, whole distance d(b), its gradient and its 3 x 3 Hessian, for coefficients c
    with c[0] = 0.

    d is summed as the band part, the non-negative sum of l(l+1)(c_lm - psi_lm)^2
    for l <= l_max, plus psi's energy beyond the band, so d >= band part >= 0.
    Its derivatives are those of E(u) + psi's energy - 2 sum_l w_l(t) u_l(b/t),
    w_l = l(l+1) g_l, in the orthonormal frame (b/t, e_theta, e_phi), and every
    sum over the slots they need is one product of the weighted coefficients
    with the basis' slopes.  The gradient is the t-derivative along b/t and
    the surface gradient over t.  The Hessian has the t-derivatives' second
    along b/t twice; the t-derivative of the surface gradient less the
    gradient over t between b/t and the frame; and on the tangent plane the
    covariant Hessians of the u_l over t^2, plus the radial slope over t,
    which is the curvature of the spheres |b| = t.
    """
    deg, ll, ll_slot, ll_count = _degree_weights(l_max)
    t = math.hypot(b[0], b[1], b[2])
    if t == 0.0:  # psi = 0, and only g_1 ~ t/2 has a slope: Y_1m = sqrt(3) (y, z, x)
        band = float(ll_slot @ (c * c))
        grad = -2.0 * math.sqrt(3.0) * c[[3, 1, 2]] if l_max > 0 else np.zeros(3)
        return band, band, grad, _hessian_at_zero(c, l_max)
    w = b / t
    g, *derivs = _g(l_max, t)
    slopes, frame = _harmonic_slopes(w, l_max)
    diff = c - g[deg] * slopes[0]
    band = float(ll_slot @ (diff * diff))
    psi, dpsi, d2psi = _psi_energy(t)
    tail = max(psi - float(ll_count @ (g * g)), 0.0)
    # row k, column j: the sum over slots of l(l+1) (g, g', g'', l(l+1) g)_l [k] c_lm slopes[j]
    sums = ((np.array((g, *derivs, ll * g)) * ll)[:, deg] * c) @ slopes.T
    (_, tan1, tan2, theta2, mixed), (slope, *across), (second, *_), (laplace, *_) = sums.tolist()
    radial = dpsi - 2.0 * slope  # d/dt at fixed b/t
    basis = np.array((w, *frame))
    grad = np.array((radial, (-2.0 / t) * tan1, (-2.0 / t) * tan2)) @ basis
    phi2 = -laplace - theta2  # the surface Laplacian of u_l is -l(l+1) u_l
    a1, a2 = (-2.0 / t) * (across[0] - tan1 / t), (-2.0 / t) * (across[1] - tan2 / t)
    k, r = -2.0 / (t * t), radial / t
    m = np.array((
        (d2psi - 2.0 * second, a1, a2),
        (a1, k * theta2 + r, k * mixed),
        (a2, k * mixed, k * phi2 + r),
    ))
    return band, band + tail, grad, basis.T @ m @ basis


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


def _degree_one_point(c: np.ndarray) -> np.ndarray | None:
    """The ball point b whose psi has the degree-1 part of coefficients c, or None where none has.

    psi_b's degree-1 coefficients are g_1(tanh t) Y_1m(b/t), t = |b|, and Y_1m = sqrt(3) (y, z, x)
    at m = -1, 0, 1: so b/t is the direction of (c_11, c_1-1, c_10), and as g_1 = E_psi'/6
    (:func:`onofri.extremals._g`), t solves E_psi'(t) = 6 |c_1| / sqrt(3).  E_psi' rises from 0 to
    9/2, so there is no root from 9/2 on; and it is concave (E_psi'' = 2 csch^2(t) E_psi falls), so
    Newton from t = 0 on _psi_energy's slope and curvature rises to the root monotonically, and
    quadratically near it.
    """
    x, y, z = c[3], c[1], c[2]
    norm = math.hypot(x, y, z)
    rhs = 2.0 * math.sqrt(3.0) * norm
    if not rhs < 4.5:
        return None
    t = 0.0
    for _ in range(_MAX_STEPS):
        _, slope, curvature = _psi_energy(t)
        step = (rhs - slope) / curvature
        t += step
        if step <= _ROOT_STEP * (1.0 + t):
            return (t / norm) * np.array((x, y, z)) if norm > 0.0 else np.zeros(3)
    return None


def _degree_one_start(c: np.ndarray, energy: float, l_max: int) -> np.ndarray | None:
    """c's degree-1 point where psi there carries at least E(u) = ``energy``, else None.

    Every band projection of an extremal passes this test, as projection only drops energy; the
    bound is E(u) (1 - _ENERGY_MARGIN), and b = 0, t = 0's own point, is no candidate.  Most fields
    fail before any inversion, by a lookup in the scan's cached 2 g_1 and psi energies: the root t
    is at most the first scanned t whose 2 g_1 reaches 2 |c_1| / sqrt(3), and psi's energy there is
    at least psi's energy at the root.
    """
    if l_max < 1:
        return None
    floor = energy * (1.0 - _ENERGY_MARGIN)
    weights, psi_energy = _scan_weights(l_max)
    i = int(np.searchsorted(weights[:, 0], (2.0 / math.sqrt(3.0)) * math.hypot(c[1], c[2], c[3])))
    if i < _SCAN_T.size and psi_energy[i] < floor:
        return None
    b = _degree_one_point(c)
    if b is None or not b.any() or _psi_energy(math.hypot(*b))[0] < floor:
        return None
    return b


def _best_first(target: np.ndarray, l_max: int, grid: SphericalGrid, bar: float = 0.0) -> tuple[np.ndarray, int]:
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
    values below ``bar``: 0 by default, the value of t = 0, and b = 0 when no
    node is below it.  :func:`distance_to_manifold` passes d - E(u) of the
    degree-1 point when that beats t = 0, and then reads b = 0 as "no node
    beats the degree-1 point".
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
    best, found, scanned = bar, (-1, 0), 0  # t index -1: no node below the bar
    for i in np.argsort(floor, kind="stable"):
        if floor[i] >= best:
            break
        x = np.concatenate(([0.0], -2.0 * weights[i]))[deg] * target
        values = _synthesis(_by_order(x, l_max) @ table, grid)
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
    return math.hypot(*grad.tolist()) <= _GRAD_TOL * (1.0 + d)


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-V diag(1 / max(|lambda_i|, delta)) V^T grad from hess = V diag(lambda) V^T, a descent direction
    wherever grad is not 0 (Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 3.4)."""
    lam, vec = np.linalg.eigh(hess)
    floor = _CURVATURE_FLOOR * max(1.0, -lam[0], lam[-1])  # eigh sorts lam ascending
    return -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), floor))


def _polish(target: np.ndarray, b: np.ndarray, found: tuple, l_max: int) -> tuple[np.ndarray, tuple, int]:
    """Newton on d from b, whose _distance is ``found``: the end, its _distance, and the calls made.

    The polish ends at the first point whose gradient is at most
    _GRAD_TOL (1 + d) = 1e-7 (1 + d) in norm.  Until then each step is the
    Newton step on the Hessian with its eigenvalues taken in absolute value
    and floored (:func:`_newton_step`), halved from the full step until
    Armijo's decrease holds.  d carries rounding of order eps E(u), so where
    the decrease that Armijo asks for is below _ROUNDING (1 + d), d cannot
    judge the step and the gradient norm does: the step is taken if it
    shrinks the norm, and otherwise the polish ends there.
    """
    nfev = 1
    for _ in range(_MAX_STEPS):
        _, d, grad, hess = found
        if _small_gradient(d, grad):
            break
        step = _newton_step(hess, grad)
        slope, alpha = float(grad @ step), 1.0
        while True:
            trial = b + alpha * step
            tried = _distance(target, trial, l_max)
            nfev += 1
            if not -alpha * slope > _ROUNDING * (1.0 + d):  # d cannot resolve the step
                if not math.hypot(*tried[2].tolist()) < math.hypot(*grad.tolist()):
                    return b, found, nfev
                break
            if tried[1] <= d + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        b, found = trial, tried
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
    min_curvature: float
    start: str

    def to_dict(self) -> dict:
        return {**vars(self), "argmin": self.argmin.to_dict()}  # asdict's deep copy: 5% of a certify item


def distance_to_manifold(u: HarmonicField, l_max: int, grid: SphericalGrid) -> DistanceResult:
    """Infimum of the gradient distance over the ball, by the closed form.

    A Newton polish in b = atanh|a| a/|a| on d's exact gradient and Hessian
    (:func:`_polish`, which states where it ends) starts from one of three
    points, which ``start`` names.  The degree-1 point of u
    (:func:`_degree_one_point`) is tried when psi there carries at least u's
    gradient energy, up to a rounding margin of 1e-12 relative
    (:func:`_degree_one_start`): every band projection of an extremal does.
    If its d is below d(0) = E(u), d - E(u) there is the bar of the scan
    (:func:`_best_first`), else the bar is 0; a scanned node below the bar
    starts the polish ("scan"), else the degree-1 point if it beat b = 0
    ("degree-1"), else b = 0 ("origin").  So on an extremal's projection the
    scan synthesizes nothing and the polish ends at its first evaluation,
    and on a field that the energy test rejects the search is the scan's
    alone.  ``start_value`` is d at the start, ``nfev`` counts every
    evaluation of d, the degree-1 point's among them where a node or b = 0
    replaced it, and ``scanned`` the scanned t that the scan synthesized
    (of 60).  ``min_curvature`` is the least eigenvalue of d's Hessian at the
    end.  The run has converged when the end passes the polish's gradient
    test, the curvature is above -1e-7 (1 + d), and the end lies in the
    a-priori ball: d(b*) <= d(0) = E(u) bounds psi's gradient energy by
    4 E(u).  E(u) is read as d's band part at b = 0, the sum of
    l(l+1) c_lm^2, without d's derivatives.  The curvature bound tells a
    saddle, whose negative curvature is of the order of d's, from a minimum on
    a ring or sphere of minima, as of fields symmetric about an axis: there an
    end that passes the gradient test reads the zero curvature along the ring
    as about -|grad d| / |b|.
    """
    target = _band_coeffs(u, l_max)
    energy = float(_degree_weights(l_max)[2] @ (target * target))  # d(0) = E(u)
    candidate, tried = _degree_one_start(target, energy, l_max), 0
    if candidate is not None:
        found, tried = _distance(target, candidate, l_max), 1
    if tried and found[1] < energy:  # the degree-1 point beats t = 0: a node must beat it instead
        node, scanned = _best_first(target, l_max, grid, found[1] - energy)
        start, b = ("scan", node) if node.any() else ("degree-1", candidate)
    else:
        node, scanned = _best_first(target, l_max, grid)
        start, b = "scan" if node.any() else "origin", node
    if start != "degree-1":
        found = _distance(target, b, l_max)
    b, (band, d, grad, hess), nfev = _polish(target, b, found, l_max)
    curvature = float(np.linalg.eigvalsh(hess)[0])
    return DistanceResult(
        distance=d,
        argmin=_chart_of_ball(b),
        converged=_small_gradient(d, grad)
        and curvature > -_GRAD_TOL * (1.0 + d)
        and _psi_energy(float(np.linalg.norm(b)))[0] <= 4.0 * energy * (1.0 + 1e-12),
        nfev=nfev + (tried and start != "degree-1"),  # and the degree-1 point's, where the polish started elsewhere
        start_value=found[1],
        band_distance=band,
        scanned=scanned,
        min_curvature=curvature,
        start=start,
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
