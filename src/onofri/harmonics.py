"""Band-limited fields on the sphere with exact spectral energy and Laplacian.

The basis is real and orthonormal against the *normalized* measure
(integral of Y_lm^2 = 1), so the mean of a field is its (0,0) coefficient,
Parseval is coefficient-exact, and the constant Y_00 is identically 1.
Coefficients are stored flat in (l ascending, m ascending) order:
index(l, m) = l*l + l + m.  Every Y_lm at one point is a trigonometric sum in
theta, and in two small polar caps sin(theta)^m times a cosine series of positive terms.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import scaled
from .sphere import ConvergenceError, SphericalGrid, _azimuth_rows, unit_point

__all__ = [
    "GridField",
    "HarmonicField",
    "Projection",
    "analyze",
    "coeff_index",
    "dirichlet_energy",
    "evaluate_at",
    "field_from_json",
    "field_to_json",
    "laplacian",
    "synthesize",
]


def coeff_index(l: int, m: int) -> int:
    """Flat index of the (l, m) coefficient."""
    if abs(m) > l:
        raise ValueError(f"|m| > l for (l, m) = ({l}, {m})")
    return l * l + l + m


def _legendre_table(l_max: int, t: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """Normalized associated Legendre values, order-major: out[m, l] = P(l, m) at abscissas ``t``.

    Shape (l_max + 1, l_max + 1, t.size), zero where l < m: each order m is
    one (degree x abscissa) matrix, and contractions over l run order by order.
    Normalization: integral of P_lm(t)^2 dt over [-1, 1] equals 2, which makes
    the real harmonics orthonormal against the normalized sphere measure.
    Stable upward recursion in l for all m at once, diagonal seeded by the
    sin(theta)^m ladder.  ``s``, the sines, defaults to sqrt(1 - t^2), which
    rounds to 0 within about 1e-8 of a pole; :func:`evaluate_at` passes
    hypot(x, y), which keeps its relative accuracy there.  The grid
    transforms take the default.
    """
    t = np.asarray(t, dtype=float)
    if s is None:
        s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    out = np.zeros((l_max + 1, l_max + 1, t.size))
    out[0, 0] = 1.0
    for l in range(1, l_max + 1):
        out[l, l] = out[l - 1, l - 1] * s * math.sqrt((2 * l + 1) / (2 * l))
        out[l - 1, l] = math.sqrt(2 * l + 1) * t * out[l - 1, l - 1]
        if l > 1:
            a, b = _recurrence(l)
            out[: l - 1, l] = a * t * out[: l - 1, l - 1] - b * out[: l - 1, l - 2]
    return out


@functools.lru_cache(maxsize=1024)
def _recurrence(l: int) -> tuple[np.ndarray, np.ndarray]:
    # columns a, b of P(l, m) = a t P(l-1, m) - b P(l-2, m) for m < l - 1
    m = np.arange(l - 1)
    a = np.sqrt((2 * l + 1) * (2 * l - 1) / ((l - m) * (l + m)))
    b = np.sqrt((2 * l + 1) * (l - 1 - m) * (l - 1 + m) / ((2 * l - 3) * (l - m) * (l + m)))
    a, b = a[:, None], b[:, None]
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


@functools.lru_cache(maxsize=25)
def _grid_table(l_max: int, cos_theta: bytes) -> np.ndarray:
    # keyed on the abscissas' bytes: grids are unhashable, and a hand-built
    # grid must not share the table of a canonical one with its theta count
    table = _legendre_table(l_max, np.frombuffer(cos_theta))
    table.setflags(write=False)
    return table


class _Layout(NamedTuple):
    """Read-only per-slot arrays of one band: its map into order-major (m, part, l) arrays,
    c(l, -m) in part 1, and the places :func:`_rotated` reads."""

    degrees: np.ndarray  # degree l of each flat slot
    slots: np.ndarray    # per flat slot: its index in a flattened (l_max+1, 2, l_max+1) array
    scale: np.ndarray    # per flat slot: the real-basis scale, 1 at m = 0, else sqrt(2)
    signed: np.ndarray   # per flat slot: its signed order m
    swap: np.ndarray     # per flat slot: the slot of (l, -m)
    places: np.ndarray   # per flat slot: row l, column l + m of a flattened (l_max+1, 2 l_max+1) array


@functools.lru_cache(maxsize=16)
def _layout(l_max: int) -> _Layout:
    degrees = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    index = np.arange(degrees.size)
    signed = index - degrees * (degrees + 1)
    m = np.abs(signed)
    slots = (2 * m + (signed < 0)) * (l_max + 1) + degrees
    places = degrees * (2 * l_max + 1) + degrees + signed
    layout = _Layout(
        degrees, slots, np.where(m == 0, 1.0, math.sqrt(2.0)), signed, index - 2 * signed, places
    )
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _by_order(coeffs: np.ndarray, l_max: int) -> np.ndarray:
    """Band-``l_max`` flat ``coeffs`` as (m, part, l): s_m c(l, m), then s_m c(l, -m), else 0."""
    lay = _layout(l_max)
    out = np.zeros((l_max + 1, 2, l_max + 1))
    out.reshape(-1)[lay.slots] = lay.scale * coeffs
    return out


@dataclass(frozen=True)
class HarmonicField:
    """Real function on the sphere given by coefficients up to degree l_max."""

    l_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        l_max = operator.index(self.l_max)  # an integer, not a float or a string
        if l_max < 0:
            raise ValueError(f"l_max must be >= 0, got {l_max}")
        object.__setattr__(self, "l_max", l_max)  # a numpy integer would not write to JSON
        c = np.array(self.coeffs, dtype=float)  # defensive copy; fields are immutable
        if c.shape != ((self.l_max + 1) ** 2,):
            raise ValueError(
                f"coefficient array must have length {(self.l_max + 1) ** 2}"
            )
        if not np.isfinite(c).all():
            raise ValueError("field coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, l_max: int) -> "HarmonicField":
        return cls(l_max, np.zeros((l_max + 1) ** 2))

    @classmethod
    def from_entries(cls, l_max: int, entries: dict) -> "HarmonicField":
        """Build a field from a {(l, m): value} mapping."""
        c = np.zeros((l_max + 1) ** 2)
        for (l, m), value in entries.items():
            c[coeff_index(l, m)] = value
        return cls(l_max, c)

    @classmethod
    def constant(cls, value: float, l_max: int = 0) -> "HarmonicField":
        c = np.zeros((l_max + 1) ** 2)
        c[0] = value
        return cls(l_max, c)

    def coeff(self, l: int, m: int) -> float:
        return float(self.coeffs[coeff_index(l, m)])

    def mean(self) -> float:
        """Mean against the normalized measure; equals the (0, 0) coefficient."""
        return float(self.coeffs[0])

    def degrees(self) -> np.ndarray:
        """Degree l of each flat coefficient slot (a shared, read-only array)."""
        return _layout(self.l_max).degrees

    @functools.cached_property
    def _order_major(self) -> np.ndarray:
        """Read-only :func:`_by_order` coefficients, built once per field for every synthesis."""
        by_order = _by_order(self.coeffs, self.l_max)
        by_order.setflags(write=False)
        return by_order

    def to_lmax(self, l_max: int) -> "HarmonicField":
        """Pad with zeros or truncate to the requested band limit."""
        n = (l_max + 1) ** 2
        c = np.zeros(n)
        k = min(n, self.coeffs.size)
        c[:k] = self.coeffs[:k]
        return HarmonicField(l_max, c)

    def __add__(self, other: "HarmonicField") -> "HarmonicField":
        L = max(self.l_max, other.l_max)
        return HarmonicField(L, self.to_lmax(L).coeffs + other.to_lmax(L).coeffs)

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        L = max(self.l_max, other.l_max)
        return HarmonicField(L, self.to_lmax(L).coeffs - other.to_lmax(L).coeffs)

    def __mul__(self, scalar: float) -> "HarmonicField":
        return HarmonicField(self.l_max, self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class GridField:
    """Samples of a function at the nodes of a grid."""

    grid: SphericalGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.node_count,):
            raise ValueError("sample count must equal node count")
        object.__setattr__(self, "samples", s)


class Projection(NamedTuple):
    """A band-limited field and its relative tail energy: exact, to the floor of :func:`_exact_tail`,
    from psi_field and transform, and estimated by project_samples."""

    field: HarmonicField
    tail_fraction: float


_TAIL_FLOOR = 1e-14  # rounding of an energy sum, relative to the energies it is summed from


def _exact_tail(
    field: HarmonicField,
    total: float,
    scale: float,
    tail_threshold: float | None,
    what: str,
) -> Projection:
    """``field`` with its tail, the exact energy ``total`` less ``field``'s, as a fraction of ``total``.

    ``scale`` is the sum of the energies ``total`` is summed from, which
    round it by up to _TAIL_FLOOR * scale; a tail energy at or below that
    floor is rounding and reads 0.  A fraction above ``tail_threshold``
    raises ConvergenceError naming ``what``.
    """
    tail = total - dirichlet_energy(field)
    frac = tail / total if tail > _TAIL_FLOOR * scale else 0.0
    if tail_threshold is not None and frac > scaled(tail_threshold):
        raise ConvergenceError(f"{what} tail energy fraction {frac:.3e} exceeds threshold")
    return Projection(field, frac)


def synthesize(f: HarmonicField, grid: SphericalGrid) -> GridField:
    """Evaluate the truncated expansion at every grid node."""
    if grid.band_limit_exact < f.l_max:
        raise ValueError(
            f"grid resolves band {grid.band_limit_exact} < field l_max {f.l_max}"
        )
    table = _grid_table(f.l_max, grid.cos_theta.tobytes())
    return GridField(grid, _synthesis(f._order_major @ table, grid))


def _synthesis(profiles: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Flat samples at the profiles' abscissas crossed with ``grid``'s azimuths.

    ``profiles``: (m, part, theta), A[m] = s_m sum_l c(l, m) P(l, m) and
    B[m] = s_m sum_l c(l, -m) P(l, m) at any abscissas: a field's
    order-major coefficients (:func:`_by_order`) times a
    :func:`_legendre_table` of its band, or ``functionals._Composition``'s
    profiles.  B[0] is zero and meets sin(0 phi) = 0.  Read as rows (A[0],
    B[0], A[1], ...), they meet the interleaved azimuth rows in one product.
    """
    rows = _azimuth_rows(profiles.shape[0] - 1, grid.phi.tobytes())
    return (profiles.reshape(-1, profiles.shape[-1]).T @ rows).reshape(-1)


def analyze(g: GridField, l_max: int) -> HarmonicField:
    """Project grid samples onto the basis by quadrature.

    Exact (analyze o synthesize = identity) for band-limited inputs whenever
    the grid's band_limit_exact covers ``l_max``.  One product with the
    interleaved azimuth rows gives every order's azimuthal sums, and each
    order m contracts them with its own (degree x theta) table
    (:func:`_field_of_sums`).
    """
    grid = g.grid
    if grid.band_limit_exact < l_max:
        raise ValueError(
            f"grid resolves band {grid.band_limit_exact} < requested l_max {l_max}"
        )
    f2d = g.samples.reshape(grid.theta_count, grid.phi_count)
    rows = _azimuth_rows(l_max, grid.phi.tobytes())
    wt = grid.theta_weights / (2.0 * grid.phi_count)
    return _field_of_sums(wt * (rows @ f2d.T).reshape(l_max + 1, 2, -1), grid, l_max)


def _field_of_sums(sums: np.ndarray, grid: SphericalGrid, l_max: int) -> HarmonicField:
    """The band-``l_max`` field whose weighted azimuthal sums on ``grid`` are ``sums``.

    ``sums``: (orders, part, theta), part 0 against cos(m phi) and part 1
    against sin(m phi), each theta row weighted by theta_weight / (2
    phi_count) as in :func:`analyze`; the orders past ``sums.shape[0]`` are
    zero.  c(l, +-m) = s_m sum_theta P(l, m) sums(m, theta): one product per
    order m.
    """
    lay = _layout(l_max)
    k = sums.shape[0]
    by_order = np.zeros((l_max + 1, 2, l_max + 1))
    table = _grid_table(l_max, grid.cos_theta.tobytes())
    np.matmul(sums, table[:k].transpose(0, 2, 1), out=by_order[:k])
    return HarmonicField(l_max, lay.scale * by_order.reshape(-1)[lay.slots])


_POINT_BLOCK = 256  # points per Legendre table in evaluate_at
_CAP = 0.01  # sin(theta) below which _legendre_point reads the cosine series of the polar caps
_CROSSED = np.array([[0, 1], [1, 0]])  # p xor q of the point table's groups (p, q)


def evaluate_at(f: HarmonicField, points: np.ndarray) -> np.ndarray:
    """Evaluate a field at the directions of ``points``, shape (..., 3); the result has shape (...).

    Points are renormalized by :func:`sphere.unit_point`, which refuses zero
    and non-finite vectors.  Exact (up to rounding) for the stored
    band-limited expansion.  Each block of ``_POINT_BLOCK`` (256) points gets
    one order-major :func:`_legendre_table`, with the sines taken as
    hypot(x, y), whose orders meet cos m phi and sin m phi: at most
    (l_max + 1)^2 x 256 table values live at once, 8.3 MiB at band 64.
    """
    w = np.asarray(points, dtype=float)
    if w.ndim == 0 or w.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {w.shape}")
    flat = unit_point(w).reshape(-1, 3)
    by_order = f._order_major
    m = np.arange(f.l_max + 1)[:, None]
    out = np.empty(len(flat))
    for start in range(0, len(flat), _POINT_BLOCK):
        x, y, z = flat[start : start + _POINT_BLOCK].T
        AB = by_order @ _legendre_table(f.l_max, np.clip(z, -1.0, 1.0), np.hypot(x, y))
        arg = m * np.arctan2(y, x)
        out[start : start + _POINT_BLOCK] = np.sum(AB[:, 0] * np.cos(arg) + AB[:, 1] * np.sin(arg), axis=0)
    return out[0] if w.ndim == 1 else out.reshape(w.shape[:-1])


@functools.lru_cache(maxsize=16)
def _quarter_d(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (flat, start): Wigner d^l(k, m)(pi/2), l_max >= l >= k >= m >= 0, at flat[start[k] +
    m (l_max + 1 - k) + l - k], from the recursion of Trapani and Navaza (Acta Cryst. A 62 (2006) 262)
    down in k for every degree at once; d(m, k) = (-1)^(k+m) d(k, m) gives the rest."""
    n = l_max + 1
    l = np.arange(n)
    start = np.cumsum([0, *((l + 1) * (n - l))])
    flat = np.empty(start[-1])
    rows = [flat[start[k] : start[k + 1]].reshape(k + 1, n - k) for k in l] + [np.empty((n + 1, 0))]
    # d(l, m) = (-1)^(l-m) 2^-l sqrt(binom(2l, l+m)): ratios from m = l down, the p-th in column l_max - l + p
    p = l - (l_max - l[:, None])
    ratio = np.where(p > 0, -np.sqrt((2 * l[:, None] - p + 1) / np.maximum(p, 1)), 1.0)
    seed = l <= l[:, None]
    flat[(start[:-1, None] + l * (n - l[:, None]))[seed]] = np.ldexp(np.cumprod(ratio, 1)[:, ::-1], -l[:, None])[seed]
    # then down in k for every degree l > k: d(k, m) = a d(k+1, m) - b d(k+2, m) for m <= k,
    # a = 2m / sqrt(span), b = sqrt((l-k-1)(l+k+2) / span), span = (l-k)(l+k+1)
    k = l[:-1, None]
    span = np.maximum((l - k) * (l + k + 1), 1)  # 1 where l <= k, never read
    root, b = np.sqrt(span), np.sqrt(np.maximum((l - k - 1) * (l + k + 2), 0) / span)
    for k in range(l_max - 1, -1, -1):
        row, m = rows[k], slice(k + 1)
        row[:, 1:] = 2.0 * l[m, None] / root[k, k + 1 :] * rows[k + 1][m]
        row[:, 2:] -= b[k, k + 2 :] * rows[k + 2][m]
    flat.setflags(write=False)
    start.setflags(write=False)
    return flat, start


@functools.lru_cache(maxsize=8)  # 1.1 MB for band 32, 8.7 MB for band 64
def _turn_stack(l_max: int) -> np.ndarray:
    """Read-only (l_max + 1, 2 l_max + 1, 2 l_max + 1) stack of the turn blocks, each zero-padded.

    Block l is D with Y_l(T w) = D Y_l(w), slots m = -l..l, for the quarter turn
    T = [[1, 0, 0], [0, 0, 1], [0, -1, 0]] about x (T e_z = e_y, T R_z(b) T^T = R_y(b)).
    As T = R_z(-pi/2) R_y(-pi/2) R_z(pi/2), D comes from the Wigner d(pi/2) of
    :func:`_quarter_d`, sampling no basis: at band l_max + 1, which the point rows share.
    """
    n = l_max + 1
    flat, start = _quarter_d(n)
    # D = Z^T Y^T Z.  Z, of R_z(pi/2), sends slot mu to mu if even, to -mu if odd, with sign -1
    # at mu = 1, 2 mod 4.  Y, the real R_y(pi/2), keeps cosines (orders >= 0) and sines apart:
    # s_i s_j ((-1)^(i+j) + (-1)^l) d(i, j) between the cosines of orders i, j, s_0 = sqrt(1/2)
    # and else 1, ((-1)^(i+j) - (-1)^l) d(i, j) between their sines, d(i, j) = (-1)^(i+j) d(j, i)
    # for j > i.  So D at (mu, nu) is d(max, min of |mu|, |nu|) times an exact weight, rounded once.
    mu = np.arange(-l_max, l_max + 1)
    i = np.abs(mu)
    hi, lo = np.maximum.outer(i, i), np.minimum.outer(i, i)
    at = start[hi] + lo * (n + 1 - hi) - hi  # the place in flat of d(hi, lo) at degree 0; degree l adds l
    cosine = (mu >= 0) == (mu % 2 == 0)  # Z sends slot mu to a cosine
    sign, scale = (-1.0) ** (i[:, None] + i), np.where(i == 0, math.sqrt(0.5), 1.0)
    turn = np.where(mu % 4 < 2, 1.0, -1.0)  # the sign Z gives the slot it sends to mu
    signs = np.outer(turn, turn) * np.where(i[:, None] <= i, 1.0, sign)
    weights = [signs * np.where(np.outer(cosine, cosine), np.outer(scale, scale) * (sign + parity),
                                np.outer(~cosine, ~cosine) * (sign - parity)) for parity in (1.0, -1.0)]
    del hi, lo, sign, signs  # only at and weights live beside the stack
    stack = np.zeros((n, 2 * n - 1, 2 * n - 1))
    for l in range(n):
        block, centre = slice(2 * l + 1), slice(l_max - l, l_max + l + 1)
        np.multiply(weights[l % 2][centre, centre], flat.take(at[centre, centre] + l), out=stack[l, block, block])
    stack.setflags(write=False)
    return stack


def _rotated(f: HarmonicField, frame: np.ndarray) -> HarmonicField:
    """The field w -> f(frame @ w) for an orthogonal 3x3 ``frame``, exactly.

    A reflected frame is R diag(1, 1, -1) with R a rotation, and R splits as
    R_z(a) T R_z(b) T^T R_z(c) with T the quarter turn of :func:`_turn_stack`.
    Coefficient maps compose in reverse (f o (AB) takes c to M(B) M(A) c):
    a turn about z mixes each (l, +-m) pair in closed form, T and T^T act on
    every degree at once by one batched product with :func:`_turn_stack`,
    and z -> -z is the sign (-1)^(l+m) of each flat slot.  The angles need
    no gimbal branch: a = atan2(R_12, R_02), and
    M = R_z(a)^T R = R_y(b) R_z(c) gives c = atan2(M_10, M_11) and
    b = atan2(M_02, M_22), backward-stable at b = 0 and b = pi as well.
    """
    lay = _layout(f.l_max)
    reflect = np.linalg.det(frame) < 0.0
    rot = frame * [1.0, 1.0, -1.0 if reflect else 1.0]
    a = math.atan2(rot[1, 2], rot[0, 2])
    ca, sa = math.cos(a), math.sin(a)
    tilt = np.array([[ca, sa, 0.0], [-sa, ca, 0.0], [0.0, 0.0, 1.0]]) @ rot
    b = math.atan2(tilt[0, 2], tilt[2, 2])
    c = math.atan2(tilt[1, 0], tilt[1, 1])
    # cos and sin of the orders m = 0..l_max times each angle, laid out as
    # m = 0..l_max, -l_max..-1, so that each slot's signed order indexes them
    arg = np.array([[a], [b], [c]]) * np.arange(f.l_max + 1)
    cos, sin = np.cos(arg), np.sin(arg)
    cos = np.concatenate((cos, cos[:, :0:-1]), axis=1).take(lay.signed, axis=1)
    sin = np.concatenate((sin, -sin[:, :0:-1]), axis=1).take(lay.signed, axis=1)

    def turn_z(x, k):  # M(R_z(angle k))
        return x * cos[k] + x.take(lay.swap) * sin[k]

    stack = _turn_stack(f.l_max)

    def turn(x, transpose):  # M(T) = D^T per degree, M(T^T) = D: every degree in one product
        padded = np.zeros(stack.shape[:2])
        padded.reshape(-1)[lay.places] = x
        blocks = stack.transpose(0, 2, 1) if transpose else stack
        return (blocks @ padded[:, :, None]).take(lay.places)

    x = turn_z(f.coeffs, 0)
    x = turn_z(turn(x, True), 1)
    x = turn_z(turn(x, False), 2)
    if reflect:
        x = x * (1.0 - 2.0 * ((lay.degrees + lay.signed) % 2))
    return HarmonicField(f.l_max, x)


@functools.lru_cache(maxsize=16)
def _point_table(l_max: int) -> tuple[np.ndarray, ...]:
    """Read-only (weights, freq, place, parity, orders, powers): one band's P(l, m) at a point.

    P(l, m)(cos theta) = (-1)^m sqrt(2l+1) d^l(0, m)(theta); the Fourier form of d (McEwen and Wiaux,
    IEEE Trans. Signal Process. 59 (2011) 5876, eq. 8) makes it 2 (-1)^ceil(m/2) sqrt(2l+1) times the sum
    over k = l (mod 2) of d(k, 0) d(k, m)(pi/2) cos(k theta), halved at k = 0, at even m; sin at odd m.
    Group (p, q) of ``weights`` holds the rows l = p, m = q (mod 2), column j is k = 2j - p (``freq`` =
    i k); ``place`` finds each row (l, m) in the flattened groups, ``parity`` signs a group at -t.
    """
    n = l_max + 1
    flat, start = _quarter_d(l_max)
    l, m = np.tril_indices(n)
    group = 2 * (l % 2) + m % 2
    before = np.cumsum(group[:, None] == np.arange(4), axis=0)  # each group's rows so far
    size = before[-1].max()
    place = group * size + before[np.arange(l.size), group] - 1
    rl, rm = np.zeros((2, 4, size), dtype=int)  # (l, m) of each group's rows, padded with (0, 0)
    rl.flat[place], rm.flat[place] = l, m
    # per parity p of l, tables over a degree or order i (axis 1) and column j, k = 2j - p
    k = 2 * np.arange(n // 2 + 1) - np.arange(2)[:, None, None]
    kk, i = np.maximum(k, 0), np.arange(n)[:, None]
    hi, lo = np.maximum(kk, i), np.minimum(kk, i)
    # where d(k, m) is in flat at degree 0, and in -flat after it where d(k, m) = -d(m, k)
    base = start[hi] + lo * (n - hi) - hi + flat.size * ((kk < i) & ((kk + i) % 2 == 1))
    d_k0 = np.where((k >= 0) & (k <= i), flat.take(start[kk] + i - kk), 0.0) * np.where(k == 0, 0.5, 1.0)
    p = np.arange(4)[:, None] // 2
    weights = np.concatenate((flat, -flat)).take(base[p, rm] + rl[..., None]) * d_k0[p, rl]
    weights *= (np.where((rm + 1) // 2 % 2, -2.0, 2.0) * np.sqrt(2.0 * rl + 1.0))[..., None]
    parity = np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 2, 1, 1)
    table = weights.reshape(2, 2, size, -1), 1j * k[:, 0], place, parity, m, np.arange(n, dtype=float)
    for arr in table:
        arr.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _fourier_weights(l_max: int) -> np.ndarray:
    """Read-only W[m, l, k], k = 0..l_max: P(l, m)(cos theta) = sum_k W[m, l, k] cos(k theta) at even m,
    the same sum of sin(k theta) at odd m, for theta in [0, pi]; zero where l < m or k - l is odd.

    The rows of :func:`_point_table` at band l_max + 1, which reads the d(pi/2) table of the band's
    :func:`_turn_stack`, in one gather.
    """
    weights, _, place, _, _, _ = _point_table(l_max + 1)
    m, l, k = np.ogrid[: l_max + 1, : l_max + 1, : l_max + 1]
    p = l % 2  # group (p, q)'s column j is k = 2j - p
    rows = weights.reshape(-1, weights.shape[-1])[place[l * (l + 1) // 2 + np.minimum(m, l)], (k + p) // 2]
    table = np.where((m <= l) & (k % 2 == p), rows, 0.0)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _cap_weights(l_max: int) -> np.ndarray:
    """Read-only weights, in :func:`_point_table`'s groups, of P(l, m) / s^m as a sum of cos(k theta).

    P(l, m) = s^m c C(cos theta), C the Gegenbauer polynomial of index a = m + 1/2 and degree n = l - m.
    By its generating function |1 - r e^(i theta)|^(-2a), C = sum_j h(j) h(n-j) cos((n - 2j) theta) with
    h(j) = (a)_j / j! > 0: no term cancels another as theta -> 0.  Group (p, q)'s k is 2j - (p xor q).
    """
    weights, _, place, _, _, _ = _point_table(l_max)
    rl, rm = np.zeros((2, 2, 2, weights.shape[2], 1), dtype=int)  # as in _point_table
    rl.flat[place], rm.flat[place] = np.tril_indices(l_max + 1)
    k = 2 * np.arange(weights.shape[-1]) - _CROSSED[..., None, None]
    deg = rl - rm
    j = np.clip((deg - k) // 2, 0, l_max)
    # h(j) of index m + 1/2 and 1 / binom(2m + j, j), cumulative products over j; with P(m, m) / s^m
    # = sqrt((2m+1) h(m) of index 1/2), c = sqrt((2l+1) h(m) of index 1/2 / binom(l+m, 2m))
    i = np.arange(l_max + 1)
    steps = np.stack(((i[:, None] - 0.5 + i[1:]) / i[1:], i[1:] / (2 * i[:, None] + i[1:])))
    h, ratio = np.cumprod(np.concatenate((np.ones((2, l_max + 1, 1)), steps), axis=2), axis=2)
    cap = np.where((k >= 0) & (k <= deg), h[rm, j] * h[rm, deg - j], 0.0) * np.where(k > 0, 2.0, 1.0)
    cap *= np.sqrt((2 * rl + 1) * h[0, rm] * ratio[rm, deg])
    cap.setflags(write=False)
    return cap


def _legendre_point(l_max: int, t: float, s: float) -> np.ndarray:
    """P(l, m >= 0) at the single abscissa ``t`` with sine ``s``, rows (l, m) l ascending, then m.

    theta = arccos |t|, rows signed (-1)^(l+m) at t < 0.  Where s >= 0.01 (``_CAP``) a row is its
    trigonometric polynomial (:func:`_point_table`) times (s / sin theta)^m, which reads the sine as
    ``s``; in the polar caps it is s^m times a cosine series of positive terms (:func:`_cap_weights`),
    relatively accurate.  On 18,000 random points at band 65 the rows are within 3.5 (l + 1) eps
    max(1, |P|), at most 5.1e-14, of a 50-digit recurrence at the same (t, s) (the tests hold them
    to 4 (l + 1) eps); :func:`_legendre_table` errs by up to 1.55e-13, at band 65 for sin theta in (0.02, 0.1).
    """
    weights, freq, place, parity, orders, powers = _point_table(l_max)
    theta = math.acos(abs(t))
    z = np.exp(freq * theta)  # cos(k theta) + i sin(k theta)
    if s < _CAP:
        weights, ratio = _cap_weights(l_max), s
        v = z.real[_CROSSED, :, None]  # cos(k theta), k = 2j - (p xor q)
    else:
        ratio = s / math.sin(theta)
        v = z.view(float).reshape(2, -1, 2).transpose(0, 2, 1)[..., None]  # (l parity, m parity, k, 1)
    if t < 0.0:
        v = v * parity
    rows = (weights @ v).take(place)
    return rows if ratio == 1.0 else rows * np.power(ratio, powers).take(orders)


class _PointRows(NamedTuple):
    """Read-only map of one band's flat slots onto a band-(l_max + 1) table at one point."""

    rows: np.ndarray     # (11, n): the table row of each term of the five quantities
    weights: np.ndarray  # (11, n): each term's weight, with the real-basis scale (1, else sqrt(2))
    terms: np.ndarray    # (5, 11): 1 where a term adds into a quantity
    trig: np.ndarray     # (2, n): each slot's azimuthal factor in the interleaved cos m phi, sin m phi,
                         # and that of its phi-derivative, which quantities 2 and 4 carry
    freq: np.ndarray     # i m for m = 0..l_max


_TURNED = np.array([0, 0, 1, 0, 1])  # the trig row of each quantity: 1 after d/dphi


@functools.lru_cache(maxsize=16)
def _point_rows(l_max: int) -> _PointRows:
    """P, dP/dtheta, m P/sin(theta), d2P/dtheta2 and d/dtheta (m P/sin(theta)) of each slot as
    sums of 1, 2, 2, 3 and 3 table rows.

    Every quantity is a raising and lowering sum in m of P(l, .) or P(l + 1, .), read with
    P(l, -1) = -P(l, 1) and P(l, -2) = P(l, 2): none divides by sin(theta), so all are exact at
    the poles.
    """
    l = _layout(l_max).degrees
    signed = np.arange(l.size) - l * (l + 1)
    k, sine = np.abs(signed), signed < 0
    l, m = l.astype(float), k.astype(float)
    # dP(d, j)/dtheta = L(d, j) P(d, j-1) - L(d, j+1) P(d, j+1), at j = 0 as well, with
    # L(d, j) = sqrt((d+j)(d-j+1)) / 2; lo[i] and hi[i] are L(d, m + i - 1) at d = l and l + 1
    d, j = l + np.arange(2)[:, None, None], m + np.arange(-1.0, 3.0)[:, None]
    lo, hi = 0.5 * np.sqrt(np.maximum((d + j) * (d - j + 1), 0.0))
    # m P(l, m)/sin = c (a P(l+1, m-1) + b P(l+1, m+1)), nothing at m = 0
    c = 0.5 * np.sqrt((2 * l + 1) / (2 * l + 3)) * (m > 0)
    a, b = np.sqrt((l - m + 1) * (l - m + 2)), np.sqrt((l + m + 1) * (l + m + 2))
    quantities = [  # per quantity: (degree offset, order offset, weight) of each of its table rows
        [(0, 0, 1.0)],
        [(0, -1, lo[1]), (0, 1, -lo[2])],
        [(1, -1, c * a), (1, 1, c * b)],
        [(0, -2, lo[1] * lo[0]), (0, 0, -lo[1] * lo[1] - lo[2] * lo[2]), (0, 2, lo[2] * lo[3])],
        [(1, -2, c * a * hi[0]), (1, 0, c * (b * hi[2] - a * hi[1])), (1, 2, -c * b * hi[3])],
    ]
    rows, weights, of = [], [], []
    for q, terms in enumerate(quantities):
        for dl, dm, weight in terms:
            # an order beyond the degree has weight 0, and its row is clipped into the table
            order = np.clip(m + dm, -(l + dl), l + dl)
            rows.append((l + dl) * (l + dl + 1) / 2 + np.abs(order))
            weights.append(np.where(order == -1.0, -weight, weight))
            of.append(q)
    weights = np.array(weights) * np.where(m > 0, math.sqrt(2.0), 1.0)
    # Y(l, m) carries cos(m phi) and Y(l, -m) sin(m phi); d/dphi turns one into the other, and
    # the sign of -sin(m phi) goes into the weights
    weights[_TURNED[of] == 1] *= np.where(sine, 1.0, -1.0)
    trig = 2 * k + np.stack((sine, ~sine))  # cos(m phi) at 2m, sin(m phi) at 2m + 1
    terms = (np.arange(len(quantities))[:, None] == of).astype(float)
    point = _PointRows(np.array(rows, dtype=int), weights, terms, trig, 1j * np.arange(l_max + 1))
    for arr in point:
        arr.setflags(write=False)
    return point


def _basis_point(w, l_max: int) -> np.ndarray:
    """Every Y_lm at one unit vector in flat slot order: row 0 of :func:`_harmonic_slopes`, bit for
    bit, without the derivatives, from the Legendre rows of degree <= l_max and the azimuth factors.

    The rows come from the band-(l_max + 1) tables that :func:`_harmonic_slopes` reads, as fast a
    call as band l_max's: the distance search at the same band then builds no second set.
    """
    point = _point_rows(l_max)
    t = min(max(float(w[2]), -1.0), 1.0)
    values = _legendre_point(l_max + 1, t, math.hypot(w[0], w[1])).take(point.rows[0])
    values *= point.weights[0]
    return values * np.exp(point.freq * math.atan2(w[1], w[0])).view(float).take(point.trig[0])


def _harmonic_slopes(w, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Y_lm at one unit vector with its first and second derivatives on the sphere.

    Returns five rows of a (5, n) array in flat slot order: Y, dY/dtheta,
    (1/sin theta) dY/dphi, and the covariant second derivatives d2Y/dtheta2 and
    d/dtheta ((1/sin theta) dY/dphi) in the frame (e_theta, e_phi); and the
    frame rows e_theta and e_phi as a (2, 3) array.  So a surface gradient is
    ``slopes[1:3].T @ frame`` and any weighted sum of them two contractions.
    The second derivative along e_phi twice is -l(l+1) Y - d2Y/dtheta2, as Y's
    surface Laplacian is -l(l+1) Y.
    """
    t = min(max(float(w[2]), -1.0), 1.0)
    s = math.hypot(w[0], w[1])
    phi = math.atan2(w[1], w[0])
    point = _point_rows(l_max)
    gathered = _legendre_point(l_max + 1, t, s)[point.rows]
    gathered *= point.weights
    slopes = point.terms @ gathered
    slopes *= np.exp(point.freq * phi).view(float)[point.trig].take(_TURNED, axis=0)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    frame = np.array([[t * cos_p, t * sin_p, -s], [-sin_p, cos_p, 0.0]])
    return slopes, frame


def dirichlet_energy(f: HarmonicField) -> float:
    """Exact gradient energy: sum over (l, m) of l(l+1) c_lm^2."""
    l = f.degrees()
    return float(np.sum(l * (l + 1) * f.coeffs**2))


def laplacian(f: HarmonicField) -> HarmonicField:
    """Spectral Laplace-Beltrami operator: multiply each coefficient by -l(l+1)."""
    l = f.degrees()
    return HarmonicField(f.l_max, -l * (l + 1) * f.coeffs)


def project_samples(
    samples: np.ndarray, grid: SphericalGrid, l_max: int
) -> Projection:
    """Project (possibly non-band-limited) samples and estimate the tail.

    The tail estimate is the spectral energy between l_max and
    min(2*l_max, band_limit_exact), as a fraction of the total observed
    energy; for smooth data the first neglected octave dominates the tail.
    It omits the energy above 2*l_max, so it under-reads a slowly decaying
    tail: psi of dilation(50) at band 32 on build_grid(300) reads 0.02543
    against its exact 0.02722 (7% low).  Fields whose entire energy sits at rounding scale
    (e.g. the zero field, or ln J of an isometry) report a zero tail.
    """
    if grid.band_limit_exact < l_max:
        raise ValueError(f"grid resolves band {grid.band_limit_exact} < requested l_max {l_max}")
    wide = analyze(GridField(grid, samples), min(2 * l_max, grid.band_limit_exact))
    l = wide.degrees()
    spectrum = l * (l + 1) * wide.coeffs**2
    total = float(np.sum(spectrum))
    tail = float(np.sum(spectrum[(l_max + 1) ** 2:]))
    return Projection(wide.to_lmax(l_max), tail / total if total > 1e-18 else 0.0)


def field_to_json(f: HarmonicField) -> str:
    return json.dumps(
        {"l_max": f.l_max, "coeffs": [float(c) for c in f.coeffs]}, sort_keys=True
    )


def field_from_json(s: str) -> HarmonicField:
    """Read a field written by :func:`field_to_json`; ValueError if the document is malformed."""
    d = json.loads(s)
    if not isinstance(d, dict):
        raise ValueError("a field file holds a JSON object")
    l_max = d["l_max"]
    if type(l_max) is not int:  # a JSON float or bool is not a band
        raise ValueError(f"l_max must be a JSON integer, got {l_max!r}")
    return HarmonicField(l_max, d["coeffs"])
