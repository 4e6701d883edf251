"""Band-limited fields on the sphere with exact spectral energy and Laplacian.

The basis is real and orthonormal against the *normalized* measure
(integral of Y_lm^2 = 1), so the mean of a field is its (0,0) coefficient,
Parseval is coefficient-exact, and the constant Y_00 is identically 1.
Coefficients are stored flat in (l ascending, m ascending) order:
index(l, m) = l*l + l + m.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .sphere import SphericalGrid, _azimuth_rows

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
    "harmonic_gradients_at",
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
    rounds to 0 within about 1e-8 of a pole.  Every library caller takes the
    default; the tests pass hypot(w_0, w_1) to hold the table against
    :func:`_legendre_point` at points that close to a pole.
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
    """Read-only map of one band's flat slots into order-major (m, part, l) arrays, c(l, -m) in part 1."""

    degrees: np.ndarray  # degree l of each flat slot
    slots: np.ndarray    # per flat slot: its index in a flattened (l_max+1, 2, l_max+1) array
    scale: np.ndarray    # per flat slot: the real-basis scale, 1 at m = 0, else sqrt(2)


@functools.lru_cache(maxsize=16)
def _layout(l_max: int) -> _Layout:
    degrees = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    signed = np.arange(degrees.size) - degrees * (degrees + 1)
    m = np.abs(signed)
    slots = (2 * m + (signed < 0)) * (l_max + 1) + degrees
    layout = _Layout(degrees, slots, np.where(m == 0, 1.0, math.sqrt(2.0)))
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
    """A band-limited field and its relative tail energy: exact from psi_field, estimated by project_samples."""

    field: HarmonicField
    tail_fraction: float


def synthesize(f: HarmonicField, grid: SphericalGrid) -> GridField:
    """Evaluate the truncated expansion at every grid node."""
    if grid.band_limit_exact < f.l_max:
        raise ValueError(
            f"grid resolves band {grid.band_limit_exact} < field l_max {f.l_max}"
        )
    table = _grid_table(f.l_max, grid.cos_theta.tobytes())
    return GridField(grid, _synthesis(f, table, grid))


def _synthesis(f: HarmonicField, table: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Flat samples of ``f`` at ``table``'s abscissas crossed with ``grid``'s azimuths.

    ``table``: a band-``f.l_max`` :func:`_legendre_table` at any abscissas.
    One product per order m gives A[m] = s_m sum_l c(l, m) P(l, m) and
    B[m] = s_m sum_l c(l, -m) P(l, m); B[0] is zero and meets sin(0 phi) = 0.
    Read as rows (A[0], B[0], A[1], ...), they meet the interleaved azimuth
    rows in one product.
    """
    AB = _by_order(f.coeffs, f.l_max) @ table  # (m, part, theta)
    rows = _azimuth_rows(f.l_max, grid.phi.tobytes())
    return (AB.reshape(-1, table.shape[-1]).T @ rows).reshape(-1)


def _degree_parts(coeffs: np.ndarray, l_max: int, grid: SphericalGrid) -> np.ndarray:
    """Flat samples of the degree-l parts of band-``l_max`` ``coeffs``, l = 1..l_max, as (l_max, N).

    The Fourier coefficients s_m c(l, +-m) P(l, m) of each degree and theta
    row, broadcast from the table and the coefficients with m put last, meet
    the azimuth rows read part-major, [cos m phi; sin m phi], in one product.
    """
    if grid.band_limit_exact < l_max:
        raise ValueError(f"grid resolves band {grid.band_limit_exact} < field l_max {l_max}")
    table = _grid_table(l_max, grid.cos_theta.tobytes())
    by_degree = _by_order(coeffs, l_max).T[1:, None]  # (l, 1, part, m)
    split = np.multiply(by_degree, table.transpose(1, 2, 0)[1:, :, None], order="C")
    rows = _azimuth_rows(l_max, grid.phi.tobytes())
    azimuth = rows.reshape(l_max + 1, 2, -1).transpose(1, 0, 2).reshape(2 * (l_max + 1), -1)
    return (split.reshape(-1, 2 * (l_max + 1)) @ azimuth).reshape(l_max, grid.node_count)


def analyze(g: GridField, l_max: int) -> HarmonicField:
    """Project grid samples onto the basis by quadrature.

    Exact (analyze o synthesize = identity) for band-limited inputs whenever
    the grid's band_limit_exact covers ``l_max``.  One product with the
    interleaved azimuth rows gives every order's azimuthal sums, and each
    order m contracts them with its own (degree x theta) table.
    """
    grid = g.grid
    if grid.band_limit_exact < l_max:
        raise ValueError(
            f"grid resolves band {grid.band_limit_exact} < requested l_max {l_max}"
        )
    lay = _layout(l_max)
    f2d = g.samples.reshape(grid.theta_count, grid.phi_count)
    rows = _azimuth_rows(l_max, grid.phi.tobytes())
    wt = grid.theta_weights / (2.0 * grid.phi_count)
    sums = wt * (rows @ f2d.T).reshape(l_max + 1, 2, -1)  # (m, part, theta): azimuthal sums
    table = _grid_table(l_max, grid.cos_theta.tobytes())
    # c(l, +-m) = s_m sum_theta P(l, m) sums(m, theta): one product per order m
    coeffs = lay.scale * (sums @ table.transpose(0, 2, 1)).reshape(-1)[lay.slots]
    return HarmonicField(l_max, coeffs)


def evaluate_at(f: HarmonicField, points: np.ndarray) -> np.ndarray:
    """Evaluate a field at arbitrary unit vectors (shape (..., 3)).

    Exact (up to rounding) for the stored band-limited expansion.
    """
    w = np.asarray(points, dtype=float)
    single = w.ndim == 1
    w = np.atleast_2d(w)
    t = np.clip(w[:, 2], -1.0, 1.0)
    s = np.hypot(w[:, 0], w[:, 1])
    safe = s > 1e-300
    cos_p = np.where(safe, w[:, 0] / np.where(safe, s, 1.0), 1.0)
    sin_p = np.where(safe, w[:, 1] / np.where(safe, s, 1.0), 0.0)

    L = f.l_max
    total = np.zeros(w.shape[0])
    pmm = np.ones(w.shape[0])
    cos_m = np.ones(w.shape[0])
    sin_m = np.zeros(w.shape[0])
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * s * math.sqrt((2 * m + 1) / (2 * m))
            cos_m, sin_m = cos_m * cos_p - sin_m * sin_p, sin_m * cos_p + cos_m * sin_p
        acc_a = f.coeffs[coeff_index(m, m)] * pmm
        acc_b = f.coeffs[coeff_index(m, -m)] * pmm if m > 0 else None
        p_prev, p_curr = pmm, None
        if m + 1 <= L:
            p_curr = math.sqrt(2 * m + 3) * t * pmm
            acc_a = acc_a + f.coeffs[coeff_index(m + 1, m)] * p_curr
            if m > 0:
                acc_b = acc_b + f.coeffs[coeff_index(m + 1, -m)] * p_curr
        for l in range(m + 2, L + 1):
            a = math.sqrt((2 * l + 1) * (2 * l - 1) / ((l - m) * (l + m)))
            b = math.sqrt(
                (2 * l + 1) * (l - 1 - m) * (l - 1 + m) / ((2 * l - 3) * (l - m) * (l + m))
            )
            p_prev, p_curr = p_curr, a * t * p_curr - b * p_prev
            acc_a = acc_a + f.coeffs[coeff_index(l, m)] * p_curr
            if m > 0:
                acc_b = acc_b + f.coeffs[coeff_index(l, -m)] * p_curr
        if m == 0:
            total += acc_a
        else:
            total += math.sqrt(2.0) * (acc_a * cos_m + acc_b * sin_m)
    return total[0] if single else total


@functools.lru_cache(maxsize=129)  # degrees 0..128, 23 MB when full
def _turn_block(l: int) -> np.ndarray:
    """Read-only D of degree l with Y_l(T w) = D Y_l(w), slots m = -l..l.

    T = [[1, 0, 0], [0, 0, 1], [0, -1, 0]] is the quarter turn about x with
    T e_z = e_y, so T R_z(b) T^T = R_y(b).  As T = R_z(-pi/2) R_y(-pi/2)
    R_z(pi/2), D comes from the Wigner d(pi/2) of degree l, built by the
    Trapani-Navaza recursion (Acta Cryst. A 62 (2006) 262), which stays
    orthogonal to rounding at any degree and samples no basis.
    """
    m = np.arange(l + 1)
    # d(l, m') = (-1)^(l - m') 2^-l sqrt(binom(2l, l + m')), then down in m for m' <= m
    d = np.zeros((l + 2, l + 1))
    ratio = np.ones(l + 1)
    ratio[:-1] = -np.sqrt((l + m[1:]) / (l - m[1:] + 1.0))
    d[l] = 0.5**l * np.cumprod(ratio[::-1])[::-1]
    for k in range(l - 1, -1, -1):
        a = 2.0 * m / math.sqrt((l - k) * (l + k + 1))
        b = math.sqrt((l - k - 1) * (l + k + 2) / ((l - k) * (l + k + 1)))
        d[k] = np.where(m <= k, a * d[k + 1] - b * d[k + 2], 0.0)
    sign = (-1.0) ** (m[:, None] + m)
    d = np.where(m > m[:, None], sign * d[: l + 1].T, d[: l + 1])  # d(m, m') = (-1)^(m+m') d(m', m)
    # the real R_y(pi/2) keeps cosines and sines apart: d(m, m') ((-1)^(m+m') +- (-1)^l),
    # over sqrt(2) for each m = 0
    scale = np.where(m == 0, math.sqrt(0.5), 1.0)
    y_turn = np.zeros((2 * l + 1, 2 * l + 1))
    y_turn[l:, l:] = np.outer(scale, scale) * (sign + (-1.0) ** l) * d
    y_turn[:l, :l] = ((sign - (-1.0) ** l) * d)[:0:-1, :0:-1]
    # Y_l(R_z(pi/2) w) = z_turn Y_l(w): cos(k pi/2) on the diagonal, -sin(k pi/2) across
    k = np.arange(-l, l + 1) % 4
    cos, sin = np.array([1.0, 0.0, -1.0, 0.0])[k], np.array([0.0, 1.0, 0.0, -1.0])[k]
    z_turn = np.diag(cos) - np.diag(sin)[:, ::-1]
    block = z_turn.T @ y_turn.T @ z_turn
    block.setflags(write=False)
    return block


def _rotated(f: HarmonicField, frame: np.ndarray) -> HarmonicField:
    """The field w -> f(frame @ w) for an orthogonal 3x3 ``frame``, exactly.

    A reflected frame is R diag(1, 1, -1) with R a rotation, and R splits as
    R_z(a) T R_z(b) T^T R_z(c) with T the quarter turn of :func:`_turn_block`.
    Coefficient maps compose in reverse (f o (AB) takes c to M(B) M(A) c):
    a turn about z mixes each (l, +-m) pair in closed form, T and T^T act by
    the cached per-degree blocks, and z -> -z is the sign (-1)^(l+m) of each
    flat slot.  The angles need no gimbal branch: a = atan2(R_12, R_02), and
    M = R_z(a)^T R = R_y(b) R_z(c) gives c = atan2(M_10, M_11) and
    b = atan2(M_02, M_22), backward-stable at b = 0 and b = pi as well.
    """
    l = f.degrees()
    m = np.arange(l.size) - l * (l + 1)  # signed order of each flat slot
    swap = np.arange(l.size) - 2 * m     # the slot of (l, -m)
    reflect = np.linalg.det(frame) < 0.0
    rot = frame * [1.0, 1.0, -1.0 if reflect else 1.0]
    a = math.atan2(rot[1, 2], rot[0, 2])
    ca, sa = math.cos(a), math.sin(a)
    tilt = np.array([[ca, sa, 0.0], [-sa, ca, 0.0], [0.0, 0.0, 1.0]]) @ rot
    b = math.atan2(tilt[0, 2], tilt[2, 2])
    c = math.atan2(tilt[1, 0], tilt[1, 1])

    def turn_z(x, angle):  # M(R_z(angle))
        return x * np.cos(m * angle) + x[swap] * np.sin(m * angle)

    def turn(x, transpose):  # M(T) = D^T per degree, M(T^T) = D
        out = np.empty_like(x)
        for deg in range(f.l_max + 1):
            block, part = _turn_block(deg), slice(deg * deg, (deg + 1) ** 2)
            out[part] = (block.T if transpose else block) @ x[part]
        return out

    x = turn_z(f.coeffs, a)
    x = turn_z(turn(x, True), b)
    x = turn_z(turn(x, False), c)
    if reflect:
        x = x * (1.0 - 2.0 * ((l + m) % 2))
    return HarmonicField(f.l_max, x)


class _Chains(NamedTuple):
    """Read-only banded form of one band's Legendre recurrences, for a single abscissa.

    In m-major order (the chain l = m..l_max of each m in turn) the P(l, m)
    solve a unit lower-triangular system of bandwidth 2:
    P(l, m) - a t P(l-1, m) + b P(l-2, m) = 0 below each chain's diagonal
    seed P(m, m), with no coupling from one chain to the next.
    """

    bands: np.ndarray   # (3, rows) LAPACK lower band storage at t = 1: 1, -a, b
    seeds: np.ndarray   # m-major position of each P(m, m)
    ladder: np.ndarray  # P(m, m) / sin(theta)^m = prod over k <= m of sqrt((2k+1)/(2k))
    rows: np.ndarray    # per row (l, m), l ascending then m: its m-major position


@functools.lru_cache(maxsize=16)
def _chains(l_max: int) -> _Chains:
    # a, b of P(l, m) = a t P(l-1, m) - b P(l-2, m) per row (l, m), 0 where they
    # do not apply; as in _legendre_table, a = sqrt(2l+1), b = 0 at m = l - 1
    a, b = np.zeros((2, (l_max + 1) * (l_max + 2) // 2))
    for l in range(1, l_max + 1):
        first = l * (l + 1) // 2
        a[first + l - 1] = math.sqrt(2 * l + 1)
        if l > 1:
            deep_a, deep_b = _recurrence(l)
            a[first : first + l - 1], b[first : first + l - 1] = deep_a[:, 0], deep_b[:, 0]
    l, m = np.tril_indices(l_max + 1)
    order = np.lexsort((l, m))  # rows (l, m) in m-major order
    bands = np.zeros((3, l.size), order="F")  # bands[k, j] couples unknown j into equation j + k
    bands[0] = 1.0
    bands[1, :-1] = -a[order][1:]
    bands[2, :-2] = b[order][2:]
    k = np.arange(1, l_max + 1)
    ladder = np.cumprod(np.concatenate([[1.0], np.sqrt((2 * k + 1) / (2 * k))]))
    chains = _Chains(bands, np.flatnonzero(l[order] == m[order]), ladder, np.argsort(order))
    for arr in chains:
        arr.setflags(write=False)
    return chains


def _legendre_point(l_max: int, t: float, s: float) -> np.ndarray:
    """P(l, m >= 0) at the single abscissa ``t`` with sine ``s``, by one banded solve.

    Rows (l, m) come l ascending, then m, as the flat slots of m >= 0 do.
    Forward substitution runs the table's three-term recurrences, every m at
    once inside LAPACK; the seeds carry s^m, so the rows m > 0 are exactly 0
    where ``s`` is.
    """
    chains = _chains(l_max)
    bands = chains.bands.copy(order="F")  # LAPACK's own order: f2py passes it uncopied
    bands[1] *= t
    rhs = np.zeros(chains.rows.size)
    rhs[chains.seeds] = chains.ladder * np.power(s, np.arange(l_max + 1))
    x, info = dtbtrs(bands, rhs, uplo="L")
    if info != 0:
        raise ValueError(f"banded Legendre solve failed: LAPACK dtbtrs info {info}")
    return x[chains.rows]


class _PointRows(NamedTuple):
    """Read-only map of one band's flat slots onto a band-(l_max + 1) table at one point."""

    rows: np.ndarray     # (2, 3, n): the two table rows giving P, dP/dtheta and m P/sin(theta)
    weights: np.ndarray  # (2, 3, n): their weights, with the real-basis scale (1, else sqrt(2))
    trig: np.ndarray     # (3, n): each slot's azimuthal factors in [cos m phi; sin m phi; -sin m phi]


@functools.lru_cache(maxsize=16)
def _point_rows(l_max: int) -> _PointRows:
    l = _layout(l_max).degrees
    signed = np.arange(l.size) - l * (l + 1)
    k, sine = np.abs(signed), signed < 0
    l, m = l.astype(float), k.astype(float)
    row = l * (l + 1) / 2 + m
    up = row + l + 1  # row (l + 1, m)
    # dP(l, m)/dtheta = (sqrt((l+m)(l-m+1)) P(l, m-1) - sqrt((l+m+1)(l-m)) P(l, m+1)) / 2,
    # and -sqrt(l(l+1)) P(l, 1) at m = 0
    half = np.where(m > 0, 0.5, 1.0)
    theta_w = half * np.stack(
        [np.sqrt((l + m) * (l - m + 1)) * (m > 0), -np.sqrt((l + m + 1) * (l - m))]
    )
    # m P(l, m)/sin = sqrt((2l+1)/(2l+3)) (sqrt((l-m+1)(l-m+2)) P(l+1, m-1)
    #                  + sqrt((l+m+1)(l+m+2)) P(l+1, m+1)) / 2, nothing at m = 0
    scale = 0.5 * np.sqrt((2 * l + 1) / (2 * l + 3)) * (m > 0)
    phi_w = scale * np.stack(
        [np.sqrt((l - m + 1) * (l - m + 2)), np.sqrt((l + m + 1) * (l + m + 2))]
    )
    value_w = np.stack([np.ones_like(l), np.zeros_like(l)])
    rows = np.stack([[row, np.maximum(row - 1, 0), up - 1], [row, row + 1, up + 1]])
    weights = np.stack([value_w, theta_w, phi_w], axis=1) * np.where(m > 0, math.sqrt(2.0), 1.0)
    # Y(l, m) carries cos(m phi) and Y(l, -m) sin(m phi); d/dphi turns one into the other
    cos, sin, minus_sin = k, k + l_max + 1, k + 2 * (l_max + 1)
    trig = np.stack([np.where(sine, sin, cos)] * 2 + [np.where(sine, cos, minus_sin)])
    point = _PointRows(rows.astype(int), weights, trig)
    for arr in point:
        arr.setflags(write=False)
    return point


def _harmonic_slopes(w, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Y_lm at one unit vector with dY/dtheta and (1/sin theta) dY/dphi.

    Returns the three as the rows of a (3, n) array in flat slot order, and the
    frame rows e_theta and e_phi as a (2, 3) array, so a surface gradient is
    ``slopes[1:].T @ frame`` and any weighted sum of them two contractions.
    """
    t = min(max(float(w[2]), -1.0), 1.0)
    s = math.hypot(w[0], w[1])
    phi = math.atan2(w[1], w[0])
    point = _point_rows(l_max)
    gathered = _legendre_point(l_max + 1, t, s)[point.rows]
    gathered *= point.weights
    slopes = gathered[0] + gathered[1]
    arg = np.arange(l_max + 1) * phi
    sin_m = np.sin(arg)
    slopes *= np.concatenate((np.cos(arg), sin_m, -sin_m))[point.trig]
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    frame = np.array([[t * cos_p, t * sin_p, -s], [-sin_p, cos_p, 0.0]])
    return slopes, frame


def harmonic_gradients_at(w, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Y_lm at one unit vector and its surface gradient, shapes (n,) and (n, 3).

    The gradient is dY/dtheta e_theta + (1/sin theta) dY/dphi e_phi, both
    parts from degree-raising and -lowering relations on one band-(l_max + 1)
    Legendre table, solved at the point as one banded system, so it stays
    finite at the poles (phi = 0 there).
    """
    slopes, frame = _harmonic_slopes(w, l_max)
    return slopes[0], slopes[1:].T @ frame


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
    L2 = min(2 * l_max, grid.band_limit_exact)
    wide = analyze(GridField(grid, samples), L2)
    field = wide.to_lmax(l_max)
    l = wide.degrees()
    spectrum = l * (l + 1) * wide.coeffs**2
    total = float(np.sum(spectrum))
    tail = float(np.sum(spectrum[(l_max + 1) ** 2:]))
    frac = tail / total if total > 1e-18 else 0.0
    return Projection(field, frac)


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
    coeffs = np.asarray(d["coeffs"], dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("field coefficients must be finite")
    return HarmonicField(l_max, coeffs)
