"""Band-limited fields on the sphere with exact spectral energy and Laplacian.

The basis is real and orthonormal against the *normalized* measure
(integral of Y_lm^2 = 1), so the mean of a field is its (0,0) coefficient,
Parseval is coefficient-exact, and the constant Y_00 is identically 1.
Coefficients are stored flat in (l ascending, m ascending) order:
index(l, m) = l*l + l + m.  Every Legendre value comes from one theta-Fourier
table per band, stored without the parity at which it is zero: P(l, m) is a
trigonometric sum in theta, and in two small polar caps sin(theta)^m times a
cosine series of positive terms.  Grid tables, point rows and the order
profiles of a field (:func:`_profiles`) all read it.
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


_TABLE_BLOCK = 32  # abscissas per product of a grid table: 8.6 MB of it at band 128


@functools.lru_cache(maxsize=25)
def _grid_table(l_max: int, cos_theta: bytes) -> np.ndarray:
    """Read-only P(l, m) at the abscissas ``cos_theta``, order-major: out[m, l] is one (degree x abscissa)
    matrix per order, zero where l < m.  Keyed on the abscissas' bytes: grids are unhashable, and a hand-built
    grid must not share the table of a canonical one with its theta count.  The rows are :func:`_legendre_point`'s
    at band l_max + 1, whose tables a band-l_max field's point rows read, cut to band l_max, at the sines
    sin(arccos |t|): no factor (s / sin theta)^m.
    """
    t = np.frombuffer(cos_theta)
    table = np.empty((l_max + 1, l_max + 1, t.size))
    for start in range(0, t.size, _TABLE_BLOCK):
        x = t[start : start + _TABLE_BLOCK]
        rows = _legendre_point(l_max + 1, x, np.sin(np.arccos(np.abs(x))))
        table[..., start : start + _TABLE_BLOCK] = rows[:-1, :-1]
    table.setflags(write=False)
    return table


class _Layout(NamedTuple):
    """Read-only per-slot arrays of one band: its map into order-major (m, part, l) arrays,
    c(l, -m) in part 1, and l(l + 1)."""

    degrees: np.ndarray  # degree l of each flat slot
    slots: np.ndarray    # per flat slot: its index in a flattened (l_max+1, 2, l_max+1) array
    scale: np.ndarray    # per flat slot: the real-basis scale, 1 at m = 0, else sqrt(2)
    signed: np.ndarray   # per flat slot: its signed order m
    ll: np.ndarray       # per flat slot: l(l + 1), the eigenvalue of -Laplacian, as a float


@functools.lru_cache(maxsize=16)
def _layout(l_max: int) -> _Layout:
    degrees = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    index = np.arange(degrees.size)
    signed = index - degrees * (degrees + 1)
    m = np.abs(signed)
    slots = (2 * m + (signed < 0)) * (l_max + 1) + degrees
    scale = np.where(m == 0, 1.0, math.sqrt(2.0))
    layout = _Layout(degrees, slots, scale, signed, degrees * (degrees + 1.0))
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
    table = _grid_table(f.l_max, grid._table_keys[0])
    return GridField(grid, _synthesis(f._order_major @ table, grid))


def _synthesis(profiles: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Flat samples at the profiles' abscissas crossed with ``grid``'s azimuths.

    ``profiles``: (m, part, theta), A[m] = s_m sum_l c(l, m) P(l, m) and
    B[m] = s_m sum_l c(l, -m) P(l, m) at any abscissas: a field's
    order-major coefficients (:func:`_by_order`) times a
    :func:`_grid_table` of its band, or :func:`_profiles`.  B[0] is zero and
    meets sin(0 phi) = 0.  Read as rows (A[0], B[0], A[1], ...), they meet
    the interleaved azimuth rows in one product.
    """
    rows = _azimuth_rows(profiles.shape[0] - 1, grid._table_keys[1])
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
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if grid.band_limit_exact < l_max:
        raise ValueError(
            f"grid resolves band {grid.band_limit_exact} < requested l_max {l_max}"
        )
    f2d = g.samples.reshape(grid.theta_count, grid.phi_count)
    rows = _azimuth_rows(l_max, grid._table_keys[1])
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
    table = _grid_table(l_max, grid._table_keys[0])
    np.matmul(sums, table[:k].transpose(0, 2, 1), out=by_order[:k])
    return HarmonicField(l_max, lay.scale * by_order.reshape(-1)[lay.slots])


_POINT_BLOCK = 256  # points per block of evaluate_at
_CAP = 0.01  # sin(theta) below which P(l, m) is read from the cosine series of the polar caps


def evaluate_at(f: HarmonicField, points: np.ndarray) -> np.ndarray:
    """Evaluate a field at the directions of ``points``, shape (..., 3); the result has shape (...).

    Points are renormalized by :func:`sphere.unit_point`, which refuses zero
    and non-finite vectors.  Exact (up to rounding) for the stored
    band-limited expansion.  Each block of ``_POINT_BLOCK`` (256) points gets
    the field's order profiles (:func:`_profiles`) at the cosines z and sines
    hypot(x, y), in the polar caps from :func:`_legendre_point`'s relatively
    accurate rows, which meet cos m phi and sin m phi.
    """
    w = np.asarray(points, dtype=float)
    if w.ndim == 0 or w.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {w.shape}")
    flat = unit_point(w).reshape(-1, 3)
    m = np.arange(f.l_max + 1)[:, None]
    out = np.empty(len(flat))
    for start in range(0, len(flat), _POINT_BLOCK):
        x, y, z = flat[start : start + _POINT_BLOCK].T
        s = np.hypot(x, y)
        AB = _profiles(f, z, s)
        cap = s < _CAP  # there the rows, relatively accurate
        if cap.any():
            AB[..., cap] = f._order_major @ _legendre_point(f.l_max, np.clip(z[cap], -1.0, 1.0), s[cap])
        arg = m * np.arctan2(y, x)
        out[start : start + _POINT_BLOCK] = np.sum(AB[:, 0] * np.cos(arg) + AB[:, 1] * np.sin(arg), axis=0)
    return out[0] if w.ndim == 1 else out.reshape(w.shape[:-1])


def _quarter_d(l_max: int, dtype: type) -> np.ndarray:
    """d[k (k + 1) / 2 + m, l]: Wigner d^l(k, m)(pi/2) in ``dtype`` for l_max >= l >= k >= m >= 0, else 0, the
    triangle k >= m packed row by row, from the recursion of Trapani and Navaza (Acta Cryst. A 62 (2006) 262)
    down in k for every degree at once; d(m, k) = (-1)^(k+m) d(k, m) gives the rest."""
    n = l_max + 1
    l = np.arange(n)
    d = np.zeros(((n + 1) * (n + 2) // 2, n), dtype)  # the rows k = n are the recursion's zero start
    # d(l, m) = (-1)^(l-m) 2^-l sqrt(binom(2l, l+m)): ratios from m = l down, the p-th in column l_max - l + p
    p = l - (l_max - l[:, None])
    ratio = np.where(p > 0, -np.sqrt(dtype(1) * (2 * l[:, None] - p + 1) / np.maximum(p, 1)), 1)
    k, m = np.tril_indices(n)
    d[k * (k + 1) // 2 + m, k] = np.ldexp(np.cumprod(ratio, 1)[:, ::-1], -l[:, None])[k, m]
    # then down in k for every degree l > k: d(k, m) = a d(k+1, m) - b d(k+2, m) for m <= k,
    # a = 2m / sqrt(span), b = sqrt((l-k-1)(l+k+2) / span), span = (l-k)(l+k+1)
    k = l[:-1, None]
    span = np.maximum((l - k) * (l + k + 1), 1)  # 1 where l <= k, never read
    root, b = np.sqrt(dtype(1) * span), np.sqrt(dtype(1) * np.maximum((l - k - 1) * (l + k + 2), 0) / span)
    for k in range(l_max - 1, -1, -1):
        row, up, up2 = (j * (j + 1) // 2 for j in (k, k + 1, k + 2))
        deg = slice(k + 1, n)
        d[row : row + k + 1, deg] = (2 * l[: k + 1, None] / root[k, deg] * d[up : up + k + 1, deg]
                                     - b[k, deg] * d[up2 : up2 + k + 1, deg])
    return d


_TURN_CHUNK = 8  # degrees of one parity per product while the turn blocks are built
_PARTNER = ((0, 2, 1, 3), (3, 1, 2, 0))  # the class of the columns that meet the rows of class c, at even and odd l


class _Turn(NamedTuple):
    """Read-only arrays of one band's quarter turn.  Its stacks are indexed (sign, parity, l, r) by a slot's
    class 2 [m < 0] + (m mod 2) and its place r = |m| // 2 in it: the orders 2r, 2r + 1, -2r and -2r - 1.
    Class (1, 0) keeps place 0 empty: m = 0 is (0, 0)'s.  Between products a stack is held as complex
    numbers, real part and imaginary part the two slots (l, m), (l, -m) that a turn about z mixes."""

    blocks: np.ndarray   # (2, 2, l_max+1, h, h): D's rows of class c at degree l against its columns of class _PARTNER
    gather: np.ndarray   # (2, l_max+1, h, 2): the flat slot at each place (parity, l, r, sign), 0 where it is empty
    trig: np.ndarray     # the order of each real part before each turn about z, in a flattened table of 3 rows
    scatter: np.ndarray  # per flat slot: its place in a flattened (parity, l, r, sign) stack
    flip: np.ndarray     # per flat slot: (-1)^(l + m), the sign of z -> -z
    spins: np.ndarray    # -i m for the signed orders m = -(l_max+1)..l_max+1


@functools.lru_cache(maxsize=8)  # 0.3 MB for band 32, 2.3 MB for band 64
def _turn(l_max: int) -> _Turn:
    """The four nonzero blocks per degree of the quarter turn, and the places :func:`_rotated` reads.

    Block l is D with Y_l(T w) = D Y_l(w), slots m = -l..l, for the quarter turn
    T = [[1, 0, 0], [0, 0, 1], [0, -1, 0]] about x (T e_z = e_y, T R_z(b) T^T = R_y(b)).
    As T = R_z(-pi/2) R_y(-pi/2) R_z(pi/2), D comes from the Wigner d(pi/2) of
    :func:`_quarter_d`, sampling no basis.  Its rows of one class meet the columns of one class alone
    (the J-matrix split of Pinchon and Hoggan, J. Phys. A 40 (2007) 1597): at odd l 0 with 3, 1 with 1 and
    2 with 2, at even l 0 with 0, 1 with 2 and 3 with 3.  So each degree keeps four h x h blocks,
    h = l_max // 2 + 1, zero at the places past l and at the empty place, built straight from d.
    """
    n, h = l_max + 1, l_max // 2 + 1
    r = 2 * np.arange(h)
    mu = np.array([r, r + 1, -r, -r - 1])
    # the order that each real part holds, as a place in the flattened table of the orders -n..n for a, b and c:
    # m >= 0 in the stacks of the own classes that the turns by a and c meet; in the stack turned by D^T, which
    # the turn by b meets, the order of the columns that the rows of class (sign, 0) meet, 0 at the empty place
    met = mu[np.array(_PARTNER)[np.arange(n) % 2, ::2].T]
    trig = np.concatenate((mu[:2].ravel(), met.ravel() + 2 * n + 1, mu[:2].ravel() + 4 * n + 2)) + n
    mu[2, 0] = n  # the empty place: an order past the band, where every d is 0
    d = _quarter_d(l_max, np.float64)
    # D = Z^T Y^T Z.  Z, of R_z(pi/2), sends slot mu to mu if even, to -mu if odd, with sign -1
    # at mu = 1, 2 mod 4.  Y, the real R_y(pi/2), keeps cosines (classes 0 and 3) and sines apart:
    # s_i s_j ((-1)^(i+j) + (-1)^l) d(i, j) between the cosines of orders i, j, s_0 = sqrt(1/2)
    # and else 1, ((-1)^(i+j) - (-1)^l) d(i, j) between their sines, d(i, j) = (-1)^(i+j) d(j, i)
    # for j > i.  So D at (mu, nu) is d(max, min of |mu|, |nu|) times an exact weight, rounded once,
    # and (-1)^(i+j) is that of its pair of classes: +-(-1)^l as the pair is of cosines or of sines
    rho = np.where(mu % 4 < 2, 1.0, -1.0)  # the sign Z gives the slot it sends to mu, times s_|mu| on cosines
    rho[0, 0] = math.sqrt(0.5)
    sign = np.array([[1.0, -1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])[:, :, None, None]  # (-1)^(i+j), l even, odd
    i, j = np.abs(mu)[:, :, None], np.abs(mu[np.array(_PARTNER)])[:, :, None, :]
    weights = rho[:, :, None] * rho[np.array(_PARTNER)][:, :, None, :] * np.where(i <= j, 1.0, sign) * (2.0 * sign)
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    at = (hi * (hi + 1) // 2 + lo) * n  # the place of d(hi, lo) at degree 0 in the flattened d; degree l adds l
    blocks = np.empty((4, n, h, h))
    # a few degrees of one parity at a time keep the reads of d close and bound the gathered copy of d: one
    # product per parity built band 64 1.9x slower and peaked 1.6x higher at band 256 (tracemalloc)
    for start in range(0, n, 2 * _TURN_CHUNK):
        for p in (start, start + 1):
            l = np.arange(p, min(start + 2 * _TURN_CHUNK, n), 2)
            np.multiply(weights[p % 2][:, None], d.take(at[p % 2][:, None] + l[:, None, None]),
                        out=blocks[:, p : start + 2 * _TURN_CHUNK : 2])
    l, m = np.arange(n)[:, None, None], mu.reshape(2, 2, 1, h).transpose(1, 2, 3, 0)  # m at (parity, 1, r, sign)
    held = np.abs(m) <= l
    gather = np.where(held, l * l + l + m, 0)
    scatter = np.empty(n * n, int)
    scatter[gather[held]] = np.flatnonzero(held)
    lay = _layout(l_max)
    turn = _Turn(blocks.reshape(2, 2, n, h, h), gather, trig, scatter,
                 np.where((lay.degrees + lay.signed) % 2, -1.0, 1.0), -1j * np.arange(-n, n + 1.0))
    for arr in turn:
        arr.setflags(write=False)
    return turn


def _rotated(f: HarmonicField, frame: np.ndarray) -> HarmonicField:
    """The field w -> f(frame @ w) for an orthogonal 3x3 ``frame``, exactly.

    A reflected frame is R diag(1, 1, -1) with R a rotation, and R splits as
    R_z(a) T R_z(b) T^T R_z(c) with T the quarter turn of :func:`_turn`.
    Coefficient maps compose in reverse (f o (AB) takes c to M(B) M(A) c):
    a turn about z by a takes each pair c(l, m) + i c(l, -m), m >= 0, to itself times
    e^{-i m a}; M(T) = D^T and M(T^T) = D act on every degree at once by one batched
    product with :func:`_turn`'s blocks, D^T from the left, so that the places hold
    the columns' class; and z -> -z is the sign (-1)^(l+m) of each flat slot.  One
    gather takes the coefficients into a stack and one scatter takes them back.  The
    reflection test and the angles come from the frame's entries in Python floats,
    and need no gimbal branch: a = atan2(R_12, R_02), and
    M = R_z(a)^T R = R_y(b) R_z(c) gives c = atan2(M_10, M_11) and
    b = atan2(M_02, M_22), backward-stable at b = 0 and b = pi as well.
    """
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = frame.tolist()
    reflect = f00 * (f11 * f22 - f12 * f21) - f01 * (f10 * f22 - f12 * f20) + f02 * (f10 * f21 - f11 * f20) < 0.0
    if reflect:
        f02, f12, f22 = -f02, -f12, -f22
    a = math.atan2(f12, f02)
    ca, sa = math.cos(a), math.sin(a)
    b = math.atan2(ca * f02 + sa * f12, f22)
    c = math.atan2(ca * f10 - sa * f00, ca * f11 - sa * f01)
    turn = _turn(f.l_max)
    n, h = turn.gather.shape[1:3]
    spin = np.exp(np.multiply.outer((a, b, c), turn.spins)).take(turn.trig)  # e^{-i m angle}
    x = f.coeffs.take(turn.gather)  # (parity, l, r, sign)
    x.view(complex)[..., 0] *= spin[: 2 * h].reshape(2, 1, h)
    y = np.empty((2, n, h, 2))  # (sign, l, r, parity)
    np.matmul(x.transpose(3, 0, 1, 2)[..., None, :], turn.blocks, out=y.transpose(0, 3, 1, 2)[..., None, :])  # D^T
    y.view(complex)[..., 0] *= spin[2 * h : -2 * h].reshape(2, n, h)
    np.matmul(turn.blocks, y.transpose(0, 3, 1, 2)[..., None], out=x.transpose(3, 0, 1, 2)[..., None])  # D
    x.view(complex)[..., 0] *= spin[-2 * h :].reshape(2, 1, h)
    x = x.take(turn.scatter)
    if reflect:
        x *= turn.flip
    return HarmonicField(f.l_max, x)


def _parity_split(n: int, cap: bool) -> tuple[np.ndarray, ...]:
    """Order m = 2i + q, degree l = 2r + p and frequency k of each place [p, q, i, r, j] of a band-(n - 1)
    table stored without the parity at which it is zero, clipped into the band: k = 2j + p for W, zero
    where k - l is odd, and 2j + (p xor q) for the cap weights, zero where k - l + m is odd.  Both are zero
    where k > l, so at k = n; the places past the band in m or l are never read.
    """
    h = (n + 1) // 2
    p, q, i, r, j = np.ogrid[:2, :2, :h, :h, :h]
    k = 2 * j + (p ^ q if cap else p)
    return np.minimum(2 * i + q, n - 1), np.minimum(2 * r + p, n - 1), np.minimum(k, n - 1)


@functools.lru_cache(maxsize=16)
def _fourier_weights(l_max: int) -> np.ndarray:
    """Read-only W at the places of :func:`_parity_split`: P(l, m)(cos theta) = sum_k W(m, l, k) cos(k theta)
    at even m, the same sum of sin(k theta) at odd m, theta in [0, pi].  The Fourier form of Wigner's d
    (McEwen and Wiaux, IEEE Trans. Signal Process. 59 (2011) 5876, eq. 8) gives
    W = 2 (-1)^ceil(m/2) sqrt(2l+1) d(k, 0) d(k, m), halved at k = 0, from :func:`_quarter_d`'s d(pi/2), all in
    extended precision and rounded once: in doubles the degree-1 entry sqrt(3) came out 2 ulps high."""
    n, d = l_max + 1, _quarter_d(l_max, np.longdouble)
    m, l, k = _parity_split(n, cap=False)
    hi = np.maximum(k, m)
    table = d[hi * (hi + 1) // 2 + np.minimum(k, m), l]
    table *= d[k * (k + 1) // 2, l]
    del d  # before the rounded copy: the peak holds d and one long-double table
    table *= np.sqrt(np.longdouble(2) * l + 1)
    # d(k, m) = (-1)^(k+m) d(m, k) where k < m; the signs and the factors 2 are exact
    table *= np.where(k < m, (-1.0) ** (k + m), 1.0) * (-1.0) ** ((m + 1) // 2) * np.where(k == 0, 1.0, 2.0)
    table = table.astype(float)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _cap_weights(l_max: int) -> np.ndarray:
    """Read-only C at the places of :func:`_parity_split`: P(l, m)(cos theta) = s^m sum_k C(m, l, k) cos(k theta),
    C >= 0.

    P(l, m) = s^m c C(cos theta), C the Gegenbauer polynomial of index a = m + 1/2 and degree n = l - m.
    By its generating function |1 - r e^(i theta)|^(-2a), C = sum_j h(j) h(n-j) cos((n - 2j) theta) with
    h(j) = (a)_j / j! > 0: no term cancels another as theta -> 0.
    """
    n = l_max + 1
    m, l, k = _parity_split(n, cap=True)
    # h(j) of index m + 1/2 and 1 / binom(2m + j, j), cumulative products over j; with P(m, m) / s^m
    # = sqrt((2m+1) h(m) of index 1/2), c = sqrt((2l+1) h(m) of index 1/2 / binom(l+m, 2m))
    i = np.arange(n)
    steps = np.stack(((i[:, None] - 0.5 + i[1:]) / i[1:], i[1:] / (2 * i[:, None] + i[1:])))
    h, ratio = np.cumprod(np.concatenate((np.ones((2, n, 1)), steps), axis=2), axis=2)
    # cos(k theta), k = deg - 2j, deg = l - m, has C's terms j and deg - j: h(j) h(deg - j) = half(deg - k)
    # half(deg + k), half(2j) = h(j) and 0 at an odd or negative argument, so 0 where k > deg or k - deg is odd
    half = np.zeros((n, 4 * n))
    half[:, 2 * n :: 2] = h  # half(x) of index m + 1/2 at column 2n + x of row m
    at = 4 * n * m + 2 * n + l - m
    cap = half.take(at - k) * half.take(at + k)
    cap *= np.sqrt((2 * l + 1) * h[0, m] * ratio[m, np.maximum(l - m, 0)])
    cap *= np.where(k == 0, 1.0, 2.0)
    cap.setflags(write=False)
    return cap


@functools.lru_cache(maxsize=16)
def _place(n: int) -> np.ndarray:
    """Read-only place of each (m, l) row of band n - 1 in the flattened [p, q, i, r] rows of a split table."""
    h = (n + 1) // 2
    m, l = np.divmod(np.arange(n * n), n)
    place = (((l % 2) * 2 + m % 2) * h + m // 2) * h + l // 2
    place.setflags(write=False)
    return place


def _powers(t, s, h: int) -> np.ndarray:
    """cos(k theta) and sin(k theta) for k = 0..2h - 1 at the meridian points with cosines ``t`` and sines ``s``,
    as [j, p, point, (cos, sin)], k = 2j + p: the powers of t + i s, whose rounding grows with k as that of
    cos(k theta) does, as a running product, or for one point in one call."""
    if not t.ndim:
        return (complex(t, s) ** np.arange(2 * h)).view(float).reshape(h, 2, 1, 2)
    z = np.empty((2 * h,) + t.shape, dtype=complex)
    z[0] = 1.0
    z[1:] = t + 1j * s
    z.cumprod(axis=0, out=z)
    return z.view(float).reshape(h, 2, -1, 2)


def _legendre_point(l_max: int, t, s) -> np.ndarray:
    """P(l, m) at abscissas ``t`` with sines ``s``, arrays of one shape, as (m, l) + t.shape rows, zero where l < m.

    The rows are P at cos(theta) = t, read at the point (t, sin theta), theta = arccos |t|, whose k theta carry
    (-1)^k at t < 0: (-1)^l in W's rows and (-1)^(l-m) in the caps', so that P(l, m)(-t) = (-1)^(l+m) P(l, m)(t).
    For s >= 0.01 (``_CAP``) they are :func:`_fourier_weights` times cos(k theta) at even m and sin(k theta) at
    odd m, and (s / sin theta)^m, which reads the sine as s; in the polar caps, s^m times :func:`_cap_weights`'
    positive cosine series, relatively accurate.  Each pair of parities of l and m is one product, and each
    (m, l) row is gathered from them.  On 600 random points at band 65 the rows are within 0.93 (l + 1) eps
    max(1, |P|), at most 1.4e-14, of a 50-digit recurrence at the same (t, s); a point call takes 10, 16 and
    45 us at bands 7, 33 and 65 (1 BLAS thread, 2 vCPUs).
    """
    t, s = np.asarray(t, dtype=float)[()], np.asarray(s, dtype=float)[()]  # one point as numpy scalars
    n = l_max + 1
    cap = s < _CAP
    if cap.ndim and cap.any() != cap.all():  # each branch on its own points
        rows = np.empty((n, n) + t.shape)
        for part in (cap, ~cap):
            rows[..., part] = _legendre_point(l_max, t[part], s[part])
        return rows
    sine = np.sin(np.arccos(np.abs(t)))
    z = _powers(t, sine, (l_max + 2) // 2)
    if cap.flat[0]:  # the cosines of k = 2j + (p xor q), and s^m
        c = z[..., 0].transpose(1, 0, 2)
        trig, weights, ratio = np.stack((c, c[::-1]), axis=1), _cap_weights(l_max), s
    else:  # cos(k theta) at even m and sin(k theta) at odd m, k = 2j + p
        trig, weights, ratio = z.transpose(1, 3, 0, 2), _fourier_weights(l_max), s / sine
    rows = (weights.reshape(2, 2, -1, trig.shape[2]) @ trig).reshape(-1, t.size).take(_place(n), axis=0)
    rows = rows.reshape((n, n) + t.shape)
    if np.count_nonzero(ratio != 1.0):
        rows *= (ratio ** np.arange(n * 1.0).reshape((-1,) + (1,) * t.ndim))[:, None]
    return rows


def _profiles(f: HarmonicField, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(m, part, point): s_m sum_l c(l, +-m) P(l, m) at the meridian points with cosines ``t`` and sines ``s``,
    as :func:`_synthesis` reads them.  The coefficients meet the band-(L + 1) weights that the point rows of a
    band-L field read first, then cos(k theta) at even m and sin(k theta) at odd m (:func:`_powers`): 8 h^2
    products per point, h = (L + 3) // 2, where a table of P takes 4 h^3.  The sums are as accurate as the
    coefficients times P, not relatively near the poles, where the rows m > 0 are small.
    """
    n = f.l_max + 1
    weights = _fourier_weights(n)
    h = weights.shape[-1]
    c = np.zeros((2 * h, 2, 2 * h))
    c[:n, :, :n] = f._order_major
    series = c.reshape(h, 2, 2, h, 2).transpose(4, 1, 0, 2, 3) @ weights  # [p, q, i, part, j]
    trig = _powers(t, s, h).transpose(1, 3, 0, 2)
    sums = (series.reshape(2, 2, 2 * h, h) @ trig).sum(axis=0)  # [q, (i, part), point]
    return sums.reshape(2, h, 2, -1).transpose(1, 0, 2, 3).reshape(2 * h, 2, -1)[:n]


class _PointRows(NamedTuple):
    """Read-only map of one band's flat slots onto a band-(l_max + 1) table at one point."""

    rows: np.ndarray     # (11, n): each term's row |m| (l_max + 2) + l in the flattened (m, l) rows
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
            rows.append(np.abs(order) * (l_max + 2) + l + dl)
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
    gathered = _legendre_point(l_max + 1, t, s).take(point.rows)
    gathered *= point.weights
    slopes = point.terms @ gathered
    slopes *= np.exp(point.freq * phi).view(float)[point.trig].take(_TURNED, axis=0)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    frame = np.array([[t * cos_p, t * sin_p, -s], [-sin_p, cos_p, 0.0]])
    return slopes, frame


def dirichlet_energy(f: HarmonicField) -> float:
    """Exact gradient energy: sum over (l, m) of l(l+1) c_lm^2, summed pairwise as ``np.sum`` sums it."""
    return float((_layout(f.l_max).ll * (f.coeffs * f.coeffs)).sum())


def laplacian(f: HarmonicField) -> HarmonicField:
    """Spectral Laplace-Beltrami operator: multiply each coefficient by -l(l+1)."""
    return HarmonicField(f.l_max, -_layout(f.l_max).ll * f.coeffs)


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
    spectrum = _layout(wide.l_max).ll * wide.coeffs**2
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
