"""References for the tests: high-precision values on mpmath, and a retired builder kept as an oracle.

The library never imports this module."""

import functools
import math

import mpmath
import numpy as np

from onofri.harmonics import _quarter_d

_FIX = 200  # bits after the point of the fixed-point reference basis: 60 digits


def _fixed(x) -> int:
    return int(mpmath.floor(x * mpmath.mpf(2) ** _FIX))


@functools.lru_cache(maxsize=1)
def _mp_recurrence(l_max):
    # the ladder, a and b of the normalized three-term recurrence and sqrt(2), from mpmath at 60 digits
    with mpmath.workdps(60):

        def root(num, den):
            return _fixed(mpmath.sqrt(mpmath.mpf(num) / den))

        ladder = [root(2 * m + 1, 2 * m) for m in range(1, l_max + 1)]
        a = {(l, m): root((2 * l + 1) * (2 * l - 1), (l - m) * (l + m)) for l in range(1, l_max + 1) for m in range(l)}
        b = {
            (l, m): root((2 * l + 1) * (l - 1 - m) * (l - 1 + m), (2 * l - 3) * (l - m) * (l + m))
            for l in range(2, l_max + 1)
            for m in range(l - 1)
        }
        return ladder, a, b, root(2, 1)


def _mp_basis(points, l_max):
    """Every Y_lm at ``points`` (rows), correct to about 50 digits before the final rounding.

    The normalized three-term recurrence in exact 2^-200 fixed point, its
    constants and each point's t = z, s = hypot(x, y) and e^(i phi) from
    mpmath at 60 digits: the abscissas and sines the library takes, without
    its rounding.  (mpmath's own legenp does not converge at l = 64.)
    """
    F = _FIX
    ladder, a, b, root2 = _mp_recurrence(l_max)
    t, s, c1, s1 = np.empty((4, len(points)), dtype=object)
    with mpmath.workdps(60):
        for i, (x, y, z) in enumerate(points):
            x, y, z = mpmath.mpf(float(x)), mpmath.mpf(float(y)), mpmath.mpf(float(z))
            rho = mpmath.hypot(x, y)
            t[i], s[i] = _fixed(z), _fixed(rho)
            c1[i], s1[i] = (_fixed(x / rho), _fixed(y / rho)) if rho else (1 << F, 0)
    out = np.empty(((l_max + 1) ** 2, len(points)), dtype=object)  # in units of 2^(-2F)
    cos_m, sin_m, seed = np.full((3, len(points)), 1 << F, dtype=object)
    sin_m[:] = 0
    for m in range(l_max + 1):
        if m:
            seed = (ladder[m - 1] * ((seed * s) >> F)) >> F  # P(m, m)
            cos_m, sin_m = (cos_m * c1 - sin_m * s1) >> F, (sin_m * c1 + cos_m * s1) >> F
            trig = (root2 * cos_m) >> F, (root2 * sin_m) >> F
        p2, p1 = 0, seed
        for l in range(m, l_max + 1):
            if l > m:
                p2, p1 = p1, (a[l, m] * ((t * p1) >> F) - b.get((l, m), 0) * p2) >> F
            if m == 0:
                out[l * l + l] = p1 << F
            else:
                out[l * l + l + m], out[l * l + l - m] = p1 * trig[0], p1 * trig[1]
    return np.ldexp(out.astype(float), -2 * F).T


def _mp_legendre(l_max, points):
    """The (m, l) rows of _legendre_point at each (t, s) of ``points`` from _mp_basis at (s, 0, t), 0 where l < m.

    At azimuth 0 the real basis holds P(l, 0) and sqrt(2) P(l, m > 0).
    """
    l, m = np.tril_indices(l_max + 1)
    basis = _mp_basis(np.array([[s, 0.0, t] for t, s in points]), l_max)
    rows = np.zeros((len(points), l_max + 1, l_max + 1))
    rows[:, m, l] = basis[:, l * l + l + m] / np.where(m > 0, math.sqrt(2.0), 1.0)
    return rows


def _padded_turn_stack(l_max):
    """(l_max + 1, 2 l_max + 1, 2 l_max + 1): the quarter-turn block D of each degree, slots m = -l..l, zero-padded.

    The library's builder before the blocks were packed by class, kept as their oracle: each entry is a
    d(pi/2) of ``_quarter_d`` times an exact weight, D = Z^T Y^T Z with Z of R_z(pi/2) and Y the real
    R_y(pi/2).
    """
    n = l_max + 1
    d = _quarter_d(n, np.float64)
    mu = np.arange(-l_max, l_max + 1)
    i = np.abs(mu)
    hi, lo = np.maximum.outer(i, i), np.minimum.outer(i, i)
    at = (hi * (hi + 1) // 2 + lo) * (n + 1)
    cosine = (mu >= 0) == (mu % 2 == 0)
    sign, scale = (-1.0) ** (i[:, None] + i), np.where(i == 0, math.sqrt(0.5), 1.0)
    turn = np.where(mu % 4 < 2, 1.0, -1.0)
    signs = np.outer(turn, turn) * np.where(i[:, None] <= i, 1.0, sign)
    weights = [signs * np.where(np.outer(cosine, cosine), np.outer(scale, scale) * (sign + parity),
                                np.outer(~cosine, ~cosine) * (sign - parity)) for parity in (1.0, -1.0)]
    stack = np.zeros((n, 2 * n - 1, 2 * n - 1))
    for l in range(n):
        block, centre = slice(2 * l + 1), slice(l_max - l, l_max + l + 1)
        np.multiply(weights[l % 2][centre, centre], d.take(at[centre, centre] + l), out=stack[l, block, block])
    return stack
