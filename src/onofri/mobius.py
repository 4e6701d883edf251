"""The conformal group of the sphere in one type, ``ConformalMap``.

A map is a complex 2x2 matrix of determinant one, fixed up to sign, and a
``reflect`` flag that pre-composes with complex conjugation for the
orientation-reversing half of the group.  The orientation-preserving maps
form PSL(2, C); :mod:`onofri.lorentz` lifts them to SO+(1,3).  Maps act on
the sphere through stereographic coordinates.  Points travel as projective
spinors (xi1, xi2) with z = xi1/xi2, which handles the north pole and
Mobius poles without special cases and keeps the closed-form Jacobian
stable everywhere.
"""
from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .sphere import INFINITY, cap_area, unit_point

__all__ = [
    "ConformalMap",
    "dilation",
    "identity_map",
    "inversion",
    "jacobian_area_oracle",
    "rotation",
    "translation",
    "translation_to",
]


def _spinor(points) -> tuple[np.ndarray, np.ndarray]:
    """Unit spinor (xi1, xi2) of each point (renormalized first), with z = xi1/xi2.

    Built in the chart away from the nearer pole, so no large intermediates
    appear even at the poles themselves.
    """
    w = unit_point(points)
    south = w[..., 2] <= 0.0
    x1 = np.where(south, w[..., 0], 1.0 + w[..., 2]) + 1j * np.where(south, w[..., 1], 0.0)
    x2 = np.where(south, 1.0 - w[..., 2], w[..., 0]) + 1j * np.where(south, 0.0, -w[..., 1])
    norm = np.sqrt(np.abs(x1) ** 2 + np.abs(x2) ** 2)
    return x1 / norm, x2 / norm


def _point_of_spinor(x1: np.ndarray, x2: np.ndarray, n: np.ndarray) -> np.ndarray:
    # n = |x1|^2 + |x2|^2
    cross = 2.0 * x1 * np.conj(x2)
    w = np.stack([cross.real / n, cross.imag / n, (np.abs(x1) ** 2 - np.abs(x2) ** 2) / n], axis=-1)
    return unit_point(w)


def _lift_entries(a: complex, b: complex, c: complex, d: complex) -> tuple[float, ...]:
    """The sixteen entries, row by row, of the unchecked 4x4 matrix of H -> m H m^H for m = [[a, b], [c, d]], in
    the (t, q) of ``lorentz.hermitian_of``: column nu is (1/2) tr(E_mu m E_nu m^H), with E = (I, sigma1, -sigma2,
    sigma3).  Python floats, so a caller that reads a few entries builds no array."""
    na, nb = (a.real * a.real + a.imag * a.imag) / 2.0, (b.real * b.real + b.imag * b.imag) / 2.0
    nc, nd = (c.real * c.real + c.imag * c.imag) / 2.0, (d.real * d.real + d.imag * d.imag) / 2.0
    ab, ac, ad = a * b.conjugate(), a * c.conjugate(), a * d.conjugate()
    bc, bd, cd = b * c.conjugate(), b * d.conjugate(), c * d.conjugate()
    return (na + nb + nc + nd, ab.real + cd.real, -(ab.imag + cd.imag), na - nb + nc - nd,
            ac.real + bd.real, ad.real + bc.real, bc.imag - ad.imag, ac.real - bd.real,
            ac.imag + bd.imag, ad.imag + bc.imag, ad.real - bc.real, ac.imag - bd.imag,
            na + nb - nc - nd, ab.real - cd.real, cd.imag - ab.imag, na - nb - nc + nd)


def _lift(m: np.ndarray) -> np.ndarray:
    """The unchecked 4x4 lift of a unimodular 2x2 ``m``: :func:`_lift_entries` as one array."""
    return np.array(_lift_entries(*m.ravel().tolist())).reshape(4, 4)


def _frame(entries: tuple[float, ...], flip: float) -> np.ndarray:
    """The spatial 3x3 block of a lift's ``entries``, its middle column times ``flip`` and each column scaled
    to unit length, in Python floats."""
    (a, b, c), (d, e, f), (g, h, i) = entries[5:8], entries[9:12], entries[13:16]
    b, e, h = flip * b, flip * e, flip * h
    n1, n2, n3 = (math.sqrt(x * x + y * y + z * z) for x, y, z in ((a, d, g), (b, e, h), (c, f, i)))
    return np.array([[a / n1, b / n2, c / n3], [d / n1, e / n2, f / n3], [g / n1, h / n2, i / n3]])


class ConformalMap:
    """A conformal self-map of the sphere: a determinant-one complex 2x2 matrix and a reflect flag.

    Construction renormalizes [[a, b], [c, d]] to determinant one and fixes the overall sign so
    that the first nonzero entry in (a, b, c, d) order has nonnegative real part (imaginary part
    positive when the real part vanishes), which makes serialization reproducible.  A determinant
    ad - bc that is not finite (as any non-finite entry makes it) or below 1e-30 raises ValueError.
    ``reflect`` pre-composes with complex conjugation z -> conj(z) in the stereographic chart (the
    orientation-reversing half of the group).
    """

    __slots__ = ("mat", "reflect")

    def __init__(self, a, b, c, d, reflect: bool = False):
        det = complex(a) * complex(d) - complex(b) * complex(c)
        if not cmath.isfinite(det):
            raise ValueError("matrix entries and determinant must be finite")
        if math.hypot(det.real, det.imag) < 1e-30:
            raise ValueError("matrix is (numerically) singular")
        m = np.array([[a, b], [c, d]], dtype=complex) / np.sqrt(det)
        for entry in m.reshape(-1):
            if abs(entry) > 1e-12:
                if entry.real < 0 or (entry.real == 0 and entry.imag < 0):
                    m = -m
                break
        m.setflags(write=False)
        self.mat = m
        self.reflect = bool(reflect)

    @classmethod
    def from_matrix(cls, m, reflect: bool = False) -> "ConformalMap":
        return cls(*np.asarray(m, dtype=complex).ravel().tolist(), reflect)

    a = property(lambda self: complex(self.mat[0, 0]))
    b = property(lambda self: complex(self.mat[0, 1]))
    c = property(lambda self: complex(self.mat[1, 0]))
    d = property(lambda self: complex(self.mat[1, 1]))

    def _act(self, spinors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Acted spinors (y1, y2) of node spinors and their norm |y1|^2 + |y2|^2."""
        x1, x2 = spinors
        if self.reflect:
            x1, x2 = np.conj(x1), np.conj(x2)
        m = self.mat
        y1 = m[0, 0] * x1 + m[0, 1] * x2
        y2 = m[1, 0] * x1 + m[1, 1] * x2
        return y1, y2, np.abs(y1) ** 2 + np.abs(y2) ** 2

    def apply(self, w) -> np.ndarray:
        """Image of unit vector(s) of shape (..., 3)."""
        return _point_of_spinor(*self._act(_spinor(w)))

    __call__ = apply

    def jacobian(self, w) -> float | np.ndarray:
        """Area-distortion factor at unit vector(s); strictly positive and finite.

        Closed form ((1+|z|^2) / (|az+b|^2 + |cz+d|^2))^2 evaluated on unit
        spinors, which is chart-free: near the north pole this is identical to
        evaluating the inverted-chart formula.  The reflect flag does not
        change the value.
        """
        n = self._act(_spinor(w))[2]
        J = 1.0 / (n * n)
        return float(J) if np.ndim(J) == 0 else J

    def _cartan(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Factors ``(R_U, lam, O_V)`` with ``self = R_U o dilation(lam) o O_V``, lam >= 1.

        From LAPACK's SVD M = U diag(s1, 1/s1) V^H: the rotations, acting on column vectors, are the
        spatial blocks of the lifts of U and V^H (:func:`_lift_entries`), columns renormalized in Python
        floats, with a reflected map's conjugation diag(1, -1, 1) folded into O_V.  lam = s1^2 stays
        accurate where 1/s1 is tiny.
        """
        u, s, vh = np.linalg.svd(self.mat)
        rot = _frame(_lift_entries(*u.ravel().tolist()), 1.0)
        frame = _frame(_lift_entries(*vh.ravel().tolist()), -1.0 if self.reflect else 1.0)
        return rot, max(float(s[0]) ** 2, 1.0), frame

    def plane_image(self, z):
        """Action in the stereographic chart; INFINITY is a legal value both ways."""
        a, b, c, d = self.mat.ravel().tolist()
        if z is INFINITY:
            return INFINITY if abs(c) == 0.0 else a / c
        z = complex(z).conjugate() if self.reflect else complex(z)
        den = c * z + d
        return INFINITY if abs(den) == 0.0 else (a * z + b) / den

    def compose(self, other: "ConformalMap") -> "ConformalMap":
        """self after other.  Reflect flags add mod 2; a leading reflect
        conjugates the inner matrix (conj o M = conj(M) o conj)."""
        inner = np.conj(other.mat) if self.reflect else other.mat
        return ConformalMap.from_matrix(self.mat @ inner, self.reflect != other.reflect)

    def inverse(self) -> "ConformalMap":
        inv = ConformalMap(self.d, -self.b, -self.c, self.a)
        return ConformalMap.from_matrix(np.conj(inv.mat), True) if self.reflect else inv

    def is_identity(self, tol: float = 1e-12) -> bool:
        if self.reflect:
            return False
        return bool(np.allclose(self.mat, np.eye(2), rtol=0.0, atol=tol))

    def to_dict(self) -> dict:
        d = {key: [z.real, z.imag] for key, z in zip("abcd", self.mat.ravel().tolist())}
        d["reflect"] = self.reflect
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ConformalMap":
        def c(key):
            re, im = d[key]
            return complex(re, im)

        reflect = d.get("reflect", False)
        if type(reflect) is not bool:  # "false", 0 or null is not a flag
            raise ValueError(f"reflect must be a JSON boolean, got {reflect!r}")
        return cls(c("a"), c("b"), c("c"), c("d"), reflect)

    @classmethod
    def from_json(cls, s: str) -> "ConformalMap":
        return cls.from_dict(json.loads(s))

    def __repr__(self):
        entries = ", ".join(f"{key}={z:.6g}" for key, z in zip("abcd", self.mat.ravel().tolist()))
        return f"ConformalMap({entries}, reflect={self.reflect})"


def identity_map() -> ConformalMap:
    return ConformalMap(1, 0, 0, 1)


def dilation(lam: float) -> ConformalMap:
    """Dilation by lam > 0 in the stereographic chart: z -> lam * z."""
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    r = math.sqrt(lam)
    return ConformalMap(r, 0, 0, 1.0 / r)


def _dilated_meridian(lam: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where ``dilation(lam)`` takes the abscissas ``t``: image cos, image sin, Jacobian.

    The dilation keeps the azimuth and takes |z|^2 = (1 + t)/(1 - t) to
    lam^2 |z|^2.  With D = lam (1 + t) + (1 - t)/lam, the image is
    (lam (1 + t) - (1 - t)/lam)/D, its sine 2 sqrt((1 + t)(1 - t))/D and the
    Jacobian (2/D)^2: D is a sum of positive terms and no sine comes from
    1 - cos^2, so each value is within a few eps of the exact one at any
    lam, poles included.  (D is lam^2 (1 + t) + (1 - t) over lam, which keeps
    lam^2 from overflowing.)
    """
    p = lam * (1.0 + t)
    q = (1.0 - t) / lam
    d = p + q
    return (p - q) / d, 2.0 * np.sqrt((1.0 + t) * (1.0 - t)) / d, (2.0 / d) ** 2


def translation(beta) -> ConformalMap:
    """Plane translation z -> z + beta; beta must be finite."""
    if beta is INFINITY:
        raise ValueError("translation offset must be finite")
    return ConformalMap(1, complex(beta), 0, 1)


def translation_to(p) -> ConformalMap:
    """The translation taking the south pole to the unit vector ``p``."""
    from .sphere import stereo_project

    beta = stereo_project(p)
    if beta is INFINITY:
        raise ValueError("no translation takes the south pole to the north pole")
    return translation(beta)


def rotation(axis, angle: float) -> ConformalMap:
    """Right-handed rotation about ``axis`` by ``angle``, as an SU(2) element."""
    n = unit_point(axis)
    if n.ndim != 1:
        raise ValueError("axis must be a single vector")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    # the chart z = (w1 + i w2)/(1 - w3) carries the conjugate of the usual
    # spinor convention, hence the reversed sign on the imaginary Pauli axis
    return ConformalMap(
        complex(c, s * n[2]), complex(-s * n[1], s * n[0]), complex(s * n[1], s * n[0]), complex(c, -s * n[2])
    )


def inversion() -> ConformalMap:
    """The geometric inversion x -> x / |x|^2 of the plane.

    Anti-holomorphic (z -> 1 / conj(z)), so it carries reflect=True; its
    Jacobian is identically 1.
    """
    return ConformalMap(0, 1j, 1j, 0, reflect=True)


def _fft_derivative(values: np.ndarray) -> np.ndarray:
    # spectral derivative of a smooth 2*pi-periodic sample set
    n = values.size
    freqs = np.fft.rfftfreq(n, d=1.0 / n)
    spec = np.fft.rfft(values) * (1j * freqs)
    if n % 2 == 0:
        spec[-1] = 0.0  # Nyquist mode has no well-defined derivative
    return np.fft.irfft(spec, n)


_CAP_BOUNDARY_SAMPLES = 1024


def jacobian_area_oracle(tau: ConformalMap, p, r: float) -> float:
    """Jacobian estimate from the area-distortion of a small geodesic cap.

    Maps a dense sampling of the cap boundary and integrates the enclosed
    area as the closed line integral of (1 - cos(colatitude)) d(azimuth)
    about the image of the center (trapezoid rule on a smooth periodic
    integrand, so discretization error is spectrally small).  Converges to
    the closed-form Jacobian with O(r^2) error; exists purely as an
    independent check of that formula.
    """
    if not 0.0 < r < 0.5:
        raise ValueError("cap radius must lie in (0, 0.5)")
    p = unit_point(p)
    if p.ndim != 1:
        raise ValueError("oracle takes a single center point")
    # orthonormal tangent frame at p
    helper = np.array([0.0, 0.0, 1.0]) if abs(p[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(p, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)

    s = 2.0 * math.pi * np.arange(_CAP_BOUNDARY_SAMPLES) / _CAP_BOUNDARY_SAMPLES
    circle = (
        math.cos(r) * p[None, :]
        + math.sin(r) * (np.cos(s)[:, None] * e1[None, :] + np.sin(s)[:, None] * e2[None, :])
    )
    img = tau.apply(circle)
    q0 = tau.apply(p)
    f1 = np.cross(q0, np.array([0.0, 0.0, 1.0]) if abs(q0[2]) < 0.9 else np.array([1.0, 0.0, 0.0]))
    f1 /= np.linalg.norm(f1)
    f2 = np.cross(q0, f1)

    u = img @ f1
    v = img @ f2
    ct = np.clip(img @ q0, -1.0, 1.0)
    du = _fft_derivative(u)
    dv = _fft_derivative(v)
    dphi = (u * dv - v * du) / (u * u + v * v)
    area = abs(float(np.sum((1.0 - ct) * dphi)) * (2.0 * math.pi / _CAP_BOUNDARY_SAMPLES))
    return area / cap_area(r)
