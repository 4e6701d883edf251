"""The conformal group of the sphere as determinant-one complex 2x2 matrices.

Maps act on the sphere through stereographic coordinates.  Points travel as
projective spinors (xi1, xi2) with z = xi1/xi2, which handles the north pole
and Mobius poles without special cases and keeps the closed-form Jacobian
stable everywhere.  Orientation-reversing maps carry a ``reflect`` flag
(pre-compose with complex conjugation); the core matrix group stays PSL(2, C).
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

from .sphere import INFINITY, cap_area, unit_point

__all__ = [
    "ConformalMap",
    "MobiusMap",
    "dilation",
    "identity_map",
    "inversion",
    "jacobian_area_oracle",
    "rotation",
    "translation",
    "translation_to",
]


class MobiusMap:
    """A 2x2 complex matrix with determinant one, up to overall sign.

    Construction renormalizes the determinant and fixes the sign so that the
    first nonzero entry in (a, b, c, d) order has nonnegative real part
    (imaginary part positive when the real part vanishes), which makes
    serialization reproducible.
    """

    __slots__ = ("mat",)

    def __init__(self, a, b, c, d):
        m = np.array([[a, b], [c, d]], dtype=complex)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-30:
            raise ValueError("matrix is (numerically) singular")
        m = m / np.sqrt(det)
        for entry in m.reshape(-1):
            if abs(entry) > 1e-12:
                if entry.real < 0 or (entry.real == 0 and entry.imag < 0):
                    m = -m
                break
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_matrix(cls, m) -> "MobiusMap":
        m = np.asarray(m, dtype=complex)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    @property
    def a(self) -> complex:
        return complex(self.mat[0, 0])

    @property
    def b(self) -> complex:
        return complex(self.mat[0, 1])

    @property
    def c(self) -> complex:
        return complex(self.mat[1, 0])

    @property
    def d(self) -> complex:
        return complex(self.mat[1, 1])

    def det(self) -> complex:
        return complex(self.mat[0, 0] * self.mat[1, 1] - self.mat[0, 1] * self.mat[1, 0])

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap.from_matrix(self.mat @ other.mat)

    def __repr__(self):
        return f"MobiusMap(a={self.a:.6g}, b={self.b:.6g}, c={self.c:.6g}, d={self.d:.6g})"


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


def _lift(m: np.ndarray) -> np.ndarray:
    """The unchecked 4x4 matrix of H -> m H m^H in the (t, q) of ``lorentz.hermitian_of``:
    column nu is (1/2) tr(E_mu m E_nu m^H), with E = (I, sigma1, -sigma2, sigma3)."""
    a, b, c, d = m.ravel().tolist()
    na, nb, nc, nd = ((x.real * x.real + x.imag * x.imag) / 2.0 for x in (a, b, c, d))
    ab, ac, ad, bc, bd, cd = (x * y.conjugate() for x, y in combinations((a, b, c, d), 2))
    return np.array([[na + nb + nc + nd, ab.real + cd.real, -(ab.imag + cd.imag), na - nb + nc - nd],
                     [ac.real + bd.real, ad.real + bc.real, bc.imag - ad.imag, ac.real - bd.real],
                     [ac.imag + bd.imag, ad.imag + bc.imag, ad.real - bc.real, ac.imag - bd.imag],
                     [na + nb - nc - nd, ab.real - cd.real, cd.imag - ab.imag, na - nb - nc + nd]])


class ConformalMap:
    """A conformal self-map of the sphere: Mobius matrix plus reflect flag.

    ``reflect`` pre-composes with complex conjugation z -> conj(z) in the
    stereographic chart (the orientation-reversing half of the group).
    """

    __slots__ = ("mobius", "reflect")

    def __init__(self, mobius: MobiusMap, reflect: bool = False):
        object.__setattr__(self, "mobius", mobius)
        object.__setattr__(self, "reflect", bool(reflect))

    def _act(self, spinors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Acted spinors (y1, y2) of node spinors and their norm |y1|^2 + |y2|^2."""
        x1, x2 = spinors
        if self.reflect:
            x1, x2 = np.conj(x1), np.conj(x2)
        m = self.mobius.mat
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

    def _image_and_jacobian(self, spinors) -> tuple[np.ndarray, np.ndarray]:
        """``(apply(w), jacobian(w))`` from ``spinors = _spinor(w)``, in one pass."""
        y1, y2, n = self._act(spinors)
        return _point_of_spinor(y1, y2, n), 1.0 / (n * n)

    def _cartan(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Factors ``(R_U, lam, O_V)`` with ``self = R_U o dilation(lam) o O_V``, lam >= 1.

        From the SVD M = U diag(s1, 1/s1) V^H: the rotations, acting on column vectors, are the
        spatial blocks of the lifts of U and V^H (columns renormalized), with a reflected map's
        conjugation diag(1, -1, 1) folded into O_V.  lam = s1^2 stays accurate where 1/s1 is tiny.
        """
        u, s, vh = np.linalg.svd(self.mobius.mat)
        rot, frame = pair = np.stack([_lift(u)[1:, 1:], _lift(vh)[1:, 1:]])
        frame[:, 1] *= -1.0 if self.reflect else 1.0
        pair /= np.linalg.norm(pair, axis=1, keepdims=True)
        return rot, max(float(s[0]) ** 2, 1.0), frame

    def plane_image(self, z):
        """Action in the stereographic chart; INFINITY is a legal value both ways."""
        m = self.mobius
        if z is INFINITY:
            zc = None
        else:
            zc = complex(z)
            if self.reflect:
                zc = zc.conjugate()
        if zc is None:
            if abs(m.c) == 0.0:
                return INFINITY
            return m.a / m.c
        den = m.c * zc + m.d
        if abs(den) == 0.0:
            return INFINITY
        return (m.a * zc + m.b) / den

    def compose(self, other: "ConformalMap") -> "ConformalMap":
        """self after other.  Reflect flags add mod 2; a leading reflect
        conjugates the inner matrix (conj o M = conj(M) o conj)."""
        inner = np.conj(other.mobius.mat) if self.reflect else other.mobius.mat
        return ConformalMap(
            MobiusMap.from_matrix(self.mobius.mat @ inner),
            self.reflect != other.reflect,
        )

    def inverse(self) -> "ConformalMap":
        inv = self.mobius.inverse()
        if self.reflect:
            inv = MobiusMap.from_matrix(np.conj(inv.mat))
        return ConformalMap(inv, self.reflect)

    def is_identity(self, tol: float = 1e-12) -> bool:
        if self.reflect:
            return False
        return bool(np.allclose(self.mobius.mat, np.eye(2), atol=tol))

    def to_dict(self) -> dict:
        m = self.mobius
        return {
            "a": [m.a.real, m.a.imag],
            "b": [m.b.real, m.b.imag],
            "c": [m.c.real, m.c.imag],
            "d": [m.d.real, m.d.imag],
            "reflect": self.reflect,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ConformalMap":
        def c(key):
            re, im = d[key]
            return complex(re, im)

        return cls(MobiusMap(c("a"), c("b"), c("c"), c("d")), bool(d.get("reflect", False)))

    @classmethod
    def from_json(cls, s: str) -> "ConformalMap":
        return cls.from_dict(json.loads(s))

    def __repr__(self):
        return f"ConformalMap({self.mobius!r}, reflect={self.reflect})"


def identity_map() -> ConformalMap:
    return ConformalMap(MobiusMap.identity())


def dilation(lam: float) -> ConformalMap:
    """Dilation by lam > 0 in the stereographic chart: z -> lam * z."""
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    r = math.sqrt(lam)
    return ConformalMap(MobiusMap(r, 0, 0, 1.0 / r))


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
    return ConformalMap(MobiusMap(1, complex(beta), 0, 1))


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
        MobiusMap(
            complex(c, s * n[2]),
            complex(-s * n[1], s * n[0]),
            complex(s * n[1], s * n[0]),
            complex(c, -s * n[2]),
        )
    )


def inversion() -> ConformalMap:
    """The geometric inversion x -> x / |x|^2 of the plane.

    Anti-holomorphic (z -> 1 / conj(z)), so it carries reflect=True; its
    Jacobian is identically 1.
    """
    return ConformalMap(MobiusMap(0, 1j, 1j, 0), reflect=True)


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
