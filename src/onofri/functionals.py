"""Evaluation of the sharp sphere functionals and the conformal transport of fields.

Two functionals are implemented for band-limited fields u:

* the classical Trudinger-Moser-Onofri energy
  alpha * E(u) + 2 * mean(u) - ln(int e^{2u}),
* its sharpened variant replacing the log-mass by half the log of the
  Lorentzian quantity (int e^{2u})^2 - sum_i (int w_i e^{2u})^2,

where E is the exact spectral Dirichlet energy.  The second functional is
nonnegative exactly for alpha >= 2/3 and vanishes on the conformal family
psi = (3/4) ln J + c, which transform() transports fields along.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .extremals import _g, _psi_energy
from .harmonics import (
    HarmonicField,
    Projection,
    _exact_tail,
    _field_of_sums,
    _fourier_weights,
    _rotated,
    _synthesis,
    dirichlet_energy,
    synthesize,
)
from .mobius import ConformalMap, _dilated_meridian
from .sphere import (
    DEFAULT_POLICY,
    ConvergenceError,
    RefinementPolicy,
    SphericalGrid,
    moments,
)

__all__ = [
    "ExpMoments",
    "FunctionalReport",
    "cg_bound_slack",
    "chang_gui_report",
    "chang_gui_value",
    "exp_moments",
    "onofri_value",
    "transform",
]


_ROOT_MAX = math.sqrt(sys.float_info.max)  # the largest mass whose square is a finite float


class ExpMoments(NamedTuple):
    """Exponential moments: int e^{2u} and the vector int w e^{2u}.

    ``delta`` is the last refinement step of the 4-vector (mass, moment): its
    value on ``grid`` less its value on the grid before.
    """

    mass: float
    moment: np.ndarray
    grid: SphericalGrid
    delta: np.ndarray


def exp_moments(u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY) -> ExpMoments:
    """Adaptively refined quadrature of e^{2u} and its first moments.

    e^{2u} is not band-limited, so grids grow until the values stabilize to
    the policy's relative tolerance.  They refine e^{2(u - mean)}, whose mass is
    at least 1 by Jensen, so that tolerance is relative however small e^{2u} is.
    Raises ConvergenceError if the values are still moving at the theta cap,
    at once, naming the grid, if the mass of e^{2(u - mean)} on a grid is
    not finite, and naming the mean if e^{2 mean(u)} times that mass is not.

    The result is kept under the key (u.l_max, the bytes of u.coeffs, policy),
    for the last 4 keys: a second call with an equal field and an equal policy
    (a frozen dataclass, compared by value) returns the first call's moments,
    so the sharp and classical functionals of one field share one quadrature,
    as do ``normalize``, ``solve_x0`` and ``solve_lambda0``.  Its ``moment``
    and ``delta`` are read-only.  A ConvergenceError is never kept: every call
    that fails runs the quadrature again.
    """
    return _exp_moments(u.l_max, u.coeffs.tobytes(), policy)


@functools.lru_cache(maxsize=4)
def _exp_moments(l_max: int, coeffs: bytes, policy: RefinementPolicy) -> ExpMoments:
    # 2u, one field for every step: its order-major coefficients are built
    # once, and doubling is exact, so each step's exponent is
    # 2 * (synthesize(u, g).samples - mean) bit for bit
    twice = HarmonicField(l_max, 2.0 * np.frombuffer(coeffs))
    shift = twice.mean()  # 2 mean(u)
    last = []  # the values on the last two grids

    def func(g: SphericalGrid) -> np.ndarray:
        f = synthesize(twice, g).samples  # a new array, exponentiated in place
        f -= shift
        np.exp(f, out=f)
        value = moments(g, f)
        if not np.isfinite(value[0]):
            raise ConvergenceError(
                f"exponential moments are not finite on the grid of {g.theta_count} theta rows: "
                "e^(2(u - mean)) overflows"
            )
        last[:] = [*last[-1:], value]
        return value

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mass raises instead
        v, grid = policy.refine(func, "exponential moments", min_band=l_max)
        # |moment| <= mass, so the moments are finite wherever the mass is
        try:
            scale = math.exp(shift)
        except OverflowError:
            scale = math.inf
        v = v * scale
        delta = (last[1] - last[0]) * scale
    if not math.isfinite(v[0]):
        raise ConvergenceError(
            f"exponential moments are not finite: e^(2u) overflows at mean(u) = {shift / 2.0:.6g}"
        )
    v.setflags(write=False)
    delta.setflags(write=False)
    return ExpMoments(float(v[0]), v[1:], grid, delta)


@dataclass(frozen=True)
class FunctionalReport:
    """All ingredients of one functional evaluation, assembled exactly as stated."""

    alpha: float
    energy: float
    mean: float
    log_mass: float
    lorentzian: float
    value: float
    grid: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def chang_gui_report(
    alpha: float, u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY
) -> FunctionalReport:
    """Evaluate the sharpened functional with full diagnostics.

    The exponential moments come from ``exp_moments``, which raises
    ConvergenceError if they do not converge.  The Lorentzian quantity is
    strictly positive for genuine measures (strict Cauchy-Schwarz since
    |w| = 1 and w is not constant); a non-positive value can only come from
    broken quadrature and raises too, as does a mass whose square overflows
    (a mean of u above about 177).
    """
    mom = exp_moments(u, policy)
    if mom.mass > _ROOT_MAX:
        raise ConvergenceError(f"Lorentzian quantity overflows: the mass of e^(2u) is {mom.mass:.3e}")
    lorentzian = mom.mass**2 - float(mom.moment @ mom.moment)
    if lorentzian <= 0.0:
        raise ConvergenceError(
            f"Lorentzian quantity {lorentzian:.3e} is non-positive: quadrature failure"
        )
    energy = dirichlet_energy(u)
    mean = u.mean()
    value = alpha * energy + 2.0 * mean - 0.5 * math.log(lorentzian)
    return FunctionalReport(
        alpha=float(alpha),
        energy=energy,
        mean=mean,
        log_mass=math.log(mom.mass),
        lorentzian=lorentzian,
        value=value,
        grid=mom.grid.descriptor(),
    )


def chang_gui_value(
    alpha: float, u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY
) -> float:
    return chang_gui_report(alpha, u, policy).value


def onofri_value(
    alpha: float, u: HarmonicField, policy: RefinementPolicy = DEFAULT_POLICY
) -> float:
    """The classical functional alpha*E + 2*mean - ln(int e^{2u})."""
    mom = exp_moments(u, policy)
    return alpha * dirichlet_energy(u) + 2.0 * u.mean() - math.log(mom.mass)


class _Composition(NamedTuple):
    """u o tau in the frame of the Cartan split tau = R_U o dilation(lam) o O_V.

    At w = O_V^T g:  u(tau(w)) = field(dilation(lam)(g)) and J_tau(w) =
    J_dilation(g), and since the measure is rotation-invariant,
    int w F(tau(w)) dw = O_V^T int g F(dilation(lam)(g)) dg.
    """

    field: HarmonicField  # u o R_U, of u's band
    lam: float
    frame: np.ndarray     # O_V

    def samples(self, grid: SphericalGrid) -> tuple[np.ndarray, np.ndarray]:
        """u(tau(O_V^T g)) at the nodes g of ``grid``, and J_tau there per theta row.

        The dilation keeps every azimuth and moves cos(theta) alone, so the
        samples are the order-m profiles at the image of one meridian met
        with the azimuths, and the Jacobian is zonal.
        """
        profiles, jac = self.profiles(grid)
        return _synthesis(profiles, grid), jac

    def profiles(self, grid: SphericalGrid) -> tuple[np.ndarray, np.ndarray]:
        """(m, part, theta): s_m sum_l c(l, +-m) P(l, m) of the field where the dilation takes ``grid``'s
        abscissas, and J there.

        The image (x', s') and J come in closed form (:func:`mobius._dilated_meridian`), and the image
        colatitude is atan2(s', x').  The coefficients meet the theta-Fourier weights of P
        (:func:`harmonics._fourier_weights`) first, then cos(k theta) at even m and sin(k theta) at odd m:
        three products and no Legendre table at the image.
        """
        x, s, jac = _dilated_meridian(self.lam, grid.cos_theta)
        field = self.field
        series = field._order_major @ _fourier_weights(field.l_max)  # (m, part, k)
        arg = np.arange(field.l_max + 1)[:, None] * np.arctan2(s, x)
        out = np.empty(series.shape[:2] + x.shape)
        out[0::2] = series[0::2] @ np.cos(arg)
        out[1::2] = series[1::2] @ np.sin(arg)
        return out, jac

    def energy(self) -> float:
        """E(u o tau + psi_tau), with no quadrature (:meth:`closed_form`)."""
        return self.closed_form(self.field.l_max)[1]

    def closed_form(self, l_max: int) -> tuple[np.ndarray, float]:
        """psi's zonal coefficients g_l(t) sqrt(2l + 1) at b = t e3, t = ln lam, for l <= l_max (at least
        the field's band; 0 at lam = 1), and E(u o tau + psi_tau) from them, with no quadrature.

        The Dirichlet energy is conformally invariant, and psi_dilation(lam)
        composed with dilation(1/lam) is -psi_dilation(1/lam) up to a
        constant, so the energy is the gradient distance of the field to psi
        at b = t e3, summed as ``stability._distance`` sums it: the
        non-negative band part, sum l(l+1)(c_lm - psi_lm)^2, plus psi's
        energy beyond the band, clamped at 0.
        """
        v, t = self.field, math.log(self.lam)
        l = np.arange(l_max + 1)
        psi = _g(l_max, t)[0] * np.sqrt(2 * l + 1) if t > 0.0 else np.zeros(l_max + 1)
        ll, near = (l * (l + 1))[: v.l_max + 1], psi[: v.l_max + 1]  # ll: the flat slots of the m = 0 coefficients
        diff = v.coeffs.copy()
        diff[ll] -= near
        deg = v.degrees()
        band = float((deg * (deg + 1)) @ (diff * diff))
        return psi, band + max(_psi_energy(t)[0] - float(ll @ (near * near)), 0.0)


def _compose(u: HarmonicField, tau: ConformalMap) -> _Composition:
    rot, lam, frame = tau._cartan()
    return _Composition(_rotated(u, rot), lam, frame)


def transform(
    u: HarmonicField,
    tau: ConformalMap,
    l_max: int,
    grid: SphericalGrid,
    tail_threshold: float | None = 1e-6,
) -> Projection:
    """Transport u along tau: project u(tau(w)) + psi(w) to band l_max.

    Works for reflect maps as well; the Jacobian (hence psi) is insensitive
    to the reflection.  Only (u - mean(u)) o tau goes through quadrature;
    mean(u) and psi_tau are added in closed form.  In the dilation's frame
    psi_tau is psi of dilation(lam), zonal, as psi_field gives it: psi_l0 =
    (-1)^l g_l(t) sqrt(2l + 1) and c_00 = -(1/2) ln cosh t - E_psi(t)/3,
    t = ln lam, from the one ``_g`` call that also gives the whole field's
    energy E (``_Composition.closed_form``).  So the tail-energy fraction is
    exact, as psi_field's: E less the kept energy, over E; at or below
    1e-14 (E(u) + E_psi) it is rounding and reads 0
    (:func:`harmonics._exact_tail`).  It is gated by ``tail_threshold``.

    The projection runs in the dilation's frame, order by order, and is rotated
    back.  There v = (u - mean(u)) o R_U, of band L_v, is at a theta row A_0 +
    sum_m (A_m cos(m phi) + B_m sin(m phi)), (A_m, B_m) v's order-m profiles at
    the dilated meridian (``_Composition.profiles``).  On ``phi_count`` uniform
    azimuths ``analyze``'s sums of these against cos(m phi) and sin(m phi) are
    exactly phi_count (A_0, 0) and phi_count/2 (A_m, B_m) once phi_count > L_v +
    l_max, and 0 at orders m > L_v: so the sums come from the first
    min(L_v, l_max) + 1 orders with no azimuth, and meet ``analyze``'s theta
    contraction directly.  Where phi_count <= L_v + l_max the sampled
    projection aliases orders m and phi_count - m into each other; this one does not.
    """
    if grid.band_limit_exact < l_max:
        raise ValueError(f"grid resolves band {grid.band_limit_exact} < requested l_max {l_max}")
    comp = _compose(HarmonicField(u.l_max, np.concatenate(([0.0], u.coeffs[1:]))), tau)
    psi, total = comp.closed_form(max(comp.field.l_max, l_max))
    sums = comp.profiles(grid)[0][: min(comp.field.l_max, l_max) + 1]  # (m, part, theta)
    sums *= grid.theta_weights / 4.0
    sums[0] *= 2.0
    coeffs = _field_of_sums(sums, grid, l_max).coeffs.copy()
    l = np.arange(l_max + 1)
    coeffs[l * (l + 1)] += np.where(l % 2, -1.0, 1.0) * psi[: l_max + 1]
    t = math.log(comp.lam)
    energy = _psi_energy(t)[0]
    coeffs[0] += u.mean() - 0.5 * math.log(math.cosh(t)) - energy / 3.0
    field = _rotated(HarmonicField(l_max, coeffs), comp.frame)
    return _exact_tail(field, total, dirichlet_energy(u) + energy, tail_threshold, "transform")


def cg_bound_slack(
    alpha: float,
    u: HarmonicField,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> float:
    """Slack of the sharp lower bound: value - (alpha - 2/3) * energy.

    Analytically nonnegative for alpha >= 2/3; anything below about -1e-8
    indicates broken quadrature.
    """
    if alpha < 2.0 / 3.0:
        raise ValueError("the lower bound requires alpha >= 2/3")
    report = chang_gui_report(alpha, u, policy)
    return report.value - (alpha - 2.0 / 3.0) * report.energy
