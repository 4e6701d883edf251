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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .config import scaled
from .extremals import _psi_of_jacobian, build_extremal
from .harmonics import (
    HarmonicField,
    Projection,
    _legendre_table,
    _rotated,
    _synthesis,
    dirichlet_energy,
    project_samples,
    synthesize,
)
from .mobius import ConformalMap, _spinor, dilation
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
    "dirichlet_invariance_check",
    "exp_moments",
    "onofri_value",
    "transform",
]


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
    Raises ConvergenceError if the values are still moving at the theta cap.

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
    u = HarmonicField(l_max, np.frombuffer(coeffs))
    mean = u.mean()
    last = []  # the values on the last two grids

    def func(g: SphericalGrid) -> np.ndarray:
        last[:] = [*last[-1:], moments(g, np.exp(2.0 * (synthesize(u, g).samples - mean)))]
        return last[-1]

    v, grid = policy.refine(func, "exponential moments", min_band=u.l_max)
    scale = math.exp(2.0 * mean)
    v = v * scale
    delta = (last[1] - last[0]) * scale
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
    broken quadrature and raises too.
    """
    mom = exp_moments(u, policy)
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
        samples are one synthesis from the order-major Legendre table at the
        image of one meridian, and the Jacobian is zonal.
        """
        t = grid.cos_theta
        meridian = np.stack([np.sqrt(np.maximum(1.0 - t * t, 0.0)), np.zeros_like(t), t], axis=-1)
        image, jac = dilation(self.lam)._image_and_jacobian(_spinor(meridian))
        table = _legendre_table(self.field.l_max, image[:, 2])
        return _synthesis(self.field, table, grid), jac


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
    to the reflection.  The projection's tail-energy fraction is returned and
    gated by ``tail_threshold``.
    """
    e = build_extremal(tau)
    comp = _compose(u, tau)
    samples, jac = comp.samples(grid)
    samples = samples + np.repeat(_psi_of_jacobian(e, jac), grid.phi_count)
    # projected in the dilation's frame and rotated back; the tail fraction
    # is a ratio of per-degree energies, which the rotation keeps
    proj = project_samples(samples, grid, l_max)
    proj = Projection(_rotated(proj.field, comp.frame), proj.tail_fraction)
    if tail_threshold is not None and proj.tail_fraction > scaled(tail_threshold):
        raise ConvergenceError(
            f"transform tail energy fraction {proj.tail_fraction:.3e} exceeds threshold"
        )
    return proj


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


class InvarianceCheck(NamedTuple):
    value: float
    tail_fraction: float


def dirichlet_invariance_check(
    u: HarmonicField,
    tau: ConformalMap,
    grid: SphericalGrid,
    l_max: int | None = None,
) -> InvarianceCheck:
    """|E(project(u o tau)) - E(u)|, with the projection tail reported separately.

    The two-dimensional Dirichlet integral is conformally invariant, so the
    residual measures only truncation and quadrature error.
    """
    if l_max is None:
        l_max = grid.band_limit_exact // 2
    # the energy is rotation-invariant, so the dilation's frame serves as well
    proj = project_samples(_compose(u, tau).samples(grid)[0], grid, l_max)
    return InvarianceCheck(
        abs(dirichlet_energy(proj.field) - dirichlet_energy(u)), proj.tail_fraction
    )
