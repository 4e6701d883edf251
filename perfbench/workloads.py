"""The four benchmark workloads: input generation, the timed call, and output checks.

Each workload draws its list of inputs from one ``numpy`` generator seeded by
the benchmark's ``--seed``; the list depends only on the seed and its length.
The library receives only the generated inputs.  ``run`` is the timed call;
``check`` runs after the timed phase and returns one :class:`Check` per
acceptance tolerance; ``record`` gives the floats that enter the output digest.
``nominal_s`` (seconds per input on the reference machine) and ``passes`` fix
how many inputs a run of a given length times, and how often each.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from onofri import (
    HarmonicField,
    analyze,
    build_extremal,
    build_grid,
    chang_gui_report,
    dilation,
    dirichlet_energy,
    distance_to_manifold,
    evaluate_at,
    exp_moments,
    identity_map,
    integrate,
    normalize,
    onofri_value,
    psi_field,
    solve_lambda0,
    solve_x0,
    stability_check,
    synthesize,
    transform,
)
from onofri.sampling import random_conformal, random_field, random_rotation

ALPHA = 2.0 / 3.0
REFERENCE_BAND = 255


class Check(NamedTuple):
    """One acceptance tolerance: passes when ``residual <= tol``.

    A one-sided condition ``value >= -tol`` enters as the violation
    ``max(0, -value)``, which is zero when the value is nonnegative.
    """

    name: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.residual <= self.tol)


def _violation(value: float) -> float:
    return max(0.0, -float(value))


def reference_values(state: dict, u) -> tuple[float, float]:
    """Sharp and classical functionals of ``u`` on a fixed fine grid.

    Computed with the public ``synthesize`` and ``integrate`` on
    ``build_grid(255)``, outside the timed phase; the grid is kept in ``state``.
    """
    if "reference_grid" not in state:
        state["reference_grid"] = build_grid(REFERENCE_BAND)
    grid = state["reference_grid"]
    nodes = grid.nodes
    e2u = np.exp(2.0 * synthesize(u, grid).samples)
    mass = integrate(grid, e2u)
    moment = np.array([integrate(grid, nodes[:, i] * e2u) for i in range(3)])
    base = ALPHA * dirichlet_energy(u) + 2.0 * u.mean()
    sharp = base - 0.5 * math.log(mass * mass - float(moment @ moment))
    return sharp, base - math.log(mass)


def _warm_spectral(grid, l_max: int, wide: int) -> None:
    # fills the Legendre tables a workload's fixed grid needs at its bands
    for band in {l_max, wide}:
        analyze(synthesize(HarmonicField.zero(l_max), grid), band)


class Workload:
    """Defaults shared by the workloads: one pass, inputs drawn one by one."""

    passes = 1

    def make_inputs(self, rng, count: int) -> list:
        return [self.make_input(rng, k) for k in range(count)]

    def wrong_error(self, message: str) -> bool:
        """Whether a ``ConvergenceError`` reports a wrong result, not a refusal."""
        return False


class Certify(Workload):
    """``stability_check(u, seed=k)`` on random band-6 fields of amplitude 0.4."""

    name = "certify"
    why = (
        "stability certificate on random band-6 fields: the distance search, "
        "bound by ConformalMap.jacobian and analyze, with a cheap call into it"
    )
    nominal_s = 0.8

    def setup(self) -> dict:
        grid = build_grid(48)  # stability_check's default grid at band 6
        _warm_spectral(grid, 6, 6)
        exp_moments(HarmonicField.zero(6))
        return {}

    def make_input(self, rng, k):
        return random_field(rng, 6, 0.4), k

    def run(self, state, inp):
        u, k = inp
        return stability_check(u, seed=k)

    def wrong_error(self, message: str) -> bool:
        # stability_check raises this itself when a converged run breaks the
        # certificate: a wrong answer, not an honest refusal
        return "stability certificate violated" in message

    def check(self, state, inp, rep) -> list[Check]:
        u, _ = inp
        ref_sharp, _ = reference_values(state, u)
        return [
            Check("certificate slack >= -1e-8", _violation(rep.slack), 1e-8),
            Check("|deficit - reference| <= 1e-8", abs(rep.deficit - ref_sharp), 1e-8),
        ]

    def record(self, rep) -> list[float]:
        m = rep.argmin
        return [rep.deficit, rep.distance, rep.slack, m.log_lambda, m.beta1, m.beta2]


class Classify(Workload):
    """Extremal fields of random conformal maps: normalize, flatten, measure distance."""

    name = "classify"
    why = (
        "extremals of random conformal maps at band 32: build, normalize, transform "
        "and the distance search with a costly analyze in every call"
    )
    nominal_s = 3.5
    LAM_EFF_CAP = 6.0

    def setup(self) -> dict:
        grid = build_grid(72)
        _warm_spectral(grid, 32, 64)
        build_extremal(identity_map())
        exp_moments(HarmonicField.zero(32))
        return {"grid": grid}

    def make_inputs(self, rng, count: int) -> list:
        # the first map sits at the dilation cap, between random rotations, so
        # every run meets the family's most concentrated field and its largest
        # refinement grids, and peak memory compares across seeds
        at_cap = random_rotation(rng).compose(dilation(self.LAM_EFF_CAP))
        at_cap = at_cap.compose(random_rotation(rng))
        rest = [
            random_conformal(rng, lam_eff_cap=self.LAM_EFF_CAP, allow_reflect=True)
            for _ in range(count - 1)
        ]
        return [at_cap, *rest]

    def run(self, state, tau):
        grid = state["grid"]
        u = psi_field(build_extremal(tau), 32, grid).field
        result = normalize(u)
        moved = transform(u, result.tau, 32, grid, tail_threshold=None).field
        dist = distance_to_manifold(u, 32, grid)
        return result, moved, dist

    @staticmethod
    def flattened_tail(moved) -> float:
        c = moved.coeffs.copy()
        c[0] = 0.0
        l = moved.degrees()
        return float(np.sum(l * (l + 1) * c * c))

    def check(self, state, tau, out) -> list[Check]:
        _, moved, dist = out
        return [
            Check("distance to manifold <= 1e-6", float(dist.distance), 1e-6),
            Check("flattened tail energy <= 1e-7", self.flattened_tail(moved), 1e-7),
        ]

    def record(self, out) -> list[float]:
        result, moved, dist = out
        return [
            result.x0.real, result.x0.imag, result.lambda0, result.residual_com_norm,
            dist.distance, float(dist.nfev), *moved.coeffs,
        ]


class Recenter(Workload):
    """``normalize`` plus the root-find check of lambda0 and the transform to band 32."""

    name = "recenter"
    why = (
        "re-centering of random band-8 fields with the root-find cross-check and a "
        "band-32 transform: scattered evaluate_at, apply and jacobian"
    )
    nominal_s = 0.95

    def setup(self) -> dict:
        grid = build_grid(72)
        _warm_spectral(grid, 32, 64)
        exp_moments(HarmonicField.zero(8))
        evaluate_at(HarmonicField.zero(8), grid.nodes[:8])
        return {"grid": grid}

    def make_input(self, rng, k):
        return random_field(rng, 8, 0.5)

    def run(self, state, u):
        result = normalize(u)
        lam_rf = solve_lambda0(u, solve_x0(u), method="root_find")
        proj = transform(u, result.tau, 32, state["grid"])
        return result, lam_rf, proj

    def check(self, state, u, out) -> list[Check]:
        result, lam_rf, proj = out
        return [
            Check("COM residual <= 1e-10", float(result.residual_com_norm), 1e-10),
            Check("|lambda0 root-find - closed form| <= 1e-8", abs(lam_rf - result.lambda0), 1e-8),
            Check("transform tail fraction <= 1e-6", float(proj.tail_fraction), 1e-6),
        ]

    def record(self, out) -> list[float]:
        result, lam_rf, proj = out
        return [
            result.x0.real, result.x0.imag, result.lambda0, result.residual_com_norm,
            lam_rf, proj.tail_fraction, *proj.field.coeffs,
        ]


class Evaluate(Workload):
    """Sharp and classical functionals on fields of band 8 or 16 and spread amplitude."""

    name = "evaluate"
    why = (
        "sharp and classical functionals on band-8/16 fields of log-uniform amplitude "
        "0.25-3: adaptive refinement, synthesize and exp_moments only (control)"
    )
    nominal_s = 0.0063
    passes = 5
    AMPLITUDE = (0.25, 3.0)

    def setup(self) -> dict:
        for band in (8, 16):
            exp_moments(HarmonicField.zero(band))
        return {}

    def make_inputs(self, rng, count: int) -> list:
        # log-uniform amplitudes, stratified: input k draws from its own one of
        # ``count`` equal slices of [log 0.25, log 3], the slices in random
        # order, so every list spans the range and its cost varies little by seed
        lo, hi = (math.log(a) for a in self.AMPLITUDE)
        slices = rng.permutation(count)
        inputs = []
        for k in range(count):
            band = 8 if k % 2 == 0 else 16
            t = (slices[k] + rng.uniform()) / count
            inputs.append(random_field(rng, band, math.exp(lo + t * (hi - lo))))
        return inputs

    def run(self, state, u):
        return chang_gui_report(ALPHA, u), onofri_value(ALPHA, u)

    def check(self, state, u, out) -> list[Check]:
        rep, classical = out
        ref_sharp, ref_classical = reference_values(state, u)
        return [
            Check("|sharp - reference| <= 1e-8", abs(rep.value - ref_sharp), 1e-8),
            Check("|classical - reference| <= 1e-8", abs(classical - ref_classical), 1e-8),
            Check("sharp >= -1e-8", _violation(rep.value), 1e-8),
            Check("sharp >= classical - 1e-10", _violation(rep.value - classical), 1e-10),
        ]

    def record(self, out) -> list[float]:
        rep, classical = out
        return [rep.value, classical, rep.lorentzian, rep.log_mass, float(rep.grid["theta_count"])]


WORKLOADS = {w.name: w for w in (Certify(), Classify(), Recenter(), Evaluate())}
