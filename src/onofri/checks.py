"""The invariant checks, each defined once: the acceptance criteria and the
rest of the `onofri verify` suites.

A check is a function of ``(rng, policy)`` returning rows of (name, residual,
tolerance), registered in :data:`CHECKS` with its suite, seed and runtime
budget.  Rows that carry a ``claim`` make up an acceptance criterion; the
criterion's residual for that claim is the maximum over them.  The other
rows draw only after their criterion's draws, so adding one never moves a
criterion's sample.

Each check states its tolerances where it computes its residuals: precision
tolerances scale with ONOFRI_TOL_SCALE, while 0/1 flags (tolerance 0) and the
bound on a convergence ratio do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import (
    ConformalMap,
    HarmonicField,
    RefinementPolicy,
    build_extremal,
    build_grid,
    cap_area,
    center_of_mass,
    cg_bound_slack,
    chang_gui_value,
    conformal_mass,
    dilation,
    distance_to_manifold,
    euler_lagrange_residual,
    generator_com,
    generator_mass,
    homomorphism_check,
    identity_map,
    integrate,
    inversion,
    jacobian_area_oracle,
    lightcone_residual,
    lorentz_lift,
    normalize,
    onofri_value,
    psi_field,
    solve_lambda0,
    solve_x0,
    sqrt_jacobian_residual,
    stability_check,
    stereo_inverse,
    stereo_project,
    synthesize,
    transform,
    translation,
    translation_to,
)
from .config import scaled
from .lorentz import ETA, lorentz_residuals
from .normalize import transported_com
from .sampling import (
    random_conformal,
    random_field,
    random_rotation,
    random_translation_point,
    random_unimodular,
    random_unit_vector,
)
from .sphere import DEFAULT_POLICY

__all__ = ["Row", "Check", "CHECKS", "SUITES"]


class Row:
    """One verified quantity: residual <= tolerance, optionally part of a claim."""

    def __init__(self, name: str, residual: float, tol: float, claim: str | None = None):
        self.name = name
        self.residual = float(residual)
        self.tol = tol
        self.claim = claim
        self.ok = self.residual <= tol

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": self.residual,
            "tolerance": self.tol,
            "pass": self.ok,
        }


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    seed: int
    budget: float  # seconds
    run: Callable[[np.random.Generator, RefinementPolicy], list[Row]]
    criterion: int | None = None

    def rows(self, policy: RefinementPolicy = DEFAULT_POLICY, seed: int = 0) -> list[Row]:
        """Run the check on the generator seeded with ``self.seed + seed``."""
        return self.run(np.random.default_rng(self.seed + seed), policy)


def geometry(rng, policy) -> list[Row]:
    grid = build_grid(48)
    nodes = grid.nodes
    fwd = nodes[:: max(1, nodes.shape[0] // 400)]
    back = np.array([stereo_inverse(stereo_project(w)) for w in fwd])
    rows = [
        Row("stereo round trip", np.max(np.abs(back - fwd)), scaled(1e-13)),
        Row("weights sum to 1", abs(grid.weights.sum() - 1.0), scaled(1e-14)),
        Row("weights positive", float(np.min(grid.weights) <= 0.0), 0.0),
        Row("integrate const 1", abs(integrate(grid, np.ones(grid.node_count)) - 1.0), scaled(1e-15)),
        Row("integrate w3 (odd)", abs(integrate(grid, nodes[:, 2])), scaled(1e-15)),
        Row("integrate w3^2 - 1/3", abs(integrate(grid, nodes[:, 2] ** 2) - 1.0 / 3.0), scaled(1e-14)),
    ]
    worst = 0.0
    probe = min(grid.band_limit_exact, 12)
    for l in range(1, probe + 1):
        for m in range(-l, l + 1):
            f = HarmonicField.from_entries(l, {(l, m): 1.0})
            worst = max(worst, abs(integrate(grid, synthesize(f, grid).samples)))
    r = 0.01
    return rows + [
        Row(f"harmonics integrate to 0 (l<= {probe})", worst, scaled(1e-13)),
        Row("cap area full sphere", abs(cap_area(math.pi) - 4 * math.pi), scaled(1e-12)),
        Row("cap area hemisphere", abs(cap_area(math.pi / 2) - 2 * math.pi), scaled(1e-12)),
        Row("small cap ~ pi r^2 (rel)", abs(cap_area(r) / (math.pi * r * r) - 1.0), scaled(1e-4)),
    ]


def jacobian(rng, policy) -> list[Row]:
    south = np.array([0.0, 0.0, -1.0])
    pts = np.array([random_unit_vector(rng) for _ in range(10)])
    rot = random_rotation(rng)
    t1 = random_conformal(rng)
    t2 = random_conformal(rng)
    rho = random_rotation(rng)
    chain = t1.compose(t2).jacobian(pts) - t1.jacobian(t2.apply(pts)) * t2.jacobian(pts)
    grid = build_grid(64)
    return [
        Row("dilation(2) jacobian at south - 4", abs(dilation(2.0).jacobian(south) - 4.0), scaled(1e-13)),
        Row("dilation(2) jacobian at (1,0,0) - 0.64", abs(dilation(2.0).jacobian([1, 0, 0]) - 0.64), scaled(1e-13)),
        Row("translation jacobian at south - 0.25",
            abs(translation_to([1.0, 0.0, 0.0]).jacobian(south) - 0.25), scaled(1e-13)),
        Row("rotation jacobian == 1", np.max(np.abs(rot.jacobian(pts) - 1.0)), scaled(1e-14)),
        Row("inversion jacobian == 1", np.max(np.abs(inversion().jacobian(pts) - 1.0)), scaled(1e-14)),
        Row("chain rule", np.max(np.abs(chain)), scaled(1e-11)),
        Row("left-rotation invariance",
            np.max(np.abs(rho.compose(t1).jacobian(pts) - t1.jacobian(pts))), scaled(1e-12)),
        Row("total mass int J dw == 1", abs(integrate(grid, t1.jacobian(grid.nodes)) - 1.0), scaled(1e-9)),
        Row("area oracle, identity r=0.1",
            abs(jacobian_area_oracle(identity_map(), pts[0], 0.1) - 1.0), scaled(1e-10)),
    ]


def jacobian_area_limit(rng, policy) -> list[Row]:
    maps = [dilation(2.0), dilation(0.5), translation(1.0 + 0j), translation(0.6 + 0.3j),
            dilation(1.5).compose(translation(0.5 + 0j))]
    points = np.array(
        [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.0, -0.6, -0.8], [0.36, 0.48, 0.8]]
    )
    worst = 0.0  # deviation of the error-shrink factor from 4
    for tau in maps:
        for p in points:
            j = tau.jacobian(p)
            e1 = abs(jacobian_area_oracle(tau, p, 0.08) - j)
            e2 = abs(jacobian_area_oracle(tau, p, 0.04) - j)
            worst = max(worst, abs(e1 / e2 - 4.0))
    # a bound on a ratio, not a precision: it does not scale
    return [Row("area oracle O(r^2): |ratio-4|, 5 maps x 5 points", worst, 0.8, "area-oracle O(r^2) limit")]


def closed_form_mass_com(rng, policy) -> list[Row]:
    claim, tol = "closed-form mass/com", scaled(1e-10)
    rows = []
    for lam in (0.25, 0.5, 2.0, 4.0):
        tau = dilation(lam)
        mass = generator_mass("dilation", lam)
        rows.append(Row(f"mass dilation({lam}) = {mass:g}", abs(conformal_mass(tau, policy) - mass), tol, claim))
        com = center_of_mass(tau, policy) - generator_com("dilation", lam)
        rows.append(Row(f"com dilation({lam})", np.max(np.abs(com)), tol, claim))
    worst_m = worst_c = 0.0
    for _ in range(10):
        p = random_translation_point(rng)
        tau = translation_to(p)
        worst_m = max(worst_m, abs(conformal_mass(tau, policy) - generator_mass("translation", p)))
        com = center_of_mass(tau, policy) - generator_com("translation", p)
        worst_c = max(worst_c, float(np.max(np.abs(com))))
    return rows + [
        Row("mass of 10 random translations", worst_m, tol, claim),
        Row("com of 10 random translations", worst_c, tol, claim),
        Row("mass rotation == 1", abs(conformal_mass(random_rotation(rng), policy) - 1.0), scaled(1e-12)),
        Row("mass inversion == 1", abs(conformal_mass(inversion(), policy) - 1.0), scaled(1e-12)),
    ]


def lorentz_lift_check(rng, policy) -> list[Row]:
    claim, tol = "Lorentz lift", scaled(1e-11)
    pts = np.array([random_unit_vector(rng) for _ in range(100)])
    cone = np.concatenate([np.ones((pts.shape[0], 1)), pts], axis=1)
    eta_r = hom_r = cone_r = 0.0
    future = 1.0
    lifts = []
    for _ in range(20):
        a = random_unimodular(rng)
        b = random_unimodular(rng)
        L = lorentz_lift(a)
        lifts.append(L)
        eta_r = max(eta_r, lorentz_residuals(L)["metric"])
        hom_r = max(hom_r, homomorphism_check(a, b))
        cone_r = max(cone_r, float(np.max(lightcone_residual(a, pts))))
        future = min(future, float(np.min((cone @ L.T)[:, 0])))
    form_r = max(abs((L @ v) @ (ETA @ (L @ v)) - v @ (ETA @ v)) for L, v in zip(lifts, rng.standard_normal((20, 4))))
    return [
        Row("metric preservation M^T eta M", eta_r, tol, claim),
        Row("homomorphism residual", hom_r, tol, claim),
        Row("light-cone identity residual", cone_r, tol, claim),
        Row("quadratic form preservation", form_r, scaled(1e-10)),
        Row("future cone preserved (min t <= 0)", float(future <= 0.0), 0.0),
        Row("lift(-I) == lift(I)",
            np.max(np.abs(lorentz_lift(ConformalMap(-1, 0, 0, -1)) - np.eye(4))), scaled(1e-14)),
    ]


def conformal_invariance(rng, policy) -> list[Row]:
    # degree-8 fields composed with maps of effective dilation ~3 need band
    # ~48 before the projection tail drops below the invariance tolerance
    grid = build_grid(104)
    worst = 0.0
    for _ in range(10):
        u = random_field(rng, 8, 0.5)
        base = chang_gui_value(2.0 / 3.0, u, policy)
        for _ in range(5):
            tau = random_conformal(rng, lam_eff_cap=3.0, allow_reflect=True)
            moved = transform(u, tau, 48, grid).field
            worst = max(worst, abs(chang_gui_value(2.0 / 3.0, moved, policy) - base))
    return [Row("|I(u_tau) - I(u)| over 10 fields x 5 maps", worst, scaled(1e-6), "conformal invariance")]


def sharp_lower_bound(rng, policy) -> list[Row]:
    worst = 0.0  # most negative slack, flipped
    for _ in range(50):
        u = random_field(rng, 8, 0.5)
        for alpha in (2.0 / 3.0, 1.0, 2.0):
            worst = max(worst, -cg_bound_slack(alpha, u, policy))
    u = random_field(rng, 6, 0.3)
    value = chang_gui_value(2.0 / 3.0, u, policy)
    shifted = chang_gui_value(2.0 / 3.0, u + HarmonicField.constant(0.7), policy)
    return [
        Row("I >= (alpha - 2/3) E over 50 fields x 3 alphas", worst, scaled(1e-8), "sharp lower bound slack"),
        Row("constant-shift invariance", abs(shifted - value), scaled(1e-10)),
        Row("ordering I >= J",
            max(0.0, onofri_value(1.0, u, policy) - chang_gui_value(1.0, u, policy)), scaled(1e-10)),
        Row("nonnegativity at alpha=2/3", max(0.0, -value), scaled(1e-8)),
    ]


def normalizer_identity(rng, policy) -> list[Row]:
    # from the J^(3/2) quadrature, the oracle of build_extremal's closed form
    worst = closed = 0.0
    for _ in range(20):
        tau = random_conformal(rng, allow_reflect=True)
        e, mass, com = build_extremal(tau), conformal_mass(tau, policy), center_of_mass(tau, policy)
        c = -0.5 * math.log(mass)
        worst = max(worst, abs(math.exp(4.0 * c) - (1.0 - float(com @ com))))
        closed = max(closed, abs(e.mass - mass), np.max(np.abs(e.com - com)), abs(e.normalizer - c))
    mass2 = conformal_mass(dilation(2.0), policy)
    mass2r = conformal_mass(random_rotation(rng).compose(dilation(2.0)), policy)
    return [
        Row("normalizer identity exp(4c) = 1-|a|^2", worst, scaled(1e-8), "normalizer identity"),
        Row("left-rotation invariance of mass", abs(mass2 - mass2r), scaled(1e-10)),
        Row("mass >= 1 (Jensen floor)", max(0.0, 1.0 - mass2), scaled(1e-10)),
        Row("closed form vs quadrature, 20 maps", closed, scaled(1e-12)),
    ]


def extremal_zero_value(rng, policy) -> list[Row]:
    worst = 0.0
    for _ in range(8):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        proj = psi_field(build_extremal(tau), 32)
        worst = max(worst, abs(chang_gui_value(2.0 / 3.0, proj.field, policy)))
    return [Row("extremal zero value |I(psi)|", worst, scaled(1e-8), "extremal zero value")]


def sqrt_jacobian_identity(rng, policy) -> list[Row]:
    grid = build_grid(64)
    worst = 0.0
    for _ in range(20):
        tau = random_conformal(rng, allow_reflect=True)
        worst = max(worst, sqrt_jacobian_residual(build_extremal(tau), grid))
    generators = (dilation(0.5), dilation(2.0), translation_to(random_translation_point(rng)),
                  random_rotation(rng), inversion())
    gen_worst = max(sqrt_jacobian_residual(build_extremal(tau), grid) for tau in generators)
    return [
        Row("sqrt-J identity, 20 compositions", worst, scaled(1e-8), "pointwise sqrt-J relation"),
        Row("sqrt-J identity, generators", gen_worst, scaled(1e-10)),
    ]


def euler_lagrange(rng, policy) -> list[Row]:
    grid = build_grid(72)
    taus = [dilation(lam) for lam in (0.5, 0.8, 1.3, 2.0)]
    for _ in range(4):
        beta = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        taus.append(translation(complex(beta)))
    worst = max(euler_lagrange_residual(build_extremal(tau), 32, grid) for tau in taus)
    return [Row("Euler-Lagrange sup residual, generators", worst, scaled(1e-6), "Euler-Lagrange residual")]


def com_zeroing(rng, policy) -> list[Row]:
    worst_res = worst_oracle = worst_agree = 0.0
    for _ in range(20):
        u = random_field(rng, 8, 0.5)
        result = normalize(u, policy)
        worst_res = max(worst_res, result.residual_com_norm)
        # normalize's residual is algebraic (the Lorentz transport of the moments); the composed
        # quadrature of u o tau is its oracle on mild fields like these only (see transported_com)
        worst_oracle = max(worst_oracle, float(np.linalg.norm(transported_com(u, result.tau, policy))))
        lam_rf = solve_lambda0(u, solve_x0(u, policy), policy, method="root_find")
        worst_agree = max(worst_agree, abs(lam_rf - result.lambda0))
    return [
        Row("|com| after normalize, 20 fields", worst_res, scaled(1e-10), "COM zeroing residual"),
        Row("Lorentz vs composed quadrature", worst_oracle, scaled(1e-10)),
        Row("|lambda0 root find - closed form|", worst_agree, scaled(1e-8), "lambda0 path agreement"),
    ]


def classification(rng, policy) -> list[Row]:
    grid = build_grid(72)
    worst_tail = worst_dist = 0.0
    for _ in range(10):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        u = psi_field(build_extremal(tau), 32).field
        result = normalize(u, policy)
        moved = transform(u, result.tau, 32, grid, tail_threshold=None).field
        c = moved.coeffs.copy()
        c[0] = 0.0
        l = moved.degrees()
        worst_tail = max(worst_tail, float(np.sum(l * (l + 1) * c * c)))
        worst_dist = max(worst_dist, distance_to_manifold(u, 32, grid).distance)
    return [
        Row("energy of normalized extremals, 10 maps", worst_tail, scaled(1e-7), "normalize flattens extremals"),
        Row("distance of extremals to the manifold", worst_dist, scaled(1e-6), "distance to manifold"),
    ]


def stability_certificate(rng, policy) -> list[Row]:
    worst_slack = 0.0
    for k in range(25):
        u = random_field(rng, 6, 0.4)
        worst_slack = max(worst_slack, -stability_check(u, policy=policy, seed=k).slack)
    grid = build_grid(72)
    worst_manifold = 0.0
    for lam, beta in ((2.0, 0j), (0.7, 0.4 - 0.2j)):
        tau = dilation(lam).compose(translation(beta))
        u = psi_field(build_extremal(tau), 32).field
        rep = stability_check(u, 32, grid, policy)
        worst_manifold = max(worst_manifold, abs(rep.deficit), rep.distance)
    return [
        Row("-(deficit - distance/6), 25 fields", worst_slack, scaled(1e-8), "stability slack"),
        Row("|deficit|, distance on 2 extremals", worst_manifold, scaled(1e-7), "on-manifold zero"),
    ]


CHECKS = (
    Check("geometry", "geometry", 0, 10.0, geometry),
    Check("jacobian", "jacobian", 0, 10.0, jacobian),
    Check("jacobian_area_limit", "jacobian", 112, 60.0, jacobian_area_limit, 12),
    Check("closed_form_mass_com", "mass_com", 101, 10.0, closed_form_mass_com, 1),
    Check("lorentz_lift", "lorentz", 104, 10.0, lorentz_lift_check, 4),
    Check("conformal_invariance", "invariance", 107, 300.0, conformal_invariance, 7),
    Check("sharp_lower_bound", "invariance", 109, 180.0, sharp_lower_bound, 9),
    Check("normalizer_identity", "extremal", 102, 30.0, normalizer_identity, 2),
    Check("extremal_zero_value", "extremal", 105, 60.0, extremal_zero_value, 5),
    # the same bounded family as criterion 2
    Check("sqrt_jacobian_identity", "tauhalf", 102, 30.0, sqrt_jacobian_identity, 3),
    Check("euler_lagrange", "el", 106, 60.0, euler_lagrange, 6),
    Check("com_zeroing", "normalize", 108, 120.0, com_zeroing, 8),
    Check("classification", "normalize", 111, 300.0, classification, 11),
    Check("stability_certificate", "stability", 110, 600.0, stability_certificate, 10),
)

SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))
