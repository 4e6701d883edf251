"""Command-line interface: verification suites, evaluation, normalization,
stability sweeps, and Lorentz lifts.

Exit codes are part of the public contract: 0 = pass, 1 = violated invariant
or non-convergence, 2 = usage error.  The environment variable
ONOFRI_TOL_SCALE multiplies every tolerance (for slow-hardware CI).  All
output is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import (
    ConformalMap,
    ConvergenceError,
    HarmonicField,
    MobiusMap,
    RefinementPolicy,
    build_extremal,
    build_grid,
    cap_area,
    center_of_mass,
    chang_gui_report,
    chang_gui_value,
    conformal_mass,
    dilation,
    euler_lagrange_residual,
    field_from_json,
    field_to_json,
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
    sqrt_jacobian_residual,
    stability_check,
    stereo_inverse,
    stereo_project,
    synthesize,
    transform,
    translation_to,
)
from .config import tol_scale
from .lorentz import ETA, lorentz_residuals
from .sampling import (
    random_conformal,
    random_field,
    random_rotation,
    random_translation_point,
    random_unimodular,
    random_unit_vector,
)

SUITES = (
    "geometry",
    "jacobian",
    "mass_com",
    "lorentz",
    "invariance",
    "extremal",
    "tauhalf",
    "el",
    "all",
)


@dataclass
class RunConfig:
    grid_band: int = 48
    oversample: float = 1.0
    theta_cap: int = 512
    l_max: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.grid_band < 0 or self.oversample < 1.0 or self.l_max < 0:
            raise ValueError("invalid grid settings")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def policy(self) -> RefinementPolicy:
        start = min(24, max(0, self.theta_cap - 1))
        return RefinementPolicy(start_band=start, theta_cap=self.theta_cap)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tol_scale"] = tol_scale()
        return d


class Row:
    """One verification line: name, residual, tolerance."""

    def __init__(self, name: str, residual: float, tol: float):
        self.name = name
        self.residual = float(residual)
        self.tol = tol * tol_scale()
        self.ok = self.residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": self.residual,
            "tolerance": self.tol,
            "pass": self.ok,
        }


def _print_rows(title: str, rows: list[Row]) -> bool:
    width = max(len(r.name) for r in rows) + 2
    print(f"[{title}]")
    for r in rows:
        mark = "pass" if r.ok else "FAIL"
        print(f"  {r.name:<{width}} {r.residual:12.3e}  <= {r.tol:8.1e}  {mark}")
    return all(r.ok for r in rows)


# ---------------------------------------------------------------------------
# verification suites

def _suite_geometry(cfg: RunConfig) -> list[Row]:
    grid = build_grid(cfg.grid_band, cfg.oversample)
    nodes = grid.nodes
    rows = []
    back = np.array([stereo_inverse(stereo_project(w)) for w in nodes[:: max(1, nodes.shape[0] // 400)]])
    fwd = nodes[:: max(1, nodes.shape[0] // 400)]
    rows.append(Row("stereo round trip", np.max(np.abs(back - fwd)), 1e-13))
    rows.append(Row("weights sum to 1", abs(grid.weights.sum() - 1.0), 1e-14))
    rows.append(Row("weights positive", float(np.min(grid.weights) <= 0.0), 0.5))
    rows.append(Row("integrate const 1", abs(integrate(grid, np.ones(grid.node_count)) - 1.0), 1e-15))
    rows.append(Row("integrate w3 (odd)", abs(integrate(grid, nodes[:, 2])), 1e-15))
    rows.append(Row("integrate w3^2 - 1/3", abs(integrate(grid, nodes[:, 2] ** 2) - 1.0 / 3.0), 1e-14))
    worst = 0.0
    probe = min(grid.band_limit_exact, 12)
    for l in range(1, probe + 1):
        for m in range(-l, l + 1):
            f = HarmonicField.from_entries(l, {(l, m): 1.0})
            worst = max(worst, abs(integrate(grid, synthesize(f, grid).samples)))
    rows.append(Row(f"harmonics integrate to 0 (l<= {probe})", worst, 1e-13))
    rows.append(Row("cap area full sphere", abs(cap_area(math.pi) - 4 * math.pi), 1e-12))
    rows.append(Row("cap area hemisphere", abs(cap_area(math.pi / 2) - 2 * math.pi), 1e-12))
    r = 0.01
    rows.append(Row("small cap ~ pi r^2 (rel)", abs(cap_area(r) / (math.pi * r * r) - 1.0), 1e-4))
    return rows


def _suite_jacobian(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    south = np.array([0.0, 0.0, -1.0])
    rows.append(Row("dilation(2) jacobian at south - 4", abs(dilation(2.0).jacobian(south) - 4.0), 1e-13))
    rows.append(Row("dilation(2) jacobian at (1,0,0) - 0.64", abs(dilation(2.0).jacobian([1, 0, 0]) - 0.64), 1e-13))
    rows.append(
        Row("translation jacobian at south - 0.25",
            abs(translation_to([1.0, 0.0, 0.0]).jacobian(south) - 0.25), 1e-13)
    )
    pts = np.array([random_unit_vector(rng) for _ in range(10)])
    rows.append(Row("rotation jacobian == 1", np.max(np.abs(random_rotation(rng).jacobian(pts) - 1.0)), 1e-14))
    rows.append(Row("inversion jacobian == 1", np.max(np.abs(inversion().jacobian(pts) - 1.0)), 1e-14))
    t1 = random_conformal(rng)
    t2 = random_conformal(rng)
    chain = np.abs(
        t1.compose(t2).jacobian(pts) - t1.jacobian(t2.apply(pts)) * t2.jacobian(pts)
    )
    rows.append(Row("chain rule", np.max(chain), 1e-11))
    rho = random_rotation(rng)
    rows.append(
        Row("left-rotation invariance", np.max(np.abs(rho.compose(t1).jacobian(pts) - t1.jacobian(pts))), 1e-12)
    )
    grid = build_grid(max(cfg.grid_band, 64))
    rows.append(
        Row("total mass int J dw == 1", abs(integrate(grid, t1.jacobian(grid.nodes)) - 1.0), 1e-9)
    )
    rows.append(Row("area oracle, identity r=0.1", abs(jacobian_area_oracle(identity_map(), pts[0], 0.1) - 1.0), 1e-10))
    e1 = abs(jacobian_area_oracle(dilation(2.0), south, 0.05) - 4.0)
    e2 = abs(jacobian_area_oracle(dilation(2.0), south, 0.025) - 4.0)
    rows.append(Row("area oracle O(r^2): |ratio-4|", abs(e1 / e2 - 4.0), 0.8))
    return rows


def _suite_mass_com(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    rows = []
    for lam in (0.25, 0.5, 2.0, 4.0):
        tau = dilation(lam)
        rows.append(
            Row(f"mass dilation({lam}) = {generator_mass('dilation', lam):g}",
                abs(conformal_mass(tau, policy) - generator_mass("dilation", lam)), 1e-10)
        )
        rows.append(
            Row(f"com dilation({lam})",
                np.max(np.abs(center_of_mass(tau, policy) - generator_com("dilation", lam))), 1e-10)
        )
    worst_m = worst_c = 0.0
    for _ in range(10):
        p = random_translation_point(rng)
        tau = translation_to(p)
        worst_m = max(worst_m, abs(conformal_mass(tau, policy) - generator_mass("translation", p)))
        worst_c = max(worst_c, np.max(np.abs(center_of_mass(tau, policy) - generator_com("translation", p))))
    rows.append(Row("mass of 10 random translations", worst_m, 1e-10))
    rows.append(Row("com of 10 random translations", worst_c, 1e-10))
    rows.append(Row("mass rotation == 1", abs(conformal_mass(random_rotation(rng), policy) - 1.0), 1e-12))
    rows.append(Row("mass inversion == 1", abs(conformal_mass(inversion(), policy) - 1.0), 1e-12))
    return rows


def _suite_lorentz(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    eta_r = hom_r = cone_r = form_r = 0.0
    future = 1.0
    pts = np.array([random_unit_vector(rng) for _ in range(100)])
    for _ in range(20):
        a = random_unimodular(rng)
        b = random_unimodular(rng)
        L = lorentz_lift(a)
        eta_r = max(eta_r, float(np.max(np.abs(L.T @ ETA @ L - ETA))))
        hom_r = max(hom_r, homomorphism_check(a, b))
        cone_r = max(cone_r, float(np.max(lightcone_residual(ConformalMap(a), pts))))
        v = rng.standard_normal(4)
        form_r = max(form_r, abs((L @ v) @ (ETA @ (L @ v)) - v @ (ETA @ v)))
        cone = np.concatenate([np.ones((pts.shape[0], 1)), pts], axis=1)
        future = min(future, float(np.min((cone @ L.T)[:, 0])))
    rows = [
        Row("metric preservation M^T eta M", eta_r, 1e-11),
        Row("homomorphism residual", hom_r, 1e-11),
        Row("light-cone identity residual", cone_r, 1e-11),
        Row("quadratic form preservation", form_r, 1e-10),
        Row("future cone preserved (min t <= 0)", float(future <= 0.0), 0.5),
        Row("lift(-I) == lift(I)",
            float(np.max(np.abs(lorentz_lift(MobiusMap(-1, 0, 0, -1)) - np.eye(4)))), 1e-14),
    ]
    return rows


def _suite_invariance(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    # degree-8 fields composed with maps of effective dilation ~3 need band
    # ~48 before the projection tail drops below the invariance tolerance
    l_max = max(cfg.l_max, 48)
    grid = build_grid(max(2 * l_max + 8, 104), cfg.oversample)
    worst = 0.0
    for _ in range(5):
        u = random_field(rng, 8, 0.5)
        base = chang_gui_value(2.0 / 3.0, u, policy)
        for _ in range(3):
            tau = random_conformal(rng, lam_eff_cap=3.0, allow_reflect=True)
            moved = transform(u, tau, l_max, grid, policy=policy).field
            worst = max(worst, abs(chang_gui_value(2.0 / 3.0, moved, policy) - base))
    rows = [Row("|I(u_tau) - I(u)| over 5 fields x 3 maps", worst, 1e-6)]
    u = random_field(rng, 6, 0.3)
    shifted = u + HarmonicField.constant(0.7)
    rows.append(
        Row("constant-shift invariance",
            abs(chang_gui_value(2.0 / 3.0, shifted, policy) - chang_gui_value(2.0 / 3.0, u, policy)), 1e-10)
    )
    rep = chang_gui_report(1.0, u, policy)
    rows.append(
        Row("ordering I >= J", max(0.0, onofri_value(1.0, u, policy) - rep.value), 1e-10)
    )
    rows.append(Row("nonnegativity at alpha=2/3", max(0.0, -chang_gui_value(2.0 / 3.0, u, policy)), 1e-8))
    return rows


def _suite_extremal(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    grid = build_grid(max(2 * cfg.l_max + 8, 72), cfg.oversample)
    id_worst = zero_worst = 0.0
    for _ in range(8):
        tau = random_conformal(rng, lam_eff_cap=6.0, allow_reflect=True)
        e = build_extremal(tau, policy)
        id_worst = max(
            id_worst, abs(math.exp(4.0 * e.normalizer) - (1.0 - float(e.com @ e.com)))
        )
        zero_worst = max(
            zero_worst,
            abs(chang_gui_value(2.0 / 3.0, psi_field(e, cfg.l_max, grid).field, policy)),
        )
    e2 = build_extremal(dilation(2.0), policy)
    rho = random_rotation(rng)
    e2r = build_extremal(rho.compose(dilation(2.0)), policy)
    rows = [
        Row("normalizer identity exp(4c) = 1-|a|^2", id_worst, 1e-8),
        Row("extremal zero value |I(psi)|", zero_worst, 1e-8),
        Row("left-rotation invariance of mass", abs(e2.mass - e2r.mass), 1e-10),
        Row("mass >= 1 (Jensen floor)", max(0.0, 1.0 - e2.mass), 1e-10),
    ]
    return rows


def _suite_tauhalf(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    grid = build_grid(max(cfg.grid_band, 64), cfg.oversample)
    gen_worst = 0.0
    for tau in (dilation(0.5), dilation(2.0), translation_to(random_translation_point(rng)),
                random_rotation(rng), inversion()):
        gen_worst = max(gen_worst, sqrt_jacobian_residual(build_extremal(tau, policy), grid))
    comp_worst = 0.0
    for _ in range(8):
        tau = random_conformal(rng)
        comp_worst = max(comp_worst, sqrt_jacobian_residual(build_extremal(tau, policy), grid))
    return [
        Row("sqrt-J identity, generators", gen_worst, 1e-10),
        Row("sqrt-J identity, compositions", comp_worst, 1e-8),
    ]


def _suite_el(cfg: RunConfig) -> list[Row]:
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    l_max = max(cfg.l_max, 32)
    grid = build_grid(max(2 * l_max + 8, 72), cfg.oversample)
    worst = 0.0
    taus = [dilation(0.5), dilation(2.0), random_rotation(rng)]
    for _ in range(3):
        beta = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        taus.append(translation_to(stereo_inverse(beta)))
    for tau in taus:
        worst = max(worst, euler_lagrange_residual(build_extremal(tau, policy), l_max, grid))
    return [Row("Euler-Lagrange sup residual, generators", worst, 1e-6)]


_SUITE_FNS = {
    "geometry": _suite_geometry,
    "jacobian": _suite_jacobian,
    "mass_com": _suite_mass_com,
    "lorentz": _suite_lorentz,
    "invariance": _suite_invariance,
    "extremal": _suite_extremal,
    "tauhalf": _suite_tauhalf,
    "el": _suite_el,
}


# ---------------------------------------------------------------------------
# commands

def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_field(path: str) -> HarmonicField:
    try:
        return field_from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read field file {path}: {exc}") from exc


class UsageError(Exception):
    pass


def cmd_verify(args, cfg: RunConfig) -> int:
    names = list(_SUITE_FNS) if args.suite == "all" else [args.suite]
    ok = True
    report = {"config": cfg.to_dict(), "suites": {}}
    for name in names:
        rows = _SUITE_FNS[name](cfg)
        ok = _print_rows(name, rows) and ok
        report["suites"][name] = [r.to_dict() for r in rows]
    if args.out:
        _emit(report, args.out)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_eval(args, cfg: RunConfig) -> int:
    u = _load_field(args.field)
    rep = chang_gui_report(args.alpha, u, cfg.policy())
    payload = {"config": cfg.to_dict(), "report": rep.to_dict()}
    _emit(payload, args.out)
    return 0


def cmd_normalize(args, cfg: RunConfig) -> int:
    u = _load_field(args.field)
    result = normalize(u, cfg.policy(), method=args.method)
    grid = build_grid(max(2 * cfg.l_max + 8, 72), cfg.oversample)
    moved = transform(u, result.tau, cfg.l_max, grid, policy=cfg.policy())
    out_field = Path(args.field).with_suffix(".normalized.json")
    out_field.write_text(field_to_json(moved.field) + "\n")
    payload = {
        "config": cfg.to_dict(),
        "result": result.to_dict(),
        "transformed_field": str(out_field),
        "projection_tail_fraction": moved.tail_fraction,
    }
    _emit(payload, args.out)
    return 0


def cmd_stability(args, cfg: RunConfig) -> int:
    rows = []
    reports = []
    if args.random is not None:
        rng = np.random.default_rng(cfg.seed)
        for k in range(args.random):
            u = random_field(rng, min(cfg.l_max, 6), 0.4)
            rep = stability_check(u, policy=cfg.policy())
            rows.append((cfg.seed + k, rep))
            reports.append(rep)
    else:
        if args.field is None:
            raise UsageError("stability needs a field file or --random N")
        u = _load_field(args.field)
        rep = stability_check(u, policy=cfg.policy())
        rows.append((cfg.seed, rep))
        reports.append(rep)
    csv_path = args.csv or (Path(args.field).with_suffix(".stability.csv") if args.field else None)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "deficit", "distance", "slack", "log_lambda", "beta1", "beta2"])
            for seed, rep in rows:
                writer.writerow(
                    [seed, repr(rep.deficit), repr(rep.distance), repr(rep.slack),
                     repr(rep.argmin.log_lambda), repr(rep.argmin.beta1), repr(rep.argmin.beta2)]
                )
    payload = {
        "config": cfg.to_dict(),
        "reports": [rep.to_dict() for rep in reports],
        "min_slack": min(rep.slack for rep in reports),
    }
    _emit(payload, args.out)
    return 0


_LIFT_SAMPLE_POINTS = np.array(
    [
        [0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.6, 0.0, 0.8],
        [0.0, -0.6, -0.8],
    ]
)


def cmd_lift(args, cfg: RunConfig) -> int:
    try:
        data = json.loads(Path(args.mobius).read_text())
        a, b = complex(*data["a"]), complex(*data["b"])
        c, d = complex(*data["c"]), complex(*data["d"])
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read Mobius file {args.mobius}: {exc}") from exc
    if data.get("reflect"):
        raise UsageError("the Lorentz lift is defined for orientation-preserving maps only")
    det = a * d - b * c
    if abs(det - 1.0) > 1e-12:
        print(f"warning: determinant {det} renormalized to 1", file=sys.stderr)
    m = MobiusMap(a, b, c, d)
    L = lorentz_lift(m)
    residuals = lorentz_residuals(L)
    residuals["lightcone"] = float(np.max(lightcone_residual(ConformalMap(m), _LIFT_SAMPLE_POINTS)))
    payload = {
        "config": cfg.to_dict(),
        "matrix": [float(x) for x in L.reshape(-1)],
        "residuals": residuals,
    }
    _emit(payload, args.out)
    worst = max(residuals["metric"], residuals["lightcone"])
    return 0 if worst <= 1e-10 * tol_scale() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onofri",
        description="Sharp conformal functional inequalities on the 2-sphere",
    )
    parser.add_argument("--grid-band", type=int, default=48, help="base grid band limit")
    parser.add_argument("--oversample", type=float, default=1.0)
    parser.add_argument("--theta-cap", type=int, default=512, help="refinement cap on theta nodes")
    parser.add_argument("--lmax", type=int, default=32, help="projection band limit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON payload here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)

    p = sub.add_parser("eval", help="evaluate the sharp functional on a field file")
    p.add_argument("field")
    p.add_argument("--alpha", type=float, default=2.0 / 3.0)

    p = sub.add_parser("normalize", help="zero the center of mass of e^{2u}")
    p.add_argument("field")
    p.add_argument("--method", choices=("closed_form", "root_find", "hybrid"),
                   default="closed_form")

    p = sub.add_parser("stability", help="stability certificate for fields")
    p.add_argument("field", nargs="?")
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--csv", help="CSV sweep output path")

    p = sub.add_parser("lift", help="Lorentz lift of a Mobius matrix file")
    p.add_argument("mobius")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "normalize": cmd_normalize,
    "stability": cmd_stability,
    "lift": cmd_lift,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(
            grid_band=args.grid_band,
            oversample=args.oversample,
            theta_cap=args.theta_cap,
            l_max=args.lmax,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
