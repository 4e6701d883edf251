"""Command-line interface: verification suites, evaluation, normalization,
stability sweeps, and Lorentz lifts.

Exit codes are part of the public contract: 0 = pass, 1 = violated invariant
or non-convergence, 2 = usage error.  The environment variable
ONOFRI_TOL_SCALE multiplies every precision tolerance (for slow-hardware CI);
0/1 flags and the area-oracle ratio bound do not scale.  All output is
deterministic for a fixed config and seed.
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
    RefinementPolicy,
    build_grid,
    chang_gui_report,
    field_from_json,
    field_to_json,
    lightcone_residual,
    lorentz_lift,
    normalize,
    stability_check,
    transform,
)
from .checks import CHECKS, SUITES, Row
from .config import tol_scale
from .lorentz import lorentz_residuals
from .sampling import random_field


@dataclass
class RunConfig:
    theta_cap: int = 512
    l_max: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.theta_cap < 1 or self.l_max < 0:
            raise UsageError("invalid grid settings")
        if not 0 <= self.seed < 2**64:
            raise UsageError("seed must be a 64-bit unsigned integer")
        try:
            tol_scale()  # read once before dispatch, so no check runs at a bad scale
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def policy(self) -> RefinementPolicy:
        return RefinementPolicy(theta_cap=self.theta_cap)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tol_scale"] = tol_scale()
        return d


def _print_rows(title: str, rows: list[Row]) -> bool:
    width = max(len(r.name) for r in rows) + 2
    print(f"[{title}]")
    for r in rows:
        mark = "pass" if r.ok else "FAIL"
        print(f"  {r.name:<{width}} {r.residual:12.3e}  <= {r.tol:8.1e}  {mark}")
    return all(r.ok for r in rows)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_field(path: str) -> HarmonicField:
    try:
        return field_from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read field file {path}: {exc}") from exc


class UsageError(Exception):
    pass


def cmd_verify(args, cfg: RunConfig) -> int:
    """Run a suite's registered checks; only --seed and --theta-cap apply."""
    policy = cfg.policy()
    ok = True
    report = {"config": cfg.to_dict(), "suites": {}}
    for suite in SUITES if args.suite == "all" else (args.suite,):
        rows = [row for check in CHECKS if check.suite == suite for row in check.rows(policy, cfg.seed)]
        ok = _print_rows(suite, rows) and ok
        report["suites"][suite] = [r.to_dict() for r in rows]
    if args.out:
        _emit(report, args.out)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_eval(args, cfg: RunConfig) -> int:
    if not math.isfinite(args.alpha):
        raise UsageError(f"--alpha must be finite, got {args.alpha}")
    u = _load_field(args.field)
    rep = chang_gui_report(args.alpha, u, cfg.policy())
    payload = {"config": cfg.to_dict(), "report": rep.to_dict()}
    _emit(payload, args.out)
    return 0


def cmd_normalize(args, cfg: RunConfig) -> int:
    u = _load_field(args.field)
    result = normalize(u, cfg.policy())
    grid = build_grid(max(2 * cfg.l_max + 8, 72))
    moved = transform(u, result.tau, cfg.l_max, grid)
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
    if args.random is not None:
        if args.field is not None:
            raise UsageError("stability takes a field file or --random N, not both")
        if args.random < 1:
            raise UsageError("--random needs N >= 1")
        # row k is labelled and drawn by its own seed, so one row reruns alone
        for seed in range(cfg.seed, cfg.seed + args.random):
            u = random_field(np.random.default_rng(seed), min(cfg.l_max, 6), 0.4)
            rows.append((seed, stability_check(u, policy=cfg.policy())))
    else:
        if args.field is None:
            raise UsageError("stability needs a field file or --random N")
        u = _load_field(args.field)
        rep = stability_check(u, policy=cfg.policy())
        rows.append((cfg.seed, rep))
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
        "reports": [rep.to_dict() for _, rep in rows],
        "min_slack": min(rep.slack for _, rep in rows),
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
        tau = ConformalMap.from_dict(data)  # the map JSON's format: each entry one [re, im] pair
        a, b, c, d = (complex(*data[k]) for k in "abcd")
        det = a * d - b * c
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read Mobius file {args.mobius}: {exc}") from exc
    if tau.reflect:
        raise UsageError("the Lorentz lift is defined for orientation-preserving maps only")
    if abs(det - 1.0) > 1e-12:
        print(f"warning: determinant {det} renormalized to 1", file=sys.stderr)
    L = lorentz_lift(tau)
    residuals = lorentz_residuals(L)
    residuals["lightcone"] = float(np.max(lightcone_residual(tau, _LIFT_SAMPLE_POINTS)))
    payload = {
        "config": cfg.to_dict(),
        "matrix": [float(x) for x in L.reshape(-1)],
        "residuals": residuals,
    }
    _emit(payload, args.out)
    worst = max(residuals["metric"], residuals["lightcone"])
    return 0 if worst <= 1e-10 * tol_scale() else 1


def _global_parser(**kwargs) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onofri", **kwargs)
    parser.add_argument("--theta-cap", type=int, default=512, help="refinement cap on theta nodes")
    parser.add_argument("--lmax", type=int, default=32, help="projection band limit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON payload here instead of stdout")
    return parser


def _unknown_global_options(argv) -> list[str]:
    """Options before the subcommand that no global option matches; argparse
    would name their value, taken for the subcommand, instead."""
    scan = _global_parser(add_help=False)
    scan.add_argument("-h", "--help", action="store_true")
    scan.add_argument("rest", nargs=argparse.REMAINDER)
    return scan.parse_known_args(argv)[1]


def _build_parser() -> argparse.ArgumentParser:
    parser = _global_parser(description="Sharp conformal functional inequalities on the 2-sphere")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("eval", help="evaluate the sharp functional on a field file")
    p.add_argument("field")
    p.add_argument("--alpha", type=float, default=2.0 / 3.0)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("normalize", help="zero the center of mass of e^{2u}")
    p.add_argument("field")
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("stability", help="stability certificate for fields")
    p.add_argument("field", nargs="?")
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--csv", help="CSV sweep output path")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("lift", help="Lorentz lift of a Mobius matrix file")
    p.add_argument("mobius")
    p.set_defaults(handler=cmd_lift)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        unknown = _unknown_global_options(argv)
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(theta_cap=args.theta_cap, l_max=args.lmax, seed=args.seed)
        return args.handler(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
