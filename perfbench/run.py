#!/usr/bin/env python3
"""Benchmark of the onofri library: four seeded workloads, checked and timed.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run draws a fixed list of inputs from the seed; its length and the number
of passes over it are fixed by the workload and ``--seconds``, so every run
of a seed does the same work.  ``--trace 0`` times each call from outside the
library (closed loop, one client, no threads), follows each half second of
work with a speed probe (``speed.py``) and reports times calibrated by it.
Outputs are checked against the acceptance tolerances after the timed phase,
and every pass must reproduce the first exactly.  ``--trace 1`` runs each
input twice, untraced and traced, and reports the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit, the environment, the uncalibrated
times and any failing input.  ``--workload all`` runs each workload in its
own process.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the plain baseline, with reductions in a fixed order.
# Set before numpy is imported, in this process and the ones it starts.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("certify", "classify", "recenter", "evaluate")
SETUP_PROBES = 7
BLOCK_S = 0.5  # seconds of measured work between two speed probes
HEADROOM_CAP = 8.0  # decades; residuals this far below tolerance are rounding
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("passed_frac", "fraction"),
    ("accuracy_headroom", "decades"),
]


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without printing a result."""


def load_library():
    """Import onofri from this checkout's ``src`` and nowhere else."""
    raw = os.environ.get("ONOFRI_TOL_SCALE")
    if raw is not None:
        try:
            scale = float(raw)
        except ValueError:
            scale = None
        if scale != 1.0:
            raise BenchError(
                f"ONOFRI_TOL_SCALE={raw!r}: the tolerances define the failures, "
                "so the benchmark runs only with it unset or 1"
            )
    if not (SRC / "onofri" / "__init__.py").is_file():
        raise BenchError(f"no onofri sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import onofri

    if Path(onofri.__file__).resolve().parent != (SRC / "onofri").resolve():
        raise BenchError(f"imported onofri from {onofri.__file__}, not from {SRC}")
    return onofri


def environment() -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def plan(workload, seconds: float) -> tuple[int, int]:
    """Distinct inputs and passes over them: the work of one run.

    Fixed by the workload and ``--seconds`` alone, so every run of a seed
    does the same work, and takes about ``--seconds`` on the reference machine.
    """
    count = max(1, round(seconds / (workload.passes * workload.nominal_s)))
    return count, workload.passes


def headroom(checks) -> float:
    """Decades between each residual and its tolerance, capped; min over checks."""
    out = HEADROOM_CAP
    for c in checks:
        if c.residual > 0.0:
            out = min(out, math.log10(c.tol / c.residual))
    return out


def mean_headroom(outcomes) -> float:
    """Mean over the inputs that returned an output of their headroom.

    Not the minimum: the worst input's margin swings by decades from seed to
    seed (rare near-converged quadratures), so it cannot carry a bound.  Not
    the median either: on ``classify``'s six inputs, most at the cap, the
    median jumps by two decades when a third input falls below it.  Misses of
    a tolerance are counted by ``passed_frac``, and the traced run reports the
    minimum as ``checks.headroom_min``.
    """
    values = [headroom(oc.checks) for oc in outcomes if oc.output is not None]
    return statistics.fmean(values) if values else 0.0


class Outcome:
    """One timed call: its output or the exception it raised, and its checks."""

    __slots__ = ("index", "seconds", "factor", "output", "error", "checks")

    def __init__(self, index, seconds, output, error):
        self.index = index
        self.seconds = seconds
        self.factor = 1.0
        self.output = output
        self.error = error
        self.checks = []

    @property
    def calibrated(self) -> float:
        return self.seconds / self.factor

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    def describe(self) -> str:
        if self.error is not None:
            return self.error
        return "; ".join(f"{c.name}: residual {c.residual:.3e}" for c in self.checks if not c.ok)


def run_one(workload, state, inp, index) -> Outcome:
    from onofri import ConvergenceError

    t0 = time.perf_counter()
    try:
        out = workload.run(state, inp)
        error = None
    except ConvergenceError as exc:
        out, error = None, f"ConvergenceError: {exc}"
    except Exception:  # a crash counts against the input, never aborts the run
        out, error = None, "crash: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")
    return Outcome(index, time.perf_counter() - t0, out, error)


def is_wrong(workload, oc) -> bool:
    """A failure that is a wrong answer, not an honest refusal."""
    if oc.error is None:
        return not oc.ok
    return oc.error.startswith("crash") or workload.wrong_error(oc.error)


def check_outcomes(workload, state, inputs, outcomes) -> None:
    for inp, oc in zip(inputs, outcomes):
        if oc.output is not None:
            oc.checks = workload.check(state, inp, oc.output)


def digest(workload, outcomes) -> str:
    import numpy as np

    h = hashlib.sha256()
    for oc in outcomes:
        h.update(f"{oc.index}:".encode())
        if oc.output is not None:
            h.update(np.asarray(workload.record(oc.output), dtype=np.float64).tobytes())
        else:
            h.update(oc.error.split(":", 1)[0].encode())
    return h.hexdigest()


def setup_probe(name: str) -> float:
    """Wall time of one fresh process that imports onofri and warms the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT))
    # a blocking wait: Popen.wait(timeout) polls in 50 ms steps, too coarse to time
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        proc.wait()
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        killer.join()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return elapsed


def timed_passes(workload, state, inputs, passes, probe) -> list[Outcome]:
    """Every input once per pass, in order.  A speed probe runs before the
    first call and after each block of about BLOCK_S of work; a block's calls
    carry the mean of the factors measured just before and just after it."""
    before = probe.factor(BLOCK_S)
    outcomes, block, block_s = [], [], 0.0
    for _ in range(passes):
        for k, inp in enumerate(inputs):
            oc = run_one(workload, state, inp, k)
            outcomes.append(oc)
            block.append(oc)
            block_s += oc.seconds
            if block_s >= BLOCK_S or len(outcomes) == passes * len(inputs):
                after = probe.factor(block_s)
                for done in block:
                    done.factor = 0.5 * (before + after)
                before, block, block_s = after, [], 0.0
    return outcomes


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and the run's bookkeeping."""
    import numpy as np

    from speed import SpeedProbe

    state = workload.setup()
    probe = SpeedProbe()
    # (measured, calibrated) wall time of each fresh-process set-up
    setup_times = []
    before = probe.factor(BLOCK_S)
    for _ in range(SETUP_PROBES):
        elapsed = setup_probe(workload.name)
        after = probe.factor(BLOCK_S)
        setup_times.append((elapsed, elapsed / (0.5 * (before + after))))
        before = after

    count, passes = plan(workload, seconds)
    inputs = workload.make_inputs(np.random.default_rng(seed), count)
    outcomes = timed_passes(workload, state, inputs, passes, probe)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first pass is checked; every later pass must reproduce it exactly
    first = outcomes[:count]
    check_outcomes(workload, state, inputs, first)
    digests = {digest(workload, outcomes[p * count:(p + 1) * count]) for p in range(passes)}
    for k, oc in enumerate(outcomes[count:]):
        oc.checks = first[k % count].checks

    per_input = [statistics.median(oc.calibrated for oc in outcomes[k::count]) for k in range(count)]
    busy = sum(oc.seconds for oc in outcomes)
    calibrated = sum(oc.calibrated for oc in outcomes)
    factors = [oc.factor for oc in outcomes]
    metrics = {
        "items_per_s": len(outcomes) / calibrated,
        "item_p50_ms": 1e3 * statistics.median(per_input),
        "setup_s": statistics.median(t for _, t in setup_times),
        "peak_rss_mb": peak_rss,
        "passed_frac": sum(oc.ok for oc in first) / count,
        "accuracy_headroom": mean_headroom(first),
    }
    info = {
        "outcomes": outcomes,
        "inputs": count,
        "passes": passes,
        "digest": digest(workload, first),
        "repeatable": len(digests) == 1,
        "busy_s": busy,
        "raw": {
            "items_per_s": len(outcomes) / busy,
            "item_p50_ms": 1e3 * statistics.median(
                statistics.median(oc.seconds for oc in outcomes[k::count]) for k in range(count)
            ),
            "setup_s": statistics.median(t for t, _ in setup_times),
            "speed_factor_median": statistics.median(factors),
            "speed_factor_min": min(factors),
            "speed_factor_max": max(factors),
        },
    }
    return metrics, info


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The traced run: each input once untraced and once traced; layer metrics."""
    import numpy as np
    from tracer import Tracer

    state = workload.setup()
    count, _ = plan(workload, seconds)
    inputs = workload.make_inputs(np.random.default_rng(seed), count)
    tracer = Tracer()
    plain, traced = [], []
    consumers = [sys.modules[type(workload).__module__]]
    for k, inp in enumerate(inputs):
        # alternate which pass goes first, so drift does not bias the overhead
        if k % 2:
            plain.append(run_one(workload, state, inp, k))
        tracer.begin_trace(k)
        tracer.install(consumers)
        try:
            traced.append(run_one(workload, state, inp, k))
        finally:
            tracer.uninstall()
        if not k % 2:
            plain.append(run_one(workload, state, inp, k))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # equal digests mean equal checked values, so only the traced pass is checked
    check_outcomes(workload, state, inputs, traced)

    metrics = tracer.layer_metrics()
    returned = [oc for oc in traced if oc.output is not None]
    metrics["checks.headroom_min"] = min((headroom(oc.checks) for oc in returned), default=0.0)
    plain_s = sum(oc.seconds for oc in plain)
    traced_s = sum(oc.seconds for oc in traced)
    metrics.update(
        {
            "trace.inputs": count,
            "trace.spans": len(tracer.spans),
            "trace.busy_s": traced_s,
            "trace.items_per_s_untraced": count / plain_s,
            "trace.items_per_s_traced": count / traced_s,
            "trace.item_p90_ms": float(np.percentile([1e3 * oc.seconds for oc in plain], 90)),
            "trace.peak_rss_mb": peak_rss,
            "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    info = {
        "outcomes": traced,
        "inputs": count,
        "passes": 1,
        "digest": digest(workload, traced),
        "repeatable": digest(workload, plain) == digest(workload, traced),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "busy_s": traced_s,
    }
    return metrics, info


def run_workload(args) -> int:
    try:
        load_library()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracer import layer_metric_names
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup()
        return 0

    if args.trace:
        metrics, info = measure_traced(workload, args.seed, args.seconds)
        units = dict(layer_metric_names())
    else:
        metrics, info = measure(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    outcomes = info["outcomes"]
    failed = [oc for oc in outcomes if not oc.ok]
    wrong = [oc for oc in failed if is_wrong(workload, oc)]

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(
        f"# seed {args.seed}  seconds {args.seconds}  trace {int(args.trace)}  "
        f"inputs {info['inputs']}  passes {info['passes']}  calls {len(outcomes)}  "
        f"busy_s {info['busy_s']:.3f}"
    )
    print(f"# digest {info['digest']}")
    if "trace_file" in info:
        print(f"# traced outputs identical to untraced: {info['repeatable']}")
        print(f"# spans written to {info['trace_file']}")
    else:
        print(f"# every pass gave identical outputs: {info['repeatable']}")
        print("# uncalibrated " + "  ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    for oc in outcomes[: info["inputs"]]:
        if not oc.ok:
            print(f"# FAILED input {oc.index}: {oc.describe()}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")

    result = {
        "correct": not wrong and info["repeatable"],
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so setup and memory are per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
