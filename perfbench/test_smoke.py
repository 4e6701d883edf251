"""Smoke tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once at a tiny size; the traced run, the determinism of
the digest and counts, the output gate, the failure accounting and the
refusals are checked.  The
whole file takes under a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, timeout=170, cwd=str(cwd), env=env,
    )


def result_of(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def comment(lines, key) -> str:
    return next(line for line in lines if line.startswith(f"# {key} "))


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as module

    return module


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(name):
    result, lines = result_of(bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "0"))
    assert "# every pass gave identical outputs: True" in lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_layers_and_repeats_counts():
    args = ("--workload", "evaluate", "--seed", "5", "--seconds", "0.2", "--trace", "1")
    first, lines = result_of(bench(*args))
    second, lines2 = result_of(bench(*args))
    metrics = {m: v["value"] for m, v in first["metrics"].items()}
    assert {m: v["unit"] for m, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert "# traced outputs identical to untraced: True" in lines
    assert metrics["sphere.refine.steps"] > 0 and metrics["harmonics.synthesize.calls"] > 0
    # the control workload: no analyze, scattered evaluation or Jacobian to speak of
    small = sum(metrics[f"{layer}.self_s"] for layer in
                ("harmonics.analyze", "harmonics.evaluate_at", "mobius.jacobian"))
    assert small < 0.05 * metrics["trace.busy_s"]
    for m, v in second["metrics"].items():
        if v["unit"] == "count" or v["unit"] == "decades":
            assert v["value"] == first["metrics"][m]["value"], m
    assert comment(lines, "digest") == comment(lines2, "digest")
    # the traced run calls the library on the same inputs as the timed run
    _, untraced = result_of(bench(*args[:-1], "0"))
    assert comment(untraced, "digest") == comment(lines, "digest")


def test_same_seed_same_digest_and_deterministic_metrics():
    args = ("--workload", "recenter", "--seed", "7", "--seconds", "0.1", "--trace", "0")
    first, lines = result_of(bench(*args))
    second, lines2 = result_of(bench(*args))
    assert comment(lines, "digest") == comment(lines2, "digest")
    assert first["attempted"] == second["attempted"]
    for m in ("passed_frac", "accuracy_headroom"):
        assert first["metrics"][m] == second["metrics"][m]
    other, lines3 = result_of(bench("--workload", "recenter", "--seed", "8", "--seconds", "0.1"))
    assert comment(lines3, "digest") != comment(lines, "digest")


def test_gate_trips_on_perturbed_results(workloads):
    import numpy as np

    wl = workloads.WORKLOADS
    rng = np.random.default_rng(0)

    ev = wl["evaluate"]
    u = ev.make_inputs(rng, 1)[0]
    rep, classical = ev.run({}, u)
    state = {}
    assert all(c.ok for c in ev.check(state, u, (rep, classical)))
    bumped = SimpleNamespace(value=rep.value + 1e-7)
    assert not all(c.ok for c in ev.check(state, u, (bumped, classical)))
    assert not all(c.ok for c in ev.check(state, u, (rep, classical + 1e-7)))

    cert = wl["certify"]
    inp = cert.make_inputs(rng, 1)[0]
    ref_sharp, _ = workloads.reference_values(state, inp[0])
    good = SimpleNamespace(slack=0.3, deficit=ref_sharp)
    assert all(c.ok for c in cert.check(state, inp, good))
    assert not all(c.ok for c in cert.check(state, inp, SimpleNamespace(slack=-1e-7, deficit=ref_sharp)))
    assert not all(c.ok for c in cert.check(state, inp, SimpleNamespace(slack=0.3, deficit=ref_sharp + 1e-7)))

    field = SimpleNamespace(coeffs=np.r_[0.0, 1e-3, 0.0, 0.0], degrees=lambda: np.array([0, 1, 1, 1]))
    dist = SimpleNamespace(distance=1e-9)
    assert not all(c.ok for c in wl["classify"].check({}, None, (None, field, dist)))

    result = SimpleNamespace(residual_com_norm=1e-9, lambda0=1.0)
    proj = SimpleNamespace(tail_fraction=0.0)
    assert not all(c.ok for c in wl["recenter"].check({}, None, (result, 1.0, proj)))


def test_certificate_violation_is_wrong_not_a_refusal(workloads):
    sys.path.insert(0, str(HERE))
    import run

    wl = workloads.WORKLOADS
    violated = run.Outcome(0, 1.0, None, "ConvergenceError: stability certificate violated on a converged run")
    refused = run.Outcome(0, 1.0, None, "ConvergenceError: Nelder-Mead did not converge")
    assert run.is_wrong(wl["certify"], violated)
    assert not run.is_wrong(wl["certify"], refused)
    assert not run.is_wrong(wl["evaluate"], violated)
    assert run.is_wrong(wl["evaluate"], run.Outcome(0, 1.0, None, "crash: ValueError"))


def test_refuses_scaled_tolerances():
    env = dict(os.environ, ONOFRI_TOL_SCALE="2")
    proc = bench("--workload", "evaluate", "--seed", "1", "--seconds", "0.1", env=env)
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=str(tmp_path),
    )
    assert proc.returncode != 0 and proc.stdout == ""
