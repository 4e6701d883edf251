"""The benchmark's workloads and tracer run against the current API.

Each workload in ``perfbench/workloads.py`` goes once through its whole
cycle (set-up, one input, the timed call, the output checks and the digest
record), and every target of ``perfbench/tracer.py`` resolves in the
library, so a library change that breaks a call the benchmark makes or a
function it times fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest


def _load(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup()
    (inp,) = workload.make_inputs(np.random.default_rng(0), 1)
    out = workload.run(state, inp)
    failed = [c for c in workload.check(state, inp, out) if not c.ok]
    assert not failed, failed
    record = np.asarray(workload.record(out), dtype=np.float64)
    assert record.size > 0 and np.all(np.isfinite(record))


@pytest.mark.parametrize("module, path", [(module, path) for module, path, _ in tracer.TARGETS])
def test_tracer_target_resolves(module, path):
    # the tracer skips a target it cannot find, and its metrics then read
    # zero: a rename in the library would pass every other check
    owner = importlib.import_module(f"onofri.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"onofri.{module}.{path} is not in the library"
