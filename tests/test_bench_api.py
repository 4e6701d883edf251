"""The benchmark's workloads run against the current API.

Each workload in ``perfbench/workloads.py`` goes once through its whole
cycle (set-up, one input, the timed call, the output checks and the digest
record), so a library change that breaks a call the benchmark makes fails
here, not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


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
