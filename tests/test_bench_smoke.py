"""A short traced run of each benchmark workload, as a subprocess.

The traced harness looks up every function it wraps by name and reads
counters that only some program paths feed (Laurent product sizes, box
points scanned and kept), so a rename or a path that stops calling one
of them fails the traced run while every other test still passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["lattice", "geometry", "genfun"])
def test_traced_benchmark_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert {"laurent.max_terms", "latticegen.keep_ratio"} <= set(last["metrics"])
    if workload == "geometry":
        # decompose samples and checks through the wrapped public functions
        for name in ("weights.sample_ms", "weights.check_ms"):
            assert last["metrics"][name]["value"] > 0, name
