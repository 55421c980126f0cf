"""A short traced run of every benchmark workload is judged correct.

A traced run (``--trace 1``) fails when a report differs from its known
answer, when a function a command must reach is never called, when the
catalog caches are not cold, or when a tracer probe changes what it reads.
Such a run still exits 0, so the test reads the result line.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr[-2000:]
    assert result["attempted"] > 0
