"""The benchmark harness runs and its byte checks pass, at tiny sizes.

Each workload here checks every output against the recorded digests in
bench/golden.json, so a change to the output bytes fails this test.  The
traced run (--trace 1) wraps every cross-module call, so it also fails
when a change breaks the tracer's view of the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--seed", "11", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["emit", "walks", "estimators", "verify"])
def test_tiny_bench_run_is_correct(workload):
    _bench("--workload", workload, "--seconds", "0", "--trace", "0")


def test_tiny_traced_run_is_correct():
    _bench("--workload", "estimators", "--trace", "1")
