"""Self-test of the benchmark harness at tiny sizes.

Run from the root of the checkout:  python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_workload_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "0", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert re.search(rf"^{name}\s+\S+ {re.escape(unit)}$", proc.stdout, re.M), name
    assert re.search(r"^fail_frac\s+0 ", proc.stdout, re.M)


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "walks", "--seed", "11", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.per_layer_units()
    assert "overhead" in proc.stdout


def test_wrong_digest_counts_as_failure_without_crashing():
    golden = wl.load_golden()
    key = wl.invocations("emit", tiny=True)[0].key()
    golden[key] = dict(golden[key], sha256="0" * 64)
    done = run.run_passes("emit", 7, 0, True, golden)
    result = done["result"]
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 4)
    assert any(line.startswith("fail_frac") and "1 of 4" in line for line in done["lines"])


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "emit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
