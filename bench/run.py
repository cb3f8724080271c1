"""Benchmark of the ``sternbrocot`` CLI: end-to-end runs and a traced run.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 bench/run.py --workload emit --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (``bench/workloads.py`` lists the invocations):

* ``emit`` - tree levels and map orbits written as CSV, and a tree level as
  JSON to a file: output-bound, so ``cli`` row building and writing weigh
  most.
* ``walks`` - MC0/MC1 random walks, with and without an interval, one run
  on two worker threads: ``stochastic`` and ``rng`` do the work.
* ``estimators`` - Fourier coefficients by tree and ergodic averaging, and
  one-shot ``qmark`` calls: the numeric path, and start-up cost.
* ``verify`` - the full invariant suite: exact Fraction-heavy work with
  almost no output.

Every workload is a closed loop with one client: each invocation is a
subprocess started after the previous one has ended.  With ``--trace 0``
the benchmark repeats passes over the workload for ``--seconds`` seconds
and reports per pass, as medians over passes:

* ``wall_s`` - seconds for one pass, summed over its invocations;
* ``cpu_s`` - user plus system seconds of the pass's child processes;
* ``peak_rss_mb`` - the largest max RSS of one invocation in the pass;
* ``rows_per_s`` - output rows of the pass divided by ``wall_s``;
* ``setup_s`` - median wall time of ``sternbrocot --version`` (7 runs).

The times are scaled to a reference machine speed: before and after each
child, a fixed pure-Python loop (``probe``) is timed, and the child's wall
and CPU seconds are multiplied by ``PROBE_REF_S`` over the mean of the two
probe times.  The benchmark pins itself, and so every child, to one CPU,
so the probe measures the CPU the child runs on; ``--workers 2`` therefore
runs its two threads on one CPU.  On a shared host whose speed drifts with
other tenants' load, this cut the spread of ``wall_s`` between runs from
20-30% to 6-9%.  The unscaled median is printed beside it and kept in the
details.

Each child's rusage comes from ``os.wait4``.  Every output is checked (see
``workloads.py``); an invocation with a wrong exit code or wrong bytes
counts as failed, and ``failed``/``attempted`` is the failure fraction.

With ``--trace 1`` it runs the workload once in-process through
``cli.run`` untraced and once traced (``trace.py``), checks that both give
the same bytes, and reports the per-layer metrics: ``cli`` self time, rows
and bytes, the tracing overhead, per-module timings on fixed inputs,
per-check ``verify`` times and import times from ``-X importtime``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
for a reader.  Details (per-pass records, load, spans) are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
PROBE_REF_S = 0.0130  # median probe() seen on a 2-vCPU Xeon guest, Python 3.11.7
IMPORT_RUNS = 3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rows_per_s": "1/s"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {"cli.self_s": "s", "cli.rows": "count", "cli.bytes_out": "B",
             "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
             "setup.import_ms.numpy": "ms", "setup.import_ms.sternbrocot": "ms",
             "core.extrat_ns": "ns"}
    for bits in (64, 1024, 8192):
        units[f"core.cf_from_rat_us.{bits}b"] = "us"
    for fn in ("qmark", "rho", "qmark_inv"):
        for bits in (64, 1024, 8192):
            units[f"minkowski.{fn}_us.{bits}b"] = "us"
    for bits in (64, 1024):
        units[f"coding.word_from_rat_us.{bits}b"] = "us"
    for bits in (64, 512):
        units[f"coding.parents_us.{bits}b"] = "us"
    units |= {"rng.mix64_ns": "ns", "rng.draw_below_ns": "ns",
              "trees.level.vertices_per_s.sb": "1/s", "trees.level.vertices_per_s.farey_perm": "1/s",
              "trees.level_arrays.cold_ms": "ms", "trees.level_arrays.warm_ms": "ms",
              "trees.cache_peak_mb": "MB",
              "maps.orbit_iter.steps_per_s.R": "1/s", "maps.orbit_iter.steps_per_s.T": "1/s",
              "maps.ergodic_fourier.cold_s": "s", "maps.ergodic_fourier.warm_s": "s",
              "maps.orbit_cache_peak_mb": "MB", "accum.fsum_array.elems_per_s": "1/s",
              "minkowski.fourier_tree_mean_s": "s"}
    for label in ("mc0", "mc1", "mc0_interval", "mc0_workers2"):
        units[f"stochastic.walk_table.steps_per_s.{label}"] = "1/s"
    units |= {"stochastic.max_state_bits.mc0": "bit", "stochastic.max_state_bits.mc1": "bit",
              "operators.markov_power_s.MC0": "s", "operators.markov_power_s.MC1": "s"}
    for name in VERIFY_CHECKS:
        units[f"verify.check_s.{name}"] = "s"
    return units


VERIFY_CHECKS = (
    "core.cf-roundtrip-exhaustive", "core.depth-vs-tree", "core.floor-rank-depth",
    "core.phi-mediant", "core.complement-involution", "coding.word-determinant",
    "coding.word-roundtrip", "coding.hat-involution", "coding.neighbor-unimodular",
    "coding.pi-prefix", "coding.code-compare", "trees.permuted-is-hat", "trees.calkin-wilf",
    "trees.neighbor-denominator-chain", "trees.qmark-farey-to-dyadic", "trees.bijection",
    "minkowski.qmark-reflection", "minkowski.rho-reflection", "minkowski.mediant-average",
    "minkowski.monotone", "minkowski.farey-measure-invariance", "minkowski.dilation",
    "maps.invertible-roundtrip", "maps.counting-rows", "maps.log-diffusion",
    "maps.conjugacy-residuals", "maps.esse2", "maps.g-retrace", "maps.indifferent-fixed-points",
    "operators.row-stochastic", "operators.p0-invariance", "operators.p1-dxx-invariance",
    "operators.harmonicity", "operators.power-vs-monte-carlo", "stochastic.symme",
    "stochastic.letter-frequencies", "stochastic.worker-determinism", "stochastic.hitting",
    "stochastic.no-atoms-window", "cli.deterministic", "cli.verify-coverage",
)


# -------------------------------------------------------------- processes

def child_env(outdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), STERNBROCOT_OUTDIR=str(outdir))
    env.pop("STERNBROCOT_STATS", None)
    return env


def spawn(cmd: list, stdout_path: Path, env: dict, cwd: Path):
    """Run one child to completion: (wall seconds, rusage, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru, p.returncode


def probe() -> float:
    """Median seconds of a fixed loop of small-integer steps and tuple
    allocations, like a walk's: the current speed of this CPU.

    The host's speed drifts by up to 2x over minutes as other tenants load
    it; every child's times are scaled by PROBE_REF_S over the mean of the
    probes just before and just after it, so they read in seconds at the
    speed where the probe takes PROBE_REF_S.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        pairs = []
        p, q = 1, 1
        for i in range(60000):
            p, q = (p + q, q) if i & 1 else (p, p + q)
            if q.bit_length() > 96:
                p, q = 1, 1 + i
            pairs.append((p, q))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sternbrocot(args: list) -> list:
    return [sys.executable, "-m", "sternbrocot", *args]


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu}


def measure_setup(outdir: Path, env: dict) -> list:
    """Speed-scaled seconds of ``sternbrocot --version``, after one untimed warm-up."""
    times = []
    before = probe()
    for i in range(SETUP_RUNS + 1):
        wall, _, code = spawn(sternbrocot(["--version"]), outdir / "version.out", env, outdir)
        after = probe()
        text = (outdir / "version.out").read_text()
        if code != 0 or not text.startswith("sternbrocot "):
            raise RuntimeError(f"sternbrocot --version failed: exit {code}, {text!r}")
        if i:
            times.append(wall * PROBE_REF_S * 2 / (before + after))
        before = after
    return times


def import_times(outdir: Path, env: dict) -> dict:
    """Median cumulative import time, ms, of numpy and of the package."""
    samples: dict = {"numpy": [], "sternbrocot": []}
    for _ in range(IMPORT_RUNS):
        cmd = [sys.executable, "-X", "importtime", "-c", "import sternbrocot.cli"]
        spawn(cmd, outdir / "importtime.out", env, outdir)
        for line in (outdir / "importtime.err").read_text().splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ------------------------------------------------------------- untraced run

def run_passes(workload: str, seed: int, seconds: float, tiny: bool, golden: dict | None = None) -> dict:
    outdir = fresh_dir(OUT / f"{workload}-seed{seed}")
    env = child_env(outdir)
    setup = measure_setup(outdir, env)
    invs = wl.invocations(workload, tiny)
    # No output is held in memory while children run: a forked child's
    # max RSS starts from this process's RSS.
    first_dir = fresh_dir(outdir / "first")
    first_sha: dict = {}
    first_exit: dict = {}
    passes = []
    before = probe()
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        load_before = os.getloadavg()[0]
        records = []
        for inv in invs:
            stdout_path = outdir / f"{inv.label}.out"
            wall, ru, code = spawn(sternbrocot(inv.args(seed)), stdout_path, env, outdir)
            after = probe()
            probe_s, before = (before + after) / 2, after
            sha = wl.file_digest(inv, stdout_path, outdir)
            if inv.label not in first_sha:
                first_sha[inv.label], first_exit[inv.label] = sha, code
                stdout_path.rename(first_dir / stdout_path.name)
                if inv.output is not None and (outdir / inv.output).exists():
                    (outdir / inv.output).rename(first_dir / inv.output)
            records.append({"label": inv.label, "raw_wall_s": wall, "raw_cpu_s": ru.ru_utime + ru.ru_stime,
                            "probe_s": probe_s, "maxrss_mb": ru.ru_maxrss / 1024, "exit": code,
                            "sha256": sha})
        passes.append({"records": records, "load_before": load_before, "load_after": os.getloadavg()[0]})

    first = {inv.label: wl.read_output(inv, first_dir / f"{inv.label}.out", first_dir, first_exit[inv.label])
             for inv in invs}
    checked = dict(first)
    for inv in wl.check_invocations(workload, tiny):
        stdout_path = outdir / f"{inv.label}.out"
        _, _, code = spawn(sternbrocot(inv.args(seed)), stdout_path, env, outdir)
        checked[inv.label] = wl.read_output(inv, stdout_path, outdir, code)
    problems = wl.check_outputs(workload, seed, tiny, checked, golden)

    by_label = {inv.label: inv for inv in invs}
    rows = sum(wl.count_rows(by_label[lb], out) for lb, out in first.items() if out.exit == 0)
    steps = sum(wl.walk_steps(by_label[lb], out) for lb, out in first.items()
                if workload == "walks" and out.exit == 0)
    attempted = failed = 0
    messages = [m for ms in problems.values() for m in ms]
    for pas in passes:
        recs = pas["records"]
        raw_wall = sum(r["raw_wall_s"] for r in recs)
        pas |= {"raw_wall_s": raw_wall,
                "wall_s": sum(r["raw_wall_s"] * PROBE_REF_S / r["probe_s"] for r in recs),
                "cpu_s": sum(r["raw_cpu_s"] * PROBE_REF_S / r["probe_s"] for r in recs),
                "peak_rss_mb": max(r["maxrss_mb"] for r in recs)}
        # slow probes, a busy machine, or children waiting for a core
        pas["loaded"] = (statistics.median(r["probe_s"] for r in recs) > 1.25 * PROBE_REF_S
                         or pas["load_before"] > (os.cpu_count() or 1)
                         or sum(r["raw_cpu_s"] for r in recs) < 0.9 * raw_wall)
        for r in pas["records"]:
            attempted += 1
            bad = problems.get(r["label"]) or r["sha256"] != first_sha[r["label"]]
            if r["sha256"] != first_sha[r["label"]]:
                messages.append(f"{r['label']}: output changed between passes")
            failed += bool(bad)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    metrics = {"wall_s": wall_s,
               "cpu_s": statistics.median(p["cpu_s"] for p in passes),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
               "rows_per_s": rows / wall_s}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "tiny": tiny,
              "environment": environment(), "setup_s": setup, "passes": passes,
              "rows_per_pass": rows, "walk_steps_per_pass": steps, "problems": messages}
    (OUT / f"{workload}-seed{seed}.json").write_text(json.dumps(detail, indent=1))

    walls = sorted(p["wall_s"] for p in passes)
    lines = [f"# workload {workload}, seed {seed}: {len(passes)} passes of {len(invs)} invocations, "
             f"closed loop, 1 client; {detail['environment']}"]
    for name, unit in END_TO_END.items():
        lines.append(f"{name:<18} {metrics[name]:>14.6g} {unit}")
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    lines.append(f"  wall_s: median of {len(walls)} passes; {high_percentile(walls)}; "
                 f"unscaled median {raw:.6g} s")
    if workload == "walks":
        lines.append(f"{'walk_steps_per_s':<18} {steps / wall_s:>14.6g} 1/s  ({steps} steps a pass)")
    lines.append(f"{'fail_frac':<18} {failed / attempted:>14.6g}    ({failed} of {attempted} invocations)")
    loaded = sum(p["loaded"] for p in passes)
    if loaded:
        lines.append(f"  {loaded} of {len(passes)} passes ran under outside load (probe 25% over "
                     f"{PROBE_REF_S} s, load average above {os.cpu_count()} or CPU below 90% of wall)")
    lines += [f"  problem: {m}" for m in messages]
    return {"lines": lines, "result": {"correct": failed == 0 and not messages, "attempted": attempted,
                                       "failed": failed,
                                       "metrics": {n: {"value": metrics[n], "unit": u}
                                                   for n, u in END_TO_END.items()}}}


def high_percentile(sorted_values: list) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(sorted_values)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}"
    k = n - 10  # the k-th smallest value has n - k = 10 samples above it
    return f"p{100 * k / n:.0f} = {sorted_values[k - 1]:.6g} s (n={n})"


# --------------------------------------------------------------- traced run

def run_traced(workload: str, seed: int, tiny: bool, golden: dict | None = None) -> dict:
    outdir = OUT / f"{workload}-seed{seed}-trace"
    fresh_dir(outdir)
    env = child_env(outdir)
    results = {}
    for mode in ("plain", "traced", "layers"):
        mode_dir = fresh_dir(outdir / mode)
        cmd = [sys.executable, str(Path(__file__).with_name("trace.py")), mode, "--workload", workload,
               "--seed", str(seed), "--outdir", str(mode_dir), "--result", str(mode_dir / "result.json")]
        if tiny:
            cmd.append("--tiny")
        _, _, code = spawn(cmd, outdir / f"{mode}.log", env, outdir)
        if code != 0:
            err = (outdir / f"{mode}.err").read_text()[-2000:]
            raise RuntimeError(f"trace.py {mode} exited {code}:\n{err}")
        results[mode] = json.loads((mode_dir / "result.json").read_text())

    plain, traced = results["plain"]["invocations"], results["traced"]["invocations"]
    invs = {i.label: i for i in wl.invocations(workload, tiny) + wl.check_invocations(workload, tiny)}
    outs = {lb: wl.Output(r["exit"], (outdir / "plain" / f"{lb}.bytes").read_bytes())
            for lb, r in plain.items()}
    problems = wl.check_outputs(workload, seed, tiny, outs, golden)
    messages = [m for ms in problems.values() for m in ms]
    for lb, r in traced.items():
        if (r["exit"], r["sha256"]) != (plain[lb]["exit"], plain[lb]["sha256"]):
            messages.append(f"{lb}: traced output differs from the untraced run")
    attempted = len(plain) + len(traced)
    failed = sum(bool(problems.get(lb)) for lb in plain) + sum(
        r["sha256"] != plain[lb]["sha256"] or bool(problems.get(lb)) for lb, r in traced.items())

    spans = results["traced"]["spans"]
    main = [s for s in spans if s["lane"] == "main"]
    traced_s = sum(r["wall_s"] for r in traced.values())
    untraced_s = sum(plain[lb]["wall_s"] for lb in traced)
    covered = sum(s["self_s"] for s in main)
    overhead = traced_s - untraced_s
    cli_self = sum(s["self_s"] for s in main if s["name"].split(".")[0] == "cli")
    # self times of the main thread's spans must tile the traced wall time,
    # and so differ from the untraced wall time by the overhead alone
    if abs(covered - traced_s) > 0.01 * traced_s + 0.01:
        messages.append(f"span self times sum to {covered:.3f} s, traced wall {traced_s:.3f} s")
    if abs(covered - untraced_s) > abs(overhead) + 0.01 * untraced_s + 0.01:
        messages.append(f"span self times {covered:.3f} s differ from untraced {untraced_s:.3f} s "
                        f"by more than the overhead {overhead:.3f} s")

    imports = import_times(outdir, env)
    metrics = dict(results["layers"]["metrics"])
    metrics |= {"cli.self_s": cli_self,
                "cli.rows": sum(wl.count_rows(invs[lb], outs[lb]) for lb in traced if outs[lb].exit == 0),
                "cli.bytes_out": sum(r["bytes"] for r in traced.values()),
                "trace.traced_s": traced_s, "trace.untraced_s": untraced_s, "trace.overhead_s": overhead,
                "setup.import_ms.numpy": imports["numpy"],
                "setup.import_ms.sternbrocot": imports["sternbrocot"]}
    units = per_layer_units()
    missing = [n for n in units if n not in metrics]
    messages += [f"metric {n} was not measured" for n in missing]
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans, indent=0))

    by_layer: dict = {}
    for s in main:
        layer = s["name"].split(".")[0].split(":")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self_s"]
    lines = [f"# traced run of {workload}, seed {seed}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
             f"overhead {overhead:.3f} s ({100 * overhead / untraced_s:.1f}%)",
             "  self time by layer (main thread): " + ", ".join(
                 f"{k} {v:.3f} s" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))]
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"{name:<48} {metrics[name]:>14.6g} {unit}")
    lines += [f"  problem: {m}" for m in messages]
    return {"lines": lines, "result": {
        "correct": failed == 0 and not messages, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics}}}


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness self-test")
    args = p.parse_args(argv)
    if not (SRC / "sternbrocot" / "cli.py").is_file():
        print(f"error: no sternbrocot sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the speed probe then measures
    # the CPU the child runs on (the two CPUs' speeds drift independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            done = run_traced(name, args.seed, args.tiny)
        else:
            done = run_passes(name, args.seed, args.seconds, args.tiny)
        print("\n".join(done["lines"]), flush=True)
        res = done["result"]
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"] |= {f"{name}.{k}": v for k, v in res["metrics"].items()}
    print(json.dumps(res if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
