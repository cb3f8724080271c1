"""In-process runs for the benchmark's traced mode.

``run.py --trace 1`` starts this file three times, each in a fresh
interpreter so that no run inherits another's caches::

    python3 bench/trace.py {plain,traced,layers} --workload W --seed N --outdir DIR --result PATH

``plain`` runs the workload's invocations once through ``cli.run(argv)``
with stdout sent to a file; ``traced`` does the same with timing wrappers
installed; ``layers`` times each module's public functions on fixed inputs.

Spans are recorded at layer boundaries only: a wrapper is installed where a
module looks up a public function of another module (a name imported with
``from .x import f``, or ``x.f`` through a module it imported), so calls
inside one module are not spans.  Spans with the same name and the same
parent are merged into one record holding the call count, the first start,
the last end and the summed duration, which keeps memory bounded when a
function is called millions of times.  Generator functions are timed per
``next()``.  Worker threads keep their own records, marked ``worker``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("core", "rng", "coding", "trees", "minkowski", "maps", "accum",
          "operators", "stochastic", "cli", "verify")


# ------------------------------------------------------------------ spans

class Tracer:
    """Merged span records, one table per thread."""

    def __init__(self, workload: str):
        self.workload = workload
        self.tables: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _table(self) -> dict:
        t = getattr(self._local, "table", None)
        if t is None:
            main = threading.current_thread() is threading.main_thread()
            t = {"lane": "main" if main else "worker", "nodes": [], "index": {}, "stack": []}
            self._local.table = t
            with self._lock:
                self.tables.append(t)
        return t

    def enter(self, name: str):
        t = self._table()
        parent = t["stack"][-1] if t["stack"] else -1
        i = t["index"].get((parent, name))
        if i is None:
            i = t["index"][(parent, name)] = len(t["nodes"])
            # name, parent, count, total, child total, first start, last end
            t["nodes"].append([name, parent, 0, 0.0, 0.0, None, None])
        t["stack"].append(i)
        return t, i, time.perf_counter()

    @staticmethod
    def exit(t: dict, i: int, t0: float) -> None:
        t1 = time.perf_counter()
        t["stack"].pop()
        node = t["nodes"][i]
        node[2] += 1
        node[3] += t1 - t0
        if node[5] is None:
            node[5] = t0
        node[6] = t1
        if node[1] >= 0:
            t["nodes"][node[1]][4] += t1 - t0

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIter(self, name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t, i, t0 = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(t, i, t0)
        return wrapper

    def records(self) -> list:
        """Every merged span, with its self time (duration minus children)."""
        out = []
        for t in self.tables:
            for i, (name, parent, count, total, child, first, last) in enumerate(t["nodes"]):
                out.append({"workload": self.workload, "lane": t["lane"], "id": i,
                            "name": name, "parent": parent, "count": count,
                            "start": first, "end": last, "total_s": total,
                            "self_s": total - child})
        return out


class _TracedIter:
    __slots__ = ("tracer", "name", "it")

    def __init__(self, tracer, name, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        t, i, t0 = self.tracer.enter(self.name)
        try:
            return next(self.it)
        finally:
            self.tracer.exit(t, i, t0)


class _ModuleProxy:
    """Stands in for a module inside another module: wrapped public
    functions, everything else (reads and writes) passed through."""

    def __init__(self, module, wrapped):
        object.__setattr__(self, "_module", module)
        object.__setattr__(self, "_wrapped", wrapped)

    def __getattr__(self, name):
        w = self._wrapped.get(name)
        return w if w is not None else getattr(self._module, name)

    def __setattr__(self, name, value):
        setattr(self._module, name, value)


def install(tracer: Tracer) -> None:
    """Patch every cross-module lookup of a public function in the package."""
    mods = {name: importlib.import_module(f"sternbrocot.{name}") for name in LAYERS}
    wrappers: dict = {}

    def wrapped(fn, layer):
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(fn, f"{layer}.{fn.__name__}")
        return wrappers[fn]

    def layer_of(qualname: str):
        parts = qualname.split(".")
        return parts[1] if len(parts) == 2 and parts[0] == "sternbrocot" and parts[1] in mods else None

    proxies = {
        layer: _ModuleProxy(mod, {
            n: wrapped(f, layer) for n, f in vars(mod).items()
            if isinstance(f, FunctionType) and f.__module__ == mod.__name__ and not n.startswith("_")
        })
        for layer, mod in mods.items()
    }
    for layer, mod in mods.items():
        g = vars(mod)
        for n, v in list(g.items()):
            if isinstance(v, ModuleType):
                other = layer_of(v.__name__)
                if other is not None and other != layer:
                    g[n] = proxies[other]
            elif isinstance(v, FunctionType) and not n.startswith("_"):
                other = layer_of(v.__module__)
                if other is not None and other != layer:
                    g[n] = wrapped(v, other)
    registry = mods["verify"]._REGISTRY
    for name, fn in list(registry.items()):
        registry[name] = tracer.wrap(fn, f"verify.check.{name}")


# ------------------------------------------------------------ cli in-process

def run_cli(workload: str, seed: int, tiny: bool, outdir: Path, tracer: Tracer | None) -> dict:
    """Run each invocation once through cli.run; per label: wall, exit, bytes, digest."""
    from sternbrocot import cli

    os.environ["STERNBROCOT_OUTDIR"] = str(outdir)
    invs = wl.invocations(workload, tiny)
    if tracer is None:  # the plain run also makes the cross-check outputs
        invs += wl.check_invocations(workload, tiny)
    result = {}
    for inv in invs:
        stdout_path = outdir / f"{inv.label}.out"
        if inv.output is not None:
            (outdir / inv.output).unlink(missing_ok=True)
        with open(stdout_path, "w", encoding="utf-8", newline="") as f, redirect_stdout(f):
            if tracer is None:
                t0 = time.perf_counter()
                code = cli.run(inv.args(seed))
                t1 = time.perf_counter()
            else:
                t, i, t0 = tracer.enter(f"cli.run:{inv.label}")
                try:
                    code = cli.run(inv.args(seed))
                finally:
                    tracer.exit(t, i, t0)
                t1 = time.perf_counter()
        out = wl.read_output(inv, stdout_path, outdir, code)
        (outdir / f"{inv.label}.bytes").write_bytes(out.data)
        result[inv.label] = {"wall_s": t1 - t0, "exit": code, "bytes": len(out.data),
                             "sha256": out.sha256}
    return result


# ------------------------------------------------------------------ layers

def _per_call(fn, *args, target: float = 0.02, repeat: int = 5) -> float:
    """Median seconds per call over ``repeat`` loops of at least ``target`` s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        dt = time.perf_counter() - t0
        if dt >= target:
            break
        n *= 2 if dt > target / 8 else 8
    samples = [dt / n]
    for _ in range(repeat - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def _drain(it) -> None:
    collections.deque(it, maxlen=0)


def _clear_caches(trees, maps) -> None:
    trees._STATE_CACHE.clear()
    trees._FLOAT_CACHE.clear()
    maps._orbit_floats.cache_clear()


def _traced_peak_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def layer_metrics(seed: int, tiny: bool) -> dict:
    """Per-layer timings on fixed inputs; values in the units named by run.py."""
    import numpy as np
    from sternbrocot import accum, coding, core, maps, minkowski, operators, rng, stochastic, trees, verify
    from sternbrocot.core import INF, ONE, ExtRat

    z = (dict(depth=10, orbit_r=5000, orbit_t=2000, iters=1 << 12, n_max=4, walks=100,
              horizon=40, power_n=8, fsum=1 << 12) if tiny else
         dict(depth=20, orbit_r=500_000, orbit_t=150_000, iters=1 << 20, n_max=16, walks=4000,
              horizon=100, power_n=16, fsum=1 << 20))
    m: dict = {}
    fib = {bits: ExtRat(*wl.fib_ratio(bits)) for bits in (64, 512, 1024, 8192)}

    m["core.extrat_ns"] = _per_call(ExtRat, 1234567, 7654321) * 1e9
    for bits in (64, 1024, 8192):
        x = fib[bits]
        m[f"core.cf_from_rat_us.{bits}b"] = _per_call(core.cf_from_rat, x) * 1e6
        m[f"minkowski.qmark_us.{bits}b"] = _per_call(minkowski.qmark, x) * 1e6
        m[f"minkowski.rho_us.{bits}b"] = _per_call(minkowski.rho, x) * 1e6
        m[f"minkowski.qmark_inv_us.{bits}b"] = _per_call(minkowski.qmark_inv, minkowski.qmark(x)) * 1e6
    for bits in (64, 1024):
        m[f"coding.word_from_rat_us.{bits}b"] = _per_call(coding.word_from_rat, fib[bits]) * 1e6
    # parents() is capped at 1024-letter words, which a 1024-bit input exceeds
    for bits in (64, 512):
        m[f"coding.parents_us.{bits}b"] = _per_call(coding.parents, fib[bits]) * 1e6
    m["rng.mix64_ns"] = _per_call(rng.mix64, 0x0123456789ABCDEF) * 1e9
    m["rng.draw_below_ns"] = _per_call(rng.draw_below, rng.walk_key(seed, 0), 5, 3, 8) * 1e9

    k = z["depth"]
    for label, spec in (("sb", trees.TreeSpec("sb")), ("farey_perm", trees.TreeSpec("farey", permuted=True))):
        dt, _ = _timed(_drain, trees.level(spec, k))
        m[f"trees.level.vertices_per_s.{label}"] = (1 << (k - 1)) / dt
    _clear_caches(trees, maps)
    m["trees.level_arrays.cold_ms"] = _timed(trees.level_arrays, trees.TreeSpec("sb"), k)[0] * 1e3
    m["trees.level_arrays.warm_ms"] = _per_call(trees.level_arrays, trees.TreeSpec("sb"), k) * 1e3
    _clear_caches(trees, maps)
    specs = [trees.TreeSpec(kind, permuted=p) for kind in trees.KINDS for p in (False, True)]
    m["trees.cache_peak_mb"] = _traced_peak_mb(
        lambda: [trees.level_floats(s, j) for s in specs for j in range(1, k + 1)])

    dt, _ = _timed(_drain, maps.orbit_iter("R", INF, z["orbit_r"]))
    m["maps.orbit_iter.steps_per_s.R"] = z["orbit_r"] / dt
    dt, _ = _timed(_drain, maps.orbit_iter("T", ONE, z["orbit_t"]))
    m["maps.orbit_iter.steps_per_s.T"] = z["orbit_t"] / dt
    _clear_caches(trees, maps)
    m["maps.ergodic_fourier.cold_s"] = _timed(maps.ergodic_fourier, 1, ONE, z["iters"], map="R")[0]
    m["maps.ergodic_fourier.warm_s"] = statistics.median(
        _timed(maps.ergodic_fourier, n, ONE, z["iters"], map="R")[0] for n in (2, 3, 4))
    _clear_caches(trees, maps)
    m["maps.orbit_cache_peak_mb"] = _traced_peak_mb(maps.ergodic_fourier, 1, ONE, z["iters"], map="R")

    a = np.random.default_rng(seed).random(z["fsum"])
    m["accum.fsum_array.elems_per_s"] = z["fsum"] / _per_call(accum.fsum_array, a)
    _clear_caches(trees, maps)
    m["minkowski.fourier_tree_mean_s"] = _timed(
        lambda: [minkowski.fourier_tree_mean(n, k) for n in range(1, z["n_max"] + 1)])[0]
    _clear_caches(trees, maps)

    walks, horizon = z["walks"], z["horizon"]
    interval = (ExtRat(2, 5), ExtRat(3, 5))
    for label, kind, iv, workers in (("mc0", "MC0", None, 1), ("mc1", "MC1", None, 1),
                                     ("mc0_interval", "MC0", interval, 1),
                                     ("mc0_workers2", "MC0", None, 2)):
        dt, rows = _timed(stochastic.walk_table, kind, ONE, walks, horizon, seed,
                          interval=iv, workers=workers)
        steps = sum(h if h >= 0 else horizon for h, _, _ in rows)
        m[f"stochastic.walk_table.steps_per_s.{label}"] = steps / dt
        if label in ("mc0", "mc1"):
            m[f"stochastic.max_state_bits.{label}"] = max(
                max(p.bit_length(), q.bit_length()) for _, p, q in rows)

    def f(y):
        return Fraction(y.den, y.num + y.den)

    for kind in ("MC0", "MC1"):
        m[f"operators.markov_power_s.{kind}"] = _timed(
            operators.markov_power, kind, f, ONE, z["power_n"])[0]

    registry = verify._REGISTRY
    for name, fn in list(registry.items()):
        def timed_check(*args, _fn=fn, _name=name):
            dt, value = _timed(_fn, *args)
            m[f"verify.check_s.{_name}"] = dt
            return value
        registry[name] = timed_check
    bad = [r.name for r in verify.run_suite("all", seed=wl.VERIFY_SEED) if not r.ok]
    if bad:
        raise RuntimeError(f"verify checks failed in the layer run: {bad}")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("plain", "traced", "layers"))
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "layers":
        result = {"metrics": layer_metrics(args.seed, args.tiny)}
    elif args.mode == "plain":
        result = {"invocations": run_cli(args.workload, args.seed, args.tiny, args.outdir, None)}
    else:
        tracer = Tracer(args.workload)
        install(tracer)
        result = {"invocations": run_cli(args.workload, args.seed, args.tiny, args.outdir, tracer),
                  "spans": tracer.records()}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
