"""The benchmark's workloads and the checks on their output bytes.

Each workload is a fixed list of ``sternbrocot`` invocations.  The seed is
passed to every invocation as ``--seed``; outputs that do not depend on it
(CSV rows of tree, enumerate, fourier and qmark) are checked against the
same recorded digest for every seed.  Seed-dependent outputs are checked
against the recorded digests at seed 7 and, for every seed, by
cross-checks: ``--workers 2`` equals ``--workers 1``, JSON rows equal CSV
rows of the same command, sampled walks equal an independent reference
walk, and tree rows equal an independent reference level.

``python3 bench/workloads.py`` re-records ``golden.json`` from the current
source tree at seeds 7 and 8, refusing to write it when an output marked
seed-independent differs between the two.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 7
# The verify suite is not seed-robust: at some seeds a check fails (a cap hit
# by a random input, or a 3-sigma Monte Carlo bound), so it runs at the seed
# the tier-1 tests pin.
VERIFY_SEED = 7
# The full suite runs as one invocation per module so that each is timed
# against its own speed probe; a single 12 s invocation left the spread
# between runs at 14% on a host whose speed drifts.
VERIFY_MODULES = ("core", "coding", "trees", "minkowski", "maps", "operators", "stochastic", "cli")
WORKLOADS = ("emit", "walks", "estimators", "verify")


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple
    seeded: bool  # output bytes depend on --seed
    output: str | None = None  # file written through --output, if any
    seed: int | None = None  # run at this seed, whatever the benchmark's seed

    def args(self, seed: int) -> list:
        return [*self.argv, "--seed", str(seed if self.seed is None else self.seed)]

    def key(self) -> str:
        """Golden-table key: the invocation's arguments without the seed."""
        return hashlib.sha256("\0".join(self.argv).encode()).hexdigest()[:16]


def fib_ratio(bits: int) -> tuple[int, int]:
    """F(n)/F(n+1) for the first n with F(n+1) of the given bit length.

    Its continued fraction is all ones, the longest for its size, so it is
    the costliest input of that size for every Euclid-driven routine.
    """
    a, b = 1, 1
    while b.bit_length() < bits:
        a, b = b, a + b
    return a, b


def _sizes(tiny: bool) -> dict:
    if tiny:
        return dict(depth=8, json_depth=6, r_count=1000, t_count=500, walks=100,
                    horizon=40, n_max=2, tree_depth=8, iters=4096, modules=("cli",))
    return dict(depth=19, json_depth=17, r_count=500_000, t_count=150_000,
                walks=8000, horizon=100, n_max=16, tree_depth=19,
                iters=1 << 19, modules=VERIFY_MODULES)


def invocations(workload: str, tiny: bool = False) -> list[Invocation]:
    """The timed invocations of one pass, in the order they run."""
    z = _sizes(tiny)
    if workload == "emit":
        return [
            Invocation("tree-sb", ("tree", "--kind", "sb", "--depth", str(z["depth"])), False),
            Invocation("enum-R", ("enumerate", "--map", "R", "--start", "1/0",
                                  "--count", str(z["r_count"])), False),
            Invocation("enum-T", ("enumerate", "--map", "T", "--start", "1/1",
                                  "--count", str(z["t_count"])), False),
            Invocation("tree-sb-json", ("tree", "--kind", "sb", "--depth", str(z["json_depth"]),
                                        "--format", "json", "--output", "tree.json"),
                       True, "tree.json"),
        ]
    if workload == "walks":
        base = ("simulate", "--walks", str(z["walks"]), "--horizon", str(z["horizon"]))
        return [
            Invocation("mc0", (*base, "--chain", "mc0"), True),
            Invocation("mc1", (*base, "--chain", "mc1"), True),
            Invocation("mc0-interval", (*base, "--chain", "mc0", "--interval", "2/5,3/5"), True),
            Invocation("mc1-interval-json", (*base, "--chain", "mc1", "--interval", "2/5,3/5",
                                             "--format", "json"), True),
            Invocation("mc0-workers2", (*base, "--chain", "mc0", "--workers", "2"), True),
        ]
    if workload == "estimators":
        p, q = fib_ratio(2000)
        return [
            Invocation("fourier-both", ("fourier", "--n-max", str(z["n_max"]), "--depth",
                                        str(z["tree_depth"]), "--iters", str(z["iters"])), False),
            Invocation("fourier-ergodic-T", ("fourier", "--method", "ergodic", "--map", "T",
                                             "--start", "1/3", "--n-max", str(z["n_max"] // 2),
                                             "--iters", str(z["iters"])), False),
            Invocation("qmark", ("qmark", "2/5"), False),
            Invocation("qmark-extended", ("qmark", "355/113", "--extended"), False),
            Invocation("qmark-inverse", ("qmark", "3/2^3", "--inverse"), False),
            Invocation("qmark-inverse-extended", ("qmark", "5/2^4", "--inverse", "--extended"), False),
            Invocation("qmark-enclosure", ("qmark", "[0;2,3,1,4]", "--enclosure"), False),
            Invocation("qmark-fib2000", ("qmark", f"{p}/{q}"), False),
        ]
    if workload == "verify":
        return [Invocation(f"verify-{m}", ("verify", "--suite", m), False, seed=VERIFY_SEED)
                for m in z["modules"]]
    raise KeyError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def check_invocations(workload: str, tiny: bool = False) -> list[Invocation]:
    """Untimed invocations run once per run, only to cross-check outputs."""
    if workload == "walks":
        json_cmd = next(i for i in invocations(workload, tiny) if i.label == "mc1-interval-json")
        argv = json_cmd.argv[: json_cmd.argv.index("--format")]
        return [Invocation("mc1-interval-csv", argv, True)]
    if workload == "verify":
        return [Invocation("verify-list", ("verify", "--list"), False, seed=VERIFY_SEED)]
    return []


# ---------------------------------------------------------------- outputs

@dataclass(frozen=True)
class Output:
    """What one invocation produced: exit code and the bytes it wrote."""

    exit: int
    data: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


def read_output(inv: Invocation, stdout_path: Path, outdir: Path, exit_code: int) -> Output:
    data = stdout_path.read_bytes()
    if inv.output is not None:
        target = outdir / inv.output
        data += target.read_bytes() if target.exists() else b""
    return Output(exit_code, data)


def file_digest(inv: Invocation, stdout_path: Path, outdir: Path) -> str:
    """sha256 of what read_output would return, without holding the bytes."""
    h = hashlib.sha256()
    paths = [stdout_path] + ([outdir / inv.output] if inv.output is not None else [])
    for path in paths:
        if path.exists():
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def table(inv: Invocation, out: Output) -> tuple[list, list]:
    """(columns, rows) of an output, all cells as strings."""
    text = out.data.decode()
    if "--format" in inv.argv and "json" in inv.argv:
        doc = json.loads(text)
        return doc["columns"], [[str(c) for c in r] for r in doc["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def count_rows(inv: Invocation, out: Output) -> int:
    return len(table(inv, out)[1])


def walk_steps(inv: Invocation, out: Output) -> int:
    """Steps the walks actually took: hit_time for hits, the horizon otherwise."""
    horizon = int(inv.argv[inv.argv.index("--horizon") + 1])
    cols, rows = table(inv, out)
    h = cols.index("hit_time")
    return sum(int(r[h]) if int(r[h]) >= 0 else horizon for r in rows)


# ------------------------------------------------------------- references

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_walk(chain: str, seed: int, walk: int, horizon: int, interval=None):
    """(hit_time, num, den) of one walk, written from the documented rule.

    Step k of walk w draws SplitMix64(key + gamma*(k+1)) with key =
    SplitMix64(seed + gamma*(w+1)); MC0 takes the top bit as the letter,
    MC1 takes letter 0 when the top 53 bits d satisfy d*(p+q) < q*2^53.
    Letter 0 sends p/q to p/(p+q), letter 1 to (p+q)/q.
    """
    key = _splitmix((seed + _GAMMA * (walk + 1)) & _MASK)
    p, q = 1, 1

    def inside():
        return interval is not None and interval[0] < Fraction(p, q) < interval[1]

    if inside():
        return 0, p, q
    for k in range(horizon):
        d = _splitmix((key + _GAMMA * (k + 1)) & _MASK)
        if chain == "mc0":
            letter = d >> 63
        else:
            letter = 0 if (d >> 11) * (p + q) < q << 53 else 1
        p, q = (p, p + q) if letter == 0 else (p + q, q)
        if inside():
            return k + 1, p, q
    return -1, p, q


def reference_sb_level(k: int) -> list:
    """Level k of the Stern-Brocot tree, left to right, as (num, den)."""
    nodes = [(0, 1, 1, 0)]
    for _ in range(k - 1):
        nxt = []
        for pl, ql, pr, qr in nodes:
            pm, qm = pl + pr, ql + qr
            nxt.append((pl, ql, pm, qm))
            nxt.append((pm, qm, pr, qr))
        nodes = nxt
    return [(pl + pr, ql + qr) for pl, ql, pr, qr in nodes]


# ----------------------------------------------------------------- checks

def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {}


def _arg(inv: Invocation, flag: str) -> str:
    return inv.argv[inv.argv.index(flag) + 1]


def _check_walks(inv: Invocation, out: Output, seed: int, samples: int = 12) -> list:
    chain = _arg(inv, "--chain")
    walks, horizon = int(_arg(inv, "--walks")), int(_arg(inv, "--horizon"))
    interval = None
    if "--interval" in inv.argv:
        interval = tuple(Fraction(t) for t in _arg(inv, "--interval").split(","))
    cols, rows = table(inv, out)
    if cols != ["walk", "hit_time", "final_num", "final_den"] or len(rows) != walks:
        return [f"{inv.label}: expected {walks} walk rows"]
    picks = sorted({(seed * 7919 + i * (walks // samples + 1)) % walks for i in range(samples)})
    for w in picks:
        want = reference_walk(chain, seed, w, horizon, interval)
        if tuple(int(c) for c in rows[w][1:]) != want or int(rows[w][0]) != w:
            return [f"{inv.label}: walk {w} is {rows[w]}, reference {want}"]
    return []


def check_outputs(workload: str, seed: int, tiny: bool, outs: dict, golden: dict | None = None) -> dict:
    """Problems found in one set of outputs, as {label: [message, ...]}.

    ``outs`` maps labels of the timed and check invocations to Outputs.
    """
    golden = load_golden() if golden is None else golden
    invs = {i.label: i for i in invocations(workload, tiny) + check_invocations(workload, tiny)}
    problems: dict = {label: [] for label in outs}
    for label, out in outs.items():
        inv = invs[label]
        if out.exit != 0:
            problems[label].append(f"{label}: exit code {out.exit}")
            continue
        if not inv.seeded or seed == GOLDEN_SEED:
            want = golden.get(inv.key())
            if want is None:
                problems[label].append(f"{label}: no recorded digest")
            elif (out.exit, out.sha256) != (want["exit"], want["sha256"]):
                problems[label].append(f"{label}: digest {out.sha256[:12]} != recorded {want['sha256'][:12]}")
        if workload == "walks":
            problems[label] += _check_walks(inv, out, seed)
    if workload == "emit" and "tree-sb-json" in outs and outs["tree-sb-json"].exit == 0:
        inv = invs["tree-sb-json"]
        doc = json.loads(outs["tree-sb-json"].data)
        k = int(_arg(inv, "--depth"))
        want = [[k, i, p, q] for i, (p, q) in enumerate(reference_sb_level(k), start=1)]
        if doc["meta"]["seed"] != seed or doc["rows"] != want:
            problems["tree-sb-json"].append("tree-sb-json: rows or seed differ from the reference level")
    if workload == "walks":
        if "mc0" in outs and "mc0-workers2" in outs and outs["mc0"].data != outs["mc0-workers2"].data:
            problems["mc0-workers2"].append("mc0-workers2: output differs from --workers 1")
        if "mc1-interval-json" in outs and "mc1-interval-csv" in outs:
            j_inv, c_inv = invs["mc1-interval-json"], invs["mc1-interval-csv"]
            j_out = outs["mc1-interval-json"]
            if table(j_inv, j_out) != table(c_inv, outs["mc1-interval-csv"]):
                problems["mc1-interval-json"].append("mc1-interval-json: rows differ from the CSV run")
            doc = json.loads(j_out.data)
            hits = sum(1 for r in doc["rows"] if r[1] >= 0)
            if doc["fraction"] != str(Fraction(hits, len(doc["rows"]))):
                problems["mc1-interval-json"].append("mc1-interval-json: hit fraction disagrees with rows")
    if workload == "verify":
        ran = []
        for label, out in outs.items():
            if label.startswith("verify-") and label != "verify-list" and out.exit == 0:
                cols, rows = table(invs[label], out)
                bad = [r[0] for r in rows if r[1] != "ok"]
                if cols != ["name", "status", "detail"] or not rows or bad:
                    problems[label].append(f"{label}: failed checks {bad}")
                ran += [r[0] for r in rows]
        if not tiny and "verify-list" in outs and sorted(ran) != sorted(outs["verify-list"].data.decode().split()):
            problems["verify-list"].append("the per-module runs do not cover the whole suite")
    return problems


# -------------------------------------------------------------- recording

def record_golden() -> dict:
    """Run every invocation at seeds 7 and 8 and return the digest table."""
    import subprocess
    import sys
    import tempfile

    root = HERE.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    table_: dict = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        env["STERNBROCOT_OUTDIR"] = tmp
        for tiny in (True, False):
            for workload in WORKLOADS:
                for inv in invocations(workload, tiny) + check_invocations(workload, tiny):
                    digests = {}
                    for seed in (GOLDEN_SEED, GOLDEN_SEED + 1):
                        stdout = Path(tmp) / "stdout"
                        with open(stdout, "wb") as f:
                            code = subprocess.run(
                                [sys.executable, "-m", "sternbrocot", *inv.args(seed)],
                                stdout=f, env=env, cwd=tmp, check=False,
                            ).returncode
                        digests[seed] = read_output(inv, stdout, Path(tmp), code)
                    same = digests[GOLDEN_SEED].data == digests[GOLDEN_SEED + 1].data
                    if inv.seeded and same:
                        print(f"note: {inv.label} does not depend on the seed")
                    if not inv.seeded and not same:
                        raise SystemExit(f"{inv.label} is marked seed-independent but differs")
                    out = digests[GOLDEN_SEED]
                    table_[inv.key()] = {"label": inv.label, "tiny": tiny,
                                         "exit": out.exit, "sha256": out.sha256}
                    print(f"{'tiny' if tiny else 'full'} {workload:10s} {inv.label:24s} "
                          f"exit {out.exit} {out.sha256[:16]}")
    return table_


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record_golden(), indent=1, sort_keys=True) + "\n")
