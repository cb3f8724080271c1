"""Block-streamed integer tables are byte-identical to row-at-a-time writers.

The reference here is the plain path: csv.writer or json.dump(indent=2)
over row tuples, with tree levels from a lazy depth-first walk and orbits
from Fraction formulas, all written independently of the package.
"""

import contextlib
import csv
import io
import json
import tracemalloc
from argparse import Namespace
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sternbrocot import __version__, cli, maps, stochastic, trees
from sternbrocot.cli import run
from sternbrocot.core import CAPS, CapExceeded, DomainError, ExtRat, ONE

SPECS = [(kind, permuted) for kind in trees.KINDS for permuted in (False, True)]
TREE_COLUMNS = ("level", "index", "num", "den")
ORBIT_COLUMNS = ("i", "num", "den")


def reference_level(kind, permuted, k):
    """Level k as (num, den) pairs, left to right, from a lazy DFS."""
    if permuted:
        root = (1, 1) if kind == "sb" else (1, 2)
    else:
        root = {"sb": (0, 1, 1, 0), "farey": (0, 1, 1, 1), "dyadic": (1, 2)}[kind]

    def children(s):
        if len(s) == 4:
            pl, ql, pr, qr = s
            return (pl, ql, pl + pr, ql + qr), (pl + pr, ql + qr, pr, qr)
        p, q = s
        if not permuted:
            return (2 * p - 1, 2 * q), (2 * p + 1, 2 * q)
        if kind == "sb":
            return (p, p + q), (p + q, q)
        if kind == "farey":
            return (p, p + q), (q, 2 * q - p)
        return (p, 2 * q), (p + q, 2 * q)

    stack = [(1, root)]
    while stack:
        d, s = stack.pop()
        if d == k:
            yield (s[0] + s[2], s[1] + s[3]) if len(s) == 4 else s
        else:
            left, right = children(s)
            stack += [(d + 1, right), (d + 1, left)]


def _frac(p, q):
    return None if q == 0 else Fraction(p, q)  # None is the point 1/0


def _ref_step(m, x):
    if m == "R":
        if x is None:
            return Fraction(0)
        n = x.numerator // x.denominator
        return 1 / (n + 1 - (x - n))
    if m == "S":  # S = phi R phi^-1 with phi(t) = t / (1 + t)
        y = None if x == 1 else x / (1 - x)
        r = _ref_step("R", y)
        return r / (1 + r)
    if m == "T":  # the binary odometer: x + 3 / 2^(n+1) - 1 on [1 - 2^-n, 1 - 2^-(n+1))
        if x == 1:
            return Fraction(0)
        n = 0
        while 1 - x <= Fraction(1, 2 ** (n + 1)):
            n += 1
        return x + Fraction(3, 2 ** (n + 1)) - 1
    if m == "G":
        if x is None:
            return None
        return x - 1 if x >= 1 else x / (1 - x)
    if m == "F":
        return x / (1 - x) if 2 * x < 1 else 2 - 1 / x
    return Fraction(1) if x == 1 else 2 * x % 1  # D


def reference_orbit(m, p, q, count):
    x = _frac(p, q)
    out = []
    for _ in range(count):
        out.append((1, 0) if x is None else (x.numerator, x.denominator))
        x = _ref_step(m, x)
    return out


def reference_bytes(fmt, seed, columns, rows, flags, extra=None):
    buf = io.StringIO()
    if fmt == "csv":
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
    else:
        doc = {
            "meta": {"version": __version__, "seed": seed, "flags": flags},
            "columns": list(columns),
            "rows": [list(r) for r in rows],
        }
        if extra:
            doc.update(extra)
        json.dump(doc, buf, indent=2)
        buf.write("\n")
    return buf.getvalue()


def run_both(argv, capsys, tmp_path):
    """(stdout text, --output file text) of one invocation."""
    assert run(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "table.out"
    assert run(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    return out, target.read_text(encoding="utf-8")


def fib_ratio(bits):
    a, b = 1, 1
    while b.bit_length() < bits:
        a, b = b, a + b
    return a, b


@pytest.mark.parametrize("kind,permuted", SPECS)
def test_tree_levels_match_row_writers(kind, permuted, capsys, tmp_path):
    for k in range(1, 15):
        rows = [(k, i, p, q) for i, (p, q) in enumerate(reference_level(kind, permuted, k), 1)]
        flags = {"kind": kind, "permuted": permuted, "depth": k}
        for fmt in ("csv", "json"):
            argv = ["tree", "--kind", kind, "--depth", str(k), "--format", fmt, "--seed", "3"]
            if permuted:
                argv.append("--permuted")
            want = reference_bytes(fmt, 3, TREE_COLUMNS, rows, flags)
            assert run_both(argv, capsys, tmp_path) == (want, want), (kind, permuted, k, fmt)


FIB_P, FIB_Q = fib_ratio(200)
STARTS = {m: [(0, 1), (1, 1), (FIB_P, FIB_Q)] for m in "RSTGFD"}
STARTS["R"] = STARTS["G"] = [(1, 0), (0, 1), (1, 1), (FIB_P, FIB_Q)]


B = maps.ORBIT_BLOCK


@pytest.mark.parametrize("m", sorted(STARTS))
def test_orbits_match_row_writers(m, capsys, tmp_path):
    for p, q in STARTS[m]:
        orbit = reference_orbit(m, p, q, B + 1)
        start = f"{p}/{q}"
        for count in (0, 1, B - 1, B, B + 1):
            rows = [(i, a, b) for i, (a, b) in enumerate(orbit[:count])]
            flags = {"map": m, "start": start, "count": count}
            for fmt in ("csv", "json"):
                argv = ["enumerate", "--map", m, "--start", start,
                        "--count", str(count), "--format", fmt]
                want = reference_bytes(fmt, 7, ORBIT_COLUMNS, rows, flags)
                assert run_both(argv, capsys, tmp_path) == (want, want), (m, start, count, fmt)


def test_empty_json_rows(capsys):
    assert run(["enumerate", "--map", "R", "--start", "1/1", "--count", "0",
                "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '\n  "rows": []\n}\n' in out
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_rows_then_curve(fmt, capsys, tmp_path):
    walks, horizon = 4097, 12  # one row past a block
    lo, hi = ExtRat(2, 5), ExtRat(3, 5)
    table = stochastic.walk_table("MC1", ExtRat(1, 1), walks, horizon, 5, interval=(lo, hi))
    rows = [(w, *r) for w, r in enumerate(table)]
    flags = {"chain": "mc1", "start": "1/1", "walks": walks, "horizon": horizon,
             "interval": "2/5,3/5"}
    extra = None
    if fmt == "json":
        hit_times = [r[0] for r in table]
        curve = [str(Fraction(sum(0 <= h <= t for h in hit_times), walks))
                 for t in range(horizon + 1)]
        extra = {"fraction": curve[-1], "curve": curve}
    argv = ["simulate", "--chain", "mc1", "--walks", str(walks), "--horizon", str(horizon),
            "--interval", "2/5,3/5", "--seed", "5", "--format", fmt]
    want = reference_bytes(fmt, 5, ("walk", "hit_time", "final_num", "final_den"),
                           rows, flags, extra)
    got = run_both(argv, capsys, tmp_path)
    assert got == (want, want)
    if fmt == "json":
        assert list(json.loads(got[0])) == ["meta", "columns", "rows", "fraction", "curve"]


def test_simulate_json_curve_memory_does_not_grow_with_walks(tmp_path):
    # the curve needs one hit count per time step, not the hit-time column
    peaks = {}
    for walks in (20000, 200000):
        argv = ["simulate", "--chain", "mc0", "--walks", str(walks), "--horizon", "5",
                "--interval", "2/5,3/5", "--format", "json",
                "--output", str(tmp_path / f"{walks}.json")]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks[walks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a hit-time list would add 8 bytes a walk, 1.4 MB here
    assert peaks[200000] < peaks[20000] + (256 << 10)


@pytest.mark.parametrize("kind,permuted", SPECS)
@pytest.mark.parametrize("k", [62, 63, 70, 100])
def test_deep_level_blocks_match_lazy_walk(kind, permuted, k):
    # level 62 is the deepest computed in int64, 63 and up use Python ints;
    # two blocks check both without emitting 2^(k-1) entries
    spec = trees.TreeSpec(kind, permuted=permuted)
    got = []
    for num, den in islice(trees.level_blocks(spec, k, replace(CAPS, level=k)), 2):
        got += zip(num.tolist(), den.tolist())
    assert len(got) == 2 << trees.BLOCK_LEVELS
    assert got == list(islice(reference_level(kind, permuted, k), len(got)))
    assert all(type(v) is int for pair in got for v in pair)


SB = trees.TreeSpec("sb")


@pytest.mark.parametrize("call,error", [
    (lambda: trees.level_blocks(SB, 0), DomainError),
    (lambda: trees.level_blocks(SB, 25), CapExceeded),
    (lambda: trees.level(SB, 0), DomainError),
    (lambda: maps.orbit_blocks("S", 3, 2, 5), DomainError),
    (lambda: maps.orbit_blocks("S", 3, 2, 0), DomainError),
    (lambda: maps.orbit_blocks("R", 1, 1, -1), DomainError),
    (lambda: maps.orbit_iter("S", ExtRat(3, 2), 5), DomainError),
    (lambda: stochastic.walk_blocks("MC3", ONE, 10, 10, 0), DomainError),
], ids=["level-0", "level-cap", "level-iter-0", "orbit-domain", "orbit-domain-empty",
        "orbit-negative", "orbit-iter-domain", "walk-chain"])
def test_streams_check_their_arguments_when_called(call, error):
    # no next(): the error must come from the call itself, before any block
    with pytest.raises(error):
        call()


# --------------------------------------------- the int64 digit-matrix path

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
U32 = 1 << 32
TENS = sorted({v for i in range(19) for v in (10 ** i - 1, 10 ** i)} | {INT64_MAX})


def emit_blocks(fmt, columns, blocks):
    """stdout of _emit_ints over the blocks, as the CLI writes a table."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli._emit_ints(Namespace(format=fmt, output=None, seed=7), columns, blocks,
                              {"case": 1}) == 0
    return buf.getvalue()


def want_bytes(fmt, columns, blocks):
    rows = [tuple(map(int, row)) for cols in blocks for row in zip(*cols)]
    return reference_bytes(fmt, 7, columns, rows, {"case": 1})


def i64(*columns):
    return tuple(np.array(c, dtype=np.int64) for c in columns)


@pytest.fixture
def digit_blocks(monkeypatch):
    """The number of blocks written from a digit matrix."""
    seen = []
    real = cli._digit_rows

    def spy(pieces, cols, *rest):
        seen.append(len(cols[0]))
        return real(pieces, cols, *rest)

    monkeypatch.setattr(cli, "_digit_rows", spy)
    return seen


INT64_BLOCKS = {
    # every width from 1 to 19 digits, against its mirror image and negation
    "powers-of-ten": i64(TENS, TENS[::-1], [-v for v in TENS]),
    # the wrap of -2^63's absolute value, zeros beside negatives of every sign width
    "zeros-and-negatives": i64([0, -1, -2, -9, -10, -99, -100, INT64_MIN, INT64_MIN + 1, 7],
                               [0] * 10,
                               [-1, 1, 0, INT64_MAX, INT64_MIN, -10 ** 18, 10 ** 18, -5, 55, 0]),
    # where the digits switch from one uint32 to three 9-digit parts: a column whose
    # magnitudes stop at 2^32 - 1 is cast once, one that reaches 2^32 is split
    "uint32-edges": i64([0, U32 - 1, U32, 10 ** 18, INT64_MAX, INT64_MIN],
                        [U32 - 1, 0, 1, 10, U32 - 1, 5],
                        [U32, 0, U32 - 1, 10 ** 9, 10 ** 9 - 1, 1],
                        [1 - U32, -U32, 0, -10 ** 18, 10 ** 18, -1],
                        [10 ** 18, 10 ** 18 - 1, 10 ** 9, 10 ** 9 - 1, 10 ** 18 + 10 ** 9, 0]),
    "one-row": i64([INT64_MIN], [0], [INT64_MAX]),
    "one-column": i64([3, 30, 300]),
    # the same widths and edges with no negative entry
    "powers-of-ten-unsigned": i64(TENS, TENS[::-1]),
    "uint32-edges-unsigned": i64([0, U32 - 1, U32, 10 ** 18, INT64_MAX, 0],
                                 [U32 - 1, 0, 1, 10, U32 - 1, 5],
                                 [U32, 0, U32 - 1, 10 ** 9, 10 ** 9 - 1, 1],
                                 [10 ** 18, 10 ** 18 - 1, 10 ** 9, 10 ** 9 - 1,
                                  10 ** 18 + 10 ** 9, 0]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(INT64_BLOCKS))
def test_int64_blocks_match_row_writers(name, fmt, digit_blocks):
    cols = INT64_BLOCKS[name]
    columns = tuple(f"c{j}" for j in range(len(cols)))
    # the block alone, and after an empty block and a one-row block
    for blocks in ([cols], [i64(*[[]] * len(cols)), tuple(c[:1] for c in cols), cols]):
        assert emit_blocks(fmt, columns, blocks) == want_bytes(fmt, columns, blocks)
    # only blocks with no negative entry take the matrix: of the signed cases,
    # only the first row of powers-of-ten (0, 2^63 - 1, 0) has none
    n = len(cols[0])
    routed = {"powers-of-ten": [1], "zeros-and-negatives": [], "uint32-edges": [],
              "one-row": []}
    assert digit_blocks == routed.get(name, [n, 1, n])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_int64_stream_matches_row_writers(fmt, digit_blocks):
    blocks = [i64([], [])]
    assert emit_blocks(fmt, ("a", "b"), blocks) == want_bytes(fmt, ("a", "b"), [])
    assert digit_blocks == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mixed_stream_takes_each_blocks_path(fmt, digit_blocks):
    big = 1 << 70
    blocks = [
        (range(0, 3), [5, 6, 7], [-1, 0, big]),  # lists and ranges: %d
        i64([3, 4], [10, 11], [12, -13]),  # signed int64: %d
        i64([3, 4], [10, 11], [12, 13]),  # nonnegative int64: the matrix
        (np.arange(5, 7), np.array([big, -big], dtype=object), np.array([1, 2])),  # object: %d
        i64([7], [INT64_MIN], [INT64_MAX]),  # signed int64: %d
        i64([7], [0], [INT64_MAX]),  # the matrix
        (np.arange(8, 10), np.array([1, 2], dtype=np.int32), np.array([3, 4])),  # int32: %d
    ]
    assert emit_blocks(fmt, ("i", "num", "den"), blocks) == want_bytes(fmt, ("i", "num", "den"), blocks)
    assert digit_blocks == [2, 1]


@pytest.mark.parametrize("argv,rows", [
    *[(["tree", "--kind", kind, "--depth", "15"] + ["--permuted"] * permuted, 1 << 14)
      for kind, permuted in SPECS],
    (["enumerate", "--map", "R", "--start", "1/0", "--count", "10000"], 10000),
    (["enumerate", "--map", "S", "--start", "1", "--count", "10000"], 10000),
    (["enumerate", "--map", "T", "--start", "1/1", "--count", "10000"], 10000),
    (["enumerate", "--map", "T", "--start", "1/3", "--count", "10000"], 10000),
    (["simulate", "--chain", "mc1", "--walks", "5000", "--horizon", "8", "--interval", "2/5,3/5"], 0),
], ids=[f"tree-{kind}{'-permuted' * permuted}" for kind, permuted in SPECS]
    + ["enumerate-R", "enumerate-S", "enumerate-T", "enumerate-T-odometer", "simulate"])
def test_commands_route_their_blocks(argv, rows, digit_blocks, tmp_path):
    # tree and enumerate write indices and reduced p, q >= 0 in int64, all on
    # the digit matrix; simulate's blocks are lists
    assert run(argv + ["--output", str(tmp_path / "out.csv")]) == 0
    assert sum(digit_blocks) == rows


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.integers(INT64_MIN, INT64_MAX) | st.integers(-1000, 1000)
             | st.sampled_from([0, INT64_MIN, INT64_MAX, U32 - 1, U32, *TENS]),
             min_size=width, max_size=width),
    max_size=30)), st.sampled_from(["csv", "json"]))
def test_random_int64_blocks_match_row_writers(rows, fmt):
    width = len(rows[0]) if rows else 1
    cols = tuple(np.array([r[j] for r in rows], dtype=np.int64) for j in range(width))
    columns = tuple(f"c{j}" for j in range(width))
    # the last block maps each negative v to -v - 1, so the matrix sees these rows too
    blocks = [cols, tuple(c[::-1] for c in cols), tuple(np.where(c < 0, ~c, c) for c in cols)]
    assert emit_blocks(fmt, columns, blocks) == want_bytes(fmt, columns, blocks)
