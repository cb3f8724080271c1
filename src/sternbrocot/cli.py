"""Command-line front end.

Subcommands:

* ``tree`` - emit one level of a mediant tree
* ``enumerate`` - iterate one of the six interval maps from a start point
* ``qmark`` - evaluate the singular homeomorphisms, their inverses, or
  an exact enclosure from a continued-fraction prefix
* ``fourier`` - Fourier coefficients of the limit distribution, by tree
  averaging and by ergodic (orbit) averaging
* ``simulate`` - run the mediant random walks, optionally timing the
  first entry into an interval
* ``verify`` - run the internal invariant suite

Exit codes: 0 on success, 1 on a usage or domain error, 2 when the
verification suite reports a failure.

Output goes to stdout or ``--output PATH``; a relative PATH is placed
under ``$STERNBROCOT_OUTDIR`` when that variable is set.  CSV is the
default format; ``--format json`` wraps the same columns and rows in a
document with a metadata header.  The metadata records only what shaped
the rows (version, seed, semantic flags), never execution details such
as worker counts, so output bytes are reproducible across machines and
parallelism levels.

Size caps guard each command: the ``Caps`` table ``CAPS``, or, for runs
expected to be large, ``--unsafe-cap``'s ``UNSAFE_CAPS``, which lifts
every cap.  Library callers pass a larger ``Caps``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import __version__, trees
from .core import (
    CAPS, INVERTIBLE, KINDS, MAPS, ONE, UNSAFE_CAPS, CapExceeded, DomainError, ExtRat, check_cap,
    parse_cf,
)
from .trees import TreeSpec

DEFAULT_SEED = 7
OUTDIR_ENV = "STERNBROCOT_OUTDIR"


class UsageError(Exception):
    """Bad invocation: malformed value, conflicting flags, unknown name."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code is reserved
    # here for verification failures, so route errors through UsageError.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------- parsing

def _value(text: str, parse=ExtRat.from_string, noun: str = "fraction"):
    """text read by parse (an ExtRat by default), or a UsageError naming noun."""
    try:
        return parse(text)
    except ValueError as exc:  # DomainError among them
        raise UsageError(f"malformed {noun} {text!r}: {exc}") from exc


def _interval(text: str) -> tuple[ExtRat, ExtRat]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"interval must be 'a/b,c/d', got {text!r}")
    return _value(parts[0]), _value(parts[1])


def _cf_prefix(text: str) -> list[int]:
    s = text.strip()
    try:
        if s.startswith("["):
            return parse_cf(s)
        return [int(t) for t in s.replace(";", ",").split(",")]
    except ValueError as exc:  # DomainError among them
        raise UsageError(
            f"malformed continued-fraction prefix {text!r}"
        ) from exc


def _workers(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# ---------------------------------------------------------------- output

def _open_out(args):
    """The output stream as a context manager; it closes only a file."""
    if args.output is None:
        return contextlib.nullcontext(sys.stdout)
    path = args.output
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _doc(args, columns, flags, rows, extra=None):
    doc = {
        "meta": {"version": __version__, "seed": args.seed, "flags": flags},
        "columns": list(columns),
        "rows": rows,
    }
    if extra:
        doc.update(extra)
    return doc


def _emit(args, columns, rows, flags) -> int:
    """Write one table as CSV rows or as a JSON document with metadata."""
    with _open_out(args) as stream:
        if args.format == "csv":
            import csv

            w = csv.writer(stream, lineterminator="\n")
            w.writerow(columns)
            w.writerows(rows)
        else:
            import json

            doc = _doc(args, columns, flags, [list(r) for r in rows])
            json.dump(doc, stream, indent=2)
            stream.write("\n")
    return 0


_ROWS_KEY = '\n  "rows": []'  # unique: a newline inside a JSON string is escaped


def _emit_ints(args, columns, blocks, flags, extra=None) -> int:
    """Write an all-integer table given as blocks of equal-length columns.

    A block whose columns are all int64 arrays with no negative entry is
    written by _digit_rows from one matrix of digits; any other block
    (lists, ranges, object arrays of Python ints, signed int64 columns)
    with one %-format.  Either way the bytes are those _emit writes for
    the same rows: csv.writer's, or json.dump's with indent=2, whose
    document head and tail (meta, columns, extra keys) come from
    json.dumps itself.  extra, if given, is called after the last block
    for the JSON keys that follow the rows.
    """
    width = len(columns)
    as_json = args.format == "json"

    def json_parts(extra_keys=None):
        import json

        text = json.dumps(_doc(args, columns, flags, [], extra_keys), indent=2)
        return text.split(_ROWS_KEY)

    if as_json:
        head = json_parts()[0] + '\n  "rows": ['
        row = ",\n    [" + ",".join(["\n      %d"] * width) + "\n    ]"
    else:
        head = ",".join(columns) + "\n"
        row = ",".join(["%d"] * width) + "\n"
    pieces = [p.encode() for p in row.split("%d")]
    with _open_out(args) as stream:
        stream.write(head)
        count = 0
        for cols in blocks:
            n = len(cols[0])
            lows = [int(col.min()) for col in cols
                    if n and getattr(col, "dtype", None) == "int64"]
            if len(lows) == width and min(lows) >= 0:
                text = _digit_rows(pieces, cols, lows)
            else:
                cells = [0] * (n * width)
                for j, col in enumerate(cols):
                    cells[j::width] = col.tolist() if hasattr(col, "tolist") else col
                text = row * n % tuple(cells)
            # JSON rows after the first start with ","
            stream.write(text[1:] if as_json and not count else text)
            count += n
        if as_json:
            rest = json_parts(extra and extra())[1]
            stream.write(("\n  ]" if count else "]") + rest + "\n")
    return 0


def _digit_rows(pieces, cols, lows):
    """The text of n rows, pieces[0] col0 pieces[1] col1 ... pieces[-1],
    for a nonempty block of nonnegative int64 columns with minima lows,
    as %d would write them.

    The rows are one (n, row width) uint8 matrix.  Its constant cells hold
    the pieces; each field is right-aligned in cells as wide as the block's
    largest value, one digit column per uint32 division by 10: a value
    below 2^32 is cast once, a wider one split once into the 9-digit parts
    v mod 10^9, v // 10^9 mod 10^9 and v // 10^18.
    A mask keeps the last digit and every digit from the first nonzero one on.
    """
    import numpy as np

    fields = []  # (uint32 parts, cells, digits every row has)
    template = bytearray(pieces[0])
    for col, lo, piece in zip(cols, lows, pieces[1:]):
        hi = int(col.max())
        parts = [col] if hi < 1 << 32 else [col % 10 ** 9, col // 10 ** 9 % 10 ** 9, col // 10 ** 18]
        cells = len(str(hi))
        fields.append(([p.astype(np.uint32) for p in parts], cells, len(str(lo))))
        template += bytes(cells) + piece
    n, row_width = len(cols[0]), len(template)
    text = np.frombuffer(template * n, np.uint8).reshape(n, row_width)
    keep = np.ones((n, row_width), bool)
    end = len(pieces[0])
    for (parts, cells, shared), piece in zip(fields, pieces[1:]):
        end += cells
        for i in range(cells):
            if i % 9 == 0 and i // 9 < len(parts):  # the next part starts
                v, higher = parts[i // 9], parts[i // 9 + 1:]
                above = sum(higher) if higher else None  # > 0 if one is
            at = end - 1 - i
            q = v // 10
            text[:, at] = v - q * 10 + 48
            if i >= shared:  # every row has its digits below 10^shared
                keep[:, at] = v != 0 if above is None else (v | above) != 0
            v = q
        end += len(piece)
    return str(text[keep], "ascii")  # decodes the kept cells in place, with no bytes copy


def _indexed(first, blocks, index=range):
    """Prefix each block of columns with index(first, first + n), the
    indices of its n rows."""
    for cols in blocks:
        n = len(cols[0])
        yield (index(first, first + n), *cols)
        first += n


# ------------------------------------------------------------- commands

def _cmd_tree(args, caps) -> int:
    import numpy as np

    spec = TreeSpec(args.kind, permuted=args.permuted)
    k = args.depth
    levels = _indexed(1, trees.level_blocks(spec, k, caps), np.arange)
    blocks = ((np.full(len(num), k), index, num, den) for index, num, den in levels)
    flags = {"kind": args.kind, "permuted": args.permuted, "depth": k}
    return _emit_ints(args, ("level", "index", "num", "den"), blocks, flags)


def _cmd_enumerate(args, caps) -> int:
    import numpy as np

    from . import maps

    start = _value(args.start)
    orbit = maps.orbit_blocks(args.map, start.num, start.den, args.count, caps)
    flags = {"map": args.map, "start": args.start, "count": args.count}
    return _emit_ints(args, ("i", "num", "den"), _indexed(0, orbit, np.arange), flags)


def _cmd_qmark(args, caps) -> int:
    from .minkowski import Dyadic, qmark, qmark_enclosure, qmark_inv, rho, rho_inv

    if args.enclosure:
        if args.extended:
            raise UsageError("--extended does not combine with --enclosure, "
                             "whose prefix picks ? (a0 = 0) or rho")
        prefix = _cf_prefix(args.value)
        lo, hi = qmark_enclosure(prefix, caps)
        flags = {"input": args.value, "mode": "enclosure"}
        row = (args.value, str(lo), str(hi), float(lo), float(hi))
        return _emit(
            args, ("input", "lo", "hi", "lo_decimal", "hi_decimal"), [row], flags
        )
    if args.inverse:
        d = _value(args.value, Dyadic.from_string, "dyadic")
        x = rho_inv(d, caps) if args.extended else qmark_inv(d, caps)
        flags = {"input": args.value, "mode": "inverse", "extended": args.extended}
        row = (args.value, str(x), float(x))
    else:
        x = _value(args.value)
        d = rho(x, caps) if args.extended else qmark(x, caps)
        flags = {"input": args.value, "mode": "value", "extended": args.extended}
        row = (args.value, str(d), float(d))
    return _emit(args, ("input", "value", "decimal"), [row], flags)


def _cmd_fourier(args, caps) -> int:
    from . import maps
    from .minkowski import fourier_tree_means

    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    check_cap(caps, "freqs", args.n_max, "--n-max")  # before len() of a range past 2^63
    start = _value(args.start)
    ns = range(1, args.n_max + 1)
    runs = []  # one list of rows a method, each estimate made for all n at once
    if args.method in ("tree", "both"):
        zs = fourier_tree_means(ns, args.depth, caps=caps)
        runs.append([(n, z.real, z.imag, "tree", 1 << args.depth) for n, z in zip(ns, zs)])
    if args.method in ("ergodic", "both"):
        zs = maps.ergodic_fourier_means(ns, start, args.iters, map=args.map, caps=caps)
        runs.append([(n, z.real, z.imag, "ergodic", args.iters) for n, z in zip(ns, zs)])
    rows = [row for rows_of_n in zip(*runs) for row in rows_of_n]
    flags = {
        "n_max": args.n_max,
        "method": args.method,
        "depth": args.depth,
        "iters": args.iters,
        "map": args.map,
        "start": args.start,
    }
    return _emit(args, ("n", "re", "im", "method", "size"), rows, flags)


def _cmd_simulate(args, caps) -> int:
    from . import stochastic

    if args.chain == "rw":
        if args.start not in (None, "1", "1/1"):
            raise UsageError("the rw chain always starts at 1/1")
        kind, start = "MC0", ONE
    else:
        kind = args.chain.upper()
        start = _value(args.start) if args.start is not None else ONE
    interval = _interval(args.interval) if args.interval else None
    blocks = stochastic.walk_blocks(kind, start, args.walks, args.horizon, args.seed,
                                    interval=interval, caps=caps)
    flags = {
        "chain": args.chain,
        "start": str(start),
        "walks": args.walks,
        "horizon": args.horizon,
        "interval": args.interval,
    }
    extra = None
    if interval is not None and args.format == "json":
        counts = [0] * (args.horizon + 1)  # walks first inside at each time
        blocks = (stochastic.count_hits(counts, cols[0]) or cols for cols in blocks)

        def extra():
            curve = [str(c) for c in stochastic.curve_from_counts(counts, args.walks)]
            return {"fraction": curve[-1], "curve": curve}

    return _emit_ints(
        args, ("walk", "hit_time", "final_num", "final_den"), _indexed(0, blocks),
        flags, extra,
    )


def _cmd_verify(args, caps) -> int:
    from . import verify  # only this command loads the suite

    try:
        picked = verify.select(args.suite)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    if args.list:
        with _open_out(args) as stream:
            for name in picked:
                stream.write(name + "\n")
        return 0
    results = verify.run_suite(args.suite, seed=args.seed)
    rows = [(r.name, "ok" if r.ok else "FAIL", r.detail) for r in results]
    flags = {"suite": args.suite}
    _emit(args, ("name", "status", "detail"), rows, flags)
    return 0 if all(r.ok for r in results) else 2


# --------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    common.add_argument(
        "--output", metavar="PATH", default=None,
        help=f"write to PATH instead of stdout; relative paths land under ${OUTDIR_ENV} when set",
    )
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"random seed recorded in metadata and used by stochastic commands (default {DEFAULT_SEED})",
    )
    common.add_argument(
        "--unsafe-cap", action="store_true",
        help="lift every size cap to its UNSAFE_CAPS value",
    )
    workers = _Parser(add_help=False)
    workers.add_argument(
        "--workers", type=_workers, default=1,
        help="at least 1; starts no threads and never changes results",
    )

    p = _Parser(prog="sternbrocot", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    t = sub.add_parser(
        "tree", parents=[common], help="emit one level of a mediant tree"
    )
    t.add_argument("--kind", choices=KINDS, required=True,
                   help="which tree: sb, farey, or dyadic")
    t.add_argument("--permuted", action="store_true",
                   help="use the permuted descendant rule")
    t.add_argument("--depth", type=int, required=True, metavar="K",
                   help="level to emit (root is level 1)")
    t.set_defaults(func=_cmd_tree)

    e = sub.add_parser(
        "enumerate", parents=[common],
        help="iterate an interval map from a start point",
    )
    e.add_argument("--map", choices=MAPS, required=True,
                   help="which map to iterate")
    e.add_argument("--start", required=True, metavar="p/q",
                   help="starting point (1/0 is the point at infinity)")
    e.add_argument("--count", type=int, required=True, metavar="N",
                   help="number of orbit entries, start included")
    e.set_defaults(func=_cmd_enumerate)

    q = sub.add_parser(
        "qmark", parents=[common],
        help="evaluate the singular homeomorphisms exactly",
    )
    q.add_argument("value", help="rational p/q, dyadic k/2^s with --inverse, "
                                 "or a continued-fraction prefix with --enclosure")
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--inverse", action="store_true",
                      help="map a dyadic back to its rational preimage")
    mode.add_argument("--enclosure", action="store_true",
                      help="exact bounds from a continued-fraction prefix, "
                           "e.g. '[0;2]' or '0,2'")
    q.add_argument("--extended", action="store_true",
                   help="use the two-sided extension on [0, infinity]; "
                        "not with --enclosure")
    q.set_defaults(func=_cmd_qmark)

    f = sub.add_parser(
        "fourier", parents=[common],
        help="Fourier coefficients of the limit distribution",
    )
    f.add_argument("--n-max", type=int, default=8, metavar="N",
                   help="compute coefficients 1..N (default 8)")
    f.add_argument("--method", choices=("tree", "ergodic", "both"),
                   default="both", help="estimator(s) to run (default both)")
    f.add_argument("--depth", type=int, default=18, metavar="K",
                   help="tree levels averaged by the tree method (default 18)")
    f.add_argument("--iters", type=int, default=1 << 18, metavar="N",
                   help="orbit length for the ergodic method (default 2^18)")
    f.add_argument("--map", choices=INVERTIBLE, default="R",
                   help="map iterated by the ergodic method (default R)")
    f.add_argument("--start", default="1/1", metavar="p/q",
                   help="orbit start for the ergodic method (default 1/1)")
    f.set_defaults(func=_cmd_fourier)

    s = sub.add_parser(
        "simulate", parents=[common, workers], help="run the mediant random walks"
    )
    s.add_argument("--chain", choices=("mc0", "mc1", "rw"), required=True,
                   help="mc0: fair coin; mc1: denominator-weighted; "
                        "rw: mc0 pinned to start 1/1")
    s.add_argument("--start", default=None, metavar="p/q",
                   help="starting state (default 1/1)")
    s.add_argument("--walks", type=int, default=1000, metavar="W",
                   help="number of independent walks (default 1000)")
    s.add_argument("--horizon", type=int, default=100, metavar="H",
                   help="steps per walk (default 100)")
    s.add_argument("--interval", default=None, metavar="a/b,c/d",
                   help="record first entry into this open interval")
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser(
        "verify", parents=[common, workers], help="run the internal invariant suite"
    )
    v.add_argument("--suite", default="all",
                   help="'all', or a comma list of check names or module "
                        "prefixes (default all)")
    v.add_argument("--list", action="store_true",
                   help="list the names --suite selects and exit")
    v.set_defaults(func=_cmd_verify)

    return p


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    # The caps bound every exact value, so values print and parse whole,
    # past Python's default limit of 4300 digits where it has one.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"sternbrocot: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    try:
        return args.func(args, UNSAFE_CAPS if args.unsafe_cap else CAPS)
    except (UsageError, DomainError, CapExceeded) as exc:
        print(f"sternbrocot: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. head); silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"sternbrocot: error: {exc}", file=sys.stderr)
        return 1
