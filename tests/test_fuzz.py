"""Any argv of any subcommand exits 0 or 1 through cli.run, with no traceback.

Hypothesis draws each option of a subcommand, or leaves it out, from edge
values: 0, -1, 1/0, 0/0, malformed fractions and continued fractions,
2^70-size values, 3000-term continued fractions and 2^80 counts, which
every cap refuses, also under --unsafe-cap.  The sizes that pass are at
most 3, and fourier always gets --depth and --iters, so no call runs long.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from sternbrocot.cli import run
from sternbrocot.core import KINDS, MAPS

BIG = 1 << 70
COUNTS = ["0", "-1", "1", "3", str(1 << 80), "x", "1.5", ""]
FRACS = ["0", "-1", "1", "1/0", "0/0", "2/5", "3/2", "-1/2", "1/-2", "x", "1//2", "", "/3",
         "2/", "1e3", " 1/3 ", str(BIG), f"1/{BIG}", f"{BIG - 1}/{BIG}", f"{BIG}/{BIG + 1}"]
DYADICS = ["1/2^0", "3/2^3", "1/2^-1", "1/2^x", "5/2^2", f"1/2^{1 << 80}", f"{BIG}/2^71"]
CFS = ["[0;2,3]", "0,2", "[1;2]", "[0;]", "[;]", "[0;0]", "[0;-1]", "[0", "0;2", f"[0;{1 << 80}]",
       "[0;" + ",".join(["1"] * 3000) + "]", ",".join(["2"] * 3000)]
INTERVALS = ["2/5,3/5", "0,1", "3/5,2/5", "1/0,0/0", "0/0,1", "x", "1/2", "1,2,3", f"0,{BIG}"]
SUITES = ["all", "core", "trees,maps", "core.phi-mediant", "nonesuch", "", ",", "core,nonesuch"]


def opt(flag, values):
    """Nothing, or flag and one of values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def given_opt(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def switch(flag):
    return st.sampled_from([[], [flag]])


def argv(*parts):
    common = (opt("--format", ["csv", "json", "xml"]), opt("--seed", ["7", "-1", str(1 << 80), "x"]),
              switch("--unsafe-cap"))
    return st.tuples(*parts, *common).map(lambda ps: [a for p in ps for a in p])


ARGVS = st.one_of(
    argv(st.just(["tree"]), opt("--kind", [*KINDS, "bad"]), switch("--permuted"),
         opt("--depth", COUNTS)),
    argv(st.just(["enumerate"]), opt("--map", [*MAPS, "X"]), opt("--start", FRACS),
         opt("--count", COUNTS)),
    argv(st.just(["qmark"]), st.sampled_from(FRACS + DYADICS + CFS).map(lambda v: [v]),
         switch("--inverse"), switch("--enclosure"), switch("--extended")),
    argv(st.just(["fourier"]), opt("--n-max", COUNTS), opt("--method", ["tree", "ergodic", "both", "x"]),
         given_opt("--depth", COUNTS), given_opt("--iters", COUNTS), opt("--map", [*MAPS, "X"]),
         opt("--start", FRACS)),
    argv(st.just(["simulate"]), opt("--chain", ["mc0", "mc1", "rw", "mc2"]), opt("--start", FRACS),
         given_opt("--walks", COUNTS), given_opt("--horizon", COUNTS),
         opt("--interval", INTERVALS), opt("--workers", COUNTS)),
    # a known suite runs only with --list: the whole suite takes seconds
    argv(st.just(["verify", "--list"]), opt("--suite", SUITES), opt("--workers", COUNTS)),
    argv(st.just(["verify"]), given_opt("--suite", SUITES[4:])),
)


@settings(deadline=None, max_examples=300)
@given(ARGVS)
def test_every_argv_exits_zero_or_one_without_a_traceback(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.getvalue()
    else:
        assert code == 1 and err.startswith("sternbrocot: error: "), (code, err)
