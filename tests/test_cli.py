"""Command line surface: schemas, exit codes, redirection, determinism."""

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from sternbrocot import cli, maps, trees, verify
from sternbrocot.cli import run
from sternbrocot.minkowski import qmark, rho
from sternbrocot.core import Caps, ExtRat


def lines(capsys):
    out = capsys.readouterr().out
    return out.splitlines()


def decimal(n: int) -> str:
    """str(n), past Python's limit on the digits of an int string."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestTree:
    def test_permuted_row_is_pinned(self, capsys):
        assert run(["tree", "--kind", "sb", "--permuted", "--depth", "4"]) == 0
        got = lines(capsys)
        assert got[0] == "level,index,num,den"
        assert len(got) == 9
        assert got[1] == "4,1,1,4"
        assert got[-1] == "4,8,4,1"

    def test_depth_validation_emits_nothing(self, capsys):
        assert run(["tree", "--kind", "sb", "--depth", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_cap_is_named_and_liftable(self, capsys):
        assert run(["tree", "--kind", "dyadic", "--depth", "26"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_json_shape(self, capsys):
        assert run(["tree", "--kind", "farey", "--depth", "3",
                    "--format", "json", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["level", "index", "num", "den"]
        assert doc["rows"] == [[3, 1, 1, 4], [3, 2, 2, 5], [3, 3, 3, 5], [3, 4, 3, 4]]
        assert doc["meta"]["seed"] == 5
        assert doc["meta"]["flags"]["kind"] == "farey"
        assert "workers" not in doc["meta"]["flags"]
        assert "output" not in doc["meta"]["flags"]


class TestEnumerate:
    def test_first_nine_rationals(self, capsys):
        assert run(["enumerate", "--map", "R", "--start", "1/0",
                    "--count", "9"]) == 0
        got = lines(capsys)
        assert got[0] == "i,num,den"
        assert got[1] == "0,1,0"
        assert got[-1] == "8,3,1"

    def test_bad_start_is_a_usage_error(self, capsys):
        assert run(["enumerate", "--map", "S", "--start", "7/4",
                    "--count", "4"]) == 1
        assert capsys.readouterr().out == ""


class TestQmark:
    def test_value_json_is_pinned(self, capsys):
        assert run(["qmark", "2/5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [["2/5", "3/2^3", 0.375]]

    def test_dyadic_over_the_exponent_cap_is_a_cap_hit(self, capsys):
        assert run(["qmark", "3/2^70000", "--inverse"]) == 1
        err = capsys.readouterr().err
        assert "caps.exp" in err and "malformed" not in err
        assert run(["qmark", "3/2^70000", "--inverse", "--unsafe-cap"]) == 0
        assert lines(capsys)[1].startswith("3/2^70000,2/139999,")

    def test_inverse_round_trips(self, capsys):
        assert run(["qmark", "3/8", "--inverse"]) == 0
        got = lines(capsys)
        assert got == ["input,value,decimal", "3/8,2/5,0.4"]

    def test_extended_value_matches_library(self, capsys):
        assert run(["qmark", "7/4", "--extended"]) == 0
        value = lines(capsys)[1].split(",")[1]
        assert value == str(rho(ExtRat(7, 4)))

    def test_enclosure_brackets_and_commas(self, capsys):
        assert run(["qmark", "[0;2]", "--enclosure"]) == 0
        assert lines(capsys)[1] == "[0;2],1/2^2,1/2^1,0.25,0.5"
        assert run(["qmark", "0,2", "--enclosure"]) == 0
        assert lines(capsys)[1] == '"0,2",1/2^2,1/2^1,0.25,0.5'

    def test_modes_are_exclusive(self, capsys):
        assert run(["qmark", "3/8", "--inverse", "--enclosure"]) == 1

    def test_irrational_denominator_rejected_for_inverse(self, capsys):
        assert run(["qmark", "1/3", "--inverse"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("extended", [[], ["--extended"]])
    def test_zero_denominator_rejected_for_inverse(self, extended, capsys):
        assert run(["qmark", "1/0", "--inverse", *extended]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sternbrocot: error: malformed dyadic '1/0'")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-string digit limit")
    def test_values_past_the_int_string_limit_print_whole(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # Python's default, whatever the environment sets
        try:
            # 15000/30001 = [0; 2, 1, 14999]: ? of it is m/2^15001, m of ~4500 digits
            assert run(["qmark", "15000/30001"]) == 0
            assert sys.get_int_max_str_digits() == 4300
            d = qmark(ExtRat(15000, 30001))
            assert d.exp == 15001
            assert lines(capsys)[1].split(",")[1] == f"{decimal(d.num)}/2^15001"
            # all partial quotients 1: ?^-1 gives Fibonacci numbers of ~5000 digits
            p, q = 1, 1
            for _ in range(24000):
                p, q = q, p + q
            d = qmark(ExtRat(p, q))
            assert run(["qmark", f"{decimal(d.num)}/2^{d.exp}", "--inverse"]) == 0
            assert lines(capsys)[1].split(",")[1] == f"{decimal(p)}/{decimal(q)}"
        finally:
            sys.set_int_max_str_digits(limit)


class TestFourier:
    def test_both_methods_report_sizes(self, capsys):
        assert run(["fourier", "--n-max", "2", "--method", "both",
                    "--depth", "6", "--iters", "64"]) == 0
        got = lines(capsys)
        assert got[0] == "n,re,im,method,size"
        body = [ln.split(",") for ln in got[1:]]
        assert [(r[0], r[3], r[4]) for r in body] == [
            ("1", "tree", "64"), ("1", "ergodic", "64"),
            ("2", "tree", "64"), ("2", "ergodic", "64"),
        ]

    def test_single_method(self, capsys):
        assert run(["fourier", "--n-max", "1", "--method", "tree",
                    "--depth", "4"]) == 0
        got = lines(capsys)
        assert len(got) == 2 and got[1].endswith("tree,16")

    def test_estimates_hold_no_level_or_orbit(self, capsys):
        trees._STATE_CACHE.clear()
        trees._FLOAT_CACHE.clear()
        maps._orbit_floats.cache_clear()
        assert run(["fourier", "--n-max", "3", "--depth", "13", "--iters", str(5 * 4096 + 3)]) == 0
        assert len(lines(capsys)) == 7
        # operators.p0-invariance takes vectorized stieltjes_means up to level 18
        assert run(["verify", "--suite", "operators.p0-invariance"]) == 0
        assert len(lines(capsys)) == 2
        assert maps._orbit_floats.cache_info().currsize == 0
        assert not trees._FLOAT_CACHE and not trees._STATE_CACHE

    # The full-size fourier invocations of the benchmark's estimators workload.
    @pytest.mark.parametrize("label,argv", [
        ("fourier-both", ["fourier", "--n-max", "16", "--depth", "19", "--iters", str(1 << 19)]),
        ("fourier-ergodic-T", ["fourier", "--method", "ergodic", "--map", "T", "--start", "1/3",
                               "--n-max", "8", "--iters", str(1 << 19)]),
    ])
    def test_full_size_bytes_match_the_benchmark_digests(self, label, argv, capsys):
        golden = json.loads((Path(__file__).parent.parent / "bench" / "golden.json").read_text())
        # bench/workloads.py keys each invocation by a digest of its arguments
        entry = golden[hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]]
        assert entry["label"] == label and not entry["tiny"]
        assert run(argv + ["--seed", "7"]) == entry["exit"]
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == entry["sha256"]

    @pytest.mark.parametrize("method", ["both", "tree"])
    def test_folding_map_is_refused_at_parse_time(self, method, capsys):
        assert run(["fourier", "--map", "G", "--method", method, "--depth", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--map" in captured.err


class TestSimulate:
    def test_csv_is_deterministic_across_workers(self, capsys):
        args = ["simulate", "--chain", "mc0", "--walks", "300",
                "--horizon", "16", "--seed", "7"]
        assert run(args) == 0
        base = capsys.readouterr().out
        assert base.splitlines()[0] == "walk,hit_time,final_num,final_den"
        assert run(args) == 0
        assert capsys.readouterr().out == base
        assert run(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == base

    def test_interval_json_caries_exact_curve(self, capsys):
        assert run(["simulate", "--chain", "mc0", "--walks", "50",
                    "--horizon", "30", "--seed", "7",
                    "--interval", "2/5,3/5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["curve"]) == 31
        assert doc["fraction"] == doc["curve"][-1]
        hits = [r for r in doc["rows"] if r[1] >= 0]
        assert doc["meta"]["flags"]["interval"] == "2/5,3/5"
        assert len(hits) >= 45

    def test_pinned_chain_rejects_other_starts(self, capsys):
        assert run(["simulate", "--chain", "rw", "--start", "2/5",
                    "--walks", "2", "--horizon", "2"]) == 1
        assert run(["simulate", "--chain", "rw", "--start", "1/1",
                    "--walks", "2", "--horizon", "2"]) == 0

    def test_mc1_start_flag(self, capsys):
        assert run(["simulate", "--chain", "mc1", "--start", "2/5",
                    "--walks", "3", "--horizon", "4"]) == 0
        assert len(lines(capsys)) == 4

    def test_walks_cap(self, capsys):
        assert run(["simulate", "--chain", "mc0", "--walks", str(10**6 + 1),
                    "--horizon", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sternbrocot: error:") and "walks" in err


class TestVerify:
    def test_list_names(self, capsys):
        assert run(["verify", "--list"]) == 0
        got = lines(capsys)
        assert got == list(verify.names())

    def test_suite_selection_runs_green(self, capsys):
        assert run(["verify", "--suite", "core.phi-mediant"]) == 0
        got = lines(capsys)
        assert got[0] == "name,status,detail"
        assert got[1].startswith("core.phi-mediant,ok,")

    def test_unknown_suite_is_usage(self, capsys):
        assert run(["verify", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize("suite", ["", ",", " , "])
    def test_empty_suite_is_usage(self, suite, capsys):
        assert run(["verify", "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names no check" in captured.err

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        def bad(r, seed):
            raise verify.CheckFailure("planted")

        monkeypatch.setitem(verify._REGISTRY, "core.phi-mediant", bad)
        assert run(["verify", "--suite", "core.phi-mediant"]) == 2
        assert "FAIL,planted" in capsys.readouterr().out


class TestPlumbing:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        assert run(["qmark", "1/3", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().splitlines()[1] == "1/3,1/2^2,0.25"

    @pytest.mark.parametrize("argv", [
        ["tree", "--kind", "sb", "--depth", "0"],
        ["enumerate", "--map", "S", "--start", "3/2", "--count", "0"],
    ], ids=["tree", "enumerate"])
    def test_rejected_stream_creates_no_file(self, argv, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert run(argv + ["--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err
        assert not target.exists()

    def test_outdir_env_redirects_relative_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STERNBROCOT_OUTDIR", str(tmp_path))
        assert run(["qmark", "1/3", "--output", "out/q.csv"]) == 0
        assert (tmp_path / "out" / "q.csv").exists()

    def test_no_command_is_usage(self, capsys):
        assert run([]) == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert run(["qmark", "1/3", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--chain", "mc0", "--walks", "2", "--horizon", "2"],
        ["verify", "--suite", "core.phi-mediant"],
    ], ids=["simulate", "verify"])
    def test_zero_workers_is_usage(self, argv, capsys):
        assert run(argv + ["--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers" in captured.err and "at least 1" in captured.err

    def test_version_exits_zero(self, capsys):
        with_code = run(["--version"])
        assert with_code == 0
        assert "sternbrocot" in capsys.readouterr().out


# Tiny tables: each cap is hit at size 5, and --unsafe-cap lifts every field.
TINY = Caps(**{f.name: 4 for f in fields(Caps)})
TINY_UNSAFE = Caps(**{f.name: 8 for f in fields(Caps)})


# One invocation per cap field the CLI reaches, at size 5 of that field.
@pytest.mark.parametrize("field,argv", [
    ("level", ["tree", "--kind", "sb", "--depth", "5"]),
    ("estimate", ["fourier", "--method", "tree", "--depth", "5", "--n-max", "1"]),
    ("orbit", ["enumerate", "--map", "R", "--start", "1/0", "--count", "5"]),
    ("orbit", ["fourier", "--method", "ergodic", "--iters", "5", "--n-max", "1"]),
    ("exp", ["qmark", "1/6"]),
    ("exp", ["qmark", "1/2^5", "--inverse"]),
    ("walks", ["simulate", "--chain", "mc0", "--walks", "5", "--horizon", "2"]),
    ("horizon", ["simulate", "--chain", "mc0", "--walks", "2", "--horizon", "5"]),
], ids=["level", "estimate", "orbit-enumerate", "orbit-ergodic", "exp", "exp-inverse",
        "walks", "horizon"])
def test_each_cap_is_refused_then_lifted(field, argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CAPS", TINY)
    monkeypatch.setattr(cli, "UNSAFE_CAPS", TINY_UNSAFE)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"caps.{field}" in captured.err and "--unsafe-cap" in captured.err
    code = run(argv + ["--unsafe-cap"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out and not captured.err
