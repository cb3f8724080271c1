"""The named check registry: selection, isolation, and report format."""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from sternbrocot import verify
from sternbrocot.cli import run

MODULES = ("core", "coding", "trees", "minkowski", "maps", "operators", "stochastic", "cli")


class TestSelection:
    def test_names_are_unique_and_prefixed(self):
        ns = verify.names()
        assert len(ns) == len(set(ns))
        assert len(ns) >= 30
        assert all("." in n for n in ns)

    def test_all_is_everything(self):
        assert verify.select("all") == verify.names()

    def test_module_prefix_selects_its_checks(self):
        got = verify.select("coding")
        assert got
        assert all(n.startswith("coding.") for n in got)
        assert got == tuple(n for n in verify.names() if n.startswith("coding."))

    def test_exact_names_and_commas(self):
        got = verify.select("trees.calkin-wilf, core.phi-mediant")
        assert set(got) == {"core.phi-mediant", "trees.calkin-wilf"}
        # registry order wins over mention order
        assert got == ("core.phi-mediant", "trees.calkin-wilf")

    def test_duplicates_collapse(self):
        got = verify.select("core.phi-mediant,core,core.phi-mediant")
        assert got == verify.select("core")

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            verify.select("nonsense")
        with pytest.raises(KeyError):
            verify.select("core.phi-mediant,bogus.check")

    def test_empty_selection_raises(self):
        for suite in ("", ",", " , "):
            with pytest.raises(KeyError):
                verify.select(suite)


class TestRunning:
    def test_core_suite_passes_and_repeats_identically(self):
        a = verify.run_suite("core", seed=7)
        b = verify.run_suite("core", seed=7)
        assert a == b
        assert all(r.ok for r in a)
        assert all(r.detail for r in a)

    def test_failures_are_reported_not_raised(self, monkeypatch):
        def bad(r, seed):
            raise verify.CheckFailure("expected 3, got 4")

        monkeypatch.setitem(verify._REGISTRY, "core.phi-mediant", bad)
        (res,) = verify.run_suite("core.phi-mediant", seed=7)
        assert not res.ok
        assert res.detail == "expected 3, got 4"

    def test_crashes_count_as_failures(self, monkeypatch):
        def crash(r, seed):
            raise ZeroDivisionError("boom")

        monkeypatch.setitem(verify._REGISTRY, "core.phi-mediant", crash)
        (res,) = verify.run_suite("core.phi-mediant", seed=7)
        assert not res.ok
        assert res.detail == "ZeroDivisionError: boom"


@pytest.mark.parametrize("module", MODULES)
def test_module_suite_bytes_and_no_warnings(module, capsys):
    # each module's report at seed 7 is the verify-<module> digest in bench/golden.json
    golden = json.loads((Path(__file__).parent.parent / "bench" / "golden.json").read_text())
    want = next(e["sha256"] for e in golden.values() if e["label"] == f"verify-{module}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--suite", module, "--seed", "7"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == want
