"""The named check registry: selection, isolation, and report format."""

import pytest

from sternbrocot import verify


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

    def test_workers_do_not_change_stochastic_details(self):
        name = "stochastic.worker-determinism"
        one = verify.run_suite(name, seed=7, workers=1)
        two = verify.run_suite(name, seed=7, workers=2)
        assert one == two

    def test_failures_are_reported_not_raised(self, monkeypatch):
        def bad(r, seed, workers):
            raise verify.CheckFailure("expected 3, got 4")

        monkeypatch.setitem(verify._REGISTRY, "core.phi-mediant", bad)
        (res,) = verify.run_suite("core.phi-mediant", seed=7)
        assert not res.ok
        assert res.detail == "expected 3, got 4"

    def test_crashes_count_as_failures(self, monkeypatch):
        def crash(r, seed, workers):
            raise ZeroDivisionError("boom")

        monkeypatch.setitem(verify._REGISTRY, "core.phi-mediant", crash)
        (res,) = verify.run_suite("core.phi-mediant", seed=7)
        assert not res.ok
        assert res.detail == "ZeroDivisionError: boom"
