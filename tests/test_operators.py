"""Transfer operators, Markov averaging operators, harmonic structure."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sternbrocot.core import CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO
from sternbrocot.minkowski import rho
from sternbrocot.operators import (
    apply_letter,
    averaging_apply,
    commutator_residual,
    h1,
    harmonic_series_partial,
    lewis_zagier_residual,
    markov_apply,
    markov_power,
    transfer_apply,
    transition_probs,
)
from sternbrocot.trees import TreeSpec, level


def rho_frac(x: ExtRat) -> Fraction:
    return rho(x).as_fraction()


positives = st.tuples(st.integers(1, 10**4), st.integers(1, 10**4))
units = st.tuples(st.integers(1, 9999), st.integers(2, 10**4)).filter(
    lambda a: a[0] < a[1]
)


class TestTransfer:
    @given(positives)
    def test_q0_counts_branches(self, a):
        assert transfer_apply("G", 0, lambda y: 1, ExtRat(*a)) == 2

    @given(positives)
    def test_one_over_x_is_fixed_at_weight_one(self, a):
        x = Fraction(*a)
        got = transfer_apply("G", 1, lambda y: 1 / y, x)
        assert got == 1 / x

    @given(units)
    def test_farey_density_is_fixed(self, a):
        x = Fraction(*a)
        f = lambda y: 1 / (y * (1 - y))
        assert transfer_apply("farey", 1, f, x) == f(x)

    @given(units)
    def test_doubling_preserves_lebesgue(self, a):
        # transfer at q=1 averages the two halves; constants are fixed
        x = Fraction(*a)
        assert transfer_apply("dyadic", 1, lambda y: 1, x) == 1
        got = transfer_apply("dyadic", 1, lambda y: y, x)
        assert got == (x / 2 + (x / 2 + Fraction(1, 2))) / 2

    def test_results_stay_rational(self):
        out = transfer_apply("farey", 2, lambda y: y, Fraction(1, 3))
        assert isinstance(out, Fraction)

    def test_float_inputs_give_floats(self):
        out = transfer_apply("G", 0.5, lambda y: 1.0, 0.25)
        assert isinstance(out, float)
        assert out == pytest.approx(1.25**-1.0 + 1.0)

    def test_farey_branch_singularity(self):
        with pytest.raises(DomainError):
            transfer_apply("farey", 1, lambda y: 1, Fraction(2))

    def test_guards(self):
        with pytest.raises(DomainError):
            transfer_apply("X", 1, lambda y: 1, Fraction(1, 2))
        with pytest.raises(DomainError):
            transfer_apply("G", 1, lambda y: 1, INF)


class TestThreeTerm:
    @given(positives)
    def test_one_over_x_solves_at_weight_one(self, a):
        assert lewis_zagier_residual(lambda y: 1 / y, 1, Fraction(*a)) == 0

    def test_zero_solves_trivially(self):
        assert lewis_zagier_residual(lambda y: 0, 3, Fraction(1, 2)) == 0

    def test_constants_miss_at_weight_zero(self):
        assert lewis_zagier_residual(lambda y: 1, 0, Fraction(1)) == -1

    @given(positives)
    def test_residual_matches_its_definition(self, a):
        x = Fraction(*a)
        f = lambda y: y * y + 1
        want = f(x) - f(x + 1) - f(x / (1 + x)) / (1 + x) ** 4
        assert lewis_zagier_residual(f, 2, x) == want


class TestChainStep:
    def test_branch_pair(self):
        x = ExtRat(2, 5)
        assert (str(apply_letter(x, 0)), str(apply_letter(x, 1))) == ("2/7", "7/5")

    def test_absorbing_endpoints(self):
        assert transition_probs("MC1", ZERO) == (1, 0)
        assert transition_probs("MC1", INF) == (0, 1)
        assert apply_letter(ZERO, 0) == ZERO
        assert apply_letter(INF, 1) == INF

    @given(positives)
    def test_probs_sum_to_one(self, a):
        for kind in ("MC0", "MC1"):
            p0, p1 = transition_probs(kind, ExtRat(*a))
            assert p0 + p1 == 1 and p0 >= 0 and p1 >= 0

    @given(positives)
    def test_fair_chain_halves_rho_plus_quarter(self, a):
        # the extension of the question mark is an affine eigenfunction
        x = ExtRat(*a)
        assert markov_apply("MC0", rho_frac, x) == rho_frac(x) / 2 + Fraction(1, 4)

    @given(positives)
    def test_weighted_chain_harmonics(self, a):
        x = ExtRat(*a)
        assert markov_apply("MC1", h1, x) == h1(x)
        assert markov_apply("MC1", lambda y: 1, x) == 1

    def test_harmonics_at_the_endpoints(self):
        for x in (ZERO, INF):
            assert h1(x) == 1
            assert markov_apply("MC1", h1, x) == 1
        assert h1(ONE) == 0

    def test_unknown_chain(self):
        with pytest.raises(DomainError):
            transition_probs("MC2", ONE)


class TestChainPower:
    def test_zero_steps_is_identity(self):
        f = lambda y: Fraction(y.num, y.num + y.den)
        assert markov_power("MC0", f, ExtRat(2, 5), 0) == f(ExtRat(2, 5))

    @given(positives, st.integers(1, 4))
    def test_one_step_matches_apply_and_iterates(self, a, n):
        x = ExtRat(*a)
        for kind in ("MC0", "MC1"):
            one = markov_power(kind, rho_frac, x, 1)
            assert one == markov_apply(kind, rho_frac, x)
            stepped = markov_power(kind, lambda y: markov_power(kind, rho_frac, y, n - 1), x, 1)
            assert stepped == markov_power(kind, rho_frac, x, n)

    def test_fair_chain_walks_tree_rows(self):
        f = lambda v: Fraction(v.num, v.den)
        for k in (1, 3, 5):
            row = level(TreeSpec("sb"), k + 1)
            want = sum((f(v) for v in row), Fraction(0)) / (1 << k)
            assert markov_power("MC0", f, ONE, k) == want

    @given(st.integers(1, 10))
    def test_fair_chain_contracts_rho_geometrically(self, n):
        x = ExtRat(3, 7)
        got = markov_power("MC0", rho_frac, x, n)
        assert got - Fraction(1, 2) == (rho_frac(x) - Fraction(1, 2)) / (1 << n)

    @given(positives, st.integers(0, 8))
    def test_weighted_chain_keeps_mass_and_harmonics(self, a, n):
        x = ExtRat(*a)
        assert markov_power("MC1", lambda y: 1, x, n) == 1
        assert markov_power("MC1", h1, x, n) == h1(x)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            markov_power("MC0", lambda y: 1, ONE, 25)
        with pytest.raises(DomainError):
            markov_power("MC0", lambda y: 1, ONE, -1)
        with pytest.raises(CapExceeded):
            markov_power("MC1", lambda y: 1, ONE, 5, replace(CAPS, power=4))
        assert markov_power("MC0", lambda y: 1, ONE, 5, replace(CAPS, power=5)) == 1


class TestSymmetry:
    def test_averaging_pairs_reciprocals(self):
        got = averaging_apply(rho_frac, ExtRat(1, 3))
        assert got == (rho_frac(ExtRat(1, 3)) + rho_frac(ExtRat(3, 1))) / 2

    @given(positives)
    def test_chains_commute_with_reciprocal_averaging(self, a):
        x = ExtRat(*a)
        for kind in ("MC0", "MC1"):
            assert commutator_residual(kind, rho_frac, x) == 0


class TestHarmonicSeries:
    @given(positives, st.integers(1, 12))
    def test_mass_splits_exactly(self, a, n):
        # partial weights plus the tail weight account for everything
        x = ExtRat(*a)
        for kind in ("MC0", "MC1"):
            partial, tail = harmonic_series_partial(kind, lambda y: 1, x, n)
            assert partial + tail == 1

    @given(positives)
    def test_interior_indicator_vanishes(self, a):
        x = ExtRat(*a)
        partial, tail = harmonic_series_partial("MC1", h1, x, 20)
        assert partial == 0
        assert 0 <= tail < 1

    def test_series_recovers_harmonic_values(self):
        # h1 is 0 on the interior, and the tail weight is the exact error
        x = ExtRat(1, 9)
        partial, tail = harmonic_series_partial("MC1", h1, x, 50)
        assert partial == 0 and tail == Fraction(1, 1 + 50 * 9)

    def test_guards(self):
        with pytest.raises(DomainError):
            harmonic_series_partial("MC0", h1, INF, 4)
        with pytest.raises(DomainError):
            harmonic_series_partial("MC0", h1, ONE, 0)
        with pytest.raises(DomainError):
            harmonic_series_partial("MC7", h1, ONE, 4)
