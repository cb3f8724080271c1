"""Transfer operators, Markov averaging operators, harmonic structure."""

import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from math import fsum, inf, nan

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sternbrocot.core import (
    CAPS, UNSAFE_CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, apply_letter,
)
from sternbrocot.minkowski import rho
from sternbrocot.operators import (
    _BLOCK,
    _Sum,
    _sum_terms,
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

    @pytest.mark.parametrize("kind", ["G", "dyadic", "farey"])
    @pytest.mark.parametrize("q", [2, 0.5])
    def test_extrat_values_read_as_fractions(self, kind, q):
        frac = lambda y: y * y + 1
        ext = lambda y: ExtRat(frac(y).numerator, frac(y).denominator)
        for x in (Fraction(2, 5), Fraction(7, 3)):
            got, want = transfer_apply(kind, q, ext, x), transfer_apply(kind, q, frac, x)
            assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("kind", ["G", "dyadic", "farey"])
    @pytest.mark.parametrize("q", [Fraction(2), 2.0])
    def test_integral_weights_stay_exact(self, kind, q):
        f = lambda y: y * y + 1
        for x in (Fraction(2, 5), Fraction(7, 3)):
            got = transfer_apply(kind, q, f, x)
            assert type(got) is Fraction and got == transfer_apply(kind, 2, f, x)

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

    @pytest.mark.parametrize("q", [2, 0.5])
    def test_extrat_values_read_as_fractions(self, q):
        frac = lambda y: y * y + 1
        ext = lambda y: ExtRat(frac(y).numerator, frac(y).denominator)
        for x in (Fraction(2, 5), Fraction(7, 3)):
            got, want = lewis_zagier_residual(ext, q, x), lewis_zagier_residual(frac, q, x)
            assert type(got) is type(want) and got == want

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
        for call in (
            lambda: transition_probs("MC2", ONE),
            lambda: markov_apply("MC2", h1, ONE),
            lambda: markov_power("MC2", h1, ONE, 3),
            lambda: commutator_residual("MC2", h1, ONE),
        ):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("x", [ZERO, INF])
    @pytest.mark.parametrize("value", [Fraction(1, 3), 0.25])
    def test_weighted_chain_skips_zero_weight_branches(self, x, value):
        # at 0 and at infinity the zero-weight branch leads to 1
        seen = []

        def f(y):
            seen.append(y)
            return value

        markov_apply("MC1", f, x)
        markov_power("MC1", f, x, 5)
        commutator_residual("MC1", f, x)
        assert seen and all(y in (ZERO, INF) for y in seen)


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
        with pytest.raises(CapExceeded, match=f"--unsafe-cap lifts it to {UNSAFE_CAPS.power}"):
            markov_power("MC0", lambda y: 1, ONE, 25)
        with pytest.raises(DomainError):
            markov_power("MC0", lambda y: 1, ONE, -1)
        with pytest.raises(CapExceeded):
            markov_power("MC1", lambda y: 1, ONE, 5, replace(CAPS, power=4))
        assert markov_power("MC0", lambda y: 1, ONE, 5, replace(CAPS, power=5)) == 1
        # the cap is checked before any branch word is walked or f is called
        with pytest.raises(CapExceeded, match="already lifted"):
            markov_power("MC1", lambda y: 1 / 0, ONE, UNSAFE_CAPS.power + 1, UNSAFE_CAPS)

    @pytest.mark.parametrize("kind,n", [("MC0", 20), ("MC1", 18)])
    def test_memory_stays_flat(self, kind, n):
        # holding all 2^n words at once takes 188 MB (MC0, n = 20) and 124 MB (MC1, n = 18)
        tracemalloc.start()
        try:
            assert markov_power(kind, lambda y: 1, ONE, n) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSymmetry:
    def test_averaging_pairs_reciprocals(self):
        got = averaging_apply(rho_frac, ExtRat(1, 3))
        assert got == (rho_frac(ExtRat(1, 3)) + rho_frac(ExtRat(3, 1))) / 2

    def test_average_of_equal_subnormals_is_that_value(self):
        # sum, then halve: halving each smallest subnormal first rounds it to 0
        tiny = 5e-324
        assert averaging_apply(lambda y: tiny, ExtRat(1, 3)) == tiny
        f = lambda y: Fraction(1, 1 << 1074) if y == ExtRat(1, 3) else tiny
        assert averaging_apply(f, ExtRat(1, 3)) == tiny

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


# ---------------------------------------------------------------- references
# The list-based operators that the integer-weight path and the streaming
# power replaced: every term is scaled by a Fraction weight, every sum is
# taken over a list, and markov_power holds all 2^n branch words.

def _ref_value(v):
    return v.as_fraction() if isinstance(v, ExtRat) else v


def _ref_complex(v):
    return isinstance(v, (complex, np.complexfloating))


def _ref_sum_terms(terms):
    terms = [_ref_value(t) for t in terms]
    if all(isinstance(t, (int, Fraction)) for t in terms):
        return sum(terms, Fraction(0))
    if any(_ref_complex(t) for t in terms):
        vals = [complex(t) for t in terms]
        return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))
    return fsum(float(t) for t in terms)


def _ref_probs(kind, x):
    if kind == "MC0":
        return Fraction(1, 2), Fraction(1, 2)
    return Fraction(x.den, x.num + x.den), Fraction(x.num, x.num + x.den)


def _ref_scale(w, v):
    v = _ref_value(v)
    if isinstance(v, (int, Fraction)):
        return w * v
    if _ref_complex(v):
        return complex(float(w)) * complex(v)
    return float(w) * v


def _ref_markov_apply(kind, f, x):
    p0, p1 = _ref_probs(kind, x)
    terms = []
    if p0:
        terms.append(_ref_scale(p0, f(apply_letter(x, 0))))
    if p1:
        terms.append(_ref_scale(p1, f(apply_letter(x, 1))))
    return _ref_sum_terms(terms)


def _ref_markov_power(kind, f, x, n):
    if kind == "MC0":
        frontier = [(x.num, x.den)]
        for _ in range(n):
            frontier = [c for p, q in frontier for c in ((p, p + q), (p + q, q))]
        total = _ref_sum_terms([f(ExtRat(p, q)) for p, q in frontier])
        w = Fraction(1, 1 << n)
        return _ref_scale(w, total) if not isinstance(total, float) else total / (1 << n)
    weighted = [(x, Fraction(1))]
    for _ in range(n):
        nxt = []
        for y, w in weighted:
            p0, p1 = _ref_probs(kind, y)
            if p0:
                nxt.append((apply_letter(y, 0), w * p0))
            if p1:
                nxt.append((apply_letter(y, 1), w * p1))
        weighted = nxt
    return _ref_sum_terms([_ref_scale(w, f(y)) for y, w in weighted])


def _ref_averaging_apply(f, x):
    return _ref_sum_terms([f(x), f(x.reciprocal())]) / 2


def _ref_commutator_residual(kind, f, x):
    pa = _ref_markov_apply(kind, lambda y: _ref_averaging_apply(f, y), x)
    ap = _ref_averaging_apply(lambda y: _ref_markov_apply(kind, f, y), x)
    return pa - ap


def _outcome(fn, *args):
    """(type, value) of the result, or the type of the exception raised.
    Floats and complex compare by repr, so nan and the sign of zero count;
    a Fraction by value, as its repr can pass the int-string limit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            v = fn(*args)
        except (ArithmeticError, TypeError, ValueError) as exc:
            return type(exc)
    return type(v), v if isinstance(v, Fraction) else repr(v)


# Finite floats stay within 1e300 in magnitude, so no partial sum of up to
# 3 * 4096 terms leaves the float range: there math.fsum raises at the term
# that overflows and _Sum, which folds blocks, may raise at another.
_floats = st.floats(-1e300, 1e300) | st.sampled_from([inf, -inf, nan])
_values = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1 << 1100, 1 << 1200),  # past the float range
    st.booleans(),
    st.fractions(max_denominator=1 << 80),
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    _floats.map(np.float64),
    st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40))
    .filter(lambda a: a != (0, 0))
    .map(lambda a: ExtRat(*a)),
    _floats,
    st.builds(complex, _floats, _floats),
    st.builds(complex, st.floats(width=32), st.floats(width=32)).map(np.complex64),
)
_pools = st.lists(_values, min_size=1, max_size=4)
_points = st.sampled_from([ZERO, INF, ONE]) | st.builds(
    ExtRat, st.integers(1, 1 << 200), st.integers(1, 1 << 200)
)


def _from_pool(pool):
    # a value of the pool picked by the point, so branches mix types
    return lambda y: pool[(3 * y.num + y.den) % len(pool)]


class TestAgainstReferences:
    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @given(_pools, _points)
    def test_markov_apply(self, kind, pool, x):
        f = _from_pool(pool)
        assert _outcome(markov_apply, kind, f, x) == _outcome(_ref_markov_apply, kind, f, x)

    @given(_pools, _points)
    def test_averaging_apply(self, pool, x):
        f = _from_pool(pool)
        assert _outcome(averaging_apply, f, x) == _outcome(_ref_averaging_apply, f, x)

    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @given(_pools, _points)
    def test_commutator_residual(self, kind, pool, x):
        f = _from_pool(pool)
        want = _outcome(_ref_commutator_residual, kind, f, x)
        assert _outcome(commutator_residual, kind, f, x) == want

    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @settings(max_examples=40, deadline=None)
    @given(_pools, _points, st.integers(0, 12))
    def test_markov_power(self, kind, pool, x, n):
        f = _from_pool(pool)
        assert _outcome(markov_power, kind, f, x, n) == _outcome(_ref_markov_power, kind, f, x, n)

    @settings(max_examples=30, deadline=None)
    @given(_pools, st.integers(0, 3 * _BLOCK + 7), st.integers(0, 2 ** 32))
    def test_sum_terms_across_blocks(self, pool, length, seed):
        r = random.Random(seed)
        terms = [r.choice(pool) for _ in range(length)]
        assert _outcome(_sum_terms, terms) == _outcome(_ref_sum_terms, terms)

    def test_sum_terms_keeps_every_rounding_error(self):
        # a float sum folded block by block must not round at the folds:
        # the first block's 1e16 + 1 is not a float, but the sum is 1
        terms = [1e16, 1.0] + [0.0] * (_BLOCK - 2) + [-1e16]
        assert _sum_terms(terms) == _ref_sum_terms(terms) == 1.0
        terms = [0.1] * (3 * _BLOCK + 1) + [1j]
        assert _sum_terms(terms) == _ref_sum_terms(terms)

    def test_sum_terms_keeps_exact_blocks_in_the_float_sums(self):
        # whole blocks of Fractions, then one float: the float sum needs them all
        terms = [Fraction(1, 3)] * (2 * _BLOCK) + [0.5]
        assert _sum_terms(terms) == _ref_sum_terms(terms) == fsum([2 * _BLOCK / 3, 0.5])

    def test_sum_terms_folds_whole_blocks(self):
        acc = _Sum()
        for t in range(_BLOCK + 1):
            assert len(acc.pending) == min(t, _BLOCK)
            acc.add(t)
        assert len(acc.pending) == 1

    def test_sum_terms_keeps_the_first_error(self):
        # float(2^1100) overflows in the first block; the later blocks fold nothing
        terms = [0.5, 1 << 1100] + [1.0] * (2 * _BLOCK)
        assert _outcome(_sum_terms, terms) == _outcome(_ref_sum_terms, terms) == OverflowError

    def test_sum_terms_reads_numpy_complex_terms(self):
        # np.complex64 is not a complex instance, but it sums as one: alone,
        # beside a complex term, and across blocks
        assert _outcome(_sum_terms, [np.complex64(1 + 2j), 0.5]) == (complex, "(1.5+2j)")
        for terms in ([np.complex64(1 + 2j), 0.5], [np.complex64(1 + 2j), 0.5, 1j],
                      [1j] + [np.complex64(0.25 - 1j)] * (_BLOCK + 3),
                      [0.5] * (_BLOCK + 3) + [np.complex64(0.25 - 1j)]):
            assert _outcome(_sum_terms, terms) == _outcome(_ref_sum_terms, terms)


@pytest.mark.parametrize("kind", ["MC0", "MC1"])
def test_numpy_complex_values_read_as_complex(kind):
    # each operator gives the same complex number whether f's values are
    # np.complex64, np.complex128 or complex (all exact in complex64)
    def results(ctype):
        def f(y):
            y = y.as_fraction() if isinstance(y, ExtRat) else Fraction(y)
            return ctype(complex(y.numerator % 7, -(y.denominator % 5)) / 4)
        out = []
        for x in (ONE, ExtRat(1, 2), ExtRat(3, 7)):
            out += [markov_apply(kind, f, x), averaging_apply(f, x),
                    commutator_residual(kind, f, x), markov_power(kind, f, x, 3)]
        for q, pt in ((1, Fraction(1, 3)), (1.5, Fraction(1, 3)), (2, 0.3)):
            out += [transfer_apply(t, q, f, pt) for t in ("G", "dyadic", "farey")]
            out.append(lewis_zagier_residual(f, q, pt))
        return out

    want = results(complex)
    assert want[0].imag
    for ctype in (complex, np.complex64, np.complex128):
        got = results(ctype)
        assert got == want and all(type(v) is complex for v in got)
