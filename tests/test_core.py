"""Exact rational core: ExtRat, continued fractions, depth and rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sternbrocot.core import (
    DomainError,
    ExtRat,
    INF,
    ONE,
    ZERO,
    canonicalize_cf,
    cf_from_rat,
    complement_cf,
    depth,
    format_cf,
    mediant,
    parse_cf,
    phi,
    phi_inv,
    rank,
    rat_from_cf,
)


def euclid_cf(p: int, q: int) -> list[int]:
    # reference expansion straight from the division algorithm
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p - (p // q) * q
    if len(terms) > 1 and terms[-1] == 1:
        terms[-2] += 1
        terms.pop()
    return terms


rationals = st.tuples(st.integers(0, 10**6), st.integers(1, 10**6))


class TestExtRat:
    def test_reduces_to_lowest_terms(self):
        assert ExtRat(6, 4) == ExtRat(3, 2)
        assert ExtRat(0, 7) == ZERO
        assert ExtRat(5, 0) == INF

    def test_rejects_the_empty_symbol(self):
        with pytest.raises(DomainError):
            ExtRat(0, 0)

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            ExtRat(-1, 2)

    def test_parses_and_prints(self):
        assert str(ExtRat.from_string("14/21")) == "2/3"
        assert str(ExtRat.from_string("5")) == "5/1"
        assert str(INF) == "1/0"

    def test_orders_with_infinity_on_top(self):
        xs = [INF, ExtRat(1, 2), ZERO, ExtRat(7, 3), ONE]
        assert sorted(xs) == [ZERO, ExtRat(1, 2), ONE, ExtRat(7, 3), INF]

    @given(rationals, rationals)
    def test_comparison_agrees_with_fraction(self, a, b):
        x, y = ExtRat(*a), ExtRat(*b)
        assert (x < y) == (Fraction(*a) < Fraction(*b))
        assert bool(x) == bool(Fraction(*a))

    def test_float_of_infinity(self):
        assert float(INF) == float("inf")

    @given(rationals)
    def test_hash_agrees_with_fraction(self, a):
        x = ExtRat(*a)
        assert hash(x) == hash(Fraction(*a))
        assert Fraction(*a) in {x} and x in {Fraction(*a)}

    def test_hash_agrees_with_int_and_at_the_modulus(self):
        assert 3 in {ExtRat(3)} and ZERO in {0}
        m = 2**61 - 1  # the hash modulus on 64-bit builds
        for num, den in ((1, m), (2, 3 * m), (m, 1), (5, m + 1), (1, 2**200)):
            assert hash(ExtRat(num, den)) == hash(Fraction(num, den))
        assert hash(INF) == hash(float("inf"))


class TestMediant:
    def test_child_of_the_ancestors_is_one(self):
        assert mediant(ZERO, INF) == ONE

    def test_adds_numerators_and_denominators(self):
        assert mediant(ExtRat(1, 3), ExtRat(1, 2)) == ExtRat(2, 5)

    @given(rationals, rationals)
    def test_lies_between_its_parents(self, a, b):
        x, y = ExtRat(*a), ExtRat(*b)
        lo, hi = min(x, y), max(x, y)
        m = mediant(lo, hi)
        assert lo <= m <= hi


class TestContinuedFractions:
    def test_matches_euclid_on_random_rationals(self):
        r = random.Random(101)
        for _ in range(2000):
            p, q = r.randrange(1, 10**9), r.randrange(1, 10**9)
            assert cf_from_rat(ExtRat(p, q)) == euclid_cf(p, q)

    @given(rationals.filter(lambda a: a[0] > 0))
    def test_roundtrip(self, a):
        x = ExtRat(*a)
        assert rat_from_cf(cf_from_rat(x)) == x

    def test_canonical_form_never_ends_in_one(self):
        # except for the expansion of 1 itself
        assert cf_from_rat(ONE) == [1]
        assert cf_from_rat(ExtRat(5, 3)) == [1, 1, 2]

    def test_canonicalize_folds_trailing_one(self):
        assert canonicalize_cf([0, 2, 1]) == [0, 3]

    def test_canonicalize_absorbs_inner_zeros(self):
        # [a, 0, b] means the two neighbours merge: 1/(a + 1/(0 + 1/b))
        assert canonicalize_cf([0, 2, 0, 3]) == [0, 5]

        def fold(terms):
            v = Fraction(0)
            for a in reversed(terms[1:]):
                v = 1 / (a + v)
            return terms[0] + v

        assert fold([0, 2, 0, 3]) == fold([0, 5]) == Fraction(1, 5)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.booleans())
    def test_canonicalize_matches_a_fraction_fold(self, terms, final_one):
        # zeros anywhere and, half the time, a final 1
        terms = terms + [1] if final_one else terms
        v = None  # the value of the empty tail, infinity
        for a in reversed(terms):
            if v is None:
                v = Fraction(a)
            elif v == 0:
                v = None
            else:
                v = a + 1 / v
        if v is None:
            with pytest.raises(DomainError, match="collapses to infinity"):
                canonicalize_cf(terms)
        else:
            assert canonicalize_cf(terms) == cf_from_rat(ExtRat(v.numerator, v.denominator))

    @pytest.mark.parametrize("terms", [[], [1, 0], [0, 0], [0, 2, -1], [0, 2.0]])
    def test_canonicalize_refuses(self, terms):
        with pytest.raises(DomainError):
            canonicalize_cf(terms)

    def test_parse_and_format_are_inverse(self):
        for text in ["[2;3,4]", "[0;1,7]", "[5]"]:
            assert format_cf(parse_cf(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_cf("2;3,4")


class TestDepthRank:
    def test_depth_is_the_term_sum(self):
        assert depth(ExtRat(2, 5)) == 2 + 2  # [0;2,2]
        assert depth(ONE) == 1
        assert depth(ExtRat(5, 2)) == 2 + 2  # [2;2]

    def test_ancestors_sit_at_depth_zero(self):
        assert depth(ZERO) == 0
        assert depth(INF) == 0

    def test_integer_depth_is_the_integer(self):
        for n in range(1, 40):
            assert depth(ExtRat(n, 1)) == n

    def test_depth_splits_into_floor_plus_rank(self):
        # depth(x) = floor(x) + rank(frac(x)) + 1 away from the integers
        r = random.Random(7)
        for _ in range(1000):
            n = r.randrange(0, 50)
            p, q = r.randrange(1, 400), r.randrange(1, 400)
            if p % q == 0:
                continue
            x = ExtRat(n * q + (p % q), q)
            frac = ExtRat(p % q, q)
            assert depth(x) == n + rank(frac) + 1

    def test_rank_needs_the_open_unit_interval(self):
        with pytest.raises(DomainError):
            rank(ExtRat(3, 2))


class TestComplement:
    @given(st.tuples(st.integers(1, 10**4), st.integers(2, 10**4)))
    def test_value_is_one_minus_x(self, a):
        p, q = a
        if p >= q:
            return
        x = ExtRat(p, q)
        y = rat_from_cf(complement_cf(cf_from_rat(x)))
        assert Fraction(y.num, y.den) == 1 - Fraction(p, q)

    def test_is_an_involution(self):
        r = random.Random(11)
        for _ in range(500):
            q = r.randrange(3, 10**6)
            p = r.randrange(1, q)
            terms = cf_from_rat(ExtRat(p, q))
            assert canonicalize_cf(complement_cf(complement_cf(terms))) == terms


class TestPhi:
    def test_sends_the_ancestors_to_the_farey_frame(self):
        assert phi(ZERO) == ZERO
        assert phi(INF) == ONE
        assert phi(ONE) == ExtRat(1, 2)

    @given(rationals, rationals)
    def test_commutes_with_the_mediant(self, a, b):
        x, y = ExtRat(*a), ExtRat(*b)
        assert phi(mediant(x, y)) == mediant(phi(x), phi(y))

    @given(rationals)
    def test_inverse_roundtrip(self, a):
        x = ExtRat(*a)
        assert phi_inv(phi(x)) == x


class TestEdges:
    def test_infinity_has_no_expansion(self):
        with pytest.raises(DomainError):
            cf_from_rat(INF)

    def test_zero_expands_to_zero(self):
        assert cf_from_rat(ZERO) == [0]
        assert rat_from_cf([0]) == ZERO
