"""The singular homeomorphisms: exact values, equations, inversion."""

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sternbrocot.accum import CHUNK, fsum_array
from sternbrocot.core import (
    CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, cf_from_rat, phi,
)
from sternbrocot.minkowski import (
    Dyadic,
    distribution_estimates,
    fourier_tree_mean,
    qmark,
    qmark_enclosure,
    qmark_inv,
    rho,
    rho_inv,
    stieltjes_means,
)
from sternbrocot.trees import BLOCK_LEVELS, TreeSpec, level, level_floats


def series_qmark(x: ExtRat) -> Fraction:
    # The independent oracle for ?, which the package computes as rho o phi^-1:
    # the alternating binary series over the partial quotients, in Fractions.
    terms = cf_from_rat(x)
    assert terms[0] == 0 or x == ONE
    if x == ONE:
        return Fraction(1)
    total = Fraction(0)
    exp = 0
    for k, a in enumerate(terms[1:], start=1):
        exp += a
        total += (-1) ** (k + 1) * Fraction(2) / (1 << exp)
    return total


unit_rats = st.tuples(st.integers(1, 500), st.integers(2, 500)).filter(
    lambda a: a[0] < a[1]
)


class TestDyadic:
    def test_normalizes_to_odd_numerator(self):
        d = Dyadic(6, 3)
        assert (d.num, d.exp) == (3, 2)

    def test_zero_collapses(self):
        assert Dyadic(0, 7) == Dyadic(0)

    def test_string_forms(self):
        assert str(Dyadic(3, 4)) == "3/2^4"
        assert str(Dyadic(5, 0)) == "5"
        assert Dyadic.from_string("3/2^4") == Dyadic(3, 4)
        assert Dyadic.from_string("6/16") == Dyadic(3, 3)

    def test_rejects_non_dyadic_fractions(self):
        with pytest.raises(DomainError):
            Dyadic.from_string("1/3")
        with pytest.raises(DomainError):
            Dyadic.from_string("1/0")

    def test_arithmetic_matches_fractions(self):
        r = random.Random(3)
        for _ in range(500):
            a = Dyadic(r.randrange(-64, 64), r.randrange(0, 8))
            b = Dyadic(r.randrange(-64, 64), r.randrange(0, 8))
            assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
            assert (a < b) == (a.as_fraction() < b.as_fraction())
            assert (a >= b) == (a.as_fraction() >= b.as_fraction())

    def test_adds_and_compares_only_with_dyadic(self):
        assert (Dyadic(1) == 1) is False
        assert (Dyadic(1, 1) == Fraction(1, 2)) is False
        for op in (lambda d: d + 1, lambda d: 1 + d, lambda d: d - d, lambda d: d * 2,
                   lambda d: -d, lambda d: d < 1):
            with pytest.raises(TypeError):
                op(Dyadic(3, 2))

    @given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 90), st.integers(0, 70))
    def test_equal_values_hash_equal(self, num, exp, shift):
        # num/2^exp written with shift more factors of two top and bottom
        d = Dyadic(num, exp)
        e = Dyadic(num << shift, exp + shift)
        assert d == e and hash(d) == hash(e)
        assert len({d, e, Dyadic.from_fraction(d.as_fraction())}) == 1

    def test_rejects_bool_operands(self):
        for args in ((True, 1), (1, False), (True,)):
            with pytest.raises(TypeError):
                Dyadic(*args)

    def test_rejects_a_negative_exponent(self):
        with pytest.raises(DomainError, match="negative exponent"):
            Dyadic(1, -1)


class TestQmarkValues:
    def test_fixed_points(self):
        for x in (ZERO, ExtRat(1, 2), ONE):
            assert qmark(x).as_fraction() == Fraction(x.num, x.den)

    def test_golden_values(self):
        assert qmark(ExtRat(1, 3)) == Dyadic(1, 2)
        assert qmark(ExtRat(2, 5)) == Dyadic(3, 3)
        assert qmark(ExtRat(2, 3)) == Dyadic(3, 2)

    def test_matches_the_series_oracle(self):
        r = random.Random(5)
        for _ in range(2000):
            q = r.randrange(2, 2000)
            p = r.randrange(1, q)
            x = ExtRat(p, q)
            assert qmark(x).as_fraction() == series_qmark(x)

    def test_domain_is_the_unit_interval(self):
        with pytest.raises(DomainError):
            qmark(ExtRat(3, 2))
        with pytest.raises(DomainError):
            qmark(INF)

    def test_cap_counts_the_dyadic_bits(self):
        # ?([0; a1, ..., an]) has a1 + ... + an - 1 bits
        caps = replace(CAPS, exp=20)
        assert qmark(ExtRat(1, 21), caps) == Dyadic(1, 20)
        assert qmark(ExtRat(20, 21), caps).exp == 20  # [0; 1, 20]
        for x in (ExtRat(1, 22), ExtRat(20, 41)):  # [0; 22] and [0; 2, 20]
            with pytest.raises(CapExceeded, match=r"dyadic bits 21 above the cap 20 \(caps\.exp"):
                qmark(x, caps)


class TestRhoValues:
    def test_boundary(self):
        assert rho(ZERO) == Dyadic(0)
        assert rho(INF) == Dyadic(1)
        assert rho(ONE) == Dyadic(1, 1)

    def test_is_qmark_after_phi(self):
        r = random.Random(7)
        for _ in range(2000):
            x = ExtRat(r.randrange(1, 2000), r.randrange(1, 2000))
            assert rho(x).as_fraction() == series_qmark(phi(x))

    def test_halves_qmark_on_the_unit_interval(self):
        r = random.Random(9)
        for _ in range(500):
            q = r.randrange(2, 1000)
            x = ExtRat(r.randrange(1, q), q)
            assert rho(x) + rho(x) == qmark(x)


class TestFunctionalEquations:
    @given(unit_rats)
    def test_qmark_reflection(self, a):
        x = ExtRat(*a)
        assert qmark(x) + qmark(ExtRat(a[1] - a[0], a[1])) == Dyadic(1)

    @given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)))
    def test_rho_reciprocal(self, a):
        x = ExtRat(*a)
        assert rho(x) + rho(ExtRat(a[1], a[0])) == Dyadic(1)

    @given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)))
    def test_rho_dilation(self, a):
        # the two branch identities behind the doubling structure
        p, q = a
        x = ExtRat(p, q)
        lo, hi = rho(ExtRat(p, p + q)), rho(ExtRat(p + q, q))
        assert lo + lo == rho(x)
        assert hi + hi == Dyadic(1) + rho(x)

    @given(unit_rats, unit_rats)
    def test_monotone(self, a, b):
        x, y = ExtRat(*a), ExtRat(*b)
        if x < y:
            assert qmark(x) < qmark(y)
        elif x > y:
            assert qmark(x) > qmark(y)
        else:
            assert qmark(x) == qmark(y)

    def test_mediant_average(self):
        # unimodular neighbours: value at the mediant is the average
        r = random.Random(13)
        for _ in range(500):
            x = ExtRat(r.randrange(1, 800), r.randrange(1, 800))
            from sternbrocot.coding import parents
            lo, hi = parents(x)
            m = ExtRat(lo.num + hi.num, lo.den + hi.den)
            assert m == x
            assert rho(x) + rho(x) == rho(lo) + rho(hi)


class TestInversion:
    @given(unit_rats)
    def test_qmark_roundtrip(self, a):
        x = ExtRat(*a)
        assert qmark_inv(qmark(x)) == x

    @given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)))
    def test_rho_roundtrip(self, a):
        x = ExtRat(*a)
        assert rho_inv(rho(x)) == x

    def test_inverse_of_grid_points(self):
        # preimages of k/16 under rho, checked forward
        for k in range(17):
            d = Dyadic(k, 4)
            assert rho(rho_inv(d)) == d

    @pytest.mark.parametrize("inverse", [rho_inv, qmark_inv])
    @pytest.mark.parametrize("d", [ExtRat(1, 2), Fraction(1, 2), 0.5], ids=lambda d: type(d).__name__)
    def test_takes_only_a_dyadic(self, inverse, d):
        with pytest.raises(TypeError, match="expected a Dyadic"):
            inverse(d)

    def test_boundary(self):
        assert qmark_inv(Dyadic(0)) == ZERO
        assert qmark_inv(Dyadic(1, 1)) == ExtRat(1, 2)
        assert qmark_inv(Dyadic(1)) == ONE
        assert rho_inv(Dyadic(1)) == INF


class TestEnclosure:
    def test_desk_cases(self):
        assert qmark_enclosure([0, 2]) == (Dyadic(1, 2), Dyadic(1, 1))
        assert qmark_enclosure([3]) == (Dyadic(7, 3), Dyadic(15, 4))

    def test_value_of_any_extension_lies_inside(self):
        r = random.Random(17)
        for _ in range(300):
            prefix = [0] + [r.randrange(1, 4) for _ in range(r.randrange(1, 5))]
            lo, hi = qmark_enclosure(prefix)
            extension = prefix + [r.randrange(1, 5), r.randrange(2, 5)]
            from sternbrocot.core import rat_from_cf, canonicalize_cf
            x = rat_from_cf(canonicalize_cf(extension))
            assert lo <= qmark(x) <= hi

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            qmark_enclosure([])

    @pytest.mark.parametrize("prefix", [[-1, 2], [0, 0], [0, 2.5]])
    def test_rejects_bad_terms(self, prefix):
        with pytest.raises(DomainError, match="prefix terms"):
            qmark_enclosure(prefix)


SPECS = [TreeSpec(kind, permuted) for kind in ("sb", "farey", "dyadic") for permuted in (False, True)]


def per_vertex_estimates(spec, k, x):
    """The share of levels 1..d at or below x, for d = 1..k, one vertex at a time."""
    counts = [sum(v <= x for v in level(spec, j)) for j in range(1, k + 1)]
    return [Fraction(sum(counts[:d]), 1 << d) for d in range(1, k + 1)]


def identity_shares(spec, k, x):
    """The share of levels 1..d at or below x, for d = 1..k, by the identity
    min(floor(2^d g(x)), 2^d - 1)/2^d: g is rho for sb, ? for Farey and x
    itself for dyadic, and g = 1 from x = 1 on for Farey and dyadic."""
    if spec.kind == "sb":
        g = rho(x).as_fraction()
    elif x >= ONE:
        g = Fraction(1)
    else:
        g = qmark(x).as_fraction() if spec.kind == "farey" else x.as_fraction()
    return [Fraction(min(math.floor(g * (1 << d)), (1 << d) - 1), 1 << d) for d in range(1, k + 1)]


# 50-60-bit points, from 0 to 2, whose products pass int64 from level 3 to 13
# on, and points p/q of a low level and 2^-55/q off them
LARGE_POINTS = st.one_of(
    st.integers(50, 60).flatmap(lambda b: st.tuples(st.integers(1, 1 << b), st.integers(1 << (b - 1), 1 << b))),
    st.tuples(st.integers(1, 64), st.integers(1, 64), st.sampled_from([-1, 0, 1])).map(
        lambda pqe: ((pqe[0] << 55) + pqe[2], pqe[1] << 55)),
).map(lambda pq: ExtRat(*pq))


class TestDistribution:
    def test_counts_approximate_rho(self):
        # |rho(x) - count/2^k| <= 2^-k, exact arithmetic
        spec = TreeSpec("sb")
        r = random.Random(19)
        xs = [ExtRat(r.randrange(1, 500), r.randrange(1, 500)) for _ in range(30)]
        for x, ests in zip(xs, distribution_estimates(spec, 12, xs), strict=True):
            target = rho(x).as_fraction()
            for k, est in enumerate(ests, 1):
                assert abs(target - est) <= Fraction(1, 1 << k)

    def test_farey_counts_approximate_qmark(self):
        spec = TreeSpec("farey")
        r = random.Random(23)
        xs = []
        for _ in range(30):
            q = r.randrange(2, 500)
            xs.append(ExtRat(r.randrange(1, q), q))
        for x, ests in zip(xs, distribution_estimates(spec, 12, xs), strict=True):
            target = qmark(x).as_fraction()
            for k, est in enumerate(ests, 1):
                assert abs(target - est) <= Fraction(1, 1 << k)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + "-perm" * s.permuted)
    def test_large_points_match_a_per_vertex_count(self, spec):
        # every point and depth of one call.  Points come 4 to a chunk, and a
        # chunk whose largest term t has t << j >= 2^63 takes exact object
        # products on level j: the first and last chunks never do (terms below
        # 2^51), the second does from level 8 on (a term past 2^55) and the
        # third on every level (a term past 2^63)
        r = random.Random(41)
        big = 1 << 40
        xs = [*(ExtRat(r.randrange(1, 999), r.randrange(1, 999)) for _ in range(4)),
              ExtRat(3, (1 << 55) + 1), ZERO, INF, ONE,
              ExtRat((1 << 62) - 1, (1 << 63) + 5), ExtRat(big + 1, big), ExtRat(1 << 37, 3),
              ExtRat(2 * big + 1, 5 * big), ExtRat(2 * big - 1, 5 * big), ExtRat(3, (1 << 50) + 7),
              ExtRat(1, 1 << 36)]
        k = 10
        got = distribution_estimates(spec, k, xs)
        assert got == [per_vertex_estimates(spec, k, x) for x in xs]

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(SPECS), st.lists(LARGE_POINTS, min_size=1, max_size=6), st.integers(1, 14))
    def test_large_points_match_a_fraction_count(self, spec, xs, k):
        levels = [[v.as_fraction() for v in level(spec, j)] for j in range(1, k + 1)]
        for x, ests in zip(xs, distribution_estimates(spec, k, xs), strict=True):
            counts = [sum(v <= x.as_fraction() for v in vs) for vs in levels]
            assert ests == [Fraction(sum(counts[:d]), 1 << d) for d in range(1, k + 1)], x

    def test_no_points_give_no_estimates(self):
        assert distribution_estimates(TreeSpec("sb"), 5, []) == []

    def test_levels_start_at_one(self):
        with pytest.raises(DomainError, match="levels start at 1"):
            distribution_estimates(TreeSpec("sb"), 0, [ONE])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + "-perm" * s.permuted)
    def test_estimates_are_the_question_mark_identity(self, spec):
        # every depth up to caps.estimate, so levels 17..20 of each stream are
        # checked too, at 0, 1/0, 1, vertices, random points and the 69-bit
        # ratio F(101)/F(102)
        fib = [0, 1]
        while len(fib) < 103:
            fib.append(fib[-1] + fib[-2])
        r = random.Random(29)
        xs = [ZERO, INF, ONE, ExtRat(1, 2), ExtRat(2, 5), ExtRat(3, 8), ExtRat(5, 3),
              ExtRat(fib[101], fib[102])]
        for _ in range(10):
            q = r.randrange(2, 10 ** 6)
            xs += [ExtRat(r.randrange(1, q), q), ExtRat(r.randrange(1, 10 ** 6), r.randrange(1, 10 ** 6))]
        k = CAPS.estimate
        got = distribution_estimates(spec, k, xs)
        assert got == [identity_shares(spec, k, x) for x in xs]

    def test_products_past_int64_at_level_28_stay_exact(self):
        # Entries of level j reach 2^j.  Level j of the dyadic tree is m/2^j for
        # odd m, floor((floor(x 2^j) + 1)/2) of them at or below x.  Both terms
        # of x are below 2^36, and (2^36 - 2) * 2^28 passes 2^63: int64
        # products wrap there, and every level-28 entry counted as above x.
        caps = replace(CAPS, estimate=28, level=28)
        x = ExtRat((1 << 36) - 2, (1 << 36) - 1)
        counts = [((x.num << j) // x.den + 1) // 2 for j in range(1, 29)]
        want = [Fraction(sum(counts[:d]), 1 << d) for d in range(1, 29)]
        assert distribution_estimates(TreeSpec("dyadic"), 28, [x], caps) == [want]


def whole_level_mean(f, k, spec):
    """The vectorized Stieltjes mean at depth k as it once was: f on each whole level,
    summed by one fsum_array call a level."""
    re_parts, im_parts = [], []
    for j in range(1, k + 1):
        vals = np.asarray(f(level_floats(spec, j)))
        re_parts.append(fsum_array(vals.real))
        im_parts.append(fsum_array(vals.imag) if np.iscomplexobj(vals) else 0.0)
    re = math.fsum(re_parts) * 2.0 ** -k
    im = math.fsum(im_parts) * 2.0 ** -k
    return complex(re, im) if im else re


class TestMeans:
    def test_level_blocks_are_cut_where_fsum_array_cuts(self):
        # stieltjes_means' per-block partials have the bits of one call on the
        # whole level only because each block is one fsum_array chunk
        assert 1 << BLOCK_LEVELS == CHUNK

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + "-perm" * s.permuted)
    def test_blockwise_mean_has_the_bits_of_the_whole_level_mean(self, spec):
        # levels 13 and up span several 4096-blocks; 1 to 12 are one block
        for f in (lambda a: a / (a + 1.0), lambda a: np.exp(2j * np.pi * a)):
            got = stieltjes_means(f, 17, spec, vectorized=True)
            want = [whole_level_mean(f, k, spec) for k in range(1, 18)]
            assert list(map(repr, got)) == list(map(repr, want)), f

    def test_p0_check_means_have_the_bits_of_the_whole_level_mean(self):
        # the two mean sequences operators.p0-invariance compares at k = 12..18
        f = lambda a: np.exp(2j * np.pi * a)
        p0f = lambda a: 0.5 * np.exp(2j * np.pi * (a / (1.0 + a))) + 0.5 * np.exp(2j * np.pi * (a + 1.0))
        sb = TreeSpec("sb")
        for g in (f, p0f):
            got = stieltjes_means(g, 18, vectorized=True)
            assert list(map(repr, got)) == [repr(whole_level_mean(g, k, sb)) for k in range(1, 19)]

    def test_vectorized_and_plain_agree(self):
        # levels 13 and 14 span two blocks each; the complex pair checks the
        # imaginary partials of the plain path
        pairs = [
            (lambda v: Fraction(v.num, v.num + v.den), lambda arr: arr / (arr + 1.0)),
            (lambda v: cmath.exp(2j * cmath.pi * v.num / v.den), lambda arr: np.exp(2j * np.pi * arr)),
        ]
        for f_exact, f_vec in pairs:
            a = stieltjes_means(f_exact, 14)
            b = stieltjes_means(f_vec, 14, vectorized=True)
            assert len(a) == len(b) == 14
            for x, y in zip(a, b):
                assert type(x) is type(y) and abs(x - y) <= 1e-12

    def test_fourier_tree_mean_matches_direct_sum(self):
        spec = TreeSpec("sb")
        for n in (1, 3):
            direct = 0j
            for k in range(1, 9):
                for v in level(spec, k):
                    direct += cmath.exp(2j * math.pi * n * v.num / v.den)
            direct /= 2**8
            got = fourier_tree_mean(n, 8)
            assert abs(got - direct) < 1e-10
