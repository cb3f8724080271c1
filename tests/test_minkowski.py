"""The singular homeomorphisms: exact values, equations, inversion."""

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sternbrocot.accum import fsum_array
from sternbrocot.core import (
    CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, cf_from_rat, phi,
)
from sternbrocot.minkowski import (
    Dyadic,
    binary_word,
    distribution_estimate,
    fourier_tree_mean,
    qmark,
    qmark_enclosure,
    qmark_inv,
    rho,
    rho_inv,
    stieltjes_mean,
)
from sternbrocot.trees import TreeSpec, level, level_floats


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
            assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
            assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
            assert (a < b) == (a.as_fraction() < b.as_fraction())
            assert (a >= b) == (a.as_fraction() >= b.as_fraction())
            assert (-a).as_fraction() == -a.as_fraction()

    def test_half(self):
        assert Dyadic(3, 1).half() == Dyadic(3, 2)


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
            assert 2 * rho(x) == qmark(x)


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
        assert rho(ExtRat(p, p + q)) == rho(x).half()
        assert rho(ExtRat(p + q, q)) == Dyadic(1) + (rho(x) - Dyadic(1)).half()

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
            assert 2 * rho(x) == rho(lo) + rho(hi)


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


class TestBinaryWords:
    def test_two_readings_of_the_same_value(self):
        d = Dyadic(3, 3)
        lo = binary_word(d, "zeros")
        hi = binary_word(d, "ones")
        assert lo.bits == (0, 1, 1) and lo.tail == "zeros"
        assert hi.bits == (0, 1, 0) and hi.tail == "ones"
        assert lo.value() == hi.value() == d

    def test_str(self):
        assert str(binary_word(Dyadic(3, 3))) == "0.011(0)^inf"


class TestDistribution:
    def test_counts_approximate_rho(self):
        # |rho(x) - count/2^k| <= 2^-k, exact arithmetic
        spec = TreeSpec("sb")
        r = random.Random(19)
        for _ in range(30):
            x = ExtRat(r.randrange(1, 500), r.randrange(1, 500))
            target = rho(x).as_fraction()
            for k in (4, 8, 12):
                est = distribution_estimate(spec, k, x)
                assert abs(target - est) <= Fraction(1, 1 << k)

    def test_farey_counts_approximate_qmark(self):
        spec = TreeSpec("farey")
        r = random.Random(23)
        for _ in range(30):
            q = r.randrange(2, 500)
            x = ExtRat(r.randrange(1, q), q)
            target = qmark(x).as_fraction()
            for k in (4, 8, 12):
                est = distribution_estimate(spec, k, x)
                assert abs(target - est) <= Fraction(1, 1 << k)


    @pytest.mark.parametrize("spec", [TreeSpec("sb"), TreeSpec("farey", permuted=True), TreeSpec("dyadic")],
                             ids=["sb", "farey-perm", "dyadic"])
    def test_large_points_match_a_per_vertex_count(self, spec):
        # terms at and past 2^36 take exact object products; the count is per vertex
        big = 1 << 40
        xs = [ExtRat(2 * big + 1, 5 * big), ExtRat(2 * big - 1, 5 * big), ExtRat(3, (1 << 50) + 7),
              ExtRat(1, 1 << 36), ExtRat((1 << 62) - 1, (1 << 63) + 5), ExtRat(big + 1, big), ExtRat(1 << 37, 3)]
        k = 10
        for x in xs:
            if spec.kind != "sb" and x >= 1:
                continue
            want = sum(v <= x for j in range(1, k + 1) for v in level(spec, j))
            assert distribution_estimate(spec, k, x) == Fraction(want, 1 << k)


def whole_level_mean(f, k, spec):
    """stieltjes_mean(vectorized=True) as it once was: f on each whole level,
    summed by one fsum_array call a level."""
    re_parts, im_parts = [], []
    for j in range(1, k + 1):
        vals = np.asarray(f(level_floats(spec, j)))
        re_parts.append(fsum_array(vals.real))
        im_parts.append(fsum_array(vals.imag) if np.iscomplexobj(vals) else 0.0)
    re = math.fsum(re_parts) * 2.0 ** -k
    im = math.fsum(im_parts) * 2.0 ** -k
    return complex(re, im) if im else re


SPECS = [TreeSpec(kind, permuted) for kind in ("sb", "farey", "dyadic") for permuted in (False, True)]


class TestMeans:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + "-perm" * s.permuted)
    def test_blockwise_mean_has_the_bits_of_the_whole_level_mean(self, spec):
        # levels 13 and up span several 4096-blocks; 1 and 5 are one short block
        fs = (lambda a: a / (a + 1.0), lambda a: np.exp(2j * np.pi * a))
        for k in (1, 5, 13, 14, 17):
            for f in fs:
                got = stieltjes_mean(f, k, spec, vectorized=True)
                assert repr(got) == repr(whole_level_mean(f, k, spec)), (k, f)

    def test_p0_check_means_have_the_bits_of_the_whole_level_mean(self):
        # the two means operators.p0-invariance compares, at its k = 12..18
        f = lambda a: np.exp(2j * np.pi * a)
        p0f = lambda a: 0.5 * np.exp(2j * np.pi * (a / (1.0 + a))) + 0.5 * np.exp(2j * np.pi * (a + 1.0))
        sb = TreeSpec("sb")
        for k in range(12, 19):
            for g in (f, p0f):
                assert repr(stieltjes_mean(g, k, vectorized=True)) == repr(whole_level_mean(g, k, sb)), k

    def test_vectorized_and_plain_agree(self):
        f_exact = lambda v: Fraction(v.num, v.num + v.den)
        f_vec = lambda arr: arr / (arr + 1.0)
        a = stieltjes_mean(f_exact, 10)
        b = stieltjes_mean(f_vec, 10, vectorized=True)
        assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)

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
