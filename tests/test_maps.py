"""The six interval maps: formulas, inverses, orbits, stacks, odometer."""

import random
from dataclasses import replace
from fractions import Fraction
from operator import truediv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sternbrocot.core import (
    CAPS,
    CapExceeded,
    DomainError,
    ExtRat,
    INF,
    ONE,
    ZERO,
    phi,
)
from sternbrocot.maps import (
    _STEPS,
    INVERTIBLE,
    ORBIT_BLOCK,
    _orbit_floats,
    apply,
    apply_inverse,
    binary_digits,
    conjugacy_residual,
    eigenfunction_check,
    ergodic_fourier,
    inverse_branches,
    odometer_value,
    orbit,
    orbit_blocks,
    orbit_iter,
    stack_interval,
)
from sternbrocot.minkowski import qmark
from sternbrocot.trees import INT64_LEVEL, TreeSpec, descendants, level


def frac(x: ExtRat) -> Fraction:
    return Fraction(x.num, x.den)


def rat(f: Fraction) -> ExtRat:
    return ExtRat(f.numerator, f.denominator)


def ref_R(x: Fraction) -> Fraction:
    # next-rational map: 1 / (2 floor(x) + 1 - x)
    n = x.numerator // x.denominator
    return 1 / (2 * n + 1 - x)


def ref_F(x: Fraction) -> Fraction:
    return x / (1 - x) if 2 * x < 1 else 2 - 1 / x


def ref_D(x: Fraction) -> Fraction:
    return 2 * x % 1


def ref_G(x: Fraction) -> Fraction:
    return x - 1 if x >= 1 else x / (1 - x)


positives = st.tuples(st.integers(1, 10**5), st.integers(1, 10**5))
units = st.tuples(st.integers(1, 10**5 - 1), st.integers(2, 10**5)).filter(
    lambda a: a[0] < a[1]
)


class TestFormulas:
    @given(positives)
    def test_R_matches_the_closed_form(self, a):
        x = ExtRat(*a)
        assert frac(apply("R", x)) == ref_R(frac(x))

    def test_R_boundary_chain(self):
        assert apply("R", INF) == ZERO
        assert apply("R", ZERO) == ONE
        assert apply("R", ONE) == ExtRat(1, 2)

    @given(units)
    def test_S_is_R_conjugated_through_phi(self, a):
        # phi o R o phi^{-1}, computed with plain Fractions
        x = Fraction(*a)
        y = ref_R(x / (1 - x))
        assert frac(apply("S", ExtRat(*a))) == y / (1 + y)

    @given(units)
    def test_G_F_D_match_their_piecewise_forms(self, a):
        x = ExtRat(*a)
        assert frac(apply("F", x)) == ref_F(frac(x))
        assert frac(apply("D", x)) == ref_D(frac(x))

    @given(positives)
    def test_G_matches_slow_euclid(self, a):
        x = ExtRat(*a)
        if x == ONE:
            assert apply("G", x) == ZERO
        else:
            assert frac(apply("G", x)) == ref_G(frac(x))

    def test_T_walks_van_der_corput(self):
        # orbit of T visits the dyadics in bit-reversed counter order
        seq = orbit("T", ONE, 9)
        want = ["1/1", "0/1", "1/2", "1/4", "3/4", "1/8", "5/8", "3/8", "7/8"]
        assert [str(v) for v in seq] == want

    def test_unknown_map_rejected(self):
        with pytest.raises(DomainError):
            apply("Q", ONE)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            apply("S", ExtRat(3, 2))
        with pytest.raises(DomainError):
            apply("F", INF)


class TestInverses:
    @given(positives)
    def test_R_roundtrips(self, a):
        x = ExtRat(*a)
        assert apply_inverse("R", apply("R", x)) == x
        assert apply("R", apply_inverse("R", x)) == x

    @given(units)
    def test_S_and_T_roundtrip(self, a):
        x = ExtRat(*a)
        for m in ("S", "T"):
            assert apply_inverse(m, apply(m, x)) == x

    def test_folding_maps_have_no_inverse(self):
        with pytest.raises(DomainError):
            apply_inverse("G", ONE)
        with pytest.raises(DomainError, match="'R' is not a two-to-one map"):
            inverse_branches("R", ONE)

    def test_inverses_at_the_ends(self):
        # R(1/0) = 0, and S and T send 1 to 0
        assert apply_inverse("R", ZERO) == INF
        assert apply_inverse("S", ZERO) == apply_inverse("T", ZERO) == ONE
        with pytest.raises(DomainError, match="infinity is not in the range of R"):
            apply_inverse("R", INF)
        for m in ("S", "T"):
            with pytest.raises(DomainError, match=f"1 is not in the range of {m}"):
                apply_inverse(m, ONE)

    @given(positives)
    def test_G_branches_are_sections(self, a):
        x = ExtRat(*a)
        lo, hi = inverse_branches("G", x)
        assert apply("G", lo) == x
        assert apply("G", hi) == x
        assert lo <= hi

    @given(units)
    def test_F_and_D_branches_are_sections(self, a):
        x = ExtRat(*a)
        for m in ("F", "D"):
            for y in inverse_branches(m, x):
                assert apply(m, y) == x

    @given(st.tuples(st.integers(0, 10**5), st.integers(1, 10**5)).filter(
        lambda a: a[0] <= a[1]))
    def test_F_and_D_branches_are_reduced(self, a):
        x = ExtRat(*a)
        for m in ("F", "D"):
            for y in inverse_branches(m, x):
                assert (y.num, y.den) == (frac(y).numerator, frac(y).denominator)

    @pytest.mark.parametrize("m, kind", [("G", "sb"), ("F", "farey"), ("D", "dyadic")])
    def test_branches_are_permuted_tree_children(self, m, kind):
        spec = TreeSpec(kind, permuted=True)
        for k in range(1, 11):
            for x in level(spec, k):
                got, want = inverse_branches(m, x), descendants(spec, x)
                assert [(y.num, y.den) for y in got] == [(y.num, y.den) for y in want]

    def test_D_branches_of_even_and_odd_sums(self):
        assert [str(y) for y in inverse_branches("D", ExtRat(2, 3))] == ["1/3", "5/6"]
        assert [str(y) for y in inverse_branches("D", ONE)] == ["1/2", "1/1"]
        assert [str(y) for y in inverse_branches("D", ExtRat(1, 3))] == ["1/6", "2/3"]


class TestOrbits:
    def test_R_enumerates_the_rationals(self):
        got = [str(v) for v in orbit("R", INF, 9)]
        assert got == ["1/0", "0/1", "1/1", "1/2", "2/1", "1/3", "3/2", "2/3", "3/1"]

    def test_iter_and_list_agree(self):
        assert list(orbit_iter("S", ONE, 40)) == orbit("S", ONE, 40)

    def test_count_cap(self):
        with pytest.raises(CapExceeded):
            orbit("R", INF, (1 << 24) + 1)

    def test_empty_orbit(self):
        assert orbit("R", INF, 0) == []

    def test_empty_orbit_still_checks_the_start(self):
        with pytest.raises(DomainError):
            orbit("S", ExtRat(3, 2), 0)


def scalar_orbit(m, x, count):
    p, q = x.num, x.den
    out = []
    for _ in range(count):
        out.append((p, q))
        p, q = _STEPS[m](p, q)
    return out


def block_orbit(m, x, count):
    out = []
    for nums, dens in orbit_blocks(m, x.num, x.den, count):
        assert 0 < len(nums) <= ORBIT_BLOCK
        out += zip(nums.tolist(), dens.tolist())
    return out


def vertex(m, k, rng, tail):
    """A vertex on level k of the permuted tree m walks: right turns, then
    tail random turns, so tail = 12 lands within 4096 of the level's end."""
    spec = TreeSpec({"R": "sb", "S": "farey", "T": "dyadic"}[m], permuted=True)
    x = ONE if m == "R" else ExtRat(1, 2)
    for d in range(k - 1):
        x = descendants(spec, x)[1 if d < k - 1 - tail else rng.randrange(2)]
    return x


class TestOrbitBlocks:
    """orbit_blocks reads R and S from tree levels and T from the odometer;
    the scalar steps are the reference."""

    @pytest.mark.parametrize("m", INVERTIBLE)
    def test_level_starts_match_the_scalar_steps(self, m):
        # R and S: levels 63..70 take the scalar path, and starts near the
        # end of level 62 run on into the object columns of level 63.  T runs
        # the odometer from every start: a start of level k leaves the tail
        # 2^(k - 12) as its denominator, in int64 runs up to level 61, and
        # from level 62 on the scalar path takes over at once
        rng = random.Random(ord(m))
        for k in range(1, 71):
            for tail, count in ((k, 4097), (12, 9000)):
                x = vertex(m, k, rng, min(tail, k - 1))
                assert block_orbit(m, x, count) == scalar_orbit(m, x, count), (k, x)

    def test_last_vertex_of_the_int64_levels_runs_into_object_columns(self):
        x = vertex("S", INT64_LEVEL, None, 0)
        assert x == ExtRat(INT64_LEVEL, INT64_LEVEL + 1)
        got = list(orbit_blocks("S", x.num, x.den, 3))
        assert [c.dtype for c in got[0]] == [np.int64, np.int64]
        assert [c.dtype for c in got[1]] == [object, object]
        assert block_orbit("S", x, 3) == scalar_orbit("S", x, 3)

    @pytest.mark.parametrize("m,start", [("R", INF), ("R", ZERO), ("R", ONE),
                                         ("S", ONE), ("S", ZERO), ("T", ONE), ("T", ZERO)])
    def test_counts_across_block_and_level_seams(self, m, start):
        want = scalar_orbit(m, start, 3 * ORBIT_BLOCK + 5)
        for count in (1, 2, 3, 4095, 4096, 4097, 8191, 8192, 8193, 3 * ORBIT_BLOCK + 5):
            assert block_orbit(m, start, count) == want[:count], count

    def test_odometer_matches_the_scalar_steps(self):
        # runs are exact in int64 while 2^12 den < 2^62: denominators on
        # both sides of 2^50, odd and even, and far past it
        rng = random.Random(59)
        starts = []
        for bits in (3, 20, 41, 49, 50, 51, 60, 200):
            for q in ((1 << bits) + 2 * rng.randrange(1 << (bits - 1)) + 1,
                      (1 << bits) - 2 * rng.randrange(1, 1 << (bits - 2)) - 1,
                      3 << (bits - 1)):
                starts.append((ExtRat(rng.randrange(1, q), q), rng.choice((5, 4097, 9000))))
        # dyadic starts: the first, last and a random vertex of each level k
        # of the permuted dyadic tree, whose tail 2^(k - 12) keeps the first
        # block int64 up to level 61; B/2^12, whose tail is 0; and 0 and 1,
        # which the head hands on to the root 1/2
        for k in range(1, INT64_LEVEL + 1):
            for p in (1, (1 << k) - 1, 2 * rng.randrange(1 << (k - 1)) + 1):
                x = ExtRat(p, 1 << k)
                nums, dens = next(orbit_blocks("T", x.num, x.den, 1))
                assert nums.dtype == dens.dtype == (np.int64 if k < INT64_LEVEL else object), x
                starts.append((x, 4097))
        starts += [(ExtRat(b, 1 << 12), 9000) for b in (1, 2, 3, 2731, 3 << 10, 4095)]
        starts += [(ZERO, 9000), (ONE, 9000)]
        for x, count in starts:
            assert block_orbit("T", x, count) == scalar_orbit("T", x, count), x

    def test_floats_divide_exactly_above_2_53(self):
        a, b = 1, 1
        for _ in range(80):
            a, b = b, a + b
        starts = [("T", vertex("T", 60, random.Random(61), 59)),  # int64 entries to 2^60
                  ("T", ExtRat(1, 3 ** 29)),  # odometer denominators 2^12 * 3^29 > 2^53
                  ("R", ExtRat(b, a))]  # level 80: the scalar path's object columns
        for m, x in starts:
            want = scalar_orbit(m, x, 5000)
            assert any(max(p, q) >> 53 for p, q in want), (m, x)
            got = _orbit_floats(m, x.num, x.den, 5000, CAPS)
            assert got.tolist() == [truediv(p, q) for p, q in want], (m, x)


class TestConjugacies:
    @given(positives)
    def test_R_S_square_commutes(self, a):
        assert conjugacy_residual("R-S", ExtRat(*a)) == 0

    @given(st.tuples(st.integers(1, 9999), st.integers(2, 10**4)).filter(lambda a: a[0] < a[1]))
    def test_the_unit_interval_squares_commute(self, a):
        # denominators kept moderate: the S-T residual evaluates binary
        # expansions whose length grows with the continued fraction terms
        x = ExtRat(*a)
        for pair in ("S-T", "F-D"):
            assert conjugacy_residual(pair, x) == 0

    @given(positives)
    def test_G_F_square_commutes(self, a):
        assert conjugacy_residual("G-F", ExtRat(*a)) == 0

    def test_unknown_pair(self):
        with pytest.raises(DomainError):
            conjugacy_residual("R-T", ONE)


class TestStacks:
    def test_base_interval_and_widths(self):
        a = stack_interval("A", 1, 4)
        assert (str(a.lo), str(a.hi)) == ("0/1", "1/16")

    def test_T_translates_each_level_to_the_next(self):
        n = 5
        for i in range(1, (1 << n)):
            cur = stack_interval("A", i, n)
            nxt = stack_interval("A", i + 1, n)
            for third in (1, 2):
                f = frac(cur.lo) + third * (frac(cur.hi) - frac(cur.lo)) / 3
                x = rat(f)
                assert x in cur
                assert apply("T", x) in nxt

    def test_levels_tile_the_unit_interval(self):
        n = 6
        seen = sorted(
            (frac(stack_interval("A", i, n).lo), frac(stack_interval("A", i, n).hi))
            for i in range(1, (1 << n) + 1)
        )
        assert seen[0][0] == 0 and seen[-1][1] == 1
        for (lo1, hi1), (lo2, hi2) in zip(seen, seen[1:]):
            assert hi1 == lo2

    def test_B_and_C_are_the_conjugate_preimages(self):
        for i in (1, 2, 7, 12):
            a = stack_interval("A", i, 4)
            b = stack_interval("B", i, 4)
            c = stack_interval("C", i, 4)
            assert qmark(b.lo).as_fraction() == frac(a.lo)
            assert qmark(b.hi).as_fraction() == frac(a.hi)
            assert phi(c.lo) == b.lo and phi(c.hi) == b.hi

    @pytest.mark.parametrize("family", "ABC")
    def test_levels_are_half_open(self, family):
        n = 4
        for i in range(1, (1 << n) + 1):
            s = stack_interval(family, i, n)
            lo, hi = frac(s.lo), s.hi
            # C's last level ends at 1/0
            below_hi = frac(hi) - (frac(hi) - lo) / 1000 if hi.den else lo + 10 ** 6
            assert s.lo in s and rat(below_hi) in s
            assert hi not in s
            if lo:
                assert rat(lo / 2) not in s
            if hi.den:
                assert rat(frac(hi) + 1) not in s

    def test_guards(self):
        with pytest.raises(DomainError):
            stack_interval("D", 1, 3)
        with pytest.raises(DomainError):
            stack_interval("A", 9, 3)
        # the stage is the endpoints' bit count, which caps.exp bounds
        a = stack_interval("A", 1, 21)
        assert (str(a.lo), str(a.hi)) == ("0/1", f"1/{1 << 21}")
        assert stack_interval("A", 1, CAPS.exp).hi == ExtRat(1, 1 << CAPS.exp)
        with pytest.raises(CapExceeded, match=r"stack stage 65537 above the cap 65536 \(caps\.exp"):
            stack_interval("A", 1, CAPS.exp + 1)


class TestOdometer:
    def test_digits_match_fraction_expansion(self):
        r = random.Random(31)
        for _ in range(500):
            q = r.randrange(2, 10**4)
            p = r.randrange(1, q)
            x = Fraction(p, q)
            bits = binary_digits(ExtRat(p, q), 12)
            val = sum(b << (11 - i) for i, b in enumerate(bits))
            assert val == int(x * (1 << 12))

    def test_one_reads_as_all_ones(self):
        assert binary_digits(ONE, 5) == (1, 1, 1, 1, 1)

    def test_T_increments_the_counter(self):
        r = random.Random(37)
        for _ in range(300):
            q = r.randrange(2, 10**4)
            p = r.randrange(1, q)
            x = ExtRat(p, q)
            m = r.randrange(1, 9)
            before = odometer_value(x, m)
            after = odometer_value(apply("T", x), m)
            assert after == (before + 1) % (1 << m)

    def test_S_increments_through_the_conjugation(self):
        r = random.Random(41)
        for _ in range(200):
            q = r.randrange(2, 2000)
            p = r.randrange(1, q)
            x = ExtRat(p, q)
            before = odometer_value(x, 6, map="S")
            after = odometer_value(apply("S", x), 6, map="S")
            assert after == (before + 1) % 64

    def test_eigenfunction_pair_agrees(self):
        r = random.Random(43)
        for _ in range(100):
            q = r.randrange(2, 2000)
            p = r.randrange(1, q)
            lhs, rhs = eigenfunction_check(r.randrange(1, 12), ExtRat(p, q))
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("m", [0, 13])
    def test_eigenfunction_digit_count(self, m):
        with pytest.raises(DomainError, match=r"digit count must lie in 1\.\.12"):
            eigenfunction_check(m, ExtRat(1, 3))


class TestErgodicMeans:
    def test_cached_orbit_gives_identical_repeats(self):
        a = ergodic_fourier(3, ONE, 4096)
        b = ergodic_fourier(3, ONE, 4096)
        assert a == b

    def test_mean_of_the_trivial_frequency(self):
        # n = 0 would be 1 by definition; use a long orbit sanity bound instead
        z = ergodic_fourier(1, ONE, 1 << 14)
        assert abs(z) < 1

    def test_guards(self):
        with pytest.raises(DomainError):
            ergodic_fourier(1, INF, 10)
        with pytest.raises(DomainError, match="ergodic means run along R, S or T orbits"):
            ergodic_fourier(1, ONE, 10, map="G")
        with pytest.raises(DomainError, match="need at least one iterate"):
            ergodic_fourier(1, ONE, 0)
        with pytest.raises(CapExceeded):
            ergodic_fourier(1, ONE, (1 << 24) + 1)

    def test_orbit_honours_the_given_caps(self):
        # the orbit stream must take the caps ergodic_fourier was given
        z = ergodic_fourier(1, ONE, 4, caps=replace(CAPS, orbit=4))
        assert z == ergodic_fourier(1, ONE, 4)
        with pytest.raises(CapExceeded):
            ergodic_fourier(1, ONE, 4, caps=replace(CAPS, orbit=3))
        with pytest.raises(CapExceeded):  # the orbit stream gets the same table
            _orbit_floats("R", 1, 1, 4, replace(CAPS, orbit=3))
