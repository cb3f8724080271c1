"""Counter-based draws and order-independent float summation."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sternbrocot.accum import _UNIT, CHUNK, _units, cis_sums, fsum_array
from sternbrocot.core import CAPS, ONE, UNSAFE_CAPS, ExtRat
from sternbrocot.maps import _orbit_floats, ergodic_fourier, ergodic_fourier_means, orbit_blocks, orbit_iter
from sternbrocot.minkowski import fourier_tree_mean, fourier_tree_means
from sternbrocot.rng import draw, draw_below, draw_bit, mix64, walk_key
from sternbrocot.trees import TreeSpec, level_blocks


class TestMixing:
    def test_draws_are_pure_functions(self):
        k = walk_key(7, 123)
        assert [draw(k, s) for s in range(8)] == [draw(k, s) for s in range(8)]

    def test_streams_do_not_collide(self):
        keys = {walk_key(7, w) for w in range(10000)}
        assert len(keys) == 10000

    def test_mix_is_a_bijection_on_samples(self):
        r = random.Random(5)
        xs = {r.getrandbits(64) for _ in range(5000)}
        assert len({mix64(x) for x in xs}) == len(xs)

    def test_bits_are_roughly_fair(self):
        k = walk_key(0, 0)
        n = 20000
        ones = sum(draw_bit(k, s) for s in range(n))
        assert abs(ones / n - 0.5) < 0.02

    def test_threshold_draw_matches_integer_comparison(self):
        # success iff the 53-bit draw falls under num/den, computed exactly
        k = walk_key(3, 9)
        for s in range(2000):
            top = draw(k, s) >> 11
            want = 1 if Fraction(top, 1 << 53) < Fraction(2, 7) else 0
            assert draw_below(k, s, 2, 7) == want

    def test_threshold_endpoints(self):
        k = walk_key(1, 1)
        assert all(draw_below(k, s, 1, 1) for s in range(100))
        assert not any(draw_below(k, s, 0, 5) for s in range(100))

    def test_threshold_frequency(self):
        k = walk_key(11, 2)
        n = 30000
        hits = sum(draw_below(k, s, 1, 3) for s in range(n))
        assert abs(hits / n - 1 / 3) < 0.02


class TestSummation:
    def test_array_sum_is_slice_independent(self):
        r = np.random.default_rng(19)
        a = r.normal(size=30000) * r.uniform(1, 1e8, size=30000)
        whole = fsum_array(a)
        assert fsum_array(a.reshape(300, 100)) == whole
        assert whole == pytest.approx(math.fsum(a.tolist()), abs=1e-6)

    def test_empty_array_sums_to_zero(self):
        assert fsum_array(np.array([])) == 0.0

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_chunk_sums_match_the_slice_loop(self, size):
        r = np.random.default_rng(size)
        a = r.normal(size=size) * 10.0 ** r.uniform(-12, 12, size=size)
        assert _same(fsum_array(a), _loop_fsum(a))

    def test_two_dimensional_and_strided_inputs_match_the_slice_loop(self):
        r = np.random.default_rng(3)
        a = r.normal(size=(7, 1000)) * 10.0 ** r.uniform(-30, 30, size=(7, 1000))
        assert _same(fsum_array(a), _loop_fsum(a))
        z = a[:, ::2] + 1j * a[:, 1::2]
        assert _same(fsum_array(z.real), _loop_fsum(z.real))
        assert _same(fsum_array(z.imag), _loop_fsum(z.imag))

    def test_cis_sums_do_not_depend_on_the_blocks(self):
        r = np.random.default_rng(5)
        a = r.uniform(0, 1, size=40 * CHUNK + 123)
        ws = [2 * math.pi * n for n in (1, 5, 16)]
        want = [(_loop_fsum(np.cos(w * a)), _loop_fsum(np.sin(w * a))) for w in ws]
        cuts = np.sort(r.integers(0, a.size, size=30))
        for blocks in ([a], np.split(a, cuts), [a[:1], a[:0], a[1:]]):
            assert cis_sums(blocks, ws) == want
        assert cis_sums([], ws) == [(0.0, 0.0)] * 3


# Finite floats whose sums stay inside the float range, subnormals and -0.0 included.
partials = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)


class TestExactRunningSum:
    """cis_sums adds each chunk partial to an int in units of 2^-1074 and
    divides once: that is math.fsum of the partials, bit for bit."""

    @given(st.lists(partials, max_size=60))
    def test_matches_fsum(self, xs):
        assert _same(sum(map(_units, xs)) / _UNIT, math.fsum(xs))

    @given(st.lists(partials, min_size=1, max_size=30), partials)
    def test_matches_fsum_under_cancellation(self, xs, tail):
        # every x cancels but the tail, summed in an order that hides it
        xs = xs + [tail] + [-x for x in reversed(xs)]
        assert _same(sum(map(_units, xs)) / _UNIT, math.fsum(xs))

    @pytest.mark.parametrize("xs", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [-5e-324, 5e-324],
        [5e-324] * 3, [2.2250738585072014e-308, -5e-324], [1e300, 1.0, -1e300],
        [1.0, 1e-16, 1e-16], [0.1] * 10,
    ])
    def test_edge_cases(self, xs):
        assert _same(sum(map(_units, xs)) / _UNIT, math.fsum(xs))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_long_lists(self, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=20000) * 10.0 ** r.integers(-320, 300, size=20000)
        xs = a.tolist() + (-a[::3]).tolist()
        assert _same(sum(map(_units, xs)) / _UNIT, math.fsum(xs))


def _loop_fsum(a):
    """fsum_array as a Python loop over 4096-element slices."""
    flat = np.asarray(a, dtype=float).ravel()
    return math.fsum(float(np.sum(flat[i:i + CHUNK])) for i in range(0, flat.size, CHUNK))


def _same(x, y):
    """Equal bit for bit: equal parts with the same sign, zeros included."""
    x, y = complex(x), complex(y)
    return all(a == b and math.copysign(1, a) == math.copysign(1, b)
               for a, b in ((x.real, y.real), (x.imag, y.imag)))


def _exp_mean(n, floats):
    """The ergodic mean as the estimator once took it: complex exp of the whole orbit."""
    osc = (2j * math.pi * n) * floats
    np.exp(osc, out=osc)
    return complex(_loop_fsum(osc.real) / floats.size, _loop_fsum(osc.imag) / floats.size)


def _tree_exp_mean(n, k):
    """The tree mean as the estimator once took it: complex exp of each whole level."""
    re_parts, im_parts = [], []
    for j in range(1, k + 1):
        floats = np.concatenate([num / den for num, den in level_blocks(TreeSpec("sb"), j)])
        vals = np.exp(1j * (2.0 * np.pi * n) * floats)
        re_parts.append(_loop_fsum(vals.real))
        im_parts.append(_loop_fsum(vals.imag))
    re = math.fsum(re_parts) * 2.0 ** -k
    im = math.fsum(im_parts) * 2.0 ** -k
    return complex(complex(re, im) if im else re)


NS = (1, 7, 16)
STARTS = [("R", ONE), ("S", ONE), ("T", ONE), ("T", ExtRat(1, 3))]


class TestFourierKernels:
    """cos and sin give the bits of the complex exp the estimators once took.

    The identity comes from the libm and the numpy build, not from IEEE 754,
    so it is checked on the machine that runs the tests.
    """

    @pytest.mark.parametrize("iters", [1 << 14, 3 * CHUNK + 17])
    @pytest.mark.parametrize("n", [1, 7, 16])
    @pytest.mark.parametrize("m,start", STARTS)
    def test_ergodic_mean_matches_the_complex_exp(self, n, m, start, iters):
        want = _exp_mean(n, _orbit_floats(m, start.num, start.den, iters, CAPS))
        assert _same(ergodic_fourier(n, start, iters, map=m), want)

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_tree_mean_matches_the_complex_exp(self, n):
        assert _same(fourier_tree_mean(n, 12), _tree_exp_mean(n, 12))


class TestStreamedFourier:
    """One pass for every n gives the bits of one n at a time, across the
    4096-chunk and 16-chunk segment seams and unaligned first blocks."""

    @pytest.mark.parametrize("iters", [3 * CHUNK + 17, 16 * CHUNK, 16 * CHUNK + 1, 33 * CHUNK + 5])
    @pytest.mark.parametrize("m,start", STARTS)
    def test_ergodic_means_match_one_n_at_a_time(self, m, start, iters):
        floats = _orbit_floats(m, start.num, start.den, iters, CAPS)
        for n, z in zip(NS, ergodic_fourier_means(NS, start, iters, map=m)):
            assert _same(z, ergodic_fourier(n, start, iters, map=m))
            assert _same(z, _exp_mean(n, floats))

    def test_orbit_past_2_53_divides_the_exact_integers(self):
        # T from 1/(2^49 - 1) runs the odometer in int64 columns with entries
        # near 2^61 over denominators that are not powers of two, where
        # numpy's division of the rounded operands differs on some entries,
        # and then in object columns; lifted caps as under --unsafe-cap
        start, iters = ExtRat(1, (1 << 49) - 1), 2 * CHUNK + 5
        blocks = list(orbit_blocks("T", start.num, start.den, iters))
        assert [b.dtype for b, _ in blocks] == [np.int64, np.int64, object]
        assert all(b.max() >> 53 for b, _ in blocks)
        exact = np.array([x.num / x.den for x in orbit_iter("T", start, iters, UNSAFE_CAPS)])
        for n, z in zip(NS, ergodic_fourier_means(NS, start, iters, map="T", caps=UNSAFE_CAPS)):
            assert _same(z, _exp_mean(n, exact))

    @pytest.mark.parametrize("k", [12, 13, 18])
    def test_tree_means_match_one_n_at_a_time(self, k):
        for n, z in zip(NS, fourier_tree_means(NS, k)):
            assert _same(z, fourier_tree_mean(n, k))
            assert _same(z, _tree_exp_mean(n, k))

    @pytest.mark.parametrize("k,iters", [(14, 1 << 14), (20, 1 << 20)])
    def test_memory_stays_under_a_fixed_bound(self, k, iters):
        # no level or orbit is held: the peak at depth 20 and 2^20 iterates,
        # all n <= 16, stays under the bound that depth 14 and 2^14 keep
        ns = range(1, 17)
        for estimate in (lambda: fourier_tree_means(ns, k),
                         lambda: ergodic_fourier_means(ns, ONE, iters, map="R")):
            tracemalloc.start()
            try:
                estimate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20

    def test_ergodic_memory_does_not_grow_with_the_frequencies(self):
        # 1024 chunks: two floats a chunk for each n would add about 1 MB at n <= 16
        peaks = []
        for n_max in (1, 16):
            tracemalloc.start()
            try:
                ergodic_fourier_means(range(1, n_max + 1), ONE, 1 << 22, map="R")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 128 << 10
