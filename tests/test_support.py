"""Counter-based draws and order-independent float summation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sternbrocot.accum import CHUNK, fsum_array
from sternbrocot.core import CAPS, ONE, ExtRat
from sternbrocot.maps import _orbit_floats, ergodic_fourier
from sternbrocot.minkowski import fourier_tree_mean
from sternbrocot.rng import draw, draw_below, draw_bit, mix64, walk_key
from sternbrocot.trees import TreeSpec, level_floats


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


def _loop_fsum(a):
    """fsum_array as a Python loop over 4096-element slices."""
    flat = np.asarray(a, dtype=float).ravel()
    return math.fsum(float(np.sum(flat[i:i + CHUNK])) for i in range(0, flat.size, CHUNK))


def _same(x, y):
    """Equal bit for bit: equal parts with the same sign, zeros included."""
    x, y = complex(x), complex(y)
    return all(a == b and math.copysign(1, a) == math.copysign(1, b)
               for a, b in ((x.real, y.real), (x.imag, y.imag)))


class TestFourierKernels:
    """cos and sin give the bits of the complex exp the estimators once took.

    The identity comes from the libm and the numpy build, not from IEEE 754,
    so it is checked on the machine that runs the tests.
    """

    @pytest.mark.parametrize("iters", [1 << 14, 3 * CHUNK + 17])
    @pytest.mark.parametrize("n", [1, 7, 16])
    @pytest.mark.parametrize("m,start", [("R", ONE), ("S", ONE), ("T", ONE), ("T", ExtRat(1, 3))])
    def test_ergodic_mean_matches_the_complex_exp(self, n, m, start, iters):
        osc = (2j * math.pi * n) * _orbit_floats(m, start.num, start.den, iters, CAPS)
        np.exp(osc, out=osc)
        want = complex(_loop_fsum(osc.real) / iters, _loop_fsum(osc.imag) / iters)
        assert _same(ergodic_fourier(n, start, iters, map=m), want)

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_tree_mean_matches_the_complex_exp(self, n):
        k = 12
        re_parts, im_parts = [], []
        for j in range(1, k + 1):
            vals = np.exp(1j * (2.0 * np.pi * n) * level_floats(TreeSpec("sb"), j))
            re_parts.append(_loop_fsum(vals.real))
            im_parts.append(_loop_fsum(vals.imag))
        re = math.fsum(re_parts) * 2.0 ** -k
        im = math.fsum(im_parts) * 2.0 ** -k
        want = complex(complex(re, im) if im else re)
        assert _same(fourier_tree_mean(n, k), want)
