"""Counter-based draws and order-independent float summation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sternbrocot.accum import fsum_array
from sternbrocot.rng import draw, draw_below, draw_bit, mix64, walk_key


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
