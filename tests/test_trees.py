"""Level generation for the six trees, plus the hyperbinary counter."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from sternbrocot.core import CapExceeded, DomainError, ExtRat, ONE
from sternbrocot import trees
from sternbrocot.coding import hat
from sternbrocot.minkowski import distribution_estimate, stieltjes_mean
from sternbrocot.trees import (
    TreeSpec,
    descendants,
    hyperbinary,
    level,
    level_arrays,
    level_floats,
)

SB = TreeSpec("sb")
FAREY = TreeSpec("farey")
DYADIC = TreeSpec("dyadic")
SPECS = tuple(TreeSpec(kind, permuted) for kind in ("sb", "farey", "dyadic")
              for permuted in (False, True))


def mediant_stage_oracle(k: int, ancestors) -> list[list[tuple[int, int]]]:
    """Levels 1..k as (num, den) pairs, by interleaved stage refinement."""
    stage = list(ancestors)
    levels = []
    for _ in range(k):
        new = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(stage, stage[1:])]
        levels.append(new)
        merged = []
        for old, ins in zip(stage, new):
            merged.append(old)
            merged.append(ins)
        merged.append(stage[-1])
        stage = merged
    return levels


def row(spec: TreeSpec, k: int) -> list[str]:
    return [str(v) for v in level(spec, k)]


class TestPlainLevels:
    def test_sb_levels_match_the_stage_oracle(self):
        # stage k inserts one mediant between each adjacent pair; the
        # insertions, read left to right, are exactly tree level k
        oracle = mediant_stage_oracle(10, [(0, 1), (1, 0)])
        for k in range(1, 11):
            got = [(v.num, v.den) for v in level(SB, k)]
            assert got == oracle[k - 1]

    def test_farey_levels_match_the_stage_oracle(self):
        oracle = mediant_stage_oracle(10, [(0, 1), (1, 1)])
        for k in range(1, 11):
            got = [(v.num, v.den) for v in level(FAREY, k)]
            assert got == oracle[k - 1]

    def test_farey_levels_are_sb_under_phi(self):
        for k in range(1, 12):
            sb_row = list(level(SB, k))
            fa_row = list(level(FAREY, k))
            assert [ExtRat(v.num, v.num + v.den) for v in sb_row] == fa_row

    def test_dyadic_levels_are_the_odd_grid(self):
        for k in range(1, 12):
            got = [(v.num, v.den) for v in level(DYADIC, k)]
            want = [(j, 1 << k) for j in range(1, 1 << k, 2)]
            assert got == want

    def test_level_sizes_double(self):
        for spec in (SB, FAREY, DYADIC):
            for k in range(1, 10):
                assert sum(1 for _ in level(spec, k)) == 1 << (k - 1)

    def test_root_rows(self):
        assert row(SB, 1) == ["1/1"]
        assert row(FAREY, 1) == ["1/2"]
        assert row(DYADIC, 1) == ["1/2"]
        assert row(SB, 3) == ["1/3", "2/3", "3/2", "3/1"]


class TestPermutedLevels:
    def test_permuted_sb_is_elementwise_hat(self):
        perm = TreeSpec("sb", permuted=True)
        for k in range(1, 11):
            assert [hat(v) for v in level(SB, k)] == list(level(perm, k))

    def test_permuted_farey_is_phi_of_permuted_sb(self):
        psb = TreeSpec("sb", permuted=True)
        pfa = TreeSpec("farey", permuted=True)
        for k in range(1, 11):
            assert [ExtRat(v.num, v.num + v.den) for v in level(psb, k)] == list(
                level(pfa, k)
            )

    def test_permuted_rows_from_the_descendant_rules(self):
        # rebuild each level from the descendant rules alone
        rules = {
            "sb": lambda p, q: ((p, p + q), (p + q, q)),
            "farey": lambda p, q: ((p, p + q), (q, 2 * q - p)),
            "dyadic": lambda p, q: ((p, 2 * q), (p + q, 2 * q)),
        }
        roots = {"sb": (1, 1), "farey": (1, 2), "dyadic": (1, 2)}
        for kind, rule in rules.items():
            spec = TreeSpec(kind, permuted=True)
            states = [roots[kind]]
            for k in range(1, 11):
                assert [(v.num, v.den) for v in level(spec, k)] == states
                states = list(
                    itertools.chain.from_iterable(rule(p, q) for p, q in states)
                )

    def test_known_permuted_rows(self):
        assert row(TreeSpec("sb", permuted=True), 4) == [
            "1/4", "4/3", "3/5", "5/2", "2/5", "5/3", "3/4", "4/1",
        ]
        assert row(TreeSpec("dyadic", permuted=True), 3) == [
            "1/8", "5/8", "3/8", "7/8",
        ]


class TestDescendants:
    def test_sb_children_are_the_neighbor_mediants(self):
        assert descendants(SB, ONE) == (ExtRat(1, 2), ExtRat(2, 1))
        assert descendants(SB, ExtRat(2, 5)) == (ExtRat(3, 8), ExtRat(3, 7))

    def test_children_tile_the_next_level(self):
        for spec in SPECS:
            for k in range(1, 8):
                spread = []
                for v in level(spec, k):
                    spread.extend(descendants(spec, v))
                assert spread == list(level(spec, k + 1))

    def test_domain_is_guarded(self):
        with pytest.raises(DomainError):
            descendants(DYADIC, ExtRat(3, 2))
        for spec in (DYADIC, TreeSpec("dyadic", permuted=True)):
            for x in (ExtRat(1, 3), ExtRat(2, 3), ExtRat(5, 12)):
                with pytest.raises(DomainError):
                    descendants(spec, x)


class TestLevelArrays:
    def test_agree_with_the_exact_levels(self):
        # level 14 spans two level_blocks blocks of 4096 entries
        for spec in SPECS:
            for k in (1, 2, 5, 11, 14):
                p, q = level_arrays(spec, k)
                exact = list(level(spec, k))
                assert p.dtype == np.int64 and q.dtype == np.int64
                assert [(a, b) for a, b in zip(p.tolist(), q.tolist())] == [
                    (v.num, v.den) for v in exact
                ]
                assert level_floats(spec, k).tolist() == [v.num / v.den for v in exact]

    def test_floats_are_the_quotients(self):
        p, q = level_arrays(SB, 9)
        assert np.array_equal(level_floats(SB, 9), p / q)

    @pytest.mark.parametrize("estimate", [
        lambda: distribution_estimate(SB, 20, ExtRat(2, 5)),
        lambda: stieltjes_mean(lambda a: np.exp(2j * np.pi * a), 20, vectorized=True),
    ], ids=["distribution_estimate", "stieltjes_mean"])
    def test_estimators_stream_the_levels_and_hold_none(self, estimate):
        # level 20 alone is 2^19 entries, 4 MB a column
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert not trees._STATE_CACHE and not trees._FLOAT_CACHE

    def test_blocks_from_a_start_index(self):
        # level 16 is one batch of four 4096-entry blocks; start anywhere in it
        rng = random.Random(17)
        for spec in SPECS:
            for k in (1, 2, 13, 16, 18):
                whole = list(level(spec, k))
                for start in {0, len(whole) - 1, rng.randrange(len(whole))}:
                    blocks = list(trees._level_from(spec, k, start))
                    got = [ExtRat._raw(p, q) for num, den in blocks
                           for p, q in zip(num.tolist(), den.tolist())]
                    assert got == whole[start:], (spec, k, start)
                    # blocks after the first end on multiples of 4096
                    assert all(len(num) == 4096 for num, _ in blocks[1:-1])

    def test_caps(self):
        with pytest.raises(CapExceeded):
            level_arrays(SB, 21)
        with pytest.raises(CapExceeded):
            list(level(SB, 25))
        with pytest.raises(DomainError):
            list(level(SB, 0))
        with pytest.raises(DomainError):
            level_arrays(SB, 0)
        with pytest.raises(DomainError):
            level_floats(SB, 0)


class TestHyperbinary:
    def brute(self, n: int) -> int:
        width = n.bit_length() + 1
        count = 0
        for digits in itertools.product((0, 1, 2), repeat=width):
            if sum(d << i for i, d in enumerate(digits)) == n:
                count += 1
        return count

    def test_hand_table(self):
        # b(8) = 4: 8, 4+4, 4+2+2, 4+2+1+1
        assert [hyperbinary(n) for n in range(9)] == [1, 1, 2, 1, 3, 2, 3, 1, 4]

    def test_matches_brute_force(self):
        for n in range(40):
            assert hyperbinary(n) == self.brute(n)

    def test_large_n_match_the_recurrence(self):
        memo = {0: 1, 1: 1}

        def b(n):  # b(2m+1) = b(m), b(2m+2) = b(m) + b(m+1)
            if n not in memo:
                m = (n - 1) // 2
                memo[n] = b(m) if n % 2 else b(m) + b(m + 1)
            return memo[n]

        r = random.Random(23)
        for n in [2 ** 100 + 12345, 2 ** 64 - 1] + [r.getrandbits(64) for _ in range(500)]:
            assert hyperbinary(n) == b(n), n

    def test_consecutive_values_are_coprime(self):
        import math
        for n in range(500):
            assert math.gcd(hyperbinary(n), hyperbinary(n + 1)) == 1

    def test_rejects_negatives(self):
        with pytest.raises(DomainError):
            hyperbinary(-1)
