"""Level generation for the six trees, plus the hyperbinary counter."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from sternbrocot.core import CapExceeded, DomainError, ExtRat, ONE
from sternbrocot import trees
from sternbrocot.coding import hat
from sternbrocot.minkowski import distribution_estimates, stieltjes_means
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


# Child rules on (num, den), written out apart from trees: the permuted
# kinds' descendant rules and the plain dyadic one.  Plain sb and Farey
# carry their two parents instead (vertex_at).
RULES = {
    ("sb", True): lambda p, q: ((p, p + q), (p + q, q)),
    ("farey", True): lambda p, q: ((p, p + q), (q, 2 * q - p)),
    ("dyadic", True): lambda p, q: ((p, 2 * q), (p + q, 2 * q)),
    ("dyadic", False): lambda p, q: ((2 * p - 1, 2 * q), (2 * p + 1, 2 * q)),
}
ROOTS = {"sb": (1, 1), "farey": (1, 2), "dyadic": (1, 2)}
ANCESTORS = {"sb": ((0, 1), (1, 0)), "farey": ((0, 1), (1, 1))}


def vertex_at(spec, k, i):
    """(num, den) of the vertex at index i of level k: the Python-int walk from
    the root by the k - 1 bits of i, most significant first (L = 0, R = 1),
    by RULES, or for plain sb and Farey by the mediant of the two parents."""
    bits = [i >> d & 1 for d in range(k - 2, -1, -1)]
    rule = RULES.get((spec.kind, spec.permuted))
    if rule:
        x = ROOTS[spec.kind]
        for bit in bits:
            x = rule(*x)[bit]
        return x
    lo, hi = ANCESTORS[spec.kind]
    for bit in bits:
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        lo, hi = (mid, hi) if bit else (lo, mid)
    return lo[0] + hi[0], lo[1] + hi[1]


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

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown tree kind 'x'"):
            TreeSpec("x")

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
        for kind in ROOTS:
            spec, rule = TreeSpec(kind, permuted=True), RULES[kind, True]
            states = [ROOTS[kind]]
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


def cw_leaves(p, q, n):
    """The end points (p', q') of the 2^n n-letter branch words from p/q in
    word order (letter 0 first): the depth-n Calkin-Wilf subtree at p/q,
    walked depth first with one pending sibling a level, as markov_power
    walked it before it read tree levels."""
    stack = [(p, q, n)]
    while stack:
        p, q, k = stack.pop()
        while k:
            k -= 1
            stack.append((p + q, q, k))
            q += p
        yield p, q


def headed(p, q, k):
    """Level k of the permuted sb tree headed by (p, q), as (num, den)
    pairs, and the dtypes of its blocks."""
    blocks = list(trees._level_from(TreeSpec("sb", permuted=True), k, 0, ((p, q),)))
    pairs = [pair for num, den in blocks for pair in zip(num.tolist(), den.tolist())]
    return pairs, {num.dtype for num, _ in blocks} | {den.dtype for _, den in blocks}


class TestHeads:
    @pytest.mark.parametrize("x", [ExtRat(0), ExtRat(1, 0), ExtRat(1), ExtRat(3, 7), ExtRat(5, 2),
                                   ExtRat((1 << 61) + 1, 3)], ids=str)
    def test_headed_levels_are_the_branch_word_ends(self, x):
        for n in range(15):
            pairs, dtypes = headed(x.num, x.den, n + 1)
            assert pairs == list(cw_leaves(x.num, x.den, n)), n
            assert all(type(v) is int for pair in pairs for v in pair)
            exact = (x.num + x.den) << n < 1 << 63
            assert dtypes == {np.dtype(np.int64) if exact else np.dtype(object)}, n

    def test_the_head_picks_the_columns_at_the_int64_bound(self):
        # (p + q) << (k - 1) just under 2^63 takes int64 columns, at 2^63
        # object columns; at k = 2 the leaf p + q of a head past the bound
        # is itself past int64
        for k in (2, 13, 14):
            bound = 1 << (64 - k)
            for total, dtype in ((bound - 1, np.int64), (bound, object), (3 * bound, object)):
                for p in (0, total // 3, total):
                    pairs, dtypes = headed(p, total - p, k)
                    assert dtypes == {np.dtype(dtype)}, (k, p, total)
                    assert pairs == list(cw_leaves(p, total - p, k - 1)), (k, p, total)


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
        lambda: distribution_estimates(SB, 20, [ExtRat(2, 5)]),
        lambda: distribution_estimates(SB, 20, [ExtRat(n, 37) for n in range(1, 101)]),
        lambda: stieltjes_means(lambda a: np.exp(2j * np.pi * a), 20, vectorized=True),
        lambda: stieltjes_means(lambda v: v.den / (v.num + v.den), 18),
    ], ids=["distribution_estimates", "distribution_estimates-100-points", "stieltjes_means",
            "stieltjes_means-plain"])
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
        # level 16 is eight 4096-entry blocks; start anywhere in it, at the
        # block seams, and in its last two blocks
        rng = random.Random(17)
        for spec in SPECS:
            for k in (1, 2, 13, 14, 16, 18, 20):
                num, den = level_arrays(spec, k)
                starts = {0, num.size - 1, rng.randrange(num.size)}
                if k in (14, 16, 20):  # 8192 and 8193 are past the end of level 14
                    starts |= {8191, 8192, 8193, max(num.size - (2 << trees.BLOCK_LEVELS), 0)}
                for start in sorted(starts):
                    if start < num.size:
                        assert (num[start], den[start]) == vertex_at(spec, k, start)
                    blocks = list(trees._level_from(spec, k, start))
                    for j, want in enumerate((num, den)):
                        got = [block[j] for block in blocks]
                        assert np.array_equal(np.concatenate(got) if got else [], want[start:]), (
                            spec, k, start)
                    # blocks after the first end on multiples of 4096
                    assert all(len(n) == 4096 for n, _ in blocks[1:-1])

    @pytest.mark.parametrize("k", [40, 62, 63])
    def test_deep_starts_reach_their_vertex(self, k):
        rng = random.Random(k)
        width = 1 << (k - 1)
        for spec in SPECS:
            for start in (rng.randrange(width), width - 4097, width - 1):
                blocks = trees._level_from(spec, k, start)
                num, den = next(blocks)
                assert len(num) == 4096 - start % 4096
                assert num.dtype == (np.int64 if k <= trees.INT64_LEVEL else object)
                end = start + len(num)
                # every 256th entry of the first block, and its last
                for j in [*range(0, len(num), 256), len(num) - 1]:
                    assert (num[j], den[j]) == vertex_at(spec, k, start + j), (spec, start, j)
                if end < width:
                    num, den = next(blocks)
                    assert (num[0], den[0]) == vertex_at(spec, k, end), (spec, end)
                else:
                    assert next(blocks, None) is None

    def test_block_roots_go_on_from_the_walk_before(self, monkeypatch):
        # a block root keeps the states its word shares with the one before,
        # so 64 blocks from deep in level 40 take a walk of 27 letters and
        # then about two a block, not 27 a block
        step, steps = trees._step, []
        monkeypatch.setattr(trees, "_step", lambda s, m: steps.append(m) or step(s, m))
        for spec in SPECS:
            steps.clear()
            blocks = list(itertools.islice(trees._level_from(spec, 40, 12345678901), 64))
            assert len(blocks) == 64
            assert len(steps) < 27 + 3 * 64, spec

    def test_level_stream_time(self):
        # the block roots of level 24 are 11 letters below the root, each walk
        # going on from the one before; the whole level streamed in 0.03-0.06 s
        # on a 2-core Xeon
        t = time.perf_counter()
        for _ in trees.level_blocks(DYADIC, 24):
            pass
        elapsed = time.perf_counter() - t
        assert elapsed < 2, f"dyadic level 24 took {elapsed:.3f}s"
        # from the last index of level 62 one walk of 49 steps reaches its
        # block root: 0.4-0.7 ms on the same host, the word table included
        t = time.perf_counter()
        next(trees._level_from(TreeSpec("sb", permuted=True), 62, (1 << 61) - 1))
        elapsed = time.perf_counter() - t
        assert elapsed < 0.1, f"the first block of level 62's last index took {elapsed:.3f}s"

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
