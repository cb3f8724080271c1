"""Random walks: exact cylinder weights, reproducible tables, hitting."""

import ast
import dataclasses
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sternbrocot import experiments, rng, stochastic
from sternbrocot.cli import run
from sternbrocot.core import CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, apply_letter
from sternbrocot.experiments import (
    ChainSpec,
    MartingaleReport,
    cylinder_prob,
    hitting_experiment,
    martingale_check,
    mc0_limit_experiment,
    simulate,
)
from sternbrocot.minkowski import rho
from sternbrocot.operators import _value, markov_apply, transition_probs
from sternbrocot.stochastic import _draw_letter, _letter_steps, walk_table

words = st.lists(st.integers(0, 1), min_size=1, max_size=24)
starts = st.one_of(
    st.sampled_from([ZERO, INF, ONE]),
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)).map(lambda pq: ExtRat(*pq)),
)


def step_product(kind, x, word):
    """The word's probability as the product of the per-step branch weights."""
    prob = Fraction(1)
    for b in word:
        prob *= transition_probs(kind, x)[b]
        x = apply_letter(x, b)
    return prob


def rho_frac(x: ExtRat) -> Fraction:
    return rho(x).as_fraction()


def indicator(x: ExtRat) -> int:
    return 1 if x.is_zero or x.is_infinite else 0


class TestLetters:
    def test_branch_images(self):
        x = ExtRat(2, 5)
        assert str(apply_letter(x, 0)) == "2/7"
        assert str(apply_letter(x, 1)) == "7/5"

    def test_endpoints_absorb_their_letter(self):
        assert apply_letter(ZERO, 0) == ZERO
        assert apply_letter(INF, 1) == INF

    @given(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)))
    def test_images_stay_reduced(self, a):
        x = ExtRat(*a)
        for b in (0, 1):
            y = apply_letter(x, b)
            assert math.gcd(y.num, y.den) == 1


class TestSimulate:
    def test_forced_word_states_and_weight(self):
        spec = ChainSpec("MC1", horizon=3)
        path = simulate(spec, letters=(1, 0, 1))
        assert [str(v) for v in path.states] == ["1/1", "2/1", "2/3", "5/3"]
        assert path.letters == (1, 0, 1)
        assert path.prob == Fraction(1, 15)

    def test_walks_are_reproducible_and_distinct(self):
        spec = ChainSpec("MC0", horizon=40, seed=11)
        a = simulate(spec, walk=5)
        b = simulate(spec, walk=5)
        c = simulate(spec, walk=6)
        assert a == b
        assert a.letters != c.letters

    @given(words)
    def test_prob_agrees_with_cylinder(self, w):
        for kind in ("MC0", "MC1"):
            spec = ChainSpec(kind, start=ExtRat(2, 5), horizon=len(w))
            path = simulate(spec, letters=w)
            assert path.prob == cylinder_prob(kind, ExtRat(2, 5), w)

    @given(st.sampled_from(["MC0", "MC1"]), starts, words)
    @example("MC1", ZERO, [0, 0])
    @example("MC1", INF, [1, 1])
    def test_prob_is_the_step_product(self, kind, x, w):
        path = simulate(ChainSpec(kind, start=x, horizon=len(w)), letters=w)
        assert path.prob == step_product(kind, x, w)

    def test_long_weighted_walk_is_priced_in_time(self):
        # the per-step Fraction product took 4-6 s at this horizon (2-core Xeon guest)
        spec = ChainSpec("MC1", horizon=1 << 15, seed=2)
        start = time.perf_counter()
        path = simulate(spec)
        elapsed = time.perf_counter() - start
        end = path.states[-1]
        assert path.prob == Fraction(1, end.num * end.den)
        assert elapsed < 1, f"simulate at horizon 2^15 took {elapsed:.2f}s"

    def test_absorbing_state_kills_the_other_letter(self):
        spec = ChainSpec("MC1", start=ZERO, horizon=2)
        assert simulate(spec, letters=(1, 1)).prob == 0
        assert simulate(spec, letters=(0, 0)).prob == 1

    def test_letter_validation(self):
        spec = ChainSpec("MC0", horizon=3)
        with pytest.raises(ValueError):
            simulate(spec, letters=(1, 0))
        with pytest.raises(ValueError):
            simulate(spec, letters=(1, 0, 2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChainSpec("MC2")
        with pytest.raises(ValueError):
            ChainSpec("MC0", horizon=0)
        with pytest.raises(CapExceeded):
            ChainSpec("MC0", horizon=(1 << 20) + 1)
        with pytest.raises(TypeError):
            ChainSpec("MC0", start=Fraction(1, 2))


class TestCylinders:
    @given(words)
    def test_fair_chain_weights_by_length(self, w):
        assert cylinder_prob("MC0", ExtRat(3, 4), w) == Fraction(1, 1 << len(w))

    @given(words)
    def test_weighted_chain_from_one(self, w):
        # the weight of a word from 1/1 is one over num*den of its endpoint
        end = ONE
        for b in w:
            end = apply_letter(end, b)
        got = cylinder_prob("MC1", ONE, w)
        assert got == Fraction(1, end.num * end.den)

    @given(st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)), st.integers(1, 40))
    def test_constant_words_telescope(self, a, n):
        p, q = a
        x = ExtRat(p, q)
        assert cylinder_prob("MC1", x, [1] * n) == Fraction(p, p + n * q)
        assert cylinder_prob("MC1", x, [0] * n) == Fraction(q, n * p + q)

    @given(words)
    def test_sibling_weights_sum_to_parent(self, w):
        x = ExtRat(4, 7)
        for kind in ("MC0", "MC1"):
            parent = cylinder_prob(kind, x, w)
            assert parent == cylinder_prob(kind, x, w + [0]) + cylinder_prob(
                kind, x, w + [1]
            )

    @given(st.sampled_from(["MC0", "MC1"]), starts, words | st.just([]))
    @example("MC1", ZERO, [0, 0])
    @example("MC1", INF, [1, 1])
    def test_prob_is_the_step_product(self, kind, x, w):
        assert cylinder_prob(kind, x, w) == step_product(kind, x, w)

    def test_chain_is_checked_first(self):
        for w in ((), (0,)):
            with pytest.raises(DomainError, match="unknown chain 'MC7'"):
                cylinder_prob("MC7", ONE, w)

    def test_word_cap_and_bits(self):
        # caps.exp bounds the word's length, checked before the word is read
        assert cylinder_prob("MC0", ONE, [0] * (1 << 16)) == Fraction(1, 1 << (1 << 16))
        with pytest.raises(CapExceeded, match=r"word length 65537 above the cap 65536 \(caps\.exp"):
            cylinder_prob("MC0", ONE, [0] * ((1 << 16) + 1))
        with pytest.raises(CapExceeded, match=r"caps\.exp"):
            cylinder_prob("MC1", ONE, range(1 << 42))
        with pytest.raises(ValueError):
            cylinder_prob("MC0", ONE, [0, 3])


class TestWalkTable:
    def test_rows_match_single_walks(self):
        rows = walk_table("MC1", ONE, 12, 25, seed=3)
        for w, (t, num, den) in enumerate(rows):
            path = simulate(ChainSpec("MC1", horizon=25, seed=3), walk=w)
            assert t == -1
            assert (num, den) == (path.states[-1].num, path.states[-1].den)

    def test_worker_count_never_changes_rows(self):
        base = walk_table("MC0", ONE, 3000, 12, seed=9)
        for workers in (2, 8):
            assert walk_table("MC0", ONE, 3000, 12, seed=9, workers=workers) == base

    def test_interval_rows_stop_at_first_hit(self):
        lo, hi = ExtRat(2, 5), ExtRat(3, 5)
        rows = walk_table("MC0", ONE, 400, 60, seed=7, interval=(lo, hi))
        for t, num, den in rows:
            inside = lo < ExtRat(num, den) < hi
            assert inside == (t >= 0)

    def test_start_inside_hits_at_time_zero(self):
        rows = walk_table(
            "MC0", ExtRat(1, 2), 5, 10, seed=0,
            interval=(ExtRat(2, 5), ExtRat(3, 5)),
        )
        assert all(r == (0, 1, 2) for r in rows)

    def test_guards(self):
        with pytest.raises(CapExceeded):
            walk_table("MC0", ONE, 0, 10, seed=0)
        with pytest.raises(CapExceeded):
            walk_table("MC0", ONE, 10**6 + 1, 10, seed=0)
        with pytest.raises(CapExceeded):
            walk_table("MC0", ONE, 10, 0, seed=0)
        with pytest.raises(DomainError):
            walk_table("MC0", ONE, 10, 10, seed=0, interval=(ONE, ONE))
        with pytest.raises(TypeError):
            walk_table("MC0", ONE, 10, 10, seed=0, interval=(0.4, 0.6))
        with pytest.raises(ValueError):
            walk_table("MC3", ONE, 10, 10, seed=0)
        with pytest.raises(ValueError):
            walk_table("MC0", ONE, 10, 10, seed=0, workers=0)


# Reference walk written from the documented rule alone: SplitMix64 over
# (seed, walk, step) counters, letter 0 sends p/q to p/(p+q) and letter 1
# to (p+q)/q; MC0 takes the top bit of the draw, MC1 takes letter 0 iff
# (draw >> 11) * (p + q) < q * 2^53; hits are exact cross-multiplications.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_walk(kind, x, horizon, seed, walk, interval):
    key = _splitmix((seed + _GAMMA * (walk + 1)) & _MASK64)
    p, q = x.num, x.den

    def inside(p, q):
        if interval is None:
            return False
        lo, hi = interval
        return lo.num * q < p * lo.den and p * hi.den < hi.num * q

    if inside(p, q):
        return 0, p, q
    for k in range(horizon):
        d = _splitmix((key + _GAMMA * (k + 1)) & _MASK64)
        if kind == "MC0":
            letter = d >> 63
        else:
            letter = 0 if (d >> 11) * (p + q) < q << 53 else 1
        p, q = (p + q, q) if letter else (p, p + q)
        if inside(p, q):
            return k + 1, p, q
    return -1, p, q


def _fib_ratio(bits):
    a, b = 1, 1
    while b.bit_length() < bits:
        a, b = b, a + b
    return ExtRat(a, b)


# p + q is about 2^60.7, so lanes pass 2^62 within a few steps
FIB60 = _fib_ratio(60)
KERNEL_STARTS = [ONE, ZERO, INF, FIB60]
KERNEL_INTERVALS = [
    None,
    (ExtRat(2, 5), ExtRat(3, 5)),
    (ExtRat(3, 2), INF),
    # endpoints near 2^41 leave int64 cross-products room for ~2^21 only
    (ExtRat(2 ** 40, 3 * 2 ** 40 + 1), ExtRat(1, 2)),
    # endpoints past int64
    (ExtRat(2 ** 70, 2 ** 71 + 1), ExtRat(3 * 2 ** 70 + 1, 2 ** 72)),
]


class TestKernel:
    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @pytest.mark.parametrize("interval", KERNEL_INTERVALS)
    @settings(max_examples=25, deadline=None)
    @given(
        start=st.sampled_from(KERNEL_STARTS),
        horizon=st.integers(1, 300),
        seed=st.integers(0, _MASK64),
        walks=st.integers(1, 24),
    )
    def test_rows_match_reference_walks(self, kind, start, interval, horizon, seed, walks):
        rows = walk_table(kind, start, walks, horizon, seed, interval=interval)
        assert rows == tuple(
            reference_walk(kind, start, horizon, seed, w, interval)
            for w in range(walks)
        )

    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    def test_rows_match_reference_across_batches(self, kind):
        # the kernel runs 4096 walks per batch; check both sides of two seams
        rows = walk_table(kind, ONE, 8192 + 40, 120, seed=3)
        for w in list(range(4080, 4112)) + list(range(8170, 8232)) + [0]:
            assert rows[w] == reference_walk(kind, ONE, 120, 3, w, None)

    def test_mc1_letters_near_the_threshold(self):
        # every start puts the exact threshold q*2^53/(p+q) within 4 units
        # of walk 0's step-0 draw, where a float estimate of it can fall on
        # the wrong side; the rule is d53*(p+q) < q*2^53, decided exactly
        seed = 5
        d53 = rng.draw(rng.walk_key(seed, 0), 0) >> 11
        # exact tie: q/(p+q) == d53/2^53, which must give letter 1
        g = math.gcd(d53, 1 << 53)
        tie = ExtRat(((1 << 53) - d53) // g, d53 // g)
        # p+q = 2^53+1 rounds to 2^53 in float64, so fl(q)/fl(p+q)*2^53
        # reads q while the exact threshold lies in (q-1, q)
        s = (1 << 53) + 1
        starts = [tie] + [ExtRat(s - d53 - off, d53 + off) for off in range(-3, 4)]
        # p+q near 2^61: fl(q)/fl(p+q)*2^53 lands one unit past d53, on the
        # wrong side of it
        starts += [
            ExtRat(67823619209512247, 3296671496688926273),
            ExtRat(67206011978046677, 3266651745754786218),
        ]
        for x in starts:
            assert abs(d53 - Fraction(x.den << 53, x.num + x.den)) <= 4
            rows = walk_table("MC1", x, 16, 1, seed)
            for w, (_, num, den) in enumerate(rows):
                key = rng.walk_key(seed, w)
                below = rng.draw_below(key, 0, x.den, x.num + x.den)
                y = apply_letter(x, 0 if below else 1)
                assert (num, den) == (y.num, y.den)
        assert walk_table("MC1", tie, 1, 1, seed)[0] == (
            -1, tie.num + tie.den, tie.den
        )

    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    def test_lanes_past_int64_keep_stepping_then_hit(self, kind):
        # from FIB60 lanes pass 2^62 within a few steps; they go on, on
        # Python-int columns, to states inside (3/2, 1/0)
        interval, horizon, seed, walks = (ExtRat(3, 2), INF), 40, 0, 64
        rows = walk_table(kind, FIB60, walks, horizon, seed, interval=interval)
        assert rows == tuple(
            reference_walk(kind, FIB60, horizon, seed, w, interval) for w in range(walks)
        )
        late = 0
        for w, (t, num, den) in enumerate(rows):
            if t > 0 and num + den >= 1 << 62:
                states = simulate(ChainSpec(kind, FIB60, horizon, seed), walk=w).states
                crossed = min(k for k, x in enumerate(states) if x.num + x.den >= 1 << 62)
                late += crossed < t
        assert late > 0

    def test_numpy_mix_matches_scalar(self):
        r = np.random.default_rng(11)
        zs = [0, 1, (1 << 63) - 1, 1 << 63, _MASK64]
        zs += [int(z) for z in r.integers(0, _MASK64, 4000, dtype=np.uint64, endpoint=True)]
        got = rng.mix64_array(np.array(zs, dtype=np.uint64)).tolist()
        assert got == [rng.mix64(z) for z in zs]
        keys = rng.walk_keys(2 ** 64 + 3, 50, 150)
        assert keys.tolist() == [rng.walk_key(2 ** 64 + 3, w) for w in range(50, 150)]
        assert rng.draw_array(keys, 99).tolist() == [rng.draw(int(k), 99) for k in keys]

    def test_no_warnings_escape(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk_table("MC0", ONE, 2000, 150, seed=7)
            walk_table("MC1", FIB60, 500, 60, seed=7, interval=KERNEL_INTERVALS[1])
            assert run(["verify", "--suite", "operators.power-vs-monte-carlo"]) == 0
        assert capsys.readouterr().err == ""


def test_only_the_letter_rule_draws():
    # one letter rule: _letter_steps draws for every batched walk and
    # _draw_letter for one walk; the batched walk kernel uses no rng at all,
    # and the experiments draw only through the kernel's two
    uses = {}
    for fn in (fn for module in (stochastic, experiments)
               for fn in ast.parse(Path(module.__file__).read_text()).body):
        if isinstance(fn, ast.FunctionDef):
            uses[fn.name] = {
                n.attr for n in ast.walk(fn)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "rng"
            }
    drawers = {f for f, names in uses.items() if any(a.startswith("draw") for a in names)}
    assert drawers == {"_letter_steps", "_draw_letter"}
    assert uses["_walk_batch"] == set()


def exact_letters(kind, x, horizon, seed, walk):
    """One walk's letters from the scalar rule: _draw_letter, then apply_letter."""
    key = rng.walk_key(seed, walk)
    word = []
    for k in range(horizon):
        b = _draw_letter(kind, key, k, x)
        word.append(b)
        x = apply_letter(x, b)
    return word


def kernel_letters(kind, start, first, stop, horizon, seed, margin=None):
    """Per-walk letter lists from _letter_steps, and its replay count."""
    steps = _letter_steps(kind, start, first, stop, horizon, seed, margin)
    columns = []
    while True:
        try:
            columns.append(next(steps).tolist())
        except StopIteration as done:
            return [list(map(int, w)) for w in zip(*columns)], done.value


FIB200 = _fib_ratio(200)
LETTER_STARTS = [ZERO, INF, ONE, ExtRat(2, 5), FIB200]


class TestLetterKernel:
    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @settings(max_examples=20, deadline=None)
    @given(
        start=st.sampled_from(LETTER_STARTS),
        horizon=st.integers(1, 1100),
        seed=st.integers(0, _MASK64),
        # lanes may start at 0 or straddle walk 4096, the walk-batch seam
        first=st.one_of(st.just(0), st.integers(4088, 4096)),
        walks=st.integers(1, 8),
    )
    def test_letters_match_the_exact_walks(self, kind, start, horizon, seed, first, walks):
        got, replays = kernel_letters(kind, start, first, first + walks, horizon, seed)
        assert got == [exact_letters(kind, start, horizon, seed, w)
                       for w in range(first, first + walks)]
        assert replays >= 0

    @pytest.mark.parametrize("start", [ONE, ExtRat(2, 5), FIB200, ZERO, INF])
    def test_forced_replays_keep_the_letters(self, start):
        # a margin of 2^52 sends about half of all lane-steps to the replay
        got, replays = kernel_letters("MC1", start, 4093, 4100, 40, 9, margin=2.0 ** 52)
        assert replays > 0
        assert got == [exact_letters("MC1", start, 40, 9, w) for w in range(4093, 4100)]

    @pytest.mark.parametrize("seed,num,den", [
        (1, 4066625741558545, 63924342554810846),
        (37, 16738629655302959, 38580334727322018),
        (60, 6136586414785198, 32960503811571369),
    ])
    def test_float_state_on_the_wrong_side_is_replayed(self, seed, num, den):
        # after one step the float u puts u*2^53 strictly on the wrong side
        # of the step-1 draw, so only the margin saves the letter
        x = ExtRat(num, den)
        word = exact_letters("MC1", x, 2, seed, 0)
        y = apply_letter(x, word[0])
        u = x.den / (x.num + x.den)
        u = u / (1.0 + u) if word[0] else 1.0 / (2.0 - u)
        d53 = rng.draw(rng.walk_key(seed, 0), 1) >> 11
        exact_side = d53 >= Fraction(y.den << 53, y.num + y.den)
        assert d53 != u * 2.0 ** 53 and (d53 > u * 2.0 ** 53) != exact_side
        got, replays = kernel_letters("MC1", x, 0, 1, 2, seed)
        assert got == [word] and replays >= 1

    def test_tie_gives_letter_one(self):
        seed = 5
        d53 = rng.draw(rng.walk_key(seed, 0), 0) >> 11
        g = math.gcd(d53, 1 << 53)
        tie = ExtRat(((1 << 53) - d53) // g, d53 // g)  # d53 == q*2^53/(p+q)
        assert kernel_letters("MC1", tie, 0, 1, 1, seed)[0] == [[1]]

    def test_mc0_letter_is_the_top_bit(self):
        # MC0's weights (1, 1): d*2 < 2^53 exactly when the draw's top bit is 0
        for walk in range(300):
            key = rng.walk_key(11, walk)
            for step in (0, 1, 2, walk, 1 << 20):
                assert _draw_letter("MC0", key, step, ONE) == rng.draw(key, step) >> 63


class TestHitting:
    def test_small_experiment_shape(self):
        res = hitting_experiment(
            (ExtRat(2, 5), ExtRat(3, 5)), walks=500, horizon=100, seed=7
        )
        assert len(res.curve) == 101
        assert res.curve[0] == 0
        assert res.fraction == res.curve[-1]
        assert len(res.hit_times) == 500 and len(res.finals) == 500
        for a, b in zip(res.curve, res.curve[1:]):
            assert a <= b
        assert res.fraction >= Fraction(95, 100)

    def test_curve_counts_match_hit_times(self):
        res = hitting_experiment(
            (ExtRat(1, 3), ExtRat(1, 2)), walks=300, horizon=40, seed=5
        )
        for t in (0, 7, 40):
            frac = Fraction(sum(1 for h in res.hit_times if 0 <= h <= t), 300)
            assert res.curve[t] == frac

    def test_start_inside_is_immediate(self):
        res = hitting_experiment(
            (ExtRat(2, 5), ExtRat(3, 5)), walks=50, horizon=10, seed=1,
            start=ExtRat(1, 2),
        )
        assert res.fraction == 1
        assert set(res.hit_times) == {0}


class TestMartingale:
    def test_fair_chain_affine_identity_is_exact(self):
        rep = martingale_check(
            "MC0", rho_frac, walks=1024, horizon=16, seed=7,
            affine=(Fraction(1, 2), Fraction(1, 4)), window=None,
        )
        assert rep.max_residual == 0
        assert rep.residual_states > 100
        assert rep.cells > 0
        assert rep.max_deviation < 0.2

    def test_fair_chain_is_not_a_plain_martingale(self):
        rep = martingale_check(
            "MC0", rho_frac, walks=64, horizon=8, seed=7,
            affine=(1, 0), window=None,
        )
        assert rep.max_residual > 0

    def test_weighted_chain_indicator_is_harmonic(self):
        rep = martingale_check(
            "MC1", indicator, walks=512, horizon=32, seed=7, window=8,
        )
        assert rep.max_residual == 0
        assert rep.max_deviation == 0.0
        assert rep.window_fraction is not None
        assert 0 <= rep.window_fraction <= 1

    def test_alternation_summaries(self):
        rep = martingale_check(
            "MC0", indicator, walks=200, horizon=33, seed=2, window=None,
        )
        assert rep.window_fraction is None
        assert 0 <= rep.min_alternations <= rep.mean_alternations <= 32

    def test_window_longer_than_horizon_is_skipped(self):
        rep = martingale_check(
            "MC0", indicator, walks=64, horizon=8, seed=0, window=64,
        )
        assert rep.window_fraction is None

    def test_guards(self):
        with pytest.raises(ValueError):
            martingale_check("MC9", indicator, 10, 10, seed=0)
        with pytest.raises(CapExceeded):
            martingale_check("MC0", indicator, 0, 10, seed=0)
        with pytest.raises(ValueError):  # cells of no walks: 2^horizon of them
            martingale_check("MC0", indicator, 10, 10, seed=0, min_cell=0)


def _max_run(mask, n):
    """Longest run of equal bits in the n-bit LSB-first word."""
    if n <= 0:
        return 0
    d = (mask ^ (mask >> 1)) & ((1 << (n - 1)) - 1) if n > 1 else 0
    prev = -1
    best = 0
    while d:
        low = (d & -d).bit_length() - 1
        best = max(best, low - prev)
        prev = low
        d &= d - 1
    return max(best, n - 1 - prev)


def scalar_martingale_check(kind, h, walks, horizon, seed, start=ONE, affine=(1, 0),
                            window=64, residual_depth=32, min_cell=64):
    """The oracle for martingale_check: every walk stepped on Python ints,
    its letters kept as one int mask, and every statistic read off the masks."""
    a = Fraction(affine[0]) if isinstance(affine[0], (int, Fraction)) else affine[0]
    b = Fraction(affine[1]) if isinstance(affine[1], (int, Fraction)) else affine[1]

    seen = set()
    masks = []
    for w in range(walks):
        key = rng.walk_key(seed, w)
        x = start
        mask = 0
        for k in range(horizon):
            if k <= residual_depth:
                seen.add(x)
            bit = _draw_letter(kind, key, k, x)
            mask |= bit << k
            x = apply_letter(x, bit)
        if horizon <= residual_depth:
            seen.add(x)
        masks.append(mask)

    max_residual = Fraction(0)
    for y in seen:
        r = markov_apply(kind, h, y) - (a * _value(h(y)) + b)
        if abs(r) > abs(max_residual):
            max_residual = abs(r)

    n_max = 0
    while (1 << (n_max + 1)) * min_cell <= walks and n_max + 1 < horizon:
        n_max += 1
    max_dev = 0.0
    dev_se = 0.0
    cells = 0
    for n in range(n_max + 1):
        counts = {}
        pmask = (1 << n) - 1
        for mask in masks:
            slot = counts.setdefault(mask & pmask, [0, 0])
            slot[(mask >> n) & 1] += 1
        for prefix, (c0, c1) in sorted(counts.items()):
            c = c0 + c1
            if c < min_cell:
                continue
            y = start
            for k in range(n):
                y = apply_letter(y, (prefix >> k) & 1)
            h0 = _value(h(apply_letter(y, 0)))
            h1 = _value(h(apply_letter(y, 1)))
            emp = (c0 * h0 + c1 * h1) / c
            pred = a * _value(h(y)) + b
            dev = abs(float(emp - pred))
            phat = c1 / c
            se = abs(float(h1 - h0)) * sqrt(phat * (1.0 - phat) / c)
            cells += 1
            if dev > max_dev:
                max_dev = dev
                dev_se = se

    alts = []
    ok_windows = 0
    for mask in masks:
        diff = (mask ^ (mask >> 1)) & ((1 << (horizon - 1)) - 1) if horizon > 1 else 0
        alts.append(bin(diff).count("1"))
        if window is not None and horizon >= window:
            if _max_run(mask, horizon) <= window - 1:
                ok_windows += 1
    window_fraction = (
        Fraction(ok_windows, walks) if window is not None and horizon >= window else None
    )
    return MartingaleReport(
        max_residual=max_residual,
        residual_states=len(seen),
        max_deviation=max_dev,
        deviation_se=dev_se,
        cells=cells,
        window_fraction=window_fraction,
        min_alternations=min(alts),
        mean_alternations=sum(alts) / walks,
    )


def u_value(x):
    """q/(p+q): not harmonic for either chain, so residuals and deviations are nonzero."""
    return Fraction(x.den, x.num + x.den)


def rho_shift(x):
    return rho_frac(x) + Fraction(1, 3)


# (kind, start, h, affine, walks, horizon, window, residual_depth, min_cell)
ORACLE_CASES = [
    ("MC0", ONE, rho_frac, (Fraction(1, 2), Fraction(1, 4)), 1, 40, 64, 50, 64),
    ("MC1", ONE, u_value, (1, 0), 1, 40, None, 3, 64),
    ("MC0", ONE, u_value, (1, 0), 4095, 12, 8, 16, 64),
    ("MC1", ONE, u_value, (1, 0), 4095, 12, 8, 12, 64),
    ("MC1", ONE, indicator, (1, 0), 4097, 70, 64, 5, 64),
    ("MC0", ZERO, u_value, (Fraction(1, 2), 0.25), 4097, 10, 8, 12, 16),
    ("MC1", ExtRat(2, 5), rho_shift, (1, 0), 4097, 30, None, 6, 8),
    ("MC1", FIB200, u_value, (1, 0), 300, 64, 64, 2, 4),
    ("MC0", INF, indicator, (1, 0), 50, 9, 100, -1, 1),
]


class TestMartingaleOracle:
    @pytest.mark.parametrize(
        "kind,start,h,affine,walks,horizon,window,depth,min_cell", ORACLE_CASES
    )
    def test_report_equals_the_scalar_oracle(
        self, kind, start, h, affine, walks, horizon, window, depth, min_cell
    ):
        args = (kind, h, walks, horizon, 11)
        opts = dict(start=start, affine=affine, window=window, residual_depth=depth,
                    min_cell=min_cell)
        got = martingale_check(*args, **opts)
        want = scalar_martingale_check(*args, **opts)
        for field in dataclasses.fields(MartingaleReport):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_memory_does_not_grow_with_walks_times_horizon(self):
        horizon = 1024
        peaks = {}
        for walks in (4096, 16384):
            tracemalloc.start()
            try:
                martingale_check("MC0", indicator, walks, horizon, 7, residual_depth=4)
                peaks[walks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the scalar version held every letter, walks * horizon / 8 bytes at least
        assert peaks[16384] < 16384 * horizon // 8
        assert peaks[16384] < peaks[4096] + (64 << 10)


class TestLimitPairs:
    def test_gap_shrinks_with_depth(self):
        f = lambda v: Fraction(v.den * v.den, (v.num + v.den) ** 2)
        lo = mc0_limit_experiment(f, ONE, 4)
        hi = mc0_limit_experiment(f, ONE, 12)
        gap_lo = abs(float(lo[0]) - float(lo[1]))
        gap_hi = abs(float(hi[0]) - float(hi[1]))
        assert gap_hi < gap_lo
        assert gap_hi < 1e-2

    def test_guards(self):
        with pytest.raises(ValueError):
            mc0_limit_experiment(lambda v: 1, ONE, 0)
        with pytest.raises(CapExceeded):
            mc0_limit_experiment(lambda v: 1, ONE, 21)
