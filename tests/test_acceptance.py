"""End-to-end acceptance: thirteen pinned behaviors, each under a time budget.

Every test is one acceptance item; `pytest -v` shows one pass/fail line
per item.  Tolerances are exact unless a float bound is stated, and all
randomness is seeded.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import sqrt

from sternbrocot.cli import run
from sternbrocot.coding import parents, rat_from_word
from sternbrocot.core import ExtRat, INF, ONE, mediant
from sternbrocot.maps import (
    apply,
    conjugacy_residual,
    ergodic_fourier,
    eigenfunction_check,
    inverse_branches,
    odometer_value,
    orbit,
)
from sternbrocot.minkowski import (
    DY_ONE,
    distribution_estimates,
    fourier_tree_mean,
    qmark,
    qmark_inv,
    rho,
    rho_inv,
)
from sternbrocot.operators import lewis_zagier_residual, markov_power, transfer_apply
from sternbrocot.experiments import cylinder_prob, hitting_experiment, mc0_limit_experiment
from sternbrocot.stochastic import walk_table
from sternbrocot.trees import TreeSpec, hyperbinary, level


@contextmanager
def budget(seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def vertex(r: random.Random, max_len: int, unit: bool = False) -> ExtRat:
    n = r.randrange(0 if not unit else 1, max_len + 1)
    word = "".join(r.choice("LR") for _ in range(n))
    if unit:
        word = "L" + word[1:]
    return rat_from_word(word)


ROOT_ROWS = {
    ("sb", False): [
        ["1/1"],
        ["1/2", "2/1"],
        ["1/3", "2/3", "3/2", "3/1"],
        ["1/4", "2/5", "3/5", "3/4", "4/3", "5/3", "5/2", "4/1"],
        ["1/5", "2/7", "3/8", "3/7", "4/7", "5/8", "5/7", "4/5",
         "5/4", "7/5", "8/5", "7/4", "7/3", "8/3", "7/2", "5/1"],
    ],
    ("sb", True): [
        ["1/1"],
        ["1/2", "2/1"],
        ["1/3", "3/2", "2/3", "3/1"],
        ["1/4", "4/3", "3/5", "5/2", "2/5", "5/3", "3/4", "4/1"],
        ["1/5", "5/4", "4/7", "7/3", "3/8", "8/5", "5/7", "7/2",
         "2/7", "7/5", "5/8", "8/3", "3/7", "7/4", "4/5", "5/1"],
    ],
    ("farey", False): [
        ["1/2"],
        ["1/3", "2/3"],
        ["1/4", "2/5", "3/5", "3/4"],
        ["1/5", "2/7", "3/8", "3/7", "4/7", "5/8", "5/7", "4/5"],
        ["1/6", "2/9", "3/11", "3/10", "4/11", "5/13", "5/12", "4/9",
         "5/9", "7/12", "8/13", "7/11", "7/10", "8/11", "7/9", "5/6"],
    ],
    ("farey", True): [
        ["1/2"],
        ["1/3", "2/3"],
        ["1/4", "3/5", "2/5", "3/4"],
        ["1/5", "4/7", "3/8", "5/7", "2/7", "5/8", "3/7", "4/5"],
        ["1/6", "5/9", "4/11", "7/10", "3/11", "8/13", "5/12", "7/9",
         "2/9", "7/12", "5/13", "8/11", "3/10", "7/11", "4/9", "5/6"],
    ],
    ("dyadic", False): [
        ["1/2"],
        ["1/4", "3/4"],
        ["1/8", "3/8", "5/8", "7/8"],
        ["1/16", "3/16", "5/16", "7/16", "9/16", "11/16", "13/16", "15/16"],
        ["1/32", "3/32", "5/32", "7/32", "9/32", "11/32", "13/32", "15/32",
         "17/32", "19/32", "21/32", "23/32", "25/32", "27/32", "29/32", "31/32"],
    ],
    ("dyadic", True): [
        ["1/2"],
        ["1/4", "3/4"],
        ["1/8", "5/8", "3/8", "7/8"],
        ["1/16", "9/16", "5/16", "13/16", "3/16", "11/16", "7/16", "15/16"],
        ["1/32", "17/32", "9/32", "25/32", "5/32", "21/32", "13/32", "29/32",
         "3/32", "19/32", "11/32", "27/32", "7/32", "23/32", "15/32", "31/32"],
    ],
}


def test_c01_tree_levels_and_invariants():
    with budget(5):
        for (kind, permuted), rows in ROOT_ROWS.items():
            spec = TreeSpec(kind, permuted=permuted)
            for k, want in enumerate(rows, start=1):
                assert [str(v) for v in level(spec, k)] == want, (kind, permuted, k)

        # consecutive mediant-stage entries stay unimodular through level 12
        for ancestors in (((0, 1), (1, 0)), ((0, 1), (1, 1))):
            stage = list(ancestors)
            for _ in range(12):
                nxt = []
                for (a, b), (c, d) in zip(stage, stage[1:]):
                    nxt.append((a, b))
                    nxt.append((a + c, b + d))
                nxt.append(stage[-1])
                stage = nxt
                for (a, b), (c, d) in zip(stage, stage[1:]):
                    assert b * c - a * d == 1

        # each level is hit exactly once, and permutation preserves content
        for kind in ("sb", "farey", "dyadic"):
            seen = set()
            for k in range(1, 13):
                plain = list(level(TreeSpec(kind), k))
                perm = list(level(TreeSpec(kind, permuted=True), k))
                assert len(plain) == 1 << (k - 1)
                assert sorted(perm) == plain
                seen_k = set(plain)
                assert len(seen_k) == len(plain)
                assert not (seen & seen_k)
                seen |= seen_k


def test_c02_orbits_enumerate_the_permuted_trees():
    with budget(10):
        walks = {
            "R": (INF, TreeSpec("sb", permuted=True), 1 << 16),
            "S": (ONE, TreeSpec("farey", permuted=True), 1 << 12),
            "T": (ONE, TreeSpec("dyadic", permuted=True), 1 << 12),
        }
        for name, (start, spec, length) in walks.items():
            seq = orbit(name, start, length + 1)
            for k in range(1, 13):
                row = seq[(1 << (k - 1)) + 1 : (1 << k) + 1]
                assert row == list(level(spec, k)), (name, k)
            if name == "R":
                for n in range(17):
                    assert seq[1 << n] == ExtRat(n, 1)


def test_c03_calkin_wilf_consecutive_ratios():
    with budget(5):
        def brute(n):
            width = max(n.bit_length(), 1)
            return sum(
                1
                for digits in product((0, 1, 2), repeat=width)
                if sum(d << j for j, d in enumerate(digits)) == n
            )

        assert hyperbinary(8) == 4
        for n in range(65):
            assert hyperbinary(n) == brute(n)

        seq = orbit("R", INF, (1 << 16) + 1)
        for i in range(2, (1 << 16) + 1):
            x = seq[i]
            assert x.num == hyperbinary(i - 2) and x.den == hyperbinary(i - 1)


def test_c04_conjugacy_squares_commute():
    with budget(10):
        positive = [v for k in range(1, 14) for v in level(TreeSpec("sb"), k)]
        unit = [x for x in positive if x <= ONE]
        r = random.Random(7)
        positive += [vertex(r, 20) for _ in range(10 ** 4)]
        unit += [vertex(r, 20, unit=True) for _ in range(10 ** 4)]
        for x in positive:
            assert conjugacy_residual("R-S", x) == 0
            assert conjugacy_residual("G-F", x) == 0
        for x in unit:
            assert conjugacy_residual("S-T", x) == 0
            assert conjugacy_residual("F-D", x) == 0


def test_c05_question_mark_equations_and_inversion():
    with budget(5):
        r = random.Random(7)
        for _ in range(10 ** 4):
            x = vertex(r, 24)
            u = x if x <= ONE else x.reciprocal()
            p, q = x.num, x.den

            assert rho(x.reciprocal()) + rho(x) == DY_ONE
            lo = rho(ExtRat(p, p + q))
            assert lo + lo == rho(x)
            assert qmark(u) == rho(u) + rho(u)
            m = qmark(ExtRat(u.den - u.num, u.den))
            assert m + qmark(u) == DY_ONE

            a, b = parents(x)
            assert mediant(a, b) == x
            assert rho(x) + rho(x) == rho(a) + rho(b)

            assert qmark_inv(qmark(u)) == u
            assert rho_inv(rho(x)) == x


def test_c06_level_counts_track_rho():
    with budget(10):
        spec = TreeSpec("sb")
        r = random.Random(7)
        xs = [ExtRat(r.randrange(1, 10 ** 4), r.randrange(1, 10 ** 4)) for _ in range(100)]
        ests = distribution_estimates(spec, 16, xs)
        assert [len(row) for row in ests] == [16] * 100
        for x, row in zip(xs, ests):
            target = rho(x).as_fraction()
            for k, est in enumerate(row, 1):
                assert abs(target - est) <= Fraction(1, 1 << k)
                # exactly: rho carries the sb levels onto the dyadic levels in order
                below = (target.numerator << k) // target.denominator
                assert est == Fraction(min(below, (1 << k) - 1), 1 << k), (x, k)


def test_c07_measure_is_invariant_under_farey_folding():
    with budget(2):
        def measure(a: ExtRat, b: ExtRat) -> Fraction:
            return qmark(b).as_fraction() - qmark(a).as_fraction()

        def pulled_back(a: ExtRat, b: ExtRat) -> Fraction:
            total = Fraction(0)
            for lo, hi in zip(inverse_branches("F", a), inverse_branches("F", b)):
                total += measure(lo, hi)
            return total

        third = measure(ExtRat(1, 3), ExtRat(2, 3))
        assert third == Fraction(1, 2)
        parts = [
            measure(lo, hi)
            for lo, hi in zip(
                inverse_branches("F", ExtRat(1, 3)),
                inverse_branches("F", ExtRat(2, 3)),
            )
        ]
        assert parts == [Fraction(1, 4), Fraction(1, 4)]

        r = random.Random(7)
        for _ in range(100):
            a, b = sorted(
                (vertex(r, 18, unit=True), vertex(r, 18, unit=True))
            )
            if a == b:
                b = ExtRat(b.num + b.den, 2 * b.den)
            assert pulled_back(a, b) == measure(a, b)


def test_c08_binary_odometer_increments():
    with budget(5):
        r = random.Random(7)
        for _ in range(10 ** 3):
            x = vertex(r, 16, unit=True)
            m = r.randrange(1, 13)
            assert odometer_value(apply("T", x), m) == (
                odometer_value(x, m) + 1
            ) % (1 << m)
            assert odometer_value(apply("S", x), m, map="S") == (
                odometer_value(x, m, map="S") + 1
            ) % (1 << m)
            lhs, rhs = eigenfunction_check(m, x)
            assert abs(lhs - rhs) < 1e-12


def test_c09_fourier_methods_agree():
    with budget(60):
        def gaps(k, size):
            out = []
            for n in range(1, 9):
                t = fourier_tree_mean(n, k)
                e = ergodic_fourier(n, ONE, size)
                out.append(abs(t - e))
            return out

        coarse = gaps(18, 1 << 18)
        assert max(coarse) <= 0.02
        fine = gaps(20, 1 << 20)
        assert max(fine) < max(coarse)


def test_c10_operator_means_and_fixed_functions():
    with budget(120):
        walks, n = 10 ** 5, 12
        for kind in ("MC0", "MC1"):
            exact = markov_power(
                kind, lambda y: Fraction(y.den, y.num + y.den), ONE, n
            )
            vals = [
                den / (num + den)
                for _, num, den in walk_table(kind, ONE, walks, n, seed=7)
            ]
            mean = sum(vals) / walks
            var = sum((v - mean) ** 2 for v in vals) / (walks - 1)
            se = sqrt(var / walks)
            assert abs(mean - float(exact)) <= 3 * se, kind

        f2 = lambda v: (v.den / (v.num + v.den)) ** 2
        chain_mean, tree_mean = mc0_limit_experiment(f2, ONE, 20)
        assert abs(float(chain_mean) - float(tree_mean)) <= 1e-2

        r = random.Random(7)
        for _ in range(10 ** 3):
            x = Fraction(r.randrange(1, 10 ** 4), r.randrange(1, 10 ** 4))
            assert lewis_zagier_residual(lambda y: 1 / y, 1, x) == 0
            u = x / (1 + x)
            dens = lambda y: 1 / (y * (1 - y))
            assert transfer_apply("farey", 1, dens, u) == dens(u)


def test_c11_cylinder_weights():
    with budget(5):
        r = random.Random(7)
        for _ in range(10 ** 3):
            x = ExtRat(r.randrange(0, 50), r.randrange(1, 50))
            w = tuple(r.randrange(2) for _ in range(r.randrange(1, 13)))
            flipped = tuple(1 - b for b in w)
            assert cylinder_prob("MC1", x, w) == cylinder_prob(
                "MC1", x.reciprocal(), flipped
            )

        for _ in range(10 ** 3):
            p, q = r.randrange(1, 10 ** 3), r.randrange(1, 10 ** 3)
            n = r.randrange(1, 40)
            assert cylinder_prob("MC1", ExtRat(p, q), [1] * n) == Fraction(p, p + n * q)
            assert cylinder_prob("MC1", ExtRat(p, q), [0] * n) == Fraction(q, n * p + q)

        for _ in range(10 ** 3):
            w = [r.randrange(2) for _ in range(r.randrange(1, 24))]
            x = vertex(r, 12)
            assert cylinder_prob("MC0", x, w) == Fraction(1, 1 << len(w))


def test_c12_interval_hitting():
    with budget(60):
        res = hitting_experiment(
            (ExtRat(2, 5), ExtRat(3, 5)), walks=10 ** 4, horizon=10 ** 3, seed=7
        )
        assert res.fraction >= Fraction(95, 100)
        assert res.fraction == res.curve[-1]
        assert all(a <= b for a, b in zip(res.curve, res.curve[1:]))


def test_c13_outputs_are_bit_identical(capsys):
    with budget(60):
        def capture(args):
            code = run(args)
            return code, capsys.readouterr().out

        verify_args = ["verify", "--seed", "7"]
        code, baseline = capture(verify_args)
        assert code == 0
        assert baseline
        for extra in ([], ["--workers", "2"], ["--workers", "8"]):
            code, again = capture(verify_args + extra)
            assert code == 0
            assert again == baseline

        sim_args = ["simulate", "--chain", "mc0", "--walks", "2000",
                    "--horizon", "50", "--seed", "7"]
        code, sim_base = capture(sim_args)
        assert code == 0
        for extra in ([], ["--workers", "2"], ["--workers", "8"]):
            code, again = capture(sim_args + extra)
            assert code == 0
            assert again == sim_base
