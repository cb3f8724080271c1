"""Named verification suite covering the library's documented invariants.

Each check is addressable by name (module-prefixed, kebab-case) and
returns a one-line detail string; the CLI ``verify`` subcommand runs a
selection and reports ok/FAIL per check.  All sampling is driven by a
per-check generator seeded from (seed, check name), so the full report
is byte-identical across runs.
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import sqrt
from typing import Callable, Dict, Tuple

from . import coding, maps, minkowski, operators, stochastic, trees
from .core import (
    CAPS,
    ExtRat,
    INF,
    ONE,
    ZERO,
    canonicalize_cf,
    cf_from_rat,
    complement_cf,
    depth,
    mediant,
    phi,
    rank,
    rat_from_cf,
)

__all__ = ["CheckResult", "CheckFailure", "names", "select", "run_suite"]


class CheckFailure(AssertionError):
    """Raised by a check body when an invariant does not hold."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


_REGISTRY: Dict[str, Callable] = {}


def _check(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def select(suite: str) -> Tuple[str, ...]:
    """Resolve a suite string: 'all', a module prefix, or comma-joined names."""
    if suite == "all":
        return names()
    picked = []
    for token in suite.split(","):
        token = token.strip()
        if not token:
            continue
        if token in _REGISTRY:
            picked.append(token)
            continue
        matches = [n for n in _REGISTRY if n.split(".")[0] == token]
        if not matches:
            raise KeyError(f"no check or module named {token!r}")
        picked.extend(matches)
    if not picked:
        raise KeyError(f"suite {suite!r} names no check")
    return tuple(n for n in names() if n in picked)


def run_suite(suite: str = "all", seed: int = 7):
    """Run the selected checks; every failure is caught and reported."""
    results = []
    for name in select(suite):
        r = random.Random(f"{seed}:{name}")
        try:
            detail = _REGISTRY[name](r, seed)
            results.append(CheckResult(name, True, detail))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return tuple(results)


# ---------------------------------------------------------------- helpers

def _rand_rat(r: random.Random, bits: int = 32) -> ExtRat:
    return ExtRat(r.getrandbits(bits) + 1, r.getrandbits(bits) + 1)


def _rand_unit(r: random.Random, top: int = 10 ** 6) -> ExtRat:
    q = r.randrange(2, top)
    return ExtRat(r.randrange(1, q), q)


def _rand_word(r: random.Random, n: int) -> str:
    return "".join(r.choice("LR") for _ in range(n))


def _vertices(kind, first=1, last=12, permuted=False):
    """(k, x) for each vertex x of levels first..last of a tree, in level order."""
    spec = trees.TreeSpec(kind, permuted)
    for k in range(first, last + 1):
        for x in trees.level(spec, k):
            yield k, x


def _stages(last):
    """Mediant-construction stages 1..last, ancestors included: each puts
    the mediant between every consecutive pair of the one before, and
    stage 0 is [0/1, 1/0]."""
    stage = [ZERO, INF]
    for _ in range(last):
        nxt = [stage[0]]
        for a, b in zip(stage, stage[1:]):
            nxt += (mediant(a, b), b)
        stage = nxt
        yield stage


def _extend_cf(prefix, budget):
    # continue a canonical expansion: inner terms >= 1, last term >= 2
    found = []
    for last in range(2, budget + 1):
        found.append(prefix + [last])
    for nxt in range(1, budget - 1):
        found.extend(_extend_cf(prefix + [nxt], budget - nxt))
    return found


def _all_canonical(total: int):
    """Every canonical expansion [a0; a1..an] of a positive rational
    with term sum <= total."""
    cfs = [[a0] for a0 in range(1, total + 1)]
    for a0 in range(0, total):
        cfs.extend(_extend_cf([a0], total - a0))
    return cfs


# ---------------------------------------------------------------- exact-core

@_check("core.cf-roundtrip-exhaustive")
def _c_roundtrip(r, seed):
    n = 0
    for cf in _all_canonical(14):
        if cf_from_rat(rat_from_cf(cf)) != cf:
            raise CheckFailure(f"round trip broke at {cf}")
        n += 1
    return f"{n} canonical expansions with term sum <= 14 round-tripped"


@_check("core.depth-vs-tree")
def _c_depth_tree(r, seed):
    for n, (k, x) in enumerate(_vertices("sb"), 1):
        if depth(x) != k or sum(cf_from_rat(x)) != k:
            raise CheckFailure(f"depth({x}) != level {k}")
    return f"depth == term sum == level on {n} tree nodes (levels 1..12)"


@_check("core.floor-rank-depth")
def _c_floor_rank(r, seed):
    hits = 0
    while hits < 10 ** 4:
        x = ExtRat(r.getrandbits(63) + 1, r.getrandbits(63) + 1)
        if x.den == 1:
            if depth(x) != x.num:
                raise CheckFailure(f"integer depth broke at {x}")
        else:
            lhs = depth(x)
            rhs = x.floor() + rank(x.frac_part()) + 1
            if lhs != rhs:
                raise CheckFailure(f"depth identity broke at {x}: {lhs} != {rhs}")
        hits += 1
    for n in range(1, 40):
        if depth(ExtRat(n, 1)) != n:
            raise CheckFailure(f"depth({n}) != {n}")
    return "depth = floor + rank(frac) + 1 on 10^4 random 63-bit non-integers"


@_check("core.phi-mediant")
def _c_phi_mediant(r, seed):
    for _ in range(10 ** 4):
        m = coding.matrix_from_word(_rand_word(r, r.randrange(0, 24)))
        a = ExtRat(m[0], m[2])
        b = ExtRat(m[1], m[3])
        if phi(mediant(a, b)) != mediant(phi(a), phi(b)):
            raise CheckFailure(f"phi broke the mediant of {a}, {b}")
    return "phi(mediant) == mediant(phi, phi) on 10^4 unimodular pairs"


@_check("core.complement-involution")
def _c_complement(r, seed):
    one = Fraction(1)
    for _ in range(4000):
        x = _rand_unit(r)
        c = cf_from_rat(x)
        cc = complement_cf(c)
        if complement_cf(cc) != c:
            raise CheckFailure(f"complement not involutive at {x}")
        if rat_from_cf(cc).as_fraction() != one - x.as_fraction():
            raise CheckFailure(f"complement value wrong at {x}")
    return "complement_cf involutive with value 1 - x on 4000 unit rationals"


# ---------------------------------------------------------------- lr-coding

@_check("coding.word-determinant")
def _c_word_det(r, seed):
    for _ in range(10 ** 4):
        w = _rand_word(r, r.randrange(0, 17))
        if coding.mat_det(coding.matrix_from_word(w)) != 1:
            raise CheckFailure(f"det != 1 for word {w!r}")
    return "det(matrix_from_word) == 1 on 10^4 words of length <= 16"


@_check("coding.word-roundtrip")
def _c_word_roundtrip(r, seed):
    for n, (_, x) in enumerate(_vertices("sb"), 1):
        w = coding.word_from_cf(cf_from_rat(x))
        if coding.rat_from_matrix(coding.matrix_from_word(w)) != x:
            raise CheckFailure(f"word round trip broke at {x}")
    return f"word/matrix round trip identity on {n} nodes (levels 1..12)"


@_check("coding.hat-involution")
def _c_hat(r, seed):
    for n, (_, x) in enumerate(_vertices("sb"), 1):
        h = coding.hat(x)
        if coding.hat(h) != x or depth(h) != depth(x):
            raise CheckFailure(f"hat misbehaved at {x}")
    return f"hat involutive and depth-preserving on {n} nodes"


@_check("coding.neighbor-unimodular")
def _c_neighbors(r, seed):
    # consecutive fractions of each mediant-construction stage, ancestors
    # included, satisfy q*p' - p*q' = 1
    checked = 0
    for k, stage in enumerate(_stages(12), 1):
        for a, b in zip(stage, stage[1:]):
            if a.den * b.num - a.num * b.den != 1:
                raise CheckFailure(f"stage {k} neighbors {a}, {b} not unimodular")
            checked += 1
    return f"{checked} consecutive stage pairs unimodular (stages 1..12)"


@_check("coding.pi-prefix")
def _c_pi_prefix(r, seed):
    pts = [x for _, x in _vertices("sb", last=8)] + [_rand_rat(r, 16) for _ in range(500)]
    for x in pts:
        code = coding.pi_code(x)
        w = coding.word_from_cf(cf_from_rat(x))
        if "".join(code.letter(i) for i in range(len(w))) != w:
            raise CheckFailure(f"pi prefix mismatch at {x}")
    return f"pi-code prefix equals tree word on {len(pts)} rationals"


@_check("coding.code-compare")
def _c_code_cmp(r, seed):
    for _ in range(10 ** 4):
        x, y = _rand_rat(r, 16), _rand_rat(r, 16)
        want = (x > y) - (x < y)
        if coding.code_compare(coding.pi_code(x), coding.pi_code(y)) != want:
            raise CheckFailure(f"code order broke at {x}, {y}")
    return "code order agrees with rational order on 10^4 pairs"


# ---------------------------------------------------------------- tree-gen

@_check("trees.permuted-is-hat")
def _c_perm_hat(r, seed):
    plain = trees.TreeSpec("sb", permuted=False)
    perm = trees.TreeSpec("sb", permuted=True)
    n = 0
    for k in range(1, 13):
        got = list(trees.level(perm, k))
        want = [coding.hat(x) for x in trees.level(plain, k)]
        if got != want:
            raise CheckFailure(f"level {k}: permuted != hat(plain)")
        n += len(got)
    return f"permuted levels equal elementwise hat of plain levels ({n} nodes)"


def _check_steps(name, orb):
    # orbits are read from tree levels, so check them against the one-step map too
    for i in range(1, len(orb)):
        if maps.apply(name, orb[i - 1]) != orb[i]:
            raise CheckFailure(f"{name} orbit entry {i} != {name}(entry {i - 1})")


@_check("trees.calkin-wilf")
def _c_calkin_wilf(r, seed):
    orb = maps.orbit("R", INF, (1 << 16) + 1)
    _check_steps("R", orb)
    b = [trees.hyperbinary(i) for i in range(1 << 16)]
    for i in range(2, (1 << 16) + 1):
        x = orb[i]
        if x.num != b[i - 2] or x.den != b[i - 1]:
            raise CheckFailure(f"x_{i} != b({i - 2})/b({i - 1})")
    if b[8] != 4:
        raise CheckFailure("b(8) != 4")
    brute = _brute_hyperbinary(64)
    for n in range(65):
        if b[n] != brute[n]:
            raise CheckFailure(f"b({n}) disagrees with brute force")
    return "x_i = b(i-2)/b(i-1) through i = 2^16; b brute-checked to 64"


def _brute_hyperbinary(top: int) -> collections.Counter:
    # count n = sum c_k 2^k with c_k in {0,1,2} by trying every digit word, for
    # every n <= top in one tally.  A word wider than bit_length(n) + 1 that
    # sums to n has zeros in the extra places, as a digit there adds more
    # than n, so the words of top's width count each n as its own would.
    width = top.bit_length() + 1
    return collections.Counter(
        sum(c << k for k, c in enumerate(digits))
        for digits in itertools.product((0, 1, 2), repeat=width)
    )


@_check("trees.neighbor-denominator-chain")
def _c_den_chain(r, seed):
    xs = [x for _, x in _vertices("sb", permuted=True)]
    for a, b in zip(xs, xs[1:]):
        if a.den != b.num:
            raise CheckFailure(f"chain broke between {a} and {b}")
    return f"den(x_i) == num(x_(i+1)) across {len(xs)} flattened permuted-tree entries"


@_check("trees.qmark-farey-to-dyadic")
def _c_qmark_levels(r, seed):
    fa = trees.TreeSpec("farey", permuted=False)
    dy = trees.TreeSpec("dyadic", permuted=False)
    for k in range(1, 13):
        got = [minkowski.qmark(x).as_fraction() for x in trees.level(fa, k)]
        want = [x.as_fraction() for x in trees.level(dy, k)]
        if got != want:
            raise CheckFailure(f"?(Farey level {k}) != dyadic level {k}")
    return "? maps Farey levels onto dyadic levels, k <= 12"


@_check("trees.bijection")
def _c_bijection(r, seed):
    seen = set()
    for _, x in _vertices("sb"):
        if x in seen:
            raise CheckFailure(f"{x} appears twice")
        seen.add(x)
    want = (1 << 12) - 1
    if len(seen) != want:
        raise CheckFailure(f"{len(seen)} nodes != {want}")
    missing = sum(1 for cf in _all_canonical(12) if rat_from_cf(cf) not in seen)
    if missing:
        raise CheckFailure(f"{missing} rationals of depth <= 12 missing")
    return f"levels 1..12 hold each of the {want} rationals of depth <= 12 once"


# ---------------------------------------------------------------- minkowski

@_check("minkowski.qmark-reflection")
def _c_qmark_reflect(r, seed):
    one = minkowski.DY_ONE
    caps = replace(CAPS, exp=10 ** 6)  # ?(p/q) has fewer than q bits, q < 10^6
    for _ in range(10 ** 4):
        x = _rand_unit(r)
        xc = ExtRat(x.den - x.num, x.den)
        if minkowski.qmark(x, caps) + minkowski.qmark(xc, caps) != one:
            raise CheckFailure(f"?(x) + ?(1-x) != 1 at {x}")
    return "?(x) + ?(1-x) == 1 exactly on 10^4 unit rationals"


@_check("minkowski.rho-reflection")
def _c_rho_reflect(r, seed):
    one = minkowski.DY_ONE
    caps = replace(CAPS, exp=1 << 25)  # rho(p/q) has fewer than p + q bits
    if minkowski.rho(ZERO) + minkowski.rho(INF) != one:
        raise CheckFailure("rho(0) + rho(inf) != 1")
    for _ in range(10 ** 4):
        x = _rand_rat(r, 24)
        if minkowski.rho(x, caps) + minkowski.rho(x.reciprocal(), caps) != one:
            raise CheckFailure(f"rho(x) + rho(1/x) != 1 at {x}")
    return "rho(x) + rho(1/x) == 1 exactly, boundary included"


@_check("minkowski.mediant-average")
def _c_mediant_avg(r, seed):
    # each stage's odd entries are the mediants of their two neighbors
    n = 0
    for stage in _stages(12):
        for a, m, b in zip(stage[::2], stage[1::2], stage[2::2]):
            lhs = minkowski.rho(m) + minkowski.rho(m)
            if lhs != minkowski.rho(a) + minkowski.rho(b):
                raise CheckFailure(f"mediant average broke at {a}, {b}")
            n += 1
    return f"rho(mediant) == average of rho at {n} unimodular stage pairs"


@_check("minkowski.monotone")
def _c_monotone(r, seed):
    pts = sorted([ZERO, ONE, *(x for _, x in _vertices("farey", last=10))])
    vals = [minkowski.qmark(x) for x in pts]
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise CheckFailure("? not strictly increasing on sorted Farey points")
    return f"? strictly increasing across {len(pts)} sorted Farey-tree points"


@_check("minkowski.farey-measure-invariance")
def _c_farey_measure(r, seed):
    def q(x: ExtRat) -> Fraction:
        return minkowski.qmark(x).as_fraction()

    def pulled(a: ExtRat, b: ExtRat) -> tuple[Fraction, Fraction]:
        # d? of each F-branch image of (a, b)
        (a0, a1), (b0, b1) = maps.inverse_branches("F", a), maps.inverse_branches("F", b)
        return q(b0) - q(a0), q(b1) - q(a1)

    lhs0, lhs1 = pulled(ExtRat(1, 3), ExtRat(2, 3))
    if (lhs0, lhs1) != (Fraction(1, 4), Fraction(1, 4)):
        raise CheckFailure(f"desk instance gave {lhs0} + {lhs1}")
    for _ in range(100):
        a, b = sorted((_rand_unit(r, 5000), _rand_unit(r, 5000)))
        if a == b:
            continue
        if sum(pulled(a, b)) != q(b) - q(a):
            raise CheckFailure(f"branch measure identity broke on ({a}, {b})")
    return "branch pullback of d? matches d? on 100 random intervals + desk case"


@_check("minkowski.dilation")
def _c_dilation(r, seed):
    x = ExtRat(2, 5)
    if minkowski.rho(x).as_fraction() != Fraction(3, 16):
        raise CheckFailure("rho(2/5) != 3/16")
    if minkowski.rho(ExtRat(2, 3)).as_fraction() != Fraction(3, 8):
        raise CheckFailure("rho(2/3) != 3/8")
    for _ in range(4000):
        x = _rand_unit(r, 4000)
        lhs = minkowski.rho(x) + minkowski.rho(x)
        if lhs != minkowski.rho(ExtRat(x.num, x.den - x.num)):
            raise CheckFailure(f"2 rho(x) != rho(x/(1-x)) at {x}")
        y = ExtRat(x.den + x.num, x.den)  # a rational >= 1
        lhs = minkowski.rho(y) + minkowski.rho(y)
        if lhs != minkowski.rho(ExtRat(y.num - y.den, y.den)) + minkowski.DY_ONE:
            raise CheckFailure(f"2 rho(x) != rho(x-1) + 1 at {y}")
    return "dilation identities exact on 4000 rationals each side + desk values"


# ---------------------------------------------------------------- interval-maps

@_check("maps.invertible-roundtrip")
def _c_inv_roundtrip(r, seed):
    for _ in range(10 ** 4):
        x, u = _rand_rat(r, 24), _rand_unit(r)
        for m, y in (("R", x), ("S", u), ("T", u)):
            if maps.apply_inverse(m, maps.apply(m, y)) != y:
                raise CheckFailure(f"{m} roundtrip broke at {y}")
    return "inverse(map(x)) == x for R, S, T on 10^4 random points each"


@_check("maps.counting-rows")
def _c_counting(r, seed):
    jobs = (
        ("R", INF, trees.TreeSpec("sb", permuted=True)),
        ("S", ONE, trees.TreeSpec("farey", permuted=True)),
        ("T", ONE, trees.TreeSpec("dyadic", permuted=True)),
    )
    for name, start, spec in jobs:
        orb = maps.orbit(name, start, (1 << 12) + 1)
        _check_steps(name, orb)
        for k in range(1, 13):
            seg = orb[(1 << (k - 1)) + 1 : (1 << k) + 1]
            if seg != list(trees.level(spec, k)):
                raise CheckFailure(f"{name} orbit row {k} != permuted level")
    return "orbit rows equal permuted tree levels, k <= 12, all three maps"


@_check("maps.log-diffusion")
def _c_log_diffusion(r, seed):
    orb = maps.orbit("R", INF, (1 << 16) + 1)
    best = ZERO
    for i in range(1, (1 << 16) + 1):
        if orb[i] > best:
            best = orb[i]
        want = i.bit_length() - 1
        if best.den != 1 or best.num != want:
            raise CheckFailure(f"running max at {i} is {best}, want {want}")
    return "running orbit max equals floor(log2 i) for i <= 2^16"


@_check("maps.conjugacy-residuals")
def _c_conjugacies(r, seed):
    jobs = [(pair, x) for kind, pairs in (("sb", ("R-S", "G-F")), ("farey", ("S-T", "F-D")))
            for _, x in _vertices(kind) for pair in pairs]
    for pair, x in jobs:
        if maps.conjugacy_residual(pair, x) != 0:
            raise CheckFailure(f"{pair} residual nonzero at {x}")
    return f"all four conjugacy squares commute exactly at {len(jobs)} checks"


@_check("maps.esse2")
def _c_esse2(r, seed):
    # the case-split expansion assumes a successor term exists when a
    # subtraction empties one, which fails only at x = 1/2
    half = ExtRat(1, 2)
    done = 0
    while done < 10 ** 3:
        x = _rand_unit(r, 3000)
        if x == half:
            continue
        a = cf_from_rat(x)[1:]  # x = [0; a1, a2, ...]
        if a[0] == 1:
            alt = [0, a[1] + 1, 1]
            if len(a) > 2:
                alt += [a[2] - 1] + a[3:]
        else:
            alt = [0, 1, 1, a[0] - 2] + a[1:]
        want = rat_from_cf(canonicalize_cf(alt))
        if maps.apply("S", x) != want:
            raise CheckFailure(f"case-split expansion disagrees with S at {x}")
        done += 1
    return "piecewise expansion reproduces S on 10^3 random unit rationals"


@_check("maps.g-retrace")
def _c_g_retrace(r, seed):
    for n, (k, x) in enumerate(_vertices("sb", first=2), 1):
        word = []
        y = x
        for _ in range(k - 1):
            word.append("L" if y < ONE else "R")
            y = maps.apply("G", y)
        if y != ONE:
            raise CheckFailure(f"G did not land on 1 from {x}")
        if "".join(word) != coding.word_from_cf(cf_from_rat(x)):
            raise CheckFailure(f"retraced word wrong at {x}")
    return f"G-iterate letters rebuild the tree word on {n} nodes, landing at 1"


@_check("maps.indifferent-fixed-points")
def _c_indifferent(r, seed):
    if maps.apply("F", ZERO) != ZERO or maps.apply("F", ONE) != ONE:
        raise CheckFailure("F does not fix 0 and 1")
    prev0 = prev1 = None
    for j in range(2, 40):
        h = ExtRat(1, 1 << j)
        q0 = maps.apply("F", h).as_fraction() / h.as_fraction()
        g = ExtRat((1 << j) - 1, 1 << j)
        q1 = (Fraction(1) - maps.apply("F", g).as_fraction()) / (
            Fraction(1) - g.as_fraction()
        )
        if q0 != 1 / (1 - h.as_fraction()):
            raise CheckFailure(f"left quotient at 2^-{j} is {q0}")
        if q1 != 1 / g.as_fraction():
            raise CheckFailure(f"right quotient at 1 - 2^-{j} is {q1}")
        if prev0 is not None and not abs(q0 - 1) < abs(prev0 - 1):
            raise CheckFailure("left quotients not approaching 1")
        if prev1 is not None and not abs(q1 - 1) < abs(prev1 - 1):
            raise CheckFailure("right quotients not approaching 1")
        prev0, prev1 = q0, q1
    return "difference quotients at 0 and 1 tend to 1 through exact dyadic steps"


# ---------------------------------------------------------------- operators

@_check("operators.row-stochastic")
def _c_row_stochastic(r, seed):
    one = Fraction(1)
    pts = [ZERO, INF, ONE] + [_rand_rat(r, 24) for _ in range(10 ** 4)]
    for kind in ("MC0", "MC1"):
        for x in pts:
            if operators.markov_apply(kind, lambda y: 1, x) != one:
                raise CheckFailure(f"{kind} rows not stochastic at {x}")
    return "markov_apply(kind, 1, x) == 1 on 10^4 random x plus boundary, both chains"


@_check("operators.p0-invariance")
def _c_p0_invariance(r, seed):
    import numpy as np

    f = lambda a: np.exp(2j * np.pi * a)
    p0f = lambda a: 0.5 * np.exp(2j * np.pi * (a / (1.0 + a))) + 0.5 * np.exp(
        2j * np.pi * (a + 1.0)
    )
    prev = None
    worst = 0.0
    for k in range(12, 19):
        d = abs(
            minkowski.stieltjes_mean(p0f, k, vectorized=True)
            - minkowski.stieltjes_mean(f, k, vectorized=True)
        )
        if d > 4.0 * 2.0 ** -k:
            raise CheckFailure(f"P0 defect {d:.2e} at k={k} above 4*2^-k")
        if prev is not None and not d < prev:
            raise CheckFailure(f"P0 defect not decreasing at k={k}")
        worst = max(worst, d * 2.0 ** k)
        prev = d
    return f"P0 defect of the tree mean <= 4*2^-k and decreasing, k=12..18 (max ratio {worst:.2f})"


@_check("operators.p1-dxx-invariance")
def _c_p1_invariance(r, seed):
    from scipy.integrate import quad

    worst = 0.0
    for _ in range(100):
        a, b = sorted((_rand_rat(r, 10), _rand_rat(r, 10)))
        if a == b:
            b = ExtRat(a.num + 1, a.den)
        af, bf = a.as_fraction(), b.as_fraction()
        lo0 = ExtRat(a.num, a.num + a.den)  # branch-0 image of a
        hi0 = ExtRat(b.num, b.num + b.den)
        # image log-argument vs the closed form b(1+a)/(a(1+b)), exact
        if hi0.as_fraction() / lo0.as_fraction() != (bf * (1 + af)) / (af * (1 + bf)):
            raise CheckFailure(f"branch-0 log arguments differ on ({a}, {b})")
        lo1 = ExtRat(a.num + a.den, a.den)  # branch-1 image of a
        hi1 = ExtRat(b.num + b.den, b.den)
        if hi1.as_fraction() / lo1.as_fraction() != (1 + bf) / (1 + af):
            raise CheckFailure(f"branch-1 log arguments differ on ({a}, {b})")
        # quadrature spot-check: integrate dx/x over the branch image
        # against the weighted integrand p(i, x)/x over (a, b)
        lhs, _ = quad(lambda t: 1.0 / t, float(lo0), float(hi0))
        rhs, _ = quad(lambda t: 1.0 / (t * (1.0 + t)), float(af), float(bf))
        worst = max(worst, abs(lhs - rhs))
        lhs, _ = quad(lambda t: 1.0 / t, float(lo1), float(hi1))
        rhs, _ = quad(lambda t: 1.0 / (1.0 + t), float(af), float(bf))
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-8:
        raise CheckFailure(f"quadrature mismatch {worst:.2e}")
    return f"dx/x branch invariance exact in log-argument form; quadrature within {worst:.1e}"


@_check("operators.harmonicity")
def _c_harmonicity(r, seed):
    pts = [ZERO, INF, ONE] + [_rand_rat(r, 20) for _ in range(10 ** 4)]
    two_thirds = Fraction(2, 3)
    const = lambda y: two_thirds
    for x in pts:
        for kind in ("MC0", "MC1"):
            if operators.markov_apply(kind, const, x) != two_thirds:
                raise CheckFailure(f"constant not {kind}-harmonic at {x}")
            if operators.commutator_residual(kind, const, x) != 0:
                raise CheckFailure(f"constant commutator nonzero at {x}")
        if operators.markov_apply("MC1", operators.h1, x) != operators.h1(x):
            raise CheckFailure(f"h1 not MC1-harmonic at {x}")
    for x in pts[: 10 ** 3]:
        if operators.commutator_residual("MC1", operators.h1, x) != 0:
            raise CheckFailure(f"h1 commutator nonzero at {x}")
    return "h == const and h1 harmonic with vanishing commutators, boundary included"


@_check("operators.power-vs-monte-carlo")
def _c_power_mc(r, seed):
    n, walks = 12, 10 ** 5
    report = []
    for kind in ("MC0", "MC1"):
        exact = operators.markov_power(
            kind, lambda y: Fraction(y.den, y.num + y.den), ONE, n
        )
        acc = 0.0
        acc2 = 0.0
        for _, nums, dens in stochastic.walk_blocks(kind, ONE, walks, n, seed):
            for p, q in zip(nums, dens):
                v = q / (p + q)
                acc += v
                acc2 += v * v
        mean = acc / walks
        var = max(acc2 / walks - mean * mean, 0.0)
        se = sqrt(var / walks)
        gap = abs(mean - float(exact))
        if gap > 3 * se:
            raise CheckFailure(f"{kind}: |MC - exact| = {gap:.2e} > 3 SE = {3 * se:.2e}")
        report.append(f"{kind} gap {gap:.1e} <= 3 SE {3 * se:.1e}")
    return "; ".join(report)


# ---------------------------------------------------------------- stochastic

@_check("stochastic.symme")
def _c_symme(r, seed):
    for _ in range(10 ** 3):
        x = ExtRat(r.randrange(0, 50), r.randrange(1, 50))
        m = r.randrange(1, 13)
        w = tuple(r.randrange(2) for _ in range(m))
        lhs = stochastic.cylinder_prob("MC1", x, w)
        rhs = stochastic.cylinder_prob(
            "MC1", x.reciprocal(), tuple(1 - b for b in w)
        )
        if lhs != rhs:
            raise CheckFailure(f"symmetry broke at x={x}, word {w}")
    return "P_x(C(w)) == P_(1/x)(C(~w)) exactly on 10^3 random pairs"


@_check("stochastic.letter-frequencies")
def _c_letter_freq(r, seed):
    walks, horizon = 2000, 32
    ones = sum(int(letters.sum()) for letters in
               stochastic._letter_steps("MC0", ONE, 0, walks, horizon, seed))
    total = walks * horizon
    dev = abs(ones / total - 0.5)
    bound = 3 * 0.5 / sqrt(total)
    if dev > bound:
        raise CheckFailure(f"MC0 letter frequency off by {dev:.4f} > {bound:.4f}")
    # MC1 from 2: exact step marginals by summing cylinders
    start = ExtRat(2, 1)
    counts = [int(letters.sum()) for letters in
              stochastic._letter_steps("MC1", start, 0, walks, 4, seed + 1)]
    msgs = []
    for k in range(4):
        marg = Fraction(0)
        for word in itertools.product((0, 1), repeat=k + 1):
            if word[-1] == 1:
                marg += stochastic.cylinder_prob("MC1", start, word)
        p = float(marg)
        se = sqrt(p * (1 - p) / walks)
        dev = abs(counts[k] / walks - p)
        if dev > 3 * se:
            raise CheckFailure(f"MC1 step-{k + 1} marginal off by {dev:.4f}")
        msgs.append(f"{dev:.3f}<={3 * se:.3f}")
    return f"MC0 bits fair within 3 sigma; MC1 marginals match cylinders ({', '.join(msgs)})"


@_check("stochastic.worker-determinism")
def _c_worker_det(r, seed):
    iv = (ExtRat(2, 5), ExtRat(3, 5))
    base = stochastic.walk_table("MC0", ONE, 2500, 200, seed, interval=iv, workers=1)
    for w in (2, 8):
        if stochastic.walk_table("MC0", ONE, 2500, 200, seed, interval=iv, workers=w) != base:
            raise CheckFailure(f"walk table changed with {w} workers")
    if stochastic.walk_table("MC0", ONE, 2500, 200, seed, interval=iv, workers=1) != base:
        raise CheckFailure("walk table changed between repeat runs")
    return "2500-walk table identical for 1/2/8 workers and repeat runs"


@_check("stochastic.hitting")
def _c_hitting(r, seed):
    res = stochastic.hitting_experiment((ExtRat(2, 5), ExtRat(3, 5)), 10 ** 4, 10 ** 3, seed)
    for a, b in zip(res.curve, res.curve[1:]):
        if b < a:
            raise CheckFailure("hitting curve decreased")
    if res.fraction < Fraction(95, 100):
        raise CheckFailure(f"hit fraction {float(res.fraction):.4f} < 0.95")
    return f"hit fraction {float(res.fraction):.4f} >= 0.95, curve nondecreasing"


@_check("stochastic.no-atoms-window")
def _c_no_atoms(r, seed):
    walks, horizon, window = 1000, 1 << 10, 64
    rep = stochastic.martingale_check(
        "MC1",
        operators.h1,
        walks,
        horizon,
        seed,
        window=window,
        residual_depth=4,
    )
    # first-window-constant count must match the exact cylinder value
    # 2/(window+1); a full-horizon-constant walk has probability 2/1025
    steps = stochastic._letter_steps("MC1", ONE, 0, walks, horizon, seed)
    first = next(steps)
    same = first == first  # walks whose letters so far all equal the first
    for k, letters in enumerate(steps, 1):
        same &= letters == first
        if k == window - 1:
            const_first = int(same.sum())
    const_all = int(same.sum())
    p0 = 2.0 / (window + 1)
    se = sqrt(p0 * (1 - p0) / walks)
    if abs(const_first / walks - p0) > 5 * se:
        raise CheckFailure(
            f"constant-first-window rate {const_first / walks:.4f} "
            f"far from the exact 2/{window + 1}"
        )
    if const_all / walks > 0.01:
        raise CheckFailure(f"{const_all} fully constant paths out of {walks}")
    if rep.mean_alternations < 50:
        raise CheckFailure(f"mean alternations {rep.mean_alternations:.1f} too low")
    return (
        f"constant first window {const_first}/{walks} ~ 2/{window + 1}; "
        f"fully constant {const_all}; both-letters-every-window "
        f"{float(rep.window_fraction):.3f}; mean alternations {rep.mean_alternations:.1f}"
    )


# ---------------------------------------------------------------- cli

@_check("cli.deterministic")
def _c_cli_deterministic(r, seed):
    import io
    from contextlib import redirect_stdout

    from . import cli

    argvs = (
        ["tree", "--kind", "sb", "--permuted", "--depth", "4", "--format", "csv"],
        ["enumerate", "--map", "R", "--start", "1/0", "--count", "9"],
        ["qmark", "2/5", "--format", "json", "--seed", str(seed)],
    )
    for argv in argvs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.run(list(argv))
            if code != 0:
                raise CheckFailure(f"cli {argv[0]} exited {code}")
            outs.append(buf.getvalue())
        if outs[0] != outs[1]:
            raise CheckFailure(f"cli {argv[0]} output changed between runs")
    return "tree/enumerate/qmark output byte-identical across repeat runs"


@_check("cli.verify-coverage")
def _c_coverage(r, seed):
    prefixes = {n.split(".")[0] for n in names()}
    want = {"core", "coding", "trees", "minkowski", "maps", "operators", "stochastic", "cli"}
    missing = want - prefixes
    if missing:
        raise CheckFailure(f"modules without checks: {sorted(missing)}")
    return f"{len(names())} named checks span all {len(want)} modules"
