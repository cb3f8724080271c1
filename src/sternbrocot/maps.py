"""The six interval maps, their inverses, orbits, stacks and eigenfunctions.

R, S, T are invertible: R enumerates the permuted Stern-Brocot tree from
1/0, S the permuted Farey tree from 1/1, T (the dyadic odometer, a.k.a.
van der Corput map) the permuted dyadic tree.  G, F, D are their
two-to-one genealogical counterparts: G the slow Euclid map on [0, inf],
F the Farey map, D the doubling map.  Everything here is exact integer
arithmetic on reduced fractions.

orbit_blocks reads the orbits of R, S and T in bulk.  From a vertex at
(level k, index i) of the permuted sb, Farey or dyadic tree, the orbit
runs on through level k from index i and then through levels k+1, k+2,
... (trees.level_blocks); R from 1/0 first gives 1/0, 0/1, and S and T
from 1 give 1, 0/1.  T from a non-dyadic start is the 2-adic odometer:
with x = (B + r)/2^M, T^N(x) = (rev(v + N mod 2^M) + T^c(r))/2^M for
v = rev(B) and c = (v + N) // 2^M (see _odometer).  Both give int64
columns; levels past INT64_LEVEL give object columns of Python ints.
A start deeper than INT64_LEVEL, an odometer run that int64 cannot hold
and every orbit of G, F and D take one scalar _STEPS step per entry.
orbit_blocks and orbit_iter check the map, the start and the count when
called, before any block is asked for.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi
from operator import truediv
from typing import Iterator, Sequence

import numpy as np

from . import trees
from .accum import cis_sums
from .core import (
    CAPS,
    INF,
    INVERTIBLE,
    ONE,
    Caps,
    DomainError,
    ExtRat,
    cf_from_rat,
    check_cap,
    phi,
    phi_inv,
)
from .minkowski import Dyadic, qmark, qmark_inv

ODOMETER_CAP = 12

CONJUGACY_PAIRS = ("R-S", "S-T", "G-F", "F-D")


def _need_unit(x: ExtRat, m: str):
    if x.num > x.den:  # infinity as well
        raise DomainError(f"{m} lives on [0, 1], got {x}")


# One step of each map on a reduced pair p/q of its domain.  R, S and G
# give reduced pairs as they stand; T, F and D reduce as ExtRat() does.

def _reduced(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    return (p // g, q // g) if g > 1 else (p, q)


def _step_R(p, q):
    if q == 0:
        return 0, 1
    return q, p + q - 2 * (p % q)  # q / ((floor(p/q) + 1) q - (p mod q))


def _step_S(p, q):
    if p == q:
        return 0, 1
    u = q - p
    return u, p + 2 * (u - p % u)  # u / ((floor(p/u) + 2) u - (p mod u))


def _step_T(p, q):
    if p == q:
        return 0, 1
    d = q - p
    n = (q // d).bit_length() - 1  # largest n with 2^n * d <= q
    s = 1 << (n + 1)
    return _reduced(s * p + 3 * q - s * q, s * q)


def _step_G(p, q):
    if q == 0:
        return 1, 0
    if p >= q:
        return p - q, q
    return p, q - p


def _step_F(p, q):
    if 2 * p < q:
        return p, q - p
    return _reduced(2 * p - q, p)


def _step_D(p, q):
    if p == q:
        return 1, 1
    return _reduced(2 * p % q, q)


_STEPS = {"R": _step_R, "S": _step_S, "T": _step_T,
          "G": _step_G, "F": _step_F, "D": _step_D}


def _step_for(m: str, x: ExtRat):
    """The step function of map m, once x is checked to lie in its domain."""
    step = _STEPS.get(m)
    if step is None:
        raise DomainError(f"unknown map {m!r}")
    if m not in ("R", "G"):
        _need_unit(x, m)
    return step


def apply(m: str, x: ExtRat) -> ExtRat:
    """One exact step of the named map."""
    return ExtRat._raw(*_step_for(m, x)(x.num, x.den))


def apply_inverse(m: str, x: ExtRat) -> ExtRat:
    """Exact inverse step for R, S or T; branch found by integer compare."""
    p, q = x.num, x.den
    if m == "R":
        if x.is_zero:
            return INF
        if x.is_infinite:
            raise DomainError("infinity is not in the range of R")
        n = (q - 1) // p
        return ExtRat((2 * n + 1) * p - q, p)
    if m == "S":
        _need_unit(x, m)
        if x.is_zero:
            return ONE
        if x == ONE:
            raise DomainError("1 is not in the range of S")
        n = (q - 1) // p
        return ExtRat(2 * n * p - q, (2 * n + 1) * p - q)
    if m == "T":
        _need_unit(x, m)
        if x.is_zero:
            return ONE
        if x == ONE:
            raise DomainError("1 is not in the range of T")
        n = ((q - 1) // p).bit_length() - 1  # largest n with 2^n * p < q
        s = 1 << (n + 1)
        return ExtRat(s * p + s * q - 3 * q, s * q)
    raise DomainError(f"{m!r} has no single-valued inverse")


def inverse_branches(m: str, x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """The two preimages (left, right) under G, F or D, tree-ordered.

    They are the children of x by the permuted sb, Farey or dyadic tree
    rule, reduced: D's p/(2q) and (p+q)/(2q) share a factor 2 when p,
    resp. p + q, is even.
    """
    kind = {"G": "sb", "F": "farey", "D": "dyadic"}.get(m)
    if kind is None:
        raise DomainError(f"{m!r} is not a two-to-one map")
    if m != "G":
        _need_unit(x, m)
    left, right = trees._children(trees.TreeSpec(kind, permuted=True), (x.num, x.den))
    return ExtRat(*left), ExtRat(*right)


ORBIT_BLOCK = 4096
# Binary digits the T odometer counts through at once: runs of 2^12 entries.
ODOMETER_DIGITS = 12


def orbit_blocks(m: str, p: int, q: int, count: int,
                 caps: Caps = CAPS) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The orbit of p/q, count entries in all, as blocks (nums, dens).

    Each block holds up to ORBIT_BLOCK reduced entries in orbit order, as
    numpy columns: int64 where that is exact, else Python ints in object
    columns.  The map, the start's domain, count >= 0 and caps.orbit are
    checked here, in that order, when orbit_blocks is called.
    """
    x = ExtRat(p, q)
    # Each map sends its interval into itself, so only the start needs a
    # domain check.
    step = _step_for(m, x)
    if count < 0:
        raise DomainError("count must be nonnegative")
    check_cap(caps, "orbit", count, "orbit length")
    return _take(_orbit_cols(m, x.num, x.den, step), count)


def _take(blocks, count):
    """The endless column blocks cut down to count entries."""
    while count > 0:
        nums, dens = next(blocks)
        yield nums[:count], dens[:count]
        count -= len(nums)


def _orbit_cols(m, p, q, step):
    """The endless orbit of the reduced p/q as column blocks."""
    if m in INVERTIBLE:
        # the starts off the tree: each leads to the next, the last to the root
        head = ((1, 0), (0, 1)) if m == "R" else ((1, 1), (0, 1))
        if (p, q) in head:
            head = head[head.index((p, q)):]
            yield np.array([h[0] for h in head]), np.array([h[1] for h in head])
            pos = 1, 0
        else:
            pos = _tree_position(m, p, q)
        if pos is not None:
            k, i = pos
            # R, S and T walk the permuted trees of trees.KINDS, in that order
            spec = trees.TreeSpec(trees.KINDS[INVERTIBLE.index(m)], permuted=True)
            while True:
                yield from trees._level_from(spec, k, i)
                k, i = k + 1, 0
        if m == "T" and q & (q - 1):
            p, q = yield from _odometer(p, q)
    while True:
        nums, dens = [0] * ORBIT_BLOCK, [0] * ORBIT_BLOCK
        for j in range(ORBIT_BLOCK):
            nums[j] = p
            dens[j] = q
            p, q = step(p, q)
        yield np.array(nums, dtype=object), np.array(dens, dtype=object)


def _tree_position(m, p, q):
    """(level, index) of p/q in the permuted tree that m walks; None for a
    point off the tree (a non-dyadic T start) or deeper than INT64_LEVEL.

    The permuted tree puts at address w the vertex that the plain tree has
    at the reversed word, so the index reads the word of p/q backwards
    (L = 0, R = 1): the blocks R^a0 L^a1 R^a2 ... of [a0; a1, ..., an],
    the last short by one.  The Farey tree is the sb subtree under L.
    """
    if m == "T":
        k = q.bit_length() - 1
        if q & (q - 1) or k > trees.INT64_LEVEL:
            return None
        return k, _bit_reverse(p >> 1, k - 1)  # plain index (p - 1)/2 of odd p
    terms = cf_from_rat(ExtRat._raw(p, q))
    k = sum(terms) - (m == "S")
    if k > trees.INT64_LEVEL:
        return None
    terms[-1] -= 1
    index = j = 0
    for i, a in enumerate(terms):
        if not i % 2:  # an R block: a ones from bit j
            index |= ((1 << a) - 1) << j
        j += a
    return k, index >> (m == "S")  # S drops the word's first letter, an L


def _odometer(p, q):
    """T's orbit of a non-dyadic p/q in runs of int64 columns; returns the
    first entry whose run would not be exact in int64.

    With M = ODOMETER_DIGITS, p/q = (B + r)/2^M for an integer B < 2^M and
    r = s/t in (0, 1).  T adds 1 to the binary digits read least
    significant first, so T^N(p/q) = (rev(v + N mod 2^M) + T^c(r))/2^M with
    v = rev(B) and c = (v + N) // 2^M: each run of 2^M entries shares one
    tail, and the tail takes one scalar step per run.  An entry is
    (u t + s)/(2^M t) with u < 2^M, exact in int64 while 2^M t < 2^62.
    Its numerator n is positive and prime to t (gcd(n, t) = gcd(s, t) = 1),
    so gcd(n, 2^M t) = gcd(n, 2^M), the lowest set bit of n capped at 2^M.
    """
    rev = np.zeros(1, dtype=np.int64)  # rev[u]: the M binary digits of u reversed
    while rev.size < 1 << ODOMETER_DIGITS:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    b, s = divmod(p << ODOMETER_DIGITS, q)
    s, t = _reduced(s, q)
    j = _bit_reverse(b, ODOMETER_DIGITS)
    while t >> (62 - ODOMETER_DIGITS) == 0:
        nums = rev[j:] * t + s
        g = np.minimum(nums & -nums, 1 << ODOMETER_DIGITS)
        yield nums // g, (t << ODOMETER_DIGITS) // g
        s, t = _step_T(s, t)
        j = 0
    return _reduced(int(rev[j]) * t + s, t << ODOMETER_DIGITS)


def orbit_iter(m: str, start: ExtRat, count: int,
               caps: Caps = CAPS) -> Iterator[ExtRat]:
    """start, map(start), ..., count entries in all, checked as orbit_blocks."""
    return (x for nums, dens in orbit_blocks(m, start.num, start.den, count, caps)
            for x in map(ExtRat._raw, nums.tolist(), dens.tolist()))


def orbit(m: str, start: ExtRat, count: int, caps: Caps = CAPS) -> list[ExtRat]:
    return list(orbit_iter(m, start, count, caps))


def conjugacy_residual(pair: str, x: ExtRat) -> Fraction:
    """Difference of the two legs of a commuting square; 0 when it commutes.

    Pairs: "R-S" compares S(phi(x)) with phi(R(x)) on [0, inf];
    "S-T" compares T(?(x)) with ?(S(x)) on [0, 1];
    "G-F" compares F(phi(x)) with phi(G(x)) on [0, inf];
    "F-D" compares D(?(x)) with ?(F(x)) on [0, 1].
    """
    if pair == "R-S":
        lhs, rhs = apply("S", phi(x)), phi(apply("R", x))
    elif pair == "S-T":
        lhs, rhs = apply("T", qmark(x).as_extrat()), qmark(apply("S", x)).as_extrat()
    elif pair == "G-F":
        lhs, rhs = apply("F", phi(x)), phi(apply("G", x))
    elif pair == "F-D":
        lhs, rhs = apply("D", qmark(x).as_extrat()), qmark(apply("F", x)).as_extrat()
    else:
        raise DomainError(f"unknown pair {pair!r}; one of {CONJUGACY_PAIRS}")
    if lhs == rhs:
        return Fraction(0)
    return lhs.as_fraction() - rhs.as_fraction()


@dataclass(frozen=True)
class StackInterval:
    """Half-open interval [lo, hi), level i of the stage-n stack."""

    family: str
    i: int
    n: int
    lo: ExtRat
    hi: ExtRat

    def __contains__(self, x: ExtRat) -> bool:
        return self.lo <= x < self.hi

    def __str__(self) -> str:
        return f"{self.family}({self.i},{self.n}) = [{self.lo}, {self.hi})"


def _bit_reverse(v: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


def stack_interval(family: str, i: int, n: int, caps: Caps = CAPS) -> StackInterval:
    """Level i of the n-stack: A under T, B = ?-preimage, C = phi-preimage.

    A(1, n) = [0, 2^-n) and T translates each level onto the next, so the
    left endpoints run through the bit-reversed (van der Corput) order;
    the closed form here equals iterating T, which tests assert.  The
    endpoints are n-bit dyadics, so caps.exp bounds n.
    """
    if family not in ("A", "B", "C"):
        raise DomainError("family is A, B or C")
    check_cap(caps, "exp", n, "stack stage")
    if n < 0 or not 1 <= i <= 1 << n:
        raise DomainError(f"stack level {i} outside 1..2^{n}")
    lo = Dyadic(_bit_reverse(i - 1, n), n)
    hi = Dyadic(_bit_reverse(i - 1, n) + 1, n)
    if family == "A":
        return StackInterval(family, i, n, lo.as_extrat(), hi.as_extrat())
    blo, bhi = qmark_inv(lo, caps), qmark_inv(hi, caps)
    if family == "B":
        return StackInterval(family, i, n, blo, bhi)
    return StackInterval(family, i, n, phi_inv(blo), phi_inv(bhi))


def binary_digits(x: ExtRat, m: int) -> tuple[int, ...]:
    """First m fractional binary digits of x in [0, 1]; 1 reads as 0.111..."""
    _need_unit(x, "binary_digits")
    if x == ONE:
        return (1,) * m
    p, q = x.num, x.den
    out = []
    for _ in range(m):
        p *= 2
        b, p = divmod(p, q)
        out.append(b)
    return tuple(out)


def odometer_value(x: ExtRat, m: int, map: str = "T") -> int:
    """Integer from the first m digits, least significant first.

    For T the digits are the binary digits of x; for S they are the
    binary digits of ?(x).  Dyadic boundary points take the eventually-0
    expansion, except the endpoint 1 which reads as all ones.
    """
    if m < 1:
        raise DomainError("need at least one digit")
    if map == "T":
        bits = binary_digits(x, m)
    elif map == "S":
        d = qmark(x)
        bits = binary_digits(d.as_extrat(), m)
    else:
        raise DomainError("the odometer picture applies to T and S")
    return sum(b << j for j, b in enumerate(bits))


def eigenfunction_check(m: int, x: ExtRat, map: str = "T") -> tuple[complex, complex]:
    """Evaluate (f(map(x)), e^(2 pi i / 2^m) f(x)) for f = e^(2 pi i v(x)/2^m).

    The integer increment v(map(x)) = v(x) + 1 mod 2^m is verified
    exactly along the way; the returned pair is equal up to rounding.
    """
    if not 1 <= m <= ODOMETER_CAP:
        raise DomainError(f"digit count must lie in 1..{ODOMETER_CAP}")
    y = apply(map, x)
    vx = odometer_value(x, m, map)
    vy = odometer_value(y, m, map)
    if vy != (vx + 1) % (1 << m):
        raise RuntimeError(f"odometer increment fails at {x}: {vx} -> {vy}")
    unit = 2 * pi / (1 << m)
    return cmath.exp(1j * unit * vy), cmath.exp(1j * unit) * cmath.exp(1j * unit * vx)


def _orbit_float_blocks(m: str, num: int, den: int, count: int, caps: Caps):
    """The orbit of num/den, count entries, as float blocks in orbit order;
    orbit_blocks checks the arguments when this is called."""
    return map(_block_floats, orbit_blocks(m, num, den, count, caps))


def _block_floats(block):
    nums, dens = block
    # numpy divides the rounded operands, Python the exact integers; the
    # two agree while both are below 2^53, where rounding is exact
    if nums.dtype == object or max(nums.max(), dens.max()) >> 53:
        return np.array(list(map(truediv, nums.tolist(), dens.tolist())))
    return nums / dens


@lru_cache(maxsize=4)
def _orbit_floats(m: str, num: int, den: int, count: int, caps: Caps) -> np.ndarray:
    """The whole orbit as one float array, cached: _orbit_float_blocks joined."""
    blocks = _orbit_float_blocks(m, num, den, count, caps)  # checks count before the allocation
    out = np.empty(count, dtype=float)
    i = 0
    for x in blocks:
        out[i:i + x.size] = x
        i += x.size
    return out


def ergodic_fourier_means(ns: Sequence[int], start: ExtRat, iters: int, map: str = "R",
                          caps: Caps = CAPS) -> list[complex]:
    """Fourier means (1/N) sum of e^(2 pi i n x_k) along the exact orbit,
    one for each n in ns.

    The orbit is streamed once for all n, rounded to floats a block at a
    time; the real and imaginary parts are the cos and sin sums of
    accum.cis_sums.  No orbit is held or cached, so memory stays flat in
    iters; caps.orbit bounds iters, and so the time.
    """
    if map not in INVERTIBLE:
        raise DomainError("ergodic means run along R, S or T orbits")
    if start.is_infinite:
        raise DomainError("start must be finite")
    if iters < 1:
        raise DomainError("need at least one iterate")
    blocks = _orbit_float_blocks(map, start.num, start.den, iters, caps)
    return [complex(re / iters, im / iters)
            for re, im in cis_sums(blocks, [2 * pi * n for n in ns])]


def ergodic_fourier(n: int, start: ExtRat, iters: int, map: str = "R",
                    caps: Caps = CAPS) -> complex:
    """Fourier mean along the orbit: ergodic_fourier_means for one n.  Each
    call streams the orbit anew; for several n, call ergodic_fourier_means
    once."""
    return ergodic_fourier_means([n], start, iters, map, caps)[0]
