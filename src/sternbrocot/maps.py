"""The six interval maps, their inverses, orbits, stacks and eigenfunctions.

R, S, T are invertible: R enumerates the permuted Stern-Brocot tree from
1/0, S the permuted Farey tree from 1/1, T (the dyadic odometer, a.k.a.
van der Corput map) the permuted dyadic tree.  G, F, D are their
two-to-one genealogical counterparts: G the slow Euclid map on [0, inf],
F the Farey map, D the doubling map.  Everything here is exact integer
arithmetic on reduced fractions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi
from operator import truediv
from typing import Iterator

import numpy as np

from .accum import fsum_array
from .core import CAPS, INF, ONE, Caps, DomainError, ExtRat, check_cap, phi, phi_inv
from .minkowski import Dyadic, qmark, qmark_inv
from .operators import apply_letter

MAPS = ("R", "S", "T", "G", "F", "D")
INVERTIBLE = ("R", "S", "T")
FOLDING = ("G", "F", "D")
ODOMETER_CAP = 12

CONJUGACY_PAIRS = ("R-S", "S-T", "G-F", "F-D")


def _need_unit(x: ExtRat, m: str):
    if x.is_infinite or x > ONE:
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
    """The two preimages (left, right) under G, F or D, tree-ordered."""
    p, q = x.num, x.den
    if m == "G":
        return apply_letter(x, 0), apply_letter(x, 1)
    if m == "F":
        _need_unit(x, m)
        return ExtRat._raw(p, p + q), ExtRat._raw(q, 2 * q - p)
    if m == "D":
        _need_unit(x, m)
        # p/(2q) and (p+q)/(2q) share a factor 2 when p, resp. p + q, is even
        return ExtRat(p, 2 * q), ExtRat(p + q, 2 * q)
    raise DomainError(f"{m!r} is not a two-to-one map")


ORBIT_BLOCK = 4096


def orbit_blocks(m: str, p: int, q: int, count: int,
                 caps: Caps = CAPS) -> Iterator[tuple[list, list]]:
    """The orbit of p/q, count entries in all, as blocks (nums, dens).

    Each block holds up to ORBIT_BLOCK reduced entries in orbit order.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    check_cap(caps, "orbit", count, "orbit length")
    if count == 0:
        return
    x = ExtRat(p, q)
    # Each map sends its interval into itself, so only the start needs a
    # domain check.
    step = _step_for(m, x)
    p, q = x.num, x.den
    for done in range(0, count, ORBIT_BLOCK):
        n = min(ORBIT_BLOCK, count - done)
        nums, dens = [0] * n, [0] * n
        for j in range(n):
            nums[j] = p
            dens[j] = q
            p, q = step(p, q)
        yield nums, dens


def orbit_iter(m: str, start: ExtRat, count: int,
               caps: Caps = CAPS) -> Iterator[ExtRat]:
    """Yield start, map(start), ..., count entries in all."""
    for nums, dens in orbit_blocks(m, start.num, start.den, count, caps):
        yield from map(ExtRat._raw, nums, dens)


def orbit(m: str, start: ExtRat, count: int, caps: Caps = CAPS) -> list[ExtRat]:
    return list(orbit_iter(m, start, count, caps))


def _dy_rat(d: Dyadic) -> ExtRat:
    return ExtRat(d.num, 1 << d.exp)


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
        lhs, rhs = apply("T", _dy_rat(qmark(x))), _dy_rat(qmark(apply("S", x)))
    elif pair == "G-F":
        lhs, rhs = apply("F", phi(x)), phi(apply("G", x))
    elif pair == "F-D":
        lhs, rhs = apply("D", _dy_rat(qmark(x))), _dy_rat(qmark(apply("F", x)))
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
    the closed form here equals iterating T, which tests assert.
    """
    if family not in ("A", "B", "C"):
        raise DomainError("family is A, B or C")
    check_cap(caps, "stack", n, "stack stage")
    if n < 0 or not 1 <= i <= 1 << n:
        raise DomainError(f"stack level {i} outside 1..2^{n}")
    lo = Dyadic(_bit_reverse(i - 1, n), n)
    hi = Dyadic(_bit_reverse(i - 1, n) + 1, n)
    if family == "A":
        return StackInterval(family, i, n, _dy_rat(lo), _dy_rat(hi))
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
        bits = binary_digits(_dy_rat(d), m)
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


@lru_cache(maxsize=4)
def _orbit_floats(m: str, num: int, den: int, count: int, caps: Caps) -> np.ndarray:
    out = np.empty(count, dtype=float)
    i = 0
    for nums, dens in orbit_blocks(m, num, den, count, caps):
        out[i:i + len(nums)] = list(map(truediv, nums, dens))
        i += len(nums)
    return out


def ergodic_fourier(n: int, start: ExtRat, iters: int, map: str = "R",
                    caps: Caps = CAPS) -> complex:
    """Fourier mean (1/N) sum of e^(2 pi i n x_k) along the exact orbit."""
    if map not in INVERTIBLE:
        raise DomainError("ergodic means run along R, S or T orbits")
    if start.is_infinite:
        raise DomainError("start must be finite")
    if iters < 1:
        raise DomainError("need at least one iterate")
    check_cap(caps, "orbit", iters, "orbit length")  # before _orbit_floats allocates
    vals = _orbit_floats(map, start.num, start.den, iters, caps)
    osc = (2j * pi * n) * vals
    np.exp(osc, out=osc)  # in place: one complex array at the orbit cap, not two
    return complex(fsum_array(osc.real) / iters, fsum_array(osc.imag) / iters)
