"""The question mark function, its extension to [0, inf], and tree estimators.

On rationals both functions take exact dyadic values.  rho maps the
whole nonnegative ray onto the dyadics in [0, 1] by reading the {L,R}
path code (the continued fraction's run lengths) as binary digits: one
Euclid pass appends a run of a_k ones or zeros per quotient, with no list
of quotients, and hands the odd numerator to Dyadic._raw unnormalized.
The question mark is not computed a second time: since
rho(x) = ?(x/(1+x)), ? = rho o phi^-1 and ?^-1 = phi o rho^-1, with
phi(x) = x/(1+x).

The module also carries the estimators built on tree levels: the
distribution counts whose limit is rho, Stieltjes means against the
rho measure, and their Fourier coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import fsum
from typing import Callable, Sequence

import numpy as np

from . import trees
from .accum import cis_sums, fsum_array
from .core import (
    CAPS,
    INF,
    ZERO,
    Caps,
    DomainError,
    ExtRat,
    _cf_value,
    _quotient_sum,
    check_cap,
    phi,
    phi_inv,
)
from .trees import TreeSpec

_SB = TreeSpec("sb")


class Dyadic:
    """Exact dyadic rational num/2^exp, kept with num odd or exp = 0.

    Dyadic(num, exp) brings any integers to that form; Dyadic._raw trusts
    its caller to pass it already.  Sums and equality of two Dyadics skip
    the generic paths.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError("Dyadic takes integers")
        if exp < 0:
            raise DomainError("negative exponent")
        if num == 0:
            exp = 0
        elif num % 2 == 0:
            twos = (num & -num).bit_length() - 1
            drop = min(twos, exp)
            num >>= drop
            exp -= drop
        _SET_NUM(self, num)
        _SET_EXP(self, exp)

    @classmethod
    def _raw(cls, num: int, exp: int) -> "Dyadic":
        # trusted constructor: the caller guarantees integers with exp >= 0
        # and num odd or exp == 0, the form __init__ normalizes to
        self = object.__new__(cls)
        _SET_NUM(self, num)
        _SET_EXP(self, exp)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, f) -> "Dyadic":
        f = Fraction(f)
        exp = f.denominator.bit_length() - 1
        if 1 << exp != f.denominator:
            raise DomainError(f"{f} is not dyadic")
        return cls(f.numerator, exp)

    @classmethod
    def from_string(cls, s: str) -> "Dyadic":
        s = s.strip()
        if "/" not in s:
            return cls(int(s))
        top, bottom = s.split("/", 1)
        if bottom.startswith("2^"):
            return cls(int(top), int(bottom[2:]))
        den = int(bottom)
        if den == 0:
            raise DomainError("zero denominator")
        return cls.from_fraction(Fraction(int(top), den))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def as_extrat(self) -> ExtRat:
        return ExtRat(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def __hash__(self):
        return hash(self.as_fraction())

    def _pair(self, other):
        if isinstance(other, Dyadic):
            return other.num, other.exp
        if isinstance(other, int):
            return other, 0
        return NotImplemented

    def __eq__(self, other):
        if type(other) is Dyadic:
            return self.num == other.num and self.exp == other.exp
        po = self._pair(other)
        if po is NotImplemented:
            return NotImplemented
        return (self.num, self.exp) == po

    def _cmp(self, other):
        po = self._pair(other)
        if po is NotImplemented:
            return NotImplemented
        on, oe = po
        m = max(self.exp, oe)
        a = self.num << (m - self.exp)
        b = on << (m - oe)
        return (a > b) - (a < b)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def _combine(self, other, sign):
        po = self._pair(other)
        if po is NotImplemented:
            return NotImplemented
        on, oe = po
        m = max(self.exp, oe)
        return Dyadic((self.num << (m - self.exp)) + sign * (on << (m - oe)), m)

    def __add__(self, other):
        if type(other) is Dyadic:
            a, e, b, f = self.num, self.exp, other.num, other.exp
            # with unequal exponents, the numerator of the larger one is odd, so the sum's is
            if e > f:
                return Dyadic._raw(a + (b << (e - f)), e)
            if f > e:
                return Dyadic._raw((a << (f - e)) + b, f)
            return Dyadic(a + b, e)
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        r = self._combine(other, -1)
        return NotImplemented if r is NotImplemented else Dyadic(-r.num, r.exp)

    def __mul__(self, other):
        po = self._pair(other)
        if po is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * po[0], self.exp + po[1])

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def half(self, n: int = 1) -> "Dyadic":
        return Dyadic(self.num, self.exp + n)


_SET_NUM = Dyadic.num.__set__  # the slots, written past the immutability guard
_SET_EXP = Dyadic.exp.__set__
DY_ZERO = Dyadic(0)
DY_ONE = Dyadic(1)


@dataclass(frozen=True)
class BinaryWord:
    """Fractional binary digits plus the constant tail they end in."""

    bits: tuple[int, ...]
    tail: str  # "zeros" or "ones"

    def __post_init__(self):
        if self.tail not in ("zeros", "ones"):
            raise DomainError("tail must be 'zeros' or 'ones'")
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("bits must be 0 or 1")

    def __str__(self) -> str:
        body = "".join(str(b) for b in self.bits)
        digit = "0" if self.tail == "zeros" else "1"
        return f"0.{body}({digit})^inf"

    def value(self) -> Dyadic:
        n = int("".join(str(b) for b in self.bits), 2) if self.bits else 0
        if self.tail == "ones":
            n += 1
        return Dyadic(n, len(self.bits))


def binary_word(d: Dyadic, tail: str = "zeros") -> BinaryWord:
    """One of the two binary readings of a dyadic in [0, 1]."""
    _check_unit(d)
    if tail == "zeros":
        if d == DY_ONE:
            raise DomainError("1 has no terminating fractional expansion")
        return BinaryWord(_bit_tuple(d.num, d.exp), "zeros")
    if d.num == 0:
        raise DomainError("0 has no eventually-ones expansion")
    return BinaryWord(_bit_tuple(d.num - 1, d.exp), "ones")


def _bit_tuple(num: int, width: int) -> tuple[int, ...]:
    return tuple(int(c) for c in format(num, f"0{width}b")) if width else ()


def _check_unit(d: Dyadic):
    if not isinstance(d, Dyadic):
        raise TypeError("expected a Dyadic")
    if d.num < 0 or d > DY_ONE:
        raise DomainError("value must lie in [0, 1]")


def rho(x: ExtRat, caps: Caps = CAPS) -> Dyadic:
    """Binary reading of the {L,R} path code; exact on all of [0, inf].

    For x = [a0; a1, ..., an] the code pi(x) is R^a0 L^a1 ... X^an followed
    by the other letter forever.  Read with R = 1 and L = 0:

        rho(x) = 0.1^a0 0^a1 1^a2 ... (1 or 0)^an + (2^-N if n is odd),

    N = a0 + ... + an, since a tail of ones after a last run of zeros adds
    one unit in the last place.  For 0 < x < inf the numerator is odd and
    the exponent is N.  One Euclid pass appends each run as its quotient comes, and
    caps.exp is checked before a run is appended, so no integer past the
    cap is built; past it the rest of N is summed for the message only.
    """
    p, q = x.num, x.den
    if not q:
        return DY_ONE
    if not p:
        return DY_ZERO
    cap = caps.exp
    num = total = 0
    while True:
        a, p = divmod(p, q)  # a run of a ones; q/p is left
        total += a
        if total > cap:
            check_cap(caps, "exp", total + _quotient_sum(q, p), "dyadic bits")  # raises
        num = (num << a) | ((1 << a) - 1)
        if not p:
            return Dyadic._raw(num, total)
        a, q = divmod(q, p)  # a run of a zeros; p/q is left
        total += a
        if total > cap:
            check_cap(caps, "exp", total + _quotient_sum(p, q), "dyadic bits")  # raises
        num <<= a
        if not q:
            return Dyadic._raw(num + 1, total)


def qmark(x: ExtRat, caps: Caps = CAPS) -> Dyadic:
    """Question mark function on [0, 1], computed as rho(phi^-1(x)).

    phi^-1(x) = x/(1-x) has a continued fraction summing to one less than
    that of x, which is the exponent of ?(x): rho's caps.exp check counts
    the bits of the result.
    """
    if x.num > x.den:  # infinity as well
        raise DomainError("the question mark lives on [0, 1]")
    return rho(phi_inv(x), caps)


def _rho_runs(bits: tuple[int, ...]) -> list[int]:
    # runs alternate starting with the count of leading ones
    runs = [0] if bits and bits[0] == 0 else []
    runs.extend(sum(1 for _ in g) for _, g in groupby(bits))
    return runs


def rho_inv(d: Dyadic, caps: Caps = CAPS) -> ExtRat:
    """The rational with rho(x) = d; both binary readings are cross-checked."""
    check_cap(caps, "exp", d.exp, "dyadic exponent")
    _check_unit(d)
    if d.num == 0:
        return ZERO
    if d == DY_ONE:
        return INF
    a = _cf_value(_rho_runs(binary_word(d, "zeros").bits))
    b = _cf_value(_rho_runs(binary_word(d, "ones").bits))
    if a != b:
        raise RuntimeError(f"binary readings of {d} disagree: {a} vs {b}")
    return a


def qmark_inv(d: Dyadic, caps: Caps = CAPS) -> ExtRat:
    """The rational with qmark(x) = d, computed as phi(rho^-1(d))."""
    return phi(rho_inv(d, caps))


def qmark_enclosure(prefix: Sequence[int], caps: Caps = CAPS) -> tuple[Dyadic, Dyadic]:
    """Exact bounds on the value at every number whose expansion starts so.

    The prefix [a0; a1, ..., an] need not end canonically.  The bounds
    are the images of the last convergent and its mediant with the one
    before; prefixes inside [0, 1] are measured with qmark, the rest
    with rho.
    """
    if not prefix:
        raise DomainError("empty prefix")
    if (any(not isinstance(a, int) for a in prefix)
            or prefix[0] < 0 or any(a < 1 for a in prefix[1:])):
        raise DomainError("prefix terms must be a0 >= 0, ai >= 1")
    # [..., an, 1] = [..., an + 1] has the value (pn + pn-1)/(qn + qn-1)
    ends = sorted([_cf_value(prefix), _cf_value([*prefix, 1])])
    value = qmark if prefix[0] == 0 else rho
    return value(ends[0], caps), value(ends[1], caps)


def distribution_estimate(spec: TreeSpec, k: int, x: ExtRat, caps: Caps = CAPS) -> Fraction:
    """Share of the first k levels lying at or below x, out of 2^k,
    counted block by block as level_blocks streams each level."""
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "estimate", k, "distribution estimate level")
    if x.is_infinite:
        return Fraction((1 << k) - 1, 1 << k)
    # entries of levels k <= 23 (the lifted cap) are below 2^24: int64 products for x below 2^36
    xn, xd = x.num, x.den
    dtype = np.int64 if max(xn, xd) < 1 << 36 else object
    count = 0
    for j in range(1, k + 1):
        for p, q in trees.level_blocks(spec, j, caps):
            p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
            count += int(np.count_nonzero(p * xd <= xn * q))
    return Fraction(count, 1 << k)


def stieltjes_mean(
    f: Callable,
    k: int,
    spec: TreeSpec = _SB,
    vectorized: bool = False,
    caps: Caps = CAPS,
):
    """Mean of f over the first k levels, normalized by 2^k.

    The plain path hands f exact rationals one at a time; with
    vectorized=True, f is called once per level_blocks block on a float64
    array of at most 4096 values, so it must act elementwise.  Blocks are
    cut at multiples of 4096 from the level's start, as fsum_array cuts a
    whole level, so the fsum of the blocks' fsum_array partials has the
    bits of one call on the whole level.  Either way the accumulation is
    compensated, so the result does not depend on how the work is split,
    and no level is held whole.
    """
    if vectorized:
        def level_sums(j):
            re, im = [], []
            for num, den in trees.level_blocks(spec, j, caps):
                vals = np.asarray(f(num / den))
                re.append(fsum_array(vals.real))
                im.append(fsum_array(vals.imag) if np.iscomplexobj(vals) else 0.0)
            return [(fsum(re), fsum(im))]
    else:
        def level_sums(j):
            vals = [complex(f(v)) for v in trees.level(spec, j, caps)]
            return [(fsum(v.real for v in vals), fsum(v.imag for v in vals))]
    return _level_means(k, caps, level_sums)[0]


def _level_means(k: int, caps: Caps, level_sums: Callable) -> list:
    """The means over levels 1..k of the (re, im) pairs that level_sums(j)
    returns, one mean per position in its list: the fsum of the re and of
    the im parts over the levels, over 2^k.

    A zero imaginary part gives a float, so -0.0 never reaches the caller.
    """
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "estimate", k, "Stieltjes mean level")
    scale = float(2 ** -k)
    means = []
    for pairs in zip(*(level_sums(j) for j in range(1, k + 1))):
        re_parts, im_parts = zip(*pairs)
        re = fsum(re_parts) * scale
        im = fsum(im_parts) * scale
        means.append(complex(re, im) if im else re)
    return means


def fourier_tree_means(ns: Sequence[int], k: int, spec: TreeSpec = _SB,
                       caps: Caps = CAPS) -> list[complex]:
    """Tree estimates of the n-th Fourier coefficients of the limit measure,
    one for each n in ns.

    Each level is streamed once for all n, block by block as level_blocks
    makes it, and contributes the cos and sin sums of accum.cis_sums; no
    level is held whole, so memory stays flat in k.  caps.estimate bounds
    k, and so the time.
    """
    ws = [2.0 * np.pi * n for n in ns]

    def level_sums(j):
        return cis_sums((num / den for num, den in trees.level_blocks(spec, j, caps)), ws)

    return [complex(z) for z in _level_means(k, caps, level_sums)]


def fourier_tree_mean(n: int, k: int, spec: TreeSpec = _SB, caps: Caps = CAPS) -> complex:
    """Tree estimate of the n-th Fourier coefficient: fourier_tree_means for
    one n.  Each call streams the levels anew; for several n, call
    fourier_tree_means once."""
    return fourier_tree_means([n], k, spec, caps)[0]
