"""The question mark function, its extension to [0, inf], and tree estimators.

On rationals both functions take exact dyadic values.  rho maps the
whole nonnegative ray onto the dyadics in [0, 1] by reading the {L,R}
path code (the continued fraction's run lengths) as binary digits: one
Euclid pass appends a run of a_k ones or zeros per quotient, with no list
of quotients, and hands the odd numerator to Dyadic._raw unnormalized.
The question mark is not computed a second time: since
rho(x) = ?(x/(1+x)), ? = rho o phi^-1 and ?^-1 = phi o rho^-1, with
phi(x) = x/(1+x).

The module also carries the estimators that read one stream of tree
levels 1..k: the distribution counts whose limit is rho and Stieltjes
means against the rho measure, both at every depth, and Fourier means.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
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


@total_ordering
class Dyadic:
    """Exact dyadic rational num/2^exp, kept with num odd or exp = 0.

    Dyadic(num, exp) brings any integers to that form; Dyadic._raw trusts
    its caller to pass it already.  A Dyadic adds, compares and hashes with
    another Dyadic only, which is all the package asks of it; other
    arithmetic goes through as_fraction().
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if not isinstance(num, int) or not isinstance(exp, int) or bool in (type(num), type(exp)):
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
        return hash((self.num, self.exp))

    def __eq__(self, other):
        if type(other) is not Dyadic:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        if type(other) is not Dyadic:
            return NotImplemented
        m = max(self.exp, other.exp)
        return self.num << (m - self.exp) < other.num << (m - other.exp)

    def __add__(self, other):
        if type(other) is not Dyadic:
            return NotImplemented
        a, e, b, f = self.num, self.exp, other.num, other.exp
        # with unequal exponents, the numerator of the larger one is odd, so the sum's is
        if e > f:
            return Dyadic._raw(a + (b << (e - f)), e)
        if f > e:
            return Dyadic._raw((a << (f - e)) + b, f)
        return Dyadic(a + b, e)


_SET_NUM = Dyadic.num.__set__  # the slots, written past the immutability guard
_SET_EXP = Dyadic.exp.__set__
DY_ZERO = Dyadic(0)
DY_ONE = Dyadic(1)


def _check_unit(d: Dyadic, caps: Caps):
    if not isinstance(d, Dyadic):
        raise TypeError("expected a Dyadic")
    check_cap(caps, "exp", d.exp, "dyadic exponent")  # before the range test shifts by it
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


def rho_inv(d: Dyadic, caps: Caps = CAPS) -> ExtRat:
    """The rational with rho(x) = d, read off the terminating binary
    expansion of d in one pass: its runs, leading ones first (a run of no
    ones when d starts with a 0), are the continued fraction of x.  The
    other expansion, ending in ones, gives the same value."""
    _check_unit(d, caps)
    if d.num == 0:
        return ZERO
    if d == DY_ONE:
        return INF
    digits = format(d.num, f"0{d.exp}b")
    runs = [0] if digits[0] == "0" else []
    runs.extend(map(len, re.findall("1+|0+", digits)))
    return _cf_value(runs)


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


# Points that meet a level block at once: 128 KB a product; 8 ran 3x slower (2-core host).
POINT_CHUNK = 4


def distribution_estimates(spec: TreeSpec, k: int, xs: Sequence[ExtRat],
                           caps: Caps = CAPS) -> list[list[Fraction]]:
    """For each x in xs, the shares of levels 1..d at or below x, out of 2^d,
    for d = 1..k, from one stream of levels 1..k.  Each block meets
    POINT_CHUNK points at once in the outer product p*xd <= xn*q (1/0 needs
    no special case): in int64 while the chunk's largest term t has
    t << j < 2^63 on level j, whose entries are at most 2^j (see
    level_blocks), and in Python ints past that."""
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "estimate", k, "distribution estimate level")
    nd = np.array([[x.num for x in xs], [x.den for x in xs]], object)[..., None]
    starts = range(0, len(xs), POINT_CHUNK)
    counts = np.zeros((len(xs), k), dtype=np.int64)
    for j in range(1, k + 1):
        chunks = [nd[:, i:i + POINT_CHUNK] for i in starts]
        chunks = [c.astype(np.int64) if c.max() << j < 1 << 63 else c for c in chunks]
        for p, q in trees.level_blocks(spec, j, caps):
            for i, (xn, xd) in zip(starts, chunks):
                counts[i:i + POINT_CHUNK, j - 1] += np.count_nonzero(p * xd <= xn * q, axis=1)
    return [[Fraction(c, 1 << d) for d, c in enumerate(cs, 1)] for cs in counts.cumsum(1).tolist()]


def stieltjes_means(
    f: Callable,
    k: int,
    spec: TreeSpec = _SB,
    vectorized: bool = False,
    caps: Caps = CAPS,
) -> list:
    """Means of f over levels 1..d, over 2^d, for d = 1..k, from one stream.

    Levels are read as level_blocks makes them, blocks of at most 4096
    entries, and no level is held whole.  The plain path hands f exact
    rationals one at a time; with vectorized=True, f is called once per
    block on a float64 array, so it must act elementwise.  Blocks are cut
    at multiples of 4096 from the level's start, as fsum_array cuts a whole
    level, so the fsum of their partials has the bits of one fsum_array
    call on the level's values, however the work is split.
    """
    def level_sums(j):
        re, im = [], []
        for num, den in trees.level_blocks(spec, j, caps):
            if vectorized:
                vals = np.asarray(f(num / den))
            else:
                vals = np.asarray([complex(f(x)) for x in map(ExtRat._raw, num.tolist(), den.tolist())])
            re.append(fsum_array(vals.real))
            im.append(fsum_array(vals.imag) if np.iscomplexobj(vals) else 0.0)
        return [(fsum(re), fsum(im))]

    return _level_means(k, caps, level_sums)[0]


def _level_means(k: int, caps: Caps, level_sums: Callable) -> list[list]:
    """For each position in the lists of (re, im) pairs that level_sums(j)
    returns, the means at depths d = 1..k: the fsum of the re and of the im
    parts over levels 1..d, over 2^d.  Each level is summed once.

    A zero imaginary part gives a float, so -0.0 never reaches the caller.
    """
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "estimate", k, "Stieltjes mean level")
    means = []
    for pairs in zip(*(level_sums(j) for j in range(1, k + 1))):
        re_parts, im_parts = zip(*pairs)
        re = [fsum(re_parts[:d]) * 2.0 ** -d for d in range(1, k + 1)]
        im = [fsum(im_parts[:d]) * 2.0 ** -d for d in range(1, k + 1)]
        means.append([complex(r, i) if i else r for r, i in zip(re, im)])
    return means


def fourier_tree_means(ns: Sequence[int], k: int, spec: TreeSpec = _SB,
                       caps: Caps = CAPS) -> list[complex]:
    """Tree estimates of the n-th Fourier coefficients of the limit measure,
    one for each n in ns.

    Each level is streamed once for all n, block by block as level_blocks
    makes it, and contributes the cos and sin sums of accum.cis_sums; no
    level is held whole, so memory stays flat in k.  caps.estimate bounds
    k, and caps.freqs the number of n; together they bound the time.
    """
    check_cap(caps, "freqs", len(ns), "Fourier frequencies")
    ws = [2.0 * np.pi * n for n in ns]

    def level_sums(j):
        return cis_sums((num / den for num, den in trees.level_blocks(spec, j, caps)), ws)

    return [complex(z[-1]) for z in _level_means(k, caps, level_sums)]


def fourier_tree_mean(n: int, k: int, spec: TreeSpec = _SB, caps: Caps = CAPS) -> complex:
    """Tree estimate of the n-th Fourier coefficient: fourier_tree_means for
    one n.  Each call streams the levels anew; for several n, call
    fourier_tree_means once."""
    return fourier_tree_means([n], k, spec, caps)[0]
