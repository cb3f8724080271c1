"""Exact arithmetic over the nonnegative rationals plus a point at infinity.

Everything in this package runs on reduced fractions p/q with p, q >= 0,
where 0/1 is zero and 1/0 is the point at infinity.  The stdlib Fraction
cannot hold 1/0, hence ExtRat, the point type: it compares and hashes with
another ExtRat only, converts, and arithmetic goes through as_fraction().
No floating point is used here; callers convert at the last step when they
need numerics.

Continued fractions are the canonical finite expansions
[a0; a1, ..., an] with a0 >= 0, ai >= 1 for i >= 1 and an > 1 when n >= 1,
so every positive rational has exactly one expansion ([0] stands for zero).

The random walks' chain definition lives here too: CHAIN_KINDS, the
branch step apply_letter and the integer branch weights.  The operators
module averages over it, the walk kernel in stochastic and the
experiments module step it, and none of them needs another's code for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import repeat
from math import gcd, inf


class DomainError(ValueError):
    """Argument lies outside an operation's documented domain."""


class CapExceeded(ValueError):
    """A size cap would be exceeded; pass a larger `Caps` to proceed anyway."""


@dataclass(frozen=True)
class Caps:
    """Size caps, one per resource: CAPS, or UNSAFE_CAPS under --unsafe-cap.

    UNSAFE_CAPS lifts every field; no lifted value lets memory held whole
    pass about 1 GiB.  The README tabulates the values.
    """

    level: int = 24  # tree level streamed in blocks; memory stays flat
    estimate: int = 20  # tree levels of an estimate: time, as the estimators stream
    # them; level_arrays/level_floats join one whole (~2^k * 8 B) per call, uncached
    orbit: int = 1 << 24  # orbit length: time for enumerate and fourier, which stream it
    exp: int = 1 << 16  # length of a binary string: dyadic or digit bits, {L, R} or 0/1 letters
    walks: int = 10 ** 6  # walks in one table; walk_table holds them (~80 B a walk)
    horizon: int = 1 << 20  # steps a walk; a hitting curve holds each step
    power: int = 24  # steps of a Markov power: 2^n branch words, walked in O(n) memory
    freqs: int = 1 << 10  # Fourier frequencies of one estimate: time, and ~1 KB each


CAPS = Caps()
UNSAFE_CAPS = Caps(level=1 << 10, estimate=23, orbit=1 << 25, exp=1 << 20,
                   walks=10 ** 7, horizon=1 << 22, power=26, freqs=1 << 16)

# The trees and maps by name, here so the CLI parser needs no numpy module.
# R, S and T (INVERTIBLE) walk the permuted trees of KINDS, in that order;
# G, F and D are their two-to-one counterparts.
KINDS = ("sb", "farey", "dyadic")
MAPS = ("R", "S", "T", "G", "F", "D")
INVERTIBLE = ("R", "S", "T")


def check_cap(caps: Caps, field: str, size: int, what: str) -> None:
    """Raise CapExceeded, saying whether --unsafe-cap lifts it, if size > caps.<field>."""
    cap = getattr(caps, field)
    if size <= cap:
        return
    lifted = getattr(UNSAFE_CAPS, field)
    if cap < lifted:
        note = f"--unsafe-cap lifts it to {lifted}"
    else:
        note = "already lifted by --unsafe-cap"
    raise CapExceeded(f"{what} {size} above the cap {cap} (caps.{field}: {note})")


@total_ordering
class ExtRat:
    """Reduced fraction p/q with p, q >= 0; 1/0 represents infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        # bool is an int subclass, but True/2 is no point
        if not isinstance(num, int) or not isinstance(den, int) or bool in (type(num), type(den)):
            raise TypeError("ExtRat takes integers")
        if num < 0 or den < 0:
            raise DomainError("negative fractions are outside the model")
        if num == 0 and den == 0:
            raise DomainError("0/0 is not a point")
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: int, den: int) -> "ExtRat":
        # trusted constructor: caller guarantees gcd(num, den) == 1
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_string(cls, text: str) -> "ExtRat":
        """Parse "p/q" (or a bare integer "n")."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(s))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        from fractions import Fraction  # here, so start-up loads no fractions or decimal

        if self.den == 0:
            raise DomainError("infinity has no Fraction value")
        return Fraction(self.num, self.den)

    def reciprocal(self) -> "ExtRat":
        return ExtRat._raw(self.den, self.num)

    def floor(self) -> int:
        if self.den == 0:
            raise DomainError("floor of infinity")
        return self.num // self.den

    def frac_part(self) -> "ExtRat":
        if self.den == 0:
            raise DomainError("fractional part of infinity")
        return ExtRat._raw(self.num % self.den, self.den)

    # Each comparison takes another ExtRat only: both are reduced, so equal
    # values have equal fields, and cross multiplication covers 1/0, which
    # compares above everything.  total_ordering derives <=, > and >= from
    # < and ==, and passes NotImplemented on.

    def __eq__(self, other):
        if type(other) is not ExtRat:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if type(other) is not ExtRat:
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def __float__(self):
        if self.den == 0:
            return inf
        return self.num / self.den

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"ExtRat({self.num}, {self.den})"


ZERO = ExtRat._raw(0, 1)
ONE = ExtRat._raw(1, 1)
INF = ExtRat._raw(1, 0)


def mediant(a: ExtRat, b: ExtRat) -> ExtRat:
    """Mediant (pa+pb)/(qa+qb); reduced, which is a no-op for unimodular pairs."""
    return ExtRat(a.num + b.num, a.den + b.den)


# The Markov chains MC0 and MC1: their names, branch step and weights.
CHAIN_KINDS = ("MC0", "MC1")


def apply_letter(x: ExtRat, letter: int) -> ExtRat:
    """G-branch step on [0, inf]: letter 0 sends p/q to p/(p+q), 1 to (p+q)/q."""
    # both images are already in lowest terms: gcd(p, p+q) = gcd(p, q)
    if letter == 0:
        return ExtRat._raw(x.num, x.num + x.den)
    return ExtRat._raw(x.num + x.den, x.den)


def _check_chain(kind: str) -> None:
    if kind not in CHAIN_KINDS:
        raise DomainError(f"unknown chain {kind!r}; one of {CHAIN_KINDS}")


def _int_weights(kind: str, p: int, q: int) -> tuple[int, int]:
    """Branch weights (w0, w1) at p/q as integers over their sum w0 + w1:
    (1, 1) for MC0, (q, p) for MC1."""
    if kind == "MC1":
        return q, p
    _check_chain(kind)
    return 1, 1


def cf_from_rat(x: ExtRat) -> list[int]:
    """Canonical continued fraction of a finite x; [0] for zero."""
    if x.is_infinite:
        raise DomainError("infinity has no continued fraction")
    if x.is_zero:
        return [0]
    terms = []
    p, q = x.num, x.den
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    # Euclid already yields the canonical form (last quotient > 1 unless n = 0)
    return terms


def _cf_value(terms) -> ExtRat:
    """Value of [a0; a1, ..., an] by the continuant recurrence, zero terms
    and a final 1 allowed.  (p, q) is the first column of a product of
    steps [[a, 1], [1, 0]], each of determinant -1, so p and q are coprime."""
    p, q = 1, 0
    for a in reversed(terms):
        p, q = a * p + q, p
    return ExtRat._raw(p, q)


def rat_from_cf(terms: list[int]) -> ExtRat:
    """Value of a canonical continued fraction."""
    _check_canonical(terms)
    return _cf_value(terms)


def _check_canonical(terms) -> None:
    if not terms:
        raise DomainError("empty continued fraction")
    if not all(map(isinstance, terms, repeat(int))):
        raise DomainError("continued fraction terms must be integers")
    if terms[0] < 0:
        raise DomainError("a0 must be nonnegative")
    if len(terms) > 1:
        if min(terms[1:]) < 1:
            raise DomainError("partial quotients must be positive")
        if terms[-1] == 1:
            raise DomainError("canonical expansions do not end in 1")


def canonicalize_cf(terms: list[int]) -> list[int]:
    """Normalize a loose expansion (zeros anywhere, a final 1) to the canonical one.

    The terms must be nonnegative integers denoting a finite value: the
    continuant recurrence gives that value, and cf_from_rat expands it again.
    """
    if not terms:
        raise DomainError("empty continued fraction")
    if not all(map(isinstance, terms, repeat(int))) or min(terms) < 0:
        raise DomainError("loose expansion terms must be nonnegative integers")
    x = _cf_value(terms)
    if x.is_infinite:
        raise DomainError("expansion collapses to infinity")
    return cf_from_rat(x)


def _quotient_sum(p: int, q: int) -> int:
    """Sum of the quotients Euclid's algorithm takes on p/q; 0 when q = 0."""
    total = 0
    while q:  # two steps a turn, so the pair is never swapped
        a, p = divmod(p, q)
        total += a
        if not p:
            break
        a, q = divmod(q, p)
        total += a
    return total


def depth(x: ExtRat) -> int:
    """Sum of the partial quotients; 0 for the ancestors 0/1 and 1/0."""
    return _quotient_sum(x.num, x.den)


def rank(x: ExtRat) -> int:
    """Level in the Farey tree for x in (0,1); 0 for the ancestors 0 and 1."""
    p, q = x.num, x.den
    if p > q:  # infinity as well
        raise DomainError("rank is defined on [0, 1]")
    if p == 0 or p == q:
        return 0
    return _quotient_sum(p, q) - 1


def complement_cf(terms: list[int]) -> list[int]:
    """Continued fraction of 1-x from that of x in (0,1).

    [0; 1+a2, a3, ...] when a1 = 1, else [0; 1, a1-1, a2, ...].
    """
    _check_canonical(terms)
    if terms[0] != 0 or len(terms) < 2:
        raise DomainError("complement wants x in (0,1)")
    if terms[1] == 1:
        out = [0, terms[2] + 1] + terms[3:]
    else:
        out = [0, 1, terms[1] - 1] + terms[2:]
    return canonicalize_cf(out)


def phi(x: ExtRat) -> ExtRat:
    """x / (x+1); sends 0..infinity monotonically onto [0, 1]."""
    return ExtRat._raw(x.num, x.num + x.den)


def phi_inv(y: ExtRat) -> ExtRat:
    """Inverse of phi on [0, 1]; phi_inv(1) is infinity."""
    if y.is_infinite or y.num > y.den:
        raise DomainError("phi_inv is defined on [0, 1]")
    return ExtRat._raw(y.num, y.den - y.num)


def parse_cf(text: str) -> list[int]:
    """Parse "[a0;a1,...,an]" (spaces tolerated)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise DomainError(f"bad continued fraction literal: {text!r}")
    body = s[1:-1].strip()
    if ";" in body:
        head, rest = body.split(";", 1)
        parts = [head] + ([p for p in rest.split(",")] if rest.strip() else [])
    else:
        parts = [body]
    try:
        return [int(p.strip()) for p in parts]
    except ValueError as exc:
        raise DomainError(f"bad continued fraction literal: {text!r}") from exc


def format_cf(terms: list[int]) -> str:
    if len(terms) == 1:
        return f"[{terms[0]}]"
    return f"[{terms[0]};{','.join(str(a) for a in terms[1:])}]"
