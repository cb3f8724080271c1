"""Words over {L, R} and the SL(2,Z) matrices they multiply out to.

A finite word addresses a Stern-Brocot vertex: starting from the identity,
L = (1 0; 1 1) and R = (1 1; 0 1) are multiplied left to right, and the
resulting matrix (a b; c d) holds the two parents as columns; the vertex
itself is the mediant (a+b)/(c+d).  An infinite code, a finite prefix
followed by one letter forever, addresses every point of [0, infinity]:
pi_code gives each point its code, and code_compare orders codes as the
points are ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from operator import mul

from .core import (
    CAPS,
    Caps,
    DomainError,
    ExtRat,
    cf_from_rat,
    check_cap,
    _cf_value,
    _check_canonical,
)

def mat_det(m) -> int:
    return m[0] * m[3] - m[1] * m[2]


def rat_from_matrix(m) -> ExtRat:
    """Vertex addressed by a word matrix: the mediant of its columns."""
    return ExtRat(m[0] + m[1], m[2] + m[3])


def matrix_from_word(word: str, caps: Caps = CAPS):
    check_cap(caps, "exp", len(word), "word length")
    a, b, c, d = 1, 0, 0, 1  # matrices (a b; c d) as row-major tuples
    for ch in word:
        if ch == "L":  # m L adds the second column to the first
            a += b
            c += d
        elif ch == "R":  # m R adds the first column to the second
            b += a
            d += c
        else:
            raise DomainError(f"bad letter {ch!r}")
    return a, b, c, d


def word_from_cf(terms: list[int], caps: Caps = CAPS) -> str:
    """Word of x = [a0; a1, ..., an]: blocks R^a0 L^a1 R^a2 ..., last block short one.

    The word has length depth(x) - 1; x = 1 gets the empty word.  Its depth
    N = a0 + ... + an, rho's N bits, is checked against caps.exp first.
    """
    _check_canonical(terms)
    return _blocks(_vertex_terms(terms), caps)[:-1]


def _vertex_terms(terms: list[int]) -> list[int]:
    """The terms of a tree vertex: any but zero's [0]."""
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    return terms


def _blocks(terms: list[int], caps: Caps) -> str:
    """The full blocks R^a0 L^a1 R^a2 ... of canonical terms other than [0]."""
    check_cap(caps, "exp", sum(terms), "word depth")
    return "".join(map(mul, cycle("RL"), terms))


def word_from_rat(x: ExtRat, caps: Caps = CAPS) -> str:
    """The word of word_from_cf, checked against caps.exp as it is."""
    return _blocks(_vertex_terms(cf_from_rat(x)), caps)[:-1]


def rat_from_word(word: str) -> ExtRat:
    return rat_from_matrix(matrix_from_word(word))


def parents(x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """(smaller, larger) parent; the root 1/1 has parents (0/1, 1/0).

    x = p/q = [a0; ..., an] has the parents p'/q' = [a0; ..., a(n-1)]
    (1/0 when n = 0), above x when n is even, and [a0; ..., an - 1] =
    (p - p')/(q - q') by the continuant recurrence.  No word is built.
    """
    terms = _vertex_terms(cf_from_rat(x))
    head = _cf_value(terms[:-1])
    other = ExtRat._raw(x.num - head.num, x.den - head.den)
    return (other, head) if len(terms) % 2 else (head, other)


def hat(x: ExtRat) -> ExtRat:
    """Vertex addressed by the reversed word (the permuted-tree image).

    The word of x = [a0; a1, ..., an] has the blocks a0, a1, ...,
    a(n-1), an - 1 from the letter R.  Reversed, its blocks are an - 1,
    a(n-1), ..., a1, a0 from the letter of the last block, so it addresses
    [an - 1; a(n-1), ..., a1, a0 + 1] when n is even and the reciprocal of
    that when n is odd; an integer's one block reverses to itself.  No
    word is built, so no cap applies.
    """
    terms = _vertex_terms(cf_from_rat(x))
    if len(terms) == 1:
        return x
    v = _cf_value([terms[-1] - 1, *terms[-2:0:-1], terms[0] + 1])
    return v.reciprocal() if len(terms) % 2 == 0 else v


def children_cf(terms: list[int]) -> tuple[list[int], list[int]]:
    """Continued fractions of the two tree children of [a0; ..., an].

    For even n the left child is [a0; ..., an - 1, 2] and the right child
    [a0; ..., an + 1]; for odd n the two are interchanged.
    """
    _check_canonical(terms)
    _vertex_terms(terms)
    shorter = terms[:-1] + [terms[-1] - 1, 2]
    if shorter[-2] == 0:  # only happens for x = 1, terms [1]
        shorter = [0, 2]
    longer = terms[:-1] + [terms[-1] + 1]
    return (shorter, longer) if len(terms) % 2 else (longer, shorter)


@dataclass(frozen=True)
class InfiniteCode:
    """A word prefix plus the constant tail ("L" or "R") it ends in."""

    prefix: str
    tail: str

    def __post_init__(self):
        if self.prefix.strip("LR") or self.tail not in ("L", "R"):
            raise DomainError(f"bad code: prefix {self.prefix!r}, tail {self.tail!r}")

    def __str__(self):
        return f"{self.prefix}({self.tail})^inf"

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail


def pi_code(x: ExtRat, caps: Caps = CAPS) -> InfiniteCode:
    """Infinite address of x in [0, infinity]: full blocks, opposite tail.

    pi(0) = (L)^inf, pi(infinity) = (R)^inf; for x = [a0; ..., an] the
    prefix is the full blocks R^a0 L^a1 ... X^an, word_from_cf's word and
    the last block's letter, and the tail is the letter Y != X.
    """
    if x.is_infinite:
        return InfiniteCode("", "R")
    if x.is_zero:
        return InfiniteCode("", "L")
    terms = cf_from_rat(x)
    return InfiniteCode(_blocks(terms, caps), "L" if len(terms) % 2 else "R")


def code_compare(c1: InfiniteCode, c2: InfiniteCode) -> int:
    """Lexicographic order with L < R: -1, 0 or 1.

    Codes that agree on one letter past the longer prefix agree forever, so
    each code is spelled out to that length and the two are compared as
    strings ("L" < "R").
    """
    span = max(len(c1.prefix), len(c2.prefix)) + 1
    s1, s2 = (c.prefix + c.tail * (span - len(c.prefix)) for c in (c1, c2))
    return (s1 > s2) - (s1 < s2)
