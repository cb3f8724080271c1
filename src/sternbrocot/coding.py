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
    check_cap(caps, "word", len(word), "word length")
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


def word_from_cf(terms: list[int]) -> str:
    """Word of x = [a0; a1, ..., an]: blocks R^a0 L^a1 R^a2 ..., last block short one.

    The word has length depth(x) - 1; x = 1 gets the empty word.
    """
    _check_canonical(terms)
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    exps = [*terms[:-1], terms[-1] - 1]
    return "".join(("R" if i % 2 == 0 else "L") * e for i, e in enumerate(exps))


def _path(x: ExtRat) -> tuple[str, str]:
    """(R^a0 L^a1 R^a2 ... X^an, X) for x = [a0; a1, ..., an] > 0: the full
    blocks, read off the quotients as one Euclid pass yields them."""
    if x.is_infinite:
        raise DomainError("infinity has no continued fraction")
    if x.is_zero:
        raise DomainError("zero is an ancestor, not a vertex")
    p, q = x.num, x.den
    blocks = []
    while True:
        a, p = divmod(p, q)
        blocks.append("R" * a)
        if not p:
            return "".join(blocks), "R"
        a, q = divmod(q, p)
        blocks.append("L" * a)
        if not q:
            return "".join(blocks), "L"


def word_from_rat(x: ExtRat) -> str:
    """The word of word_from_cf: the full blocks, the last one short one."""
    return _path(x)[0][:-1]


def rat_from_word(word: str) -> ExtRat:
    return rat_from_matrix(matrix_from_word(word))


def parents(x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """(smaller, larger) parent; the root 1/1 has parents (0/1, 1/0).

    x = p/q = [a0; ..., an] has the parents p'/q' = [a0; ..., a(n-1)]
    (1/0 when n = 0), above x when n is even, and [a0; ..., an - 1] =
    (p - p')/(q - q') by the continuant recurrence.  No word is built.
    """
    terms = cf_from_rat(x)
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    head = _cf_value(terms[:-1])
    other = ExtRat._raw(x.num - head.num, x.den - head.den)
    return (other, head) if len(terms) % 2 else (head, other)


def hat(x: ExtRat) -> ExtRat:
    """Vertex addressed by the reversed word (the permuted-tree image).

    The word of x = [a0; a1, ..., an] has the blocks a0, a1, ...,
    a(n-1), an - 1 from the letter R.  Reversed, its blocks are an - 1,
    a(n-1), ..., a1, a0 from the letter of the last block, so it addresses
    [an - 1; a(n-1), ..., a1, a0 + 1] when n is even and the reciprocal of
    that when n is odd.  The continuant recurrence reads an expansion from
    its end, here a0 + 1 first: it takes the quotients as one Euclid pass
    yields them, and the last step's an becomes an - 1 by subtracting the
    column before.  No word is built, so no cap applies.
    """
    if x.is_infinite:
        raise DomainError("infinity has no continued fraction")
    if x.is_zero:
        raise DomainError("zero is an ancestor, not a vertex")
    p, q = x.num, x.den
    a, r = divmod(p, q)
    h, k = a + 1, 1  # (h, k): first column of the continuant product
    p, q = q, r
    odd = False  # n odd
    while q:
        a, r = divmod(p, q)
        h, k = a * h + k, h
        p, q = q, r
        odd = not odd
    h -= k  # gcd(h - k, k) = gcd(h, k) = 1
    return ExtRat._raw(k, h) if odd else ExtRat._raw(h, k)


def children_cf(terms: list[int]) -> tuple[list[int], list[int]]:
    """Continued fractions of the two tree children of [a0; ..., an].

    For even n the left child is [a0; ..., an - 1, 2] and the right child
    [a0; ..., an + 1]; for odd n the two are interchanged.
    """
    _check_canonical(terms)
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    shorter = terms[:-1] + [terms[-1] - 1, 2]
    if shorter[-2] == 0:  # only happens for x = 1, terms [1]
        shorter = [0, 2]
    longer = terms[:-1] + [terms[-1] + 1]
    if (len(terms) - 1) % 2 == 0:
        return shorter, longer
    return longer, shorter


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


def pi_code(x: ExtRat) -> InfiniteCode:
    """Infinite address of x in [0, infinity]: full blocks, opposite tail.

    pi(0) = (L)^inf, pi(infinity) = (R)^inf; for x = [a0; ..., an] the
    prefix is R^a0 L^a1 ... (a_n letters in the last block) and the tail
    is the letter the last block does not use.
    """
    if x.is_infinite:
        return InfiniteCode("", "R")
    if x.is_zero:
        return InfiniteCode("", "L")
    prefix, last = _path(x)
    return InfiniteCode(prefix, "L" if last == "R" else "R")


def code_compare(c1: InfiniteCode, c2: InfiniteCode) -> int:
    """Lexicographic order with L < R: -1, 0 or 1.

    Codes that agree on one letter past the longer prefix agree forever, so
    each code is spelled out to that length and the two are compared as
    strings ("L" < "R").
    """
    span = max(len(c1.prefix), len(c2.prefix)) + 1
    s1, s2 = _spelled(c1, span), _spelled(c2, span)
    return (s1 > s2) - (s1 < s2)


def _spelled(c: InfiniteCode, span: int) -> str:
    return c.prefix + c.tail * (span - len(c.prefix))
