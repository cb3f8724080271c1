"""Words over {L, R} and the SL(2,Z) matrices they multiply out to.

A finite word addresses a Stern-Brocot vertex: starting from the identity,
L = (1 0; 1 1) and R = (1 1; 0 1) are multiplied left to right, and the
resulting matrix (a b; c d) holds the two parents as columns; the vertex
itself is the mediant (a+b)/(c+d).  Infinite eventually-constant words
address every point of [0, infinity], rationals getting the two-sided
convention with a constant tail.
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
    _check_canonical,
)

L = (1, 0, 1, 1)
R = (1, 1, 0, 1)
IDENT = (1, 0, 0, 1)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m) -> int:
    return m[0] * m[3] - m[1] * m[2]


def rat_from_matrix(m) -> ExtRat:
    """Vertex addressed by a word matrix: the mediant of its columns."""
    return ExtRat(m[0] + m[1], m[2] + m[3])


def matrix_from_word(word: str, caps: Caps = CAPS):
    check_cap(caps, "word", len(word), "word length")
    m = IDENT
    for ch in word:
        if ch == "L":
            m = mat_mul(m, L)
        elif ch == "R":
            m = mat_mul(m, R)
        else:
            raise DomainError(f"bad letter {ch!r}")
    return m


def _blocks(exps) -> str:
    """The word R^e0 L^e1 R^e2 ... for exponents e0, e1, e2, ..."""
    return "".join(("R" if i % 2 == 0 else "L") * e for i, e in enumerate(exps))


def word_from_cf(terms: list[int]) -> str:
    """Word of x = [a0; a1, ..., an]: blocks R^a0 L^a1 R^a2 ..., last block short one.

    The word has length depth(x) - 1; x = 1 gets the empty word.
    """
    _check_canonical(terms)
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    return _blocks([*terms[:-1], terms[-1] - 1])


def word_from_rat(x: ExtRat) -> str:
    return word_from_cf(cf_from_rat(x))


def rat_from_word(word: str) -> ExtRat:
    return rat_from_matrix(matrix_from_word(word))


def parents(x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """(smaller, larger) parent; the root 1/1 has parents (0/1, 1/0)."""
    a, b, c, d = matrix_from_word(word_from_rat(x))
    return ExtRat._raw(b, d), ExtRat._raw(a, c)


def hat(x: ExtRat) -> ExtRat:
    """Vertex addressed by the reversed word (the permuted-tree image)."""
    return rat_from_word(word_from_rat(x)[::-1])


def swap_letters(word: str) -> str:
    return word.translate(str.maketrans("LR", "RL"))


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
    """A word prefix plus an optional constant tail ("L", "R" or None).

    tail None means the continuation is unknown (a truncated expansion);
    comparisons against such a code can come back undecided.
    """

    prefix: str
    tail: str | None

    def __str__(self):
        if self.tail is None:
            return self.prefix + "..."
        return f"{self.prefix}({self.tail})^inf"

    def letter(self, i: int) -> str | None:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail


def parse_code(text: str) -> InfiniteCode:
    s = text.strip()
    if s.endswith("(L)^inf"):
        return InfiniteCode(s[:-7], "L")
    if s.endswith("(R)^inf"):
        return InfiniteCode(s[:-7], "R")
    s = s.removesuffix("...")
    if any(ch not in "LR" for ch in s):
        raise DomainError(f"bad code literal: {text!r}")
    return InfiniteCode(s, None)


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
    terms = cf_from_rat(x)
    tail = "L" if (len(terms) - 1) % 2 == 0 else "R"
    return InfiniteCode(_blocks(terms), tail)


def cf_prefix_code(terms: list[int]) -> InfiniteCode:
    """Open-ended address shared by every x whose expansion starts [a0; a1, ...].

    All continuations agree on the full blocks R^a0 L^a1 ... X^ak; the
    letter after them is the first one a continuation can change, so the
    tail is left undecided.
    """
    if not terms or terms[0] < 0 or any(a < 1 for a in terms[1:]):
        raise DomainError("bad expansion prefix")
    return InfiniteCode(_blocks(terms), None)


def code_compare(c1: InfiniteCode, c2: InfiniteCode) -> int | None:
    """Lexicographic order with L < R; None when the prefixes cannot decide."""
    span = max(len(c1.prefix), len(c2.prefix)) + 1
    for i in range(span):
        a = c1.letter(i)
        b = c2.letter(i)
        if a is None or b is None:
            return None
        if a != b:
            return -1 if a == "L" else 1
    return 0
