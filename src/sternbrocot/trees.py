"""The six binary trees of rationals and their level iterators.

Kinds: "sb" (root 1/1, ancestors 0/1 and 1/0, children by mediants),
"farey" (root 1/2, ancestors 0/1 and 1/1) and "dyadic" (root 1/2,
children (2p-1)/2q and (2p+1)/2q).  Each kind also comes in a permuted
variant, the image of the plain tree under word reversal.  All six are
one formula: the vertex at word w1...w(k-1) of level k is
A M(w1) ... M(w(k-1)) (1, 1)^T, the product reversed in the permuted
trees (_factors).

Levels are streamed left to right in blocks of up to 4096 entries, each
one product of a vertex's state with a table of all 12-letter words, as
int64 columns while they are exact (level_blocks), so level 24 never
needs the whole tree in memory.
A level can also be streamed from any index, as the orbits of R, S and
T are, or from another head, as the branch words of markov_power are.
level_blocks and level check their arguments when called, before any
block is asked for.  The tree estimators (the distribution counts, the
Stieltjes means and the Fourier means) stream levels 1..k once for all
depths and points, block by block, so their memory stays flat in the
depth and no level outlives the call; level_arrays and level_floats join
a whole level on each call and cache nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import CAPS, KINDS, Caps, DomainError, ExtRat, check_cap


@dataclass(frozen=True)
class TreeSpec:
    kind: str
    permuted: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown tree kind {self.kind!r}")


def _factors(spec):
    """(head, letters, tail): the vertex at word w1...w(k-1) of level k is
    head @ letters[w1] @ ... @ letters[w(k-1)] @ tail (L = 0, R = 1), its
    (num, den) a column in the plain trees and a row in the permuted ones.
    Matrices are tuples of rows, but tail is given by its columns.

    Plain, that is A M(w1) ... M(w(k-1)) (1, 1)^T, with coding's L and R
    for sb and Farey, L = (1 0; 1 2) and R = (2 1; 0 1) for dyadic, and
    A = I for sb and (1 0; 1 1) for the others.  Permuted, the product runs
    in reverse, so transposed it is head (1, 1), letters M^T and tail A^T.
    """
    a = ((1, 0), (int(spec.kind != "sb"), 1))
    if spec.kind == "dyadic":
        letters = ((1, 0), (1, 2)), ((2, 1), (0, 1))
    else:  # coding's L and R
        letters = ((1, 0), (1, 1)), ((1, 1), (0, 1))
    if spec.permuted:
        return ((1, 1),), tuple(tuple(zip(*m)) for m in letters), a
    return a, letters, ((1, 1),)


def _step(s, m):
    """The state s @ m, for a letter m: one child step, in Python ints."""
    (a, b), (c, d) = m
    return [(x * a + y * c, x * b + y * d) for x, y in s]


def _times(s, cols):
    """s times each of the given columns, flattened column by column: the
    (num, den) of state s against tail, or of its leaves against a table."""
    return [x * t0 + y * t1 for t0, t1 in cols for x, y in s]


def _children(spec, x):
    """(num, den) of the two children of vertex x, in Python ints: one step
    from x's state, head @ letters[w1] @ ... for x's word w."""
    p, q = x.num, x.den
    if spec.permuted:  # the state times tail, I (sb) or A^T, is (p, q)
        s = [(p, q - p * (spec.kind != "sb"))]
    elif spec.kind == "dyadic":  # the ends of x's interval, each weighted q/2
        s = [(p + 1 >> 1, p - 1 >> 1), (q >> 1, q >> 1)]
    else:  # the two parents, the right one first
        from .coding import parents  # loaded here, so streaming a level never loads it

        lo, hi = parents(x)
        s = [(hi.num, lo.num), (hi.den, lo.den)]
    _, letters, tail = _factors(spec)
    return [_times(_step(s, m), tail) for m in letters]


# Levels below each block's root: 2^12 entries a block.
BLOCK_LEVELS = 12
# The deepest level whose arithmetic level_blocks does in int64, from (1, 1).
INT64_LEVEL = 62


def level_blocks(spec: TreeSpec, k: int, caps: Caps = CAPS):
    """Level k as (num, den) column blocks, left to right.

    With c = min(BLOCK_LEVELS, k - 1), each vertex of level k - c is
    reached from the head by the bits of its index, one letter product a
    bit in Python ints, going on from the walk to the vertex before it,
    and its 2^c leaves, one block, are one product of its state with the
    table of the c-letter words (_level_from).

    The arithmetic is exact in int64 while (p + q) << (k - 1) < 2^63 for
    the (p, q) that the letters act on: the head row of a permuted tree,
    the tail column of a plain one, both (1, 1) for the spec's own head,
    so k <= INT64_LEVEL.  Head, letters, tail, states and table have no
    negative entry, so each term and partial sum of a leaf is at most the
    numerator or denominator it adds up to.  Every letter M has column
    sums at most 2, so M v and v M^T at most double the entry sum of v,
    k - 1 letters take (p, q) to a sum at most (p + q) << (k - 1), and
    the other end (A, A^T or I, of 0/1 entries) picks no entry above it.
    A state entry is at most its own vertex's num or den, and a table
    entry, from at most 12 letters of line sums at most 3, at most 3^12.
    Past the bound the columns are numpy object arrays of Python ints.
    """
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "level", k, "level")
    return _level_from(spec, k, 0)


def _level_from(spec, k, start, head=None):
    """level_blocks from index start (0 is the leftmost) of level k, unchecked,
    for orbits that run past caps.level.  Each block root is reached from the
    head by the bits of its index, most significant first (L = 0, R = 1), and
    the first block begins at start.  head, given only for a permuted tree,
    is one row (p, q) in place of its (1, 1)."""
    own, letters, tail = _factors(spec)
    head = head or own
    c = min(BLOCK_LEVELS, k - 1)
    p, q = head[0] if spec.permuted else tail[0]  # what the letters double (level_blocks)
    dtype = np.int64 if p + q << k - 1 < 1 << 63 else object
    # table[j, :, n]: letters[u1] @ ... @ letters[uc] @ tail column j for
    # the n-th c-letter word u, level order: a letter put in front of the n
    # words so far writes R's products to the right of them, then L's over them
    table = np.empty((len(tail), 2, 1 << c), dtype=np.int64)
    table[:, :, 0] = tail
    for n in (1 << j for j in range(c)):
        words = table[:, :, :n]
        table[:, :, n:2 * n] = np.array(letters[1]) @ words
        table[:, :, :n] = np.array(letters[0]) @ words
    table = table.astype(dtype, copy=False)
    top = k - c  # the level of the block roots
    path = [head]  # the states along block root b's word, from the head
    for b in range(start >> c, 1 << (top - 1)):
        t = (b ^ (b - 1)).bit_length() if b > start >> c else top - 1
        del path[top - t:]  # b's word shares all but its last t letters with b - 1's
        for d in range(t - 1, -1, -1):
            path.append(_step(path[-1], letters[b >> d & 1]))
        num, den = _times(path[-1], table)
        lo = max(start - (b << c), 0)
        yield num[lo:], den[lo:]


def level(spec: TreeSpec, k: int, caps: Caps = CAPS) -> Iterator[ExtRat]:
    """Level k (the root is level 1) left to right, checked as level_blocks."""
    return (x for num, den in level_blocks(spec, k, caps)
            for x in map(ExtRat._raw, num.tolist(), den.tolist()))


def descendants(spec: TreeSpec, x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """The two children of vertex x in the given tree."""
    if spec.kind != "sb" and not 0 < x.num < x.den:
        raise DomainError(f"{spec.kind} vertices lie in (0,1)")
    if spec.kind == "dyadic" and x.den & (x.den - 1):
        raise DomainError("dyadic vertices have power-of-two denominators")
    left, right = _children(spec, x)
    return ExtRat._raw(*left), ExtRat._raw(*right)


# Always empty: nothing caches a level; bench/trace.py clears them by name.
_STATE_CACHE: dict = {}
_FLOAT_CACHE: dict = {}


def level_arrays(spec: TreeSpec, k: int, caps: Caps = CAPS):
    """Numerators and denominators of level k as arrays, level order.

    Joined from level_blocks on each call and never cached; caps.estimate
    bounds k.  Agrees entry for entry with level(spec, k).
    """
    check_cap(caps, "estimate", k, "joined level")
    num, den = zip(*level_blocks(spec, k, caps))
    return np.concatenate(num), np.concatenate(den)


def level_floats(spec: TreeSpec, k: int, caps: Caps = CAPS) -> np.ndarray:
    """Level k as double-precision values, joined from the blocks' quotients
    on each call and never cached, as level_arrays."""
    check_cap(caps, "estimate", k, "joined level")
    return np.concatenate([num / den for num, den in level_blocks(spec, k, caps)])


def hyperbinary(n: int) -> int:
    """Number of ways to write n as a sum of powers of 2, each used at most twice.

    b(n) = s(n+1) for Stern's diatomic sequence s(0) = 0, s(1) = 1,
    s(2m) = s(m), s(2m+1) = s(m) + s(m+1); consecutive values give the
    Calkin-Wilf order b(i-2)/b(i-1).  Reading the binary digits of n+1
    after the leading 1 carries (s(m), s(m+1)) from m = 1 to m = n+1.
    """
    if n < 0:
        raise DomainError("hyperbinary wants n >= 0")
    a, b = 1, 1
    for digit in bin(n + 1)[3:]:
        if digit == "1":
            a += b
        else:
            b += a
    return a
