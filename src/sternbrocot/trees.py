"""The six binary trees of rationals and their level iterators.

Kinds: "sb" (root 1/1, ancestors 0/1 and 1/0, children by mediants),
"farey" (root 1/2, ancestors 0/1 and 1/1) and "dyadic" (root 1/2,
children (2p-1)/2q and (2p+1)/2q).  Each kind also comes in a permuted
variant, the image of the plain tree under word reversal; its rows are
generated directly by the descendant rules

    sb:      p/q -> p/(p+q), (p+q)/q
    farey:   p/q -> p/(p+q), q/(2q-p)
    dyadic:  p/q -> p/(2q), (p+q)/(2q)

Levels are streamed left to right in blocks of up to 4096 entries: a
depth-first walk reaches each vertex 13 levels above the target and
expands its subtree, two blocks, as int64 columns, exact up to level 62
(see level_blocks), so level 24 never needs the whole tree in memory.
A level can also be streamed from any index, as the orbits of R, S and
T are.  level_blocks and level check their arguments when called, before
any block is asked for.  The tree estimators (the distribution counts,
the vectorized Stieltjes means and the Fourier means) read the blocks as
they come, so their memory stays flat in the depth and no level outlives
the call; level_arrays and level_floats join a whole level on each call
and cache nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import CAPS, KINDS, Caps, DomainError, ExtRat, check_cap, mediant


@dataclass(frozen=True)
class TreeSpec:
    kind: str
    permuted: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown tree kind {self.kind!r}")


# Internal node state is a tuple of ints, or of equal-length int columns.
# Mediant kinds carry the two parents (pl, ql, pr, qr); the value is their
# mediant.  The other kinds carry the value (p, q) itself.


def _root_state(spec):
    if spec.permuted:
        return (1, 1) if spec.kind == "sb" else (1, 2)
    if spec.kind == "sb":
        return (0, 1, 1, 0)
    if spec.kind == "farey":
        return (0, 1, 1, 1)
    return (1, 2)


def _children(spec, s):
    """The (left, right) child states of state s."""
    if not spec.permuted and spec.kind != "dyadic":
        pl, ql, pr, qr = s
        pm, qm = pl + pr, ql + qr
        return (pl, ql, pm, qm), (pm, qm, pr, qr)
    p, q = s
    if not spec.permuted:
        return (2 * p - 1, 2 * q), (2 * p + 1, 2 * q)
    if spec.kind == "sb":
        return (p, p + q), (p + q, q)
    if spec.kind == "farey":
        return (p, p + q), (q, 2 * q - p)
    return (p, 2 * q), (p + q, 2 * q)


def _values(s):
    """(num, den) of a state."""
    if len(s) == 4:
        return s[0] + s[2], s[1] + s[3]
    return s


def _cols(s, dtype):
    return tuple(np.array([v], dtype=dtype) for v in s)


def _child_cols(spec, cols):
    out = []
    for lc, rc in zip(*_children(spec, cols)):
        col = np.empty(2 * lc.size, dtype=lc.dtype)
        col[0::2] = lc
        col[1::2] = rc
        out.append(col)
    return tuple(out)


# Levels below each block's root: 2^12 entries a block.
BLOCK_LEVELS = 12
# Levels a batch adds above the block roots: 2 blocks expand together.  At 4
# blocks the peak RSS of `tree --depth 19` rose by about 0.5 MB.
BATCH_LEVELS = 1
# The deepest level whose arithmetic level_blocks does in int64.
INT64_LEVEL = 62


def level_blocks(spec: TreeSpec, k: int, caps: Caps = CAPS):
    """Level k as (num, den) column blocks, left to right.

    A depth-first walk visits the vertices of level k - c, with
    c = min(BLOCK_LEVELS + BATCH_LEVELS, k - 1), and expands the subtree
    under each one c levels at once, one _child_cols call a level for a
    whole batch of block roots; its 2^c leaves are cut into blocks of up to
    2^BLOCK_LEVELS entries, aligned to multiples of that size in the level.

    The arithmetic is exact in int64 up to level INT64_LEVEL.  Each child
    rule builds its entries from p + q, 2q, 2q - p and 2p +- 1 with p < q
    in the non-mediant kinds, so no entry (and no intermediate 2q or 2p)
    exceeds twice the largest entry of the parent state.  The root states
    have entries at most 1 (mediant kinds) or 2 (the others), so every
    state entry at level j is at most 2^j, and for the mediant kinds at
    most 2^(j-1), which makes the value pl + pr at most 2^j as well.  So
    every integer computed for level k is at most 2^k, below 2^(k+1) and
    within int64 for k <= 62.  Deeper levels, reachable only past the
    default caps.level, use numpy object columns of Python ints.

    k is checked against 1 and caps.level here, when level_blocks is
    called, not when the first block is asked for.
    """
    if k < 1:
        raise DomainError("levels start at 1")
    check_cap(caps, "level", k, "level")
    return _level_from(spec, k, 0)


def _level_from(spec, k, start):
    """level_blocks from index start (0 is the leftmost) of level k, unchecked,
    for orbits that run past caps.level.  The walk is pruned to the path down
    to the batch holding start, and the first block begins at start."""
    c = min(BLOCK_LEVELS + BATCH_LEVELS, k - 1)
    size = 1 << min(BLOCK_LEVELS, c)
    dtype = np.int64 if k <= INT64_LEVEL else object
    top = k - c  # the level of the batch roots
    batch = start >> c
    stack, s = [], _root_state(spec)
    for d in range(1, top):  # down to the batch holding start; later siblings wait
        left, right = _children(spec, s)
        if batch >> (top - 1 - d) & 1:
            s = right
        else:
            stack.append((d + 1, right))
            s = left
    stack.append((top, s))
    lo = start & ((1 << c) - 1)
    while stack:
        d, s = stack.pop()
        if d < top:
            left, right = _children(spec, s)
            stack.append((d + 1, right))
            stack.append((d + 1, left))
            continue
        cols = _cols(s, dtype)
        for _ in range(c):
            cols = _child_cols(spec, cols)
        (num, den), cols = _values(cols), None  # the parent columns are not held
        while lo < num.size:
            hi = (lo | (size - 1)) + 1
            yield num[lo:hi], den[lo:hi]
            lo = hi
        lo = 0


def level(spec: TreeSpec, k: int, caps: Caps = CAPS) -> Iterator[ExtRat]:
    """Level k (the root is level 1) left to right, checked as level_blocks."""
    return (x for num, den in level_blocks(spec, k, caps)
            for x in map(ExtRat._raw, num.tolist(), den.tolist()))


def descendants(spec: TreeSpec, x: ExtRat) -> tuple[ExtRat, ExtRat]:
    """The two children of vertex x in the given tree."""
    if spec.kind != "sb" and not 0 < x < 1:
        raise DomainError(f"{spec.kind} vertices lie in (0,1)")
    if spec.kind == "dyadic" and x.den & (x.den - 1):
        raise DomainError("dyadic vertices have power-of-two denominators")
    if spec.permuted or spec.kind == "dyadic":
        (a, b), (c, d) = _children(spec, (x.num, x.den))
        return ExtRat._raw(a, b), ExtRat._raw(c, d)
    from .coding import parents  # loaded here, so streaming a level never loads it

    lo, hi = parents(x)
    return mediant(lo, x), mediant(x, hi)


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
