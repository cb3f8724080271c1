"""The batched random-walk kernel on the tree of positive rationals.

Two Markov chains act on extended rationals through the branch maps
u -> u/(1+u) and u -> u+1, written as letters 0 and 1.  MC0 flips a
fair coin at every step; MC1 weights the branches by 1/(1+x) and
x/(1+x), which makes 0 and infinity absorbing.  Letters come from
counter-based per-walk keys, so a walk depends only on (seed, walk
index, step) and any split of the walks reproduces the serial output
bit for bit.

This module is what the ``simulate`` command runs, and it loads nothing
else of the package but core and rng.  The chain definition (names,
branch step, weights) is core's; the scalar reference walker and the
paper's experiments (hitting, martingale and MC0-limit) are in
experiments, which builds on this kernel.

Every batched walk takes its letters from ``_letter_steps``, which
yields one bool column per step.  ``walk_blocks`` runs its walks as lanes
of one numpy kernel, 4096 walks at a time, vectorized over walks and
looping over steps: it applies those letters to states held in int64
until p + q reaches 2^62 (sooner when an interval endpoint is large), and
after that in numpy object columns of Python ints, where the same step
and interval test run exactly at any size.  ``experiments.martingale_check``
and the letter-counting ``verify`` checks use the letters alone.

MC1 lanes of ``_letter_steps`` carry no (p, q) but a float64 u = q/(p+q),
the only thing the letter depends on: letter 0 iff the 53-bit draw d is
below u*2^53, with u -> 1/(2-u) after letter 0 and u -> u/(1+u) after
letter 1.  Both maps contract u, so after t steps u is within
(3t+1)*2^-54 of its exact value however long p and q grow, and every
draw more than 2*horizon units from u*2^53 has a proven letter.  A lane
inside that margin replays its walk on Python ints from step 0 (the
draws are counter-based, so nothing is stored) and takes the exact
integer test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .core import (
    CAPS, CapExceeded, Caps, DomainError, ExtRat, _check_chain, _int_weights, apply_letter,
    check_cap,
)

def _draw_letter(kind: str, key: int, step: int, x: ExtRat) -> int:
    # letter 0 with probability w0/(w0+w1), exact 53-bit threshold; MC0's
    # (1, 1) makes it the top bit of the draw
    w0, w1 = _int_weights(kind, x.num, x.den)
    return 0 if rng.draw_below(key, step, w0, w0 + w1) else 1


def _check_sizes(walks: int, horizon: int, caps: Caps) -> None:
    for what, size in (("walks", walks), ("horizon", horizon)):
        if size < 1:
            raise CapExceeded(f"{what} must be at least 1, got {size}")
        check_cap(caps, what, size, what)


_LANE_SUM = 1 << 62
_INT64_MAX = (1 << 63) - 1
# Lanes per batch: enough to amortize numpy's per-call cost, while a
# batch's int64 temporaries and Python-int columns stay under 1 MB, so a
# large table or Monte Carlo check adds little to peak memory.
_BATCH = 1 << 12


def _walk_batch(
    kind: str,
    start: ExtRat,
    first: int,
    stop: int,
    horizon: int,
    seed: int,
    interval: Optional[Tuple[ExtRat, ExtRat]],
) -> Tuple[List[int], List[int], List[int]]:
    """Walks first..stop-1 as lanes of one batch: columns (hit_times, nums, dens).

    The columns hold Python ints.  Lane i applies, one step at a time,
    the letters _letter_steps yields for walk first+i, so it ends where
    experiments.simulate ends that walk; with an interval it stops at its
    first state strictly inside (the start counts, at time 0) and reports
    that state.
    A lane's (p, q) sits in int64 columns while p + q < lim and in numpy
    object columns of Python ints after; both take the same steps and
    interval test.

    Exactness:

    * Overflow.  lim <= 2^62.  One step maps (p, q) to (p, p+q) or
      (p+q, q), so from p + q < lim the new entries are at most
      p + q < 2^62 and their sum at most 2(p + q) < 2^63: no int64 sum
      wraps.  A lane whose new sum reaches lim moves to the object
      columns (the int64 values convert exactly) before any further
      arithmetic on it, and there every sum and product is a Python int,
      exact at any size.  A start with p + q >= lim puts every lane
      there at time 0.
    * Interval tests.  lim <= (2^63 - 1) // m + 1 for m the largest
      endpoint numerator or denominator, so an int64 lane has
      max(p, q) * m <= (p + q) * m <= 2^63 - 1 and the cross-products
      a_num*q < p*a_den and p*b_den < b_num*q are exact in int64; this
      also covers b = 1/0 (p*0 < 1*q, i.e. q > 0).  Endpoints at or past
      2^63 give lim = 1, so every lane is on Python ints.
    """
    walks = stop - first
    lim = _LANE_SUM
    if interval is not None:
        lo, hi = interval
        lim = min(lim, _INT64_MAX // max(lo.num, lo.den, hi.num, hi.den) + 1)
    hits = np.full(walks, -1, dtype=np.int64)
    nums = np.empty(walks, dtype=object)
    dens = np.empty(walks, dtype=object)
    # cols[0] holds the int64 lanes, cols[1] the Python-int lanes: [lane, p, q]
    every = np.arange(walks)
    cols = [[every[:0], np.zeros(0, np.int64), np.zeros(0, np.int64)],
            [every[:0], np.zeros(0, object), np.zeros(0, object)]]
    big = start.num + start.den >= lim
    dtype = object if big else np.int64
    cols[big] = [every, np.full(walks, start.num, dtype), np.full(walks, start.den, dtype)]
    letters = _letter_steps(kind, start, first, stop, horizon, seed)
    t = 0
    while True:
        # every lane holds its time-t state; int64 lanes have p + q < lim
        if interval is not None:
            for c in cols:
                lane, p, q = c
                if not lane.size:  # endpoints past int64 meet no int64 column
                    continue
                inside = (lo.num * q < p * lo.den) & (p * hi.den < hi.num * q)
                if inside.any():
                    hit = lane[inside]
                    hits[hit] = t
                    nums[hit] = p[inside]
                    dens[hit] = q[inside]
                    c[:] = [a[~inside] for a in c]
        if t == horizon or not (cols[0][0].size or cols[1][0].size):
            break
        letter = next(letters)
        for c in cols:
            lane, p, q = c
            if lane.size:
                b = letter if lane is every else letter[lane]  # no lane gone yet
                s = p + q
                c[1:] = np.where(b, s, p), np.where(b, q, s)
        t += 1
        p, q = cols[0][1:]
        out = p + q >= lim
        if out.any():
            cols[1] = [np.concatenate((a, b[out])) for a, b in zip(cols[1], cols[0])]
            cols[0] = [a[~out] for a in cols[0]]
    for lane, p, q in cols:
        nums[lane] = p
        dens[lane] = q
    return hits.tolist(), nums.tolist(), dens.tolist()


def _letter_steps(
    kind: str,
    start: ExtRat,
    first: int,
    stop: int,
    horizon: int,
    seed: int,
    margin: Optional[float] = None,
) -> Iterator[np.ndarray]:
    """Letters of walks first..stop-1: one bool column per step 0..horizon-1.

    Lane i of column t is the letter walk first+i draws at step t, as
    _draw_letter and apply_letter give it from ``start``.  MC0 takes the
    top bit of the draw.  MC1 lanes carry u ~ U = q/(p+q) in float64 and
    the generator returns the number of lane-steps replayed exactly.

    Exactness of MC1 (U_t, u_t the exact and float values after t steps):

    * The rule.  Letter 0 iff d*(p+q) < q*2^53 for the 53-bit draw d,
      i.e. iff d < U*2^53; a tie gives letter 1.  Letter 0 sends (p, q)
      to (p, p+q), so U -> (p+q)/(2p+q) = 1/(2-U); letter 1 sends it to
      (p+q, q), so U -> q/(p+2q) = U/(1+U).  Both maps send [0, 1] into
      itself, and fl is monotone with 0, 1/2 and 1 representable, so
      u stays in [0, 1] too.
    * Start.  u_0 = den/(num+den) is Python's correctly rounded int
      division, a value in [0, 1], so |u_0 - U_0| <= 2^-54.
    * One step.  Letter 0 computes fl(1/a) with a = fl(2-u).  Since
      2-u and a lie in [1, 2], |a - (2-u)| <= 2^-53 and
      |1/a - 1/(2-u)| <= |a - (2-u)| <= 2^-53; the derivative of
      1/(2-u) is 1/(2-u)^2 <= 1 on [0, 1], so |1/(2-u) - 1/(2-U)|
      <= |u - U|; the quotient lies in [1/2, 1] and rounds by at most
      2^-54.  Letter 1 computes fl(u/a) with a = fl(1+u) in [1, 2]:
      |u/a - u/(1+u)| <= u*|a - (1+u)| <= 2^-53, the derivative
      1/(1+u)^2 is at most 1, and the quotient lies in [0, 1], where
      rounding moves it by at most half an ulp, 2^-54.  Either way the
      error grows by at most 3*2^-54 a step, so |u_t - U_t| <=
      (3t+1)*2^-54.
    * The test.  d < 2^53 is exact in float64 and u*2^53 is exact (a
      power-of-two scaling of a value in [0, 1]).  With v = u_t*2^53 and
      V = U_t*2^53, |v - V| <= (3t+1)/2 < 1.5*horizon for t < horizon.
      The margin M = 2*horizon is an integer, exact in float64, and fl
      is monotone, so g = fl(d - v) > M implies d - v > M, hence
      d - V > M - 1.5*horizon > 0: letter 1.  Likewise g < -M implies
      d < V: letter 0.  A lane with |g| <= M replays walk first+i on
      Python ints through steps 0..t-1 and takes _draw_letter at step t.
    * Absorbing states.  From 1/0, U = 0 = u for ever: g = d >= 0 and
      the letter is always 1 (d = 0 is a tie).  From 0/1, U = 1 = u
      (fl(1/fl(2-1)) = 1): g = d - 2^53 < 0 and the letter is always 0.
      Both keep error 0; a lane there with |g| <= M is replayed all
      the same.

    ``margin`` overrides M; anything at least 1.5*horizon keeps the
    letters exact, and a larger one only forces more replays.
    """
    keys = rng.walk_keys(seed, first, stop)
    if kind == "MC0":
        for t in range(horizon):
            yield rng.draw_array(keys, t) >= np.uint64(1 << 63)
        return 0
    m = 2.0 * horizon if margin is None else margin
    u = np.full(stop - first, start.den / (start.num + start.den))
    replays = 0
    for t in range(horizon):
        d53 = (rng.draw_array(keys, t) >> np.uint64(11)).astype(np.float64)
        g = d53 - u * 2.0 ** 53
        letter = g > 0
        for i in np.flatnonzero(np.abs(g) <= m).tolist():
            key, x = int(keys[i]), start
            for k in range(t):
                x = apply_letter(x, _draw_letter(kind, key, k, x))
            letter[i] = _draw_letter(kind, key, t, x)
            replays += 1
        yield letter
        u = np.where(letter, u, 1.0) / np.where(letter, 1.0 + u, 2.0 - u)
    return replays


def walk_blocks(
    kind: str,
    start: ExtRat,
    walks: int,
    horizon: int,
    seed: int,
    interval: Optional[Tuple[ExtRat, ExtRat]] = None,
    caps: Caps = CAPS,
) -> Iterator[Tuple[List[int], List[int], List[int]]]:
    """Simulate independent walks as column blocks (hit_times, nums, dens).

    Blocks hold up to 4096 consecutive walks, in walk order.  hit_time is
    the first index whose state lies strictly inside ``interval`` (0
    counts the start), or -1 when the walk never enters within the
    horizon; walks stop once they hit.  Every walk depends only on (seed,
    walk index).  The arguments are checked here, before the first block
    is asked for.
    """
    _check_chain(kind)
    _check_sizes(walks, horizon, caps)
    if interval is not None:
        a, b = interval
        if not (isinstance(a, ExtRat) and isinstance(b, ExtRat)):
            raise TypeError("interval endpoints must be ExtRat")
        if not a < b:
            raise DomainError(f"empty interval ({a}, {b})")
    return (
        _walk_batch(kind, start, first, min(first + _BATCH, walks), horizon, seed, interval)
        for first in range(0, walks, _BATCH)
    )


def walk_table(
    kind: str,
    start: ExtRat,
    walks: int,
    horizon: int,
    seed: int,
    interval: Optional[Tuple[ExtRat, ExtRat]] = None,
    workers: int = 1,
    caps: Caps = CAPS,
) -> Tuple[Tuple[int, int, int], ...]:
    """The walks of walk_blocks as one row (hit_time, num, den) per walk.

    ``workers`` (at least 1) is accepted for compatibility and starts no
    threads: the walks run as lanes of one batched kernel, so it never
    changes the rows.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows: list = []
    for columns in walk_blocks(kind, start, walks, horizon, seed, interval, caps):
        rows.extend(zip(*columns))
    return tuple(rows)


def count_hits(counts: List[int], hit_times: Sequence[int]) -> None:
    """Add one to counts[t] for every hit time t >= 0 (-1 means no hit)."""
    for t in hit_times:
        if t >= 0:
            counts[t] += 1


def curve_from_counts(counts: Sequence[int], walks: int) -> Tuple[Fraction, ...]:
    """curve[t]: exact fraction of the walks with a hit at one of times 0..t."""
    curve = []
    cum = 0
    for c in counts:
        cum += c
        curve.append(Fraction(cum, walks))
    return tuple(curve)
