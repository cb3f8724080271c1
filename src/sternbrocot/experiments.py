"""The paper's random-walk experiments, and the scalar reference walker.

Part 2 of the paper studies the MC0/MC1 walks and their martingales.
This module holds what it computes from them: the exact cylinder
probabilities (``cylinder_prob``), one walk stepped on Python ints with
its exact probability (``ChainSpec``, ``simulate``, ``WalkPath``), the
hitting-time experiment, the martingale check of P h = a h + b, and the
exact n-step MC0 mean beside the stage-n tree mean.

A word's probability is priced by its end point, since the product of
the branch weights telescopes.  An MC0 word of n letters weighs 2^-n.
An MC1 letter at p/q keeps one of p, q and sends the other to s = p + q,
with weight p q / (p' q') for the image p'/q', so a word from p/q with
pq != 0 to p_n/q_n weighs p q / (p_n q_n).  0/1 and 1/0 absorb their
letter: a word from them weighs 1 if it ends where it started, else 0.

The chain definition (CHAIN_KINDS, apply_letter, the branch weights) is
core's; the batched walk kernel that the ``simulate`` command runs is
stochastic's, and the experiments here read its walks and letters.
``simulate`` steps one walk with the same letters, so it is the
reference that the kernel's rows are tested against.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import sqrt
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .core import CAPS, Caps, ExtRat, ONE, _check_chain, apply_letter, check_cap
from .minkowski import stieltjes_means
from .operators import _value, markov_apply, markov_power
from .stochastic import (
    _BATCH, _check_sizes, _draw_letter, _letter_steps, count_hits, curve_from_counts, walk_blocks,
)

@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """Chain kind, start state, walk length, base seed, and size caps."""

    kind: str
    start: ExtRat = ONE
    horizon: int = 64
    seed: int = 0
    caps: Caps = CAPS

    def __post_init__(self) -> None:
        _check_chain(self.kind)
        if not isinstance(self.start, ExtRat):
            raise TypeError("start must be an ExtRat")
        _check_sizes(1, self.horizon, self.caps)


@dataclasses.dataclass(frozen=True)
class WalkPath:
    """One realized walk.

    states[0] is the start and states[k] = branch(letters[k-1]) applied
    to states[k-1]; prob is the exact probability of the letter word.
    """

    states: Tuple[ExtRat, ...]
    letters: Tuple[int, ...]
    prob: Fraction


def simulate(
    spec: ChainSpec,
    letters: Optional[Sequence[int]] = None,
    walk: int = 0,
) -> WalkPath:
    """Run one walk and return its states, letters, and exact probability.

    With explicit ``letters`` the word is forced and only its probability
    is computed (it may be 0 against an absorbing state); otherwise
    letters are drawn from the per-walk key ``rng.walk_key(spec.seed,
    walk)``.
    """
    forced: Optional[Tuple[int, ...]] = None
    if letters is not None:
        forced = tuple(int(b) for b in letters)
        if len(forced) != spec.horizon:
            raise ValueError("letters length must equal the horizon")
        if any(b not in (0, 1) for b in forced):
            raise ValueError("letters must be 0/1 bits")
    key = rng.walk_key(spec.seed, walk)
    x = spec.start
    states = [x]
    word = []
    for k in range(spec.horizon):
        b = forced[k] if forced is not None else _draw_letter(
            spec.kind, key, k, x
        )
        x = apply_letter(x, b)
        states.append(x)
        word.append(b)
    prob = _word_prob(spec.kind, spec.start, x, spec.horizon)
    return WalkPath(states=tuple(states), letters=tuple(word), prob=prob)


def cylinder_prob(kind: str, x: ExtRat, word: Sequence[int], caps: Caps = CAPS) -> Fraction:
    """Exact probability that a walk from x begins with the given letters."""
    _check_chain(kind)
    check_cap(caps, "exp", len(word), "word length")
    bits = tuple(int(b) for b in word)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("word must consist of 0/1 bits")
    y = x
    for b in bits:
        y = apply_letter(y, b)
    return _word_prob(kind, x, y, len(bits))


def _word_prob(kind: str, x: ExtRat, y: ExtRat, n: int) -> Fraction:
    """Probability of an n-letter word that leads from x to y, priced by
    its end point as the module docstring derives."""
    if kind == "MC0":
        return Fraction(1, 1 << n)
    pq = x.num * x.den
    if not pq:
        return Fraction(int(y == x))
    return Fraction(pq, y.num * y.den)


@dataclasses.dataclass(frozen=True)
class HittingResult:
    """Outcome of a hitting experiment.

    curve[t] is the exact fraction of walks that entered the interval
    by time t; fraction is curve[-1]; finals hold the stopping state of
    each walk as a (num, den) pair.
    """

    fraction: Fraction
    curve: Tuple[Fraction, ...]
    hit_times: Tuple[int, ...]
    finals: Tuple[Tuple[int, int], ...]


def hitting_experiment(
    interval: Tuple[ExtRat, ExtRat],
    walks: int,
    horizon: int,
    seed: int,
    kind: str = "MC0",
    start: ExtRat = ONE,
    caps: Caps = CAPS,
) -> HittingResult:
    """Fraction of walks entering the open interval within the horizon.

    Comparisons are exact rational comparisons; the cumulative curve is
    nondecreasing by construction and its monotone growth toward 1 is
    the observable content of almost-sure hitting.
    """
    counts = [0] * (horizon + 1)
    hit_times: list = []
    finals: list = []
    for hits, nums, dens in walk_blocks(kind, start, walks, horizon, seed, interval, caps):
        count_hits(counts, hits)
        hit_times.extend(hits)
        finals.extend(zip(nums, dens))
    curve = curve_from_counts(counts, walks)
    return HittingResult(
        fraction=curve[-1],
        curve=curve,
        hit_times=tuple(hit_times),
        finals=tuple(finals),
    )


@dataclasses.dataclass(frozen=True)
class MartingaleReport:
    """Diagnostics for the one-step mean identity P h = a h + b.

    max_residual is the exact worst one-step residual over the distinct
    states visited early in the walks; the deviation fields compare
    empirical conditional means over letter-prefix cells against the
    affine prediction; window_fraction is the share of walks whose
    letter string contains both letters in every sliding window.
    """

    max_residual: object
    residual_states: int
    max_deviation: float
    deviation_se: float
    cells: int
    window_fraction: Optional[Fraction]
    min_alternations: int
    mean_alternations: float


def _extend_prefixes(node, bit, states: list, child: dict):
    """Node ids one letter deeper: states[i] is the state of prefix node i.

    child maps 2*parent + letter to the node id of that prefix, so a
    prefix shared by many walks, in any batch, is one node.
    """
    uniq, inv = np.unique(node * 2 + bit, return_inverse=True)
    ids = []
    for k in uniq.tolist():
        i = child.get(k)
        if i is None:
            i = child[k] = len(states)
            states.append(apply_letter(states[k >> 1], k & 1))
        ids.append(i)
    return np.array(ids, dtype=np.int64)[inv]


def martingale_check(
    kind: str,
    h: Callable[[ExtRat], object],
    walks: int,
    horizon: int,
    seed: int,
    start: ExtRat = ONE,
    affine: Tuple = (1, 0),
    window: Optional[int] = 64,
    residual_depth: int = 32,
    min_cell: int = 64,
    caps: Caps = CAPS,
) -> MartingaleReport:
    """Simulate walks and test the one-step identity P h = a h + b.

    Exact part: at every distinct state visited within the first
    ``residual_depth`` steps, |markov_apply(kind, h, y) - (a h(y) + b)|
    is evaluated; the maximum is exact when h returns rationals.
    Empirical part: walks are grouped by letter prefixes of each length
    n while cells hold at least ``min_cell`` walks; the sample mean of
    h at step n+1 inside a cell is compared with the affine prediction
    at the (prefix-determined) step-n state, and the worst absolute
    deviation is reported with its standard error.  The letter strings
    also yield alternation counts and, when the horizon admits it, the
    fraction of walks showing both letters in every length-``window``
    window.

    The letters come from _letter_steps, 4096 walks at a time, and are
    folded into running per-walk statistics (alternations, current and
    longest run, prefix-cell code, prefix node), so memory is O(batch +
    cells + distinct early prefixes), never O(walks * horizon).
    """
    _check_chain(kind)
    _check_sizes(walks, horizon, caps)
    if min_cell < 1:
        raise ValueError(f"min_cell must be at least 1, got {min_cell}")
    a = Fraction(affine[0]) if isinstance(affine[0], (int, Fraction)) else affine[0]
    b = Fraction(affine[1]) if isinstance(affine[1], (int, Fraction)) else affine[1]

    # prefix cells: the step-n state is a function of the first n letters
    n_max = 0
    while (1 << (n_max + 1)) * min_cell <= walks and n_max + 1 < horizon:
        n_max += 1
    # cell_counts[n][prefix + 2^n * letter]: walks with that n-letter
    # prefix (LSB first) and that letter at step n
    cell_counts = [np.zeros(2 << n, dtype=np.int64) for n in range(n_max + 1)]
    depth = min(residual_depth, horizon)  # states at steps 0..depth are checked
    states = [start]
    child: dict = {}
    windowed = window is not None and horizon >= window
    alt_total = 0
    alt_min = horizon
    ok_windows = 0
    for first in range(0, walks, _BATCH):
        stop = min(first + _BATCH, walks)
        node = np.zeros(stop - first, dtype=np.int64)
        code = np.zeros(stop - first, dtype=np.int64)
        alts = np.zeros(stop - first, dtype=np.int64)
        run = np.ones(stop - first, dtype=np.int64)
        longest = np.ones(stop - first, dtype=np.int64)
        for t, letter in enumerate(_letter_steps(kind, start, first, stop, horizon, seed)):
            if t < depth or t <= n_max:
                bit = letter.astype(np.int64)
                if t < depth:
                    node = _extend_prefixes(node, bit, states, child)
                if t <= n_max:
                    cell_counts[t] += np.bincount(code + (bit << t), minlength=2 << t)
                    code = code | (bit << t)
            if t:
                same = letter == prev
                alts += ~same
                if windowed:
                    run = np.where(same, run + 1, 1)
                    longest = np.maximum(longest, run)
            prev = letter
        alt_total += int(alts.sum())
        alt_min = min(alt_min, int(alts.min()))
        if windowed:
            ok_windows += int(np.count_nonzero(longest <= window - 1))

    seen = set(states) if depth >= 0 else set()
    max_residual: object = Fraction(0)
    for y in seen:
        r = markov_apply(kind, h, y) - (a * _value(h(y)) + b)
        if abs(r) > abs(max_residual):
            max_residual = abs(r)

    max_dev = 0.0
    dev_se = 0.0
    cells = 0
    for n, counts in enumerate(cell_counts):
        pairs = zip(counts[: 1 << n].tolist(), counts[1 << n:].tolist())
        for prefix, (c0, c1) in enumerate(pairs):
            c = c0 + c1
            if c < min_cell:
                continue
            y = start
            for k in range(n):
                y = apply_letter(y, (prefix >> k) & 1)
            h0 = _value(h(apply_letter(y, 0)))
            h1 = _value(h(apply_letter(y, 1)))
            emp = (c0 * h0 + c1 * h1) / c
            pred = a * _value(h(y)) + b
            dev = abs(float(emp - pred))
            phat = c1 / c
            se = abs(float(h1 - h0)) * sqrt(phat * (1.0 - phat) / c)
            cells += 1
            if dev > max_dev:
                max_dev = dev
                dev_se = se

    return MartingaleReport(
        max_residual=max_residual,
        residual_states=len(seen),
        max_deviation=max_dev,
        deviation_se=dev_se,
        cells=cells,
        window_fraction=Fraction(ok_windows, walks) if windowed else None,
        min_alternations=alt_min,
        mean_alternations=alt_total / walks,
    )


def mc0_limit_experiment(f: Callable[[ExtRat], object], x: ExtRat, n: int, caps: Caps = CAPS):
    """Pair the exact n-step MC0 mean from x with the stage-n tree mean.

    Both numbers approximate the same limit integral; the difference is
    the convergence gap at depth n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_cap(caps, "estimate", n, "tree mean level")  # before markov_power runs
    return markov_power("MC0", f, x, n, caps), stieltjes_means(f, n, caps=caps)[-1]
