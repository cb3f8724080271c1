"""Counter-based pseudorandomness for reproducible parallel simulation.

A 64-bit mixing function (the SplitMix64 finalizer) is applied to
counters derived from (seed, walk index, step index).  No generator
state is carried, so walk i step j yields the same draw no matter how
the walks are split across workers or in what order they run.  The
``*_array`` functions compute the same values over numpy ``uint64``
arrays, whose wrap-around modulo 2^64 is the intended arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def walk_key(seed: int, walk: int) -> int:
    """Independent stream key for one walk."""
    return mix64((seed + _GAMMA * (walk + 1)) & _MASK)


def draw(key: int, step: int) -> int:
    """The step-th 64-bit draw of a stream."""
    return mix64((key + _GAMMA * (step + 1)) & _MASK)


def draw_below(key: int, step: int, num: int, den: int) -> int:
    """Bernoulli trial with success probability num/den, decided in integers.

    Returns 1 with probability num/den (to within 2^-53, deterministically),
    using the top 53 bits of the draw; no floating point is involved.
    """
    k = draw(key, step) >> 11
    return 1 if k * den < num << 53 else 0


def mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array (array ops wrap silently, scalars would warn)."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def walk_keys(seed: int, first: int, stop: int) -> np.ndarray:
    """walk_key(seed, w) for w in range(first, stop), as a uint64 array."""
    w = np.arange(first + 1, stop + 1, dtype=np.uint64)
    return mix64_array(w * np.uint64(_GAMMA) + np.uint64(seed & _MASK))


def draw_array(keys: np.ndarray, step: int) -> np.ndarray:
    """draw(key, step) for every key of a uint64 array."""
    return mix64_array(keys + np.uint64((_GAMMA * (step + 1)) & _MASK))
