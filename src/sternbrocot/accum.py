"""Compensated float summation used by every estimator in the package."""

from __future__ import annotations

import math

import numpy as np

CHUNK = 4096


def fsum_array(a: np.ndarray) -> float:
    """Sum a float array in fixed 4096-element chunks, then fsum the partials.

    The chunking keeps the result independent of how callers slice the
    work, so parallel and serial runs agree bit for bit.
    """
    flat = np.asarray(a, dtype=float).ravel()
    if flat.size == 0:
        return 0.0
    partials = [float(np.sum(flat[i:i + CHUNK])) for i in range(0, flat.size, CHUNK)]
    return math.fsum(partials)
