"""Compensated float summation used by every estimator in the package."""

from __future__ import annotations

import math

import numpy as np

CHUNK = 4096


def fsum_array(a: np.ndarray) -> float:
    """Sum a float array in fixed 4096-element chunks, then fsum the partials.

    Each chunk is summed by numpy (one row of a (-1, 4096) reshape, plus
    the tail), so the result is independent of how callers slice the
    work, and parallel and serial runs agree bit for bit.
    """
    flat = np.asarray(a, dtype=float).ravel()
    whole = flat.size - flat.size % CHUNK
    partials = flat[:whole].reshape(-1, CHUNK).sum(axis=1).tolist()
    if whole < flat.size:
        partials.append(float(flat[whole:].sum()))
    return math.fsum(partials)


def cis_sums(a: np.ndarray, w: float) -> tuple[float, float]:
    """fsum_array of cos(w*a) and of sin(w*a): the two parts of sum e^(i w a).

    The angles, cosines and sines are made one 4096-element chunk at a
    time in two reused buffers, and each chunk's sum is the partial that
    fsum_array would take, so memory stays flat and the bits are the same.
    """
    flat = np.asarray(a, dtype=float).ravel()
    angle, cos = np.empty((2, CHUNK))
    re, im = [], []
    for i in range(0, flat.size, CHUNK):
        x = flat[i:i + CHUNK]
        t = np.multiply(w, x, out=angle[:x.size])
        re.append(float(np.cos(t, out=cos[:x.size]).sum()))
        im.append(float(np.sin(t, out=t).sum()))
    return math.fsum(re), math.fsum(im)
