"""Compensated float summation used by every estimator in the package.

fsum_array sums one array; cis_sums streams float blocks once and gives
the cos and sin sums of every frequency asked for, holding no more than
one segment of the stream.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

CHUNK = 4096
# Chunks copied together into cis_sums' segment buffer (2^16 floats, 512 KB).
SEGMENT_CHUNKS = 16


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


def cis_sums(blocks: Iterable[np.ndarray], ws: Sequence[float]) -> list[tuple[float, float]]:
    """For each w in ws, fsum_array of cos(w*a) and of sin(w*a), where a is
    the float blocks joined: the two parts of sum e^(i w a).

    The stream is read once for all w.  It is cut into 4096-chunks aligned
    to its start, whatever the sizes of the blocks, and SEGMENT_CHUNKS
    chunks at a time are copied into one reused segment buffer.  Within a
    segment the frequencies run outside and the chunks inside; the angles,
    cosines and sines of a chunk are made in two reused buffers, and each
    chunk's sum is the partial that fsum_array would take.  So the bits are
    those of one whole array and one w at a time, and memory stays flat
    but for the partials, two floats a chunk for each w.
    """
    segment = np.empty(SEGMENT_CHUNKS * CHUNK)
    angle, cos = np.empty((2, CHUNK))
    re = [[] for _ in ws]
    im = [[] for _ in ws]
    for seg in _segments(blocks, segment):
        for w, re_w, im_w in zip(ws, re, im):
            for i in range(0, seg.size, CHUNK):
                x = seg[i:i + CHUNK]
                t = np.multiply(w, x, out=angle[:x.size])
                re_w.append(float(np.cos(t, out=cos[:x.size]).sum()))
                im_w.append(float(np.sin(t, out=t).sum()))
    return [(math.fsum(re_w), math.fsum(im_w)) for re_w, im_w in zip(re, im)]


def _segments(blocks, buf):
    """The blocks joined and cut at multiples of buf.size from the start:
    each piece is copied into buf, and the filled part of buf is yielded."""
    fill = 0
    for block in blocks:
        i = 0
        while i < len(block):
            take = min(buf.size - fill, len(block) - i)
            buf[fill:fill + take] = block[i:i + take]
            fill += take
            i += take
            if fill == buf.size:
                yield buf
                fill = 0
    if fill:
        yield buf[:fill]
