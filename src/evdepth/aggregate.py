"""Inter-hypotheses cost aggregation (IHCA): each pixel's score curve is
trend-filtered at every pyramid scale, the scales are fused, and depth is
read out by winner-take-all with sub-bin parabolic refinement in 1/d."""
from __future__ import annotations

import numpy as np

DEPTH_SENTINEL = -1.0

# Aggregation works through a volume a block of hypothesis slices at a
# time; a block of float64 slices takes at most this many bytes (or one
# slice), so that a block and its temporaries stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 19
# A band of rows is aggregated a sub-band at a time: a run of whole
# 2**(scales-1)-row groups whose score levels take at most this many bytes
# (or one group), so that a pool worker maps one sub-band of the scores at
# a time.  Smaller sub-bands map less but take longer.
_BAND_BYTES = 16 << 20


def _block_slices(shape) -> int:
    """Hypothesis slices of the (h, w) slice ``shape`` per block."""
    return max(1, _BLOCK_BYTES // (8 * int(np.prod(shape))))


def _trend_filter_inplace(s: np.ndarray, iterations: int, peak_alpha: float,
                          step: int) -> np.ndarray:
    """Trend-filter the (D, h, w) volume ``s`` in place, ``step`` hypothesis
    slices at a time, and return each curve's maximum after smoothing.

    Smoothing applies the (1, 2, 1)/4 kernel with replicated endpoints
    ``iterations`` times.  A single suppression pass then replaces every
    strict interior local maximum below ``peak_alpha`` times the curve's
    global maximum with the average of its neighbours.  With ``peak_alpha``
    in [0, 1] that leaves a positive maximum as it is.

    Each pass reads only values from before the pass, so a block needs just
    one saved slice: the one before it, as it was.
    """
    d = len(s)
    block = np.empty((min(step, d), *s.shape[1:]))
    before = np.empty(s.shape[1:])
    for _ in range(iterations):
        np.copyto(before, s[0])       # hypothesis 0's replicated neighbour
        for a in range(0, d, step):
            b = min(a + step, d)
            # (prev + 2 * cur + next) / 4 with replicated ends, added in
            # the order of the whole-volume sums
            out = np.multiply(s[a:b], 2.0, out=block[:b - a])
            out[0] += before
            out[1:] += s[a:b - 1]
            out[:-1] += s[a + 1:b]
            out[-1] += s[min(b, d - 1)]
            out *= 0.25
            np.copyto(before, s[b - 1])
            s[a:b] = out
    peak = s.max(axis=0)
    if peak_alpha > 0 and d >= 3:
        limit = peak_alpha * peak
        np.copyto(before, s[0])
        for a in range(1, d - 1, step):
            b = min(a + step, d - 1)
            # each slice's previous one is ``before`` for the first of the
            # block, then the block's own slices
            cur, nxt = s[a:b], s[a + 1:b + 1]
            weak = np.empty(cur.shape, dtype=bool)
            np.greater(cur[0], before, out=weak[0])
            np.greater(cur[1:], s[a:b - 1], out=weak[1:])
            weak &= cur > nxt
            weak &= cur < limit
            mid = block[:b - a]
            np.add(before, nxt[0], out=mid[0])
            np.add(s[a:b - 1], nxt[1:], out=mid[1:])
            mid *= 0.5
            np.copyto(before, s[b - 1])
            np.copyto(cur, mid, where=weak)
    return peak


def _divisor(peak: np.ndarray) -> np.ndarray:
    """The normaliser of each curve in fusion: its peak where positive,
    else inf, so that a finite curve with no positive peak adds zero."""
    return np.where(peak > 0, peak, np.inf)


def _fuse_block(levels, divisors, weights) -> np.ndarray:
    """Fuse a block of hypotheses in place over ``levels[0]``, its
    (slices, h, w) full-resolution level, and return it.

    ``levels[k]`` is the block's slices of pyramid level k over the rows and
    columns that cover ``levels[0]``, and ``divisors[k]`` the ``_divisor`` of
    their curves' maxima.  Each level's curves are normalised and weighted
    at the level's own scale, upsampled nearest-neighbour, and summed.
    """
    out = levels[0]
    out /= divisors[0]
    out *= weights[0]
    # as 0.0 + norm: x / inf may be -0.0, which adds as zero
    out += 0.0
    _, h, w = out.shape
    for k in range(1, len(levels)):
        norm = levels[k] / divisors[k]
        norm *= weights[k]
        f = 2 ** k
        wide = norm.repeat(f, axis=2)[:, :, :w]
        out += wide.repeat(f, axis=1)[:, :h]
    out /= weights.sum()
    return out


def _support_at(iwe, idx, r0, side) -> np.ndarray:
    """The sum over each pixel's ``side`` x ``side`` window, clipped at the
    sensor's borders, of the IWE of its winning hypothesis.  ``idx`` holds
    the winners of rows ``r0..`` of the (D, H, W) IWE volume ``iwe``."""
    _, height, w = iwe.shape
    h = len(idx)
    flat = iwe.reshape(-1)
    # each pixel's own flat index in its winner's IWE
    own = idx * (height * w) + (np.arange(r0, r0 + h)[:, None] * w
                                + np.arange(w))
    support = np.zeros((h, w))
    half = side // 2
    for dy in range(-half, half + 1):
        # the band rows and columns whose neighbour at (dy, dx) is on the
        # sensor
        y0, y1 = max(-r0 - dy, 0), min(height - r0 - dy, h)
        for dx in range(-half, half + 1):
            x0, x1 = max(-dx, 0), min(w - dx, w)
            if y0 < y1 and x0 < x1:
                support[y0:y1, x0:x1] += flat[own[y0:y1, x0:x1]
                                              + (dy * w + dx)]
    return support


def _readout(idx, peak, lo, hi, mean, support_at, inverse, min_support):
    """The depth and confidence maps from each pixel's winning hypothesis
    ``idx``: its score ``peak``, the scores ``lo`` and ``hi`` either side of
    it (clamped at the ends), its curve's mean and the support at the
    winner.  The depth is ``DEPTH_SENTINEL`` where the support is under
    ``min_support``."""
    d = len(inverse)
    interior = (idx > 0) & (idx < d - 1)
    denom = lo - 2.0 * peak + hi
    offset = np.zeros(idx.shape, dtype=np.float64)
    refine = interior & (denom < 0)
    offset[refine] = np.clip((lo - hi)[refine] / (2.0 * denom[refine]), -0.5, 0.5)

    q_at = inverse[idx]
    step_up = inverse[np.minimum(idx + 1, d - 1)] - q_at
    step_dn = q_at - inverse[np.maximum(idx - 1, 0)]
    q_refined = q_at + np.where(offset >= 0, offset * step_up, offset * step_dn)

    confidence = np.ones(idx.shape, dtype=np.float64)
    np.divide(peak, mean, out=confidence, where=mean > 0)
    depth = np.where(support_at >= min_support, 1.0 / q_refined,
                     DEPTH_SENTINEL)
    return depth, confidence


def _aggregate_band(out, r0: int, r1: int, inverse, agg, weights,
                    side: int, release, populate) -> None:
    """Trend-filter, fuse and read out full-resolution rows ``r0..r1-1`` of
    ``costvol``'s swept window arrays ``out`` in place, under the
    ``AggregationConfig`` ``agg`` and the float64 fusion ``weights``, one
    per scale, and write their depth, confidence and winner.  ``r0`` is a
    multiple of 2**(scales-1), so every pyramid level's band is whole.  A
    pixel's support is the mass of its winner's IWE in the ``side`` x
    ``side`` window around it.

    The rows are aggregated a sub-band ``a..b-1`` at a time (see
    ``_BAND_BYTES``).  Every step reduces over hypotheses one pixel at a
    time, in the order of filtering, fusing and reading out whole volumes,
    so the maps are bitwise theirs whatever the bands, sub-bands and
    blocks.  The fused curves are stored in place of the sub-band's level
    0, a block at a time; the readout keeps a running winner and the curve
    sum, and then reads the winner's neighbours from the fused curves and
    support from its IWE.  ``populate`` is called on each score level's
    sub-band before it is first read, so that a pool worker maps exactly
    those rows of each hypothesis slice: a read would also map, by the
    kernel's fault-around, the rows of other sub-bands around them.
    ``release`` is called twice per sub-band: between the two reads, once
    its score volumes are done with, and once its maps are written.
    """
    d, _, w = out.iwe.shape
    group = 2 ** (len(out.scores) - 1)
    group_bytes = sum(len(s) * (group >> k) * s.shape[2] * s.itemsize
                      for k, s in enumerate(out.scores))
    rows = group * max(1, _BAND_BYTES // group_bytes)
    for a in range(r0, r1, rows):
        b = min(a + rows, r1)
        levels, divisors = [], []
        for k, scores in enumerate(out.scores):
            band = scores[:, a >> k:-(-b // 2 ** k)]
            populate(band)
            divisors.append(_divisor(_trend_filter_inplace(
                band, agg.trend_iterations, agg.peak_alpha,
                _block_slices(band.shape[1:]))))
            levels.append(band)

        total = np.zeros((b - a, w))  # 0.0 + s is s: no fused value is -0.0
        best = np.full((b - a, w), -np.inf)
        idx = np.zeros((b - a, w), dtype=np.int64)
        step = _block_slices((b - a, w))
        for c in range(0, d, step):
            f = _fuse_block([level[c:c + step] for level in levels],
                            divisors, weights)
            for j, s in enumerate(f, start=c):
                total += s            # the curve sum, in hypothesis order
                new = s > best        # strict: the first maximum wins ties
                np.copyto(best, s, where=new)
                np.copyto(idx, j, where=new)
        # the winner's neighbours in the fused curves, clamped at the ends
        lo, hi = (np.take_along_axis(levels[0], j[None], axis=0)[0] for j
                  in (np.maximum(idx - 1, 0), np.minimum(idx + 1, d - 1)))
        release()

        out.depth[a:b], out.confidence[a:b] = _readout(
            idx, best, lo, hi, total / d, _support_at(out.iwe, idx, a, side),
            inverse, agg.min_support)
        out.winner[a:b] = idx
        release()
