"""Plane-sweep cost volumes: construction, aggregation, depth extraction.

For every depth hypothesis the window is warped, accumulated, pyramided,
and scored per pixel; the per-scale score volumes are then refined by an
along-hypothesis trend filter, fused across scales, and read out by
winner-take-all with sub-bin parabolic refinement in inverse depth.

Hypothesis slices are independent, and every reduction over hypotheses is
per pixel, so a process pool sweeps by hypotheses and then aggregates by
rows; every value is computed by the same code path on the same inputs
regardless of worker count, which keeps results bitwise deterministic.
"""
from __future__ import annotations

import mmap
import multiprocessing as mp
import threading
from dataclasses import dataclass, field

import numpy as np

from .events import EventWindow
from .focus import VOLUME_KINDS, FocusConfig, objective, volume_score_map
from .iwe import SPLATS, accumulate, build_pyramid
from .motion import CameraIntrinsics, EventWarp, VelocitySample

DEPTH_SENTINEL = -1.0

# DepthMap.flags values
FLAG_INVALID = 0
FLAG_MEASURED = 1
FLAG_FILLED = 2

FILL_POLICIES = ("none", "nearest-valid", "median-window")


@dataclass(frozen=True)
class HypothesisSet:
    """Ordered metric depth candidates of the sweep."""
    depths: np.ndarray        # strictly increasing, finite, all > 0

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=np.float64)
        object.__setattr__(self, "depths", d)
        if d.size < 1:
            raise ValueError("need at least 1 depth hypothesis")
        if not ((d > 0) & (d < np.inf)).all():        # NaN fails too
            raise ValueError("all depth hypotheses must be finite and positive")
        if not (np.diff(d) > 0).all():
            raise ValueError("depth hypotheses must be strictly increasing")

    def __len__(self) -> int:
        return len(self.depths)

    @property
    def inverse(self) -> np.ndarray:
        """Hypotheses in inverse-depth coordinates (decreasing)."""
        return 1.0 / self.depths

    def bin_of(self, depth) -> np.ndarray:
        """Index of the hypothesis whose inverse-depth cell contains ``depth``."""
        q = self.inverse
        mids = 0.5 * (q[1:] + q[:-1])          # decreasing
        target = 1.0 / np.asarray(depth, dtype=np.float64)
        # number of midpoints strictly above target = index of nearest bin
        return np.searchsorted(-mids, -target, side="right").astype(np.int64)


def inverse_depth_hypotheses(d_min: float, d_max: float, count: int) -> HypothesisSet:
    """Sampling uniform in 1/d: flow magnitude is linear in inverse depth,
    so each bin covers the same flow resolution."""
    if not 0 < d_min < np.inf:
        raise ValueError(f"d_min must be finite and > 0, got {d_min}")
    if not d_min < d_max < np.inf:
        raise ValueError(f"d_max must be finite and > d_min = {d_min}, got {d_max}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    inv = np.linspace(1.0 / d_min, 1.0 / d_max, count)
    return HypothesisSet(depths=1.0 / inv)


@dataclass(frozen=True)
class DepthMap:
    depth: np.ndarray         # (H, W) meters, DEPTH_SENTINEL where not valid
    confidence: np.ndarray    # (H, W) peak-to-mean score ratio
    flags: np.ndarray         # (H, W) uint8: 0 invalid, 1 measured, 2 filled

    @property
    def valid(self) -> np.ndarray:
        """(H, W) bool: the pixel had event support (its depth is measured)."""
        return self.flags == FLAG_MEASURED


@dataclass(frozen=True)
class SweepSummary:
    """What ``estimate_depth`` reports beside the depth map."""
    winner: np.ndarray              # (H, W) int64 fused winning hypothesis
    curves: dict                    # (y, x) -> (D,) fused curve, <= 8 pixels
    discarded: np.ndarray           # (D,) out-of-bounds tally per hypothesis
    mass: np.ndarray                # (D,) in-bounds event mass per hypothesis


@dataclass(frozen=True)
class SweepConfig:
    focus: FocusConfig = field(default_factory=FocusConfig)
    num_scales: int = 3
    splat: str = "bilinear"
    workers: int = 1

    def __post_init__(self):
        if self.focus.kind not in VOLUME_KINDS:
            raise ValueError(
                f"objective {self.focus.kind!r} has no per-pixel score map; "
                f"depth estimation supports {', '.join(sorted(VOLUME_KINDS))}")
        if self.num_scales < 1:
            raise ValueError(f"num_scales must be >= 1, got {self.num_scales}")
        if self.splat not in SPLATS:
            raise ValueError(f"unknown splat mode {self.splat!r}; choose one "
                             f"of {', '.join(SPLATS)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class AggregationConfig:
    scale_weights: tuple[float, ...] | None = None   # None = equal
    trend_iterations: int = 1
    peak_alpha: float = 0.7
    min_support: float = 0.5
    fill: str = "none"

    def __post_init__(self):
        if self.scale_weights is not None:
            w = np.asarray(self.scale_weights, dtype=np.float64)
            if not ((w >= 0).all() and 0 < w.sum() < np.inf):    # NaN fails too
                raise ValueError("scale_weights must be finite and non-negative "
                                 "with positive sum")
        if self.trend_iterations < 0:
            raise ValueError(f"trend_iterations must be >= 0, "
                             f"got {self.trend_iterations}")
        for name in ("peak_alpha", "min_support"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.fill not in FILL_POLICIES:
            raise ValueError(f"unknown fill policy {self.fill!r}; choose one "
                             f"of {', '.join(FILL_POLICIES)}")


def check_scales(num_scales: int, intrinsics: CameraIntrinsics) -> None:
    """Reject a pyramid whose coarsest level, halved rounding up, is under 3x3."""
    w, h = intrinsics.resolution
    if -(-min(w, h) // 2 ** (num_scales - 1)) < 3:
        raise ValueError(f"{num_scales} scales shrink the {w}x{h} sensor below 3x3")


# ---------------------------------------------------------------------------
# Sweep execution

@dataclass(frozen=True)
class _WindowArrays:
    """Everything one window writes: the sweep's outputs, then the fused
    curves over ``scores[0]`` and the (H, W) maps, from the band readout."""
    scores: list              # per-scale (D, Hk, Wk) float64 score volumes
    iwe: np.ndarray           # (D, H, W) float32 IWE grids
    discarded: np.ndarray     # (D,) int64
    mass: np.ndarray          # (D,) float64
    depth: np.ndarray         # (H, W) float64
    confidence: np.ndarray    # (H, W) float64
    winner: np.ndarray        # (H, W) int64
    flags: np.ndarray         # (H, W) uint8


def _window_layout(d, resolution, num_scales):
    """(dtype, shape, byte offset) of each of a window's arrays, in
    ``_WindowArrays`` order and packed 8-byte aligned in one buffer, and the
    buffer's size.  Pyramid level k is the grid ceil-halved k times."""
    w, h = resolution
    specs = [(np.float64, (d, -(-h // 2 ** k), -(-w // 2 ** k)))
             for k in range(num_scales)]
    specs += [(np.float32, (d, h, w)), (np.int64, (d,)), (np.float64, (d,)),
              (np.float64, (h, w)), (np.float64, (h, w)), (np.int64, (h, w)),
              (np.uint8, (h, w))]
    layout, offset = [], 0
    for dtype, shape in specs:
        layout.append((dtype, shape, offset))
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        offset += -(-nbytes // 8) * 8
    return layout, offset


def _window_arrays(layout, buffer=None) -> _WindowArrays:
    """A window's arrays as views of ``buffer``, or freshly allocated."""
    if buffer is None:
        arrays = [np.empty(shape, dtype) for dtype, shape, _ in layout]
    else:
        arrays = [np.frombuffer(buffer, dtype, int(np.prod(shape)), offset
                                ).reshape(shape)
                  for dtype, shape, offset in layout]
    n = len(arrays) - 7
    return _WindowArrays(arrays[:n], *arrays[n:])


def _sweep_into(out, window, intrinsics, velocity, depths, lo, hi, config):
    """Score hypotheses ``lo..hi-1`` into the window arrays ``out``: the
    per-scale score volumes, then the IWE, discarded and mass."""
    warp = EventWarp(window, intrinsics, velocity)
    for j in range(lo, hi):
        iwe = accumulate(warp(depths[j]), intrinsics.resolution,
                         splat=config.splat)
        levels = build_pyramid(iwe.grid, config.num_scales)
        for k, grid in enumerate(levels):
            volume_score_map(grid, config.focus, out=out.scores[k][j])
        out.iwe[j] = iwe.grid
        out.discarded[j] = iwe.discarded
        out.mass[j] = iwe.mass


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous ranges covering ``0..n-1`` whose sizes differ by
    at most one; some are empty when ``n < parts``."""
    bounds = [i * (n // parts) + min(i, n % parts) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# Each pool is forked with its own anonymous shared-memory arena and a
# barrier over its workers, which the entry keeps alive with the pool.
# Workers write a window into the arena and return nothing, so no volume
# is pickled.
_POOLS: dict[int, tuple] = {}      # workers -> (pool, arena, barrier)
_POOL_LOCK = threading.Lock()
_worker_arena: mmap.mmap | None = None
_worker_barrier = None
# How long a worker that has swept waits for the others.  It only bounds
# the wait on a worker that is stuck, so it is far above any sweep's spread.
_BARRIER_TIMEOUT_S = 600.0
# A window whose arrays take at least this many bytes has each process drop
# its mapping of them after each step, so that a worker holds about half of
# them at a time.  Below it the pages saved are few (0.1 MiB per worker for
# a 64x64 sensor at 32 hypotheses) and faulting them back in costs more.
_DROP_BYTES = 8 << 20


def _attach(arena: mmap.mmap, barrier) -> None:
    global _worker_arena, _worker_barrier
    _worker_arena, _worker_barrier = arena, barrier


def _drop_mapping(arena: mmap.mmap, nbytes: int) -> None:
    """Drop this process's page table entries for a window of ``nbytes`` in
    ``arena`` if it is large.  On this shared mapping the data stays."""
    if nbytes >= _DROP_BYTES:
        arena.madvise(mmap.MADV_DONTNEED)


def _window_task(task) -> bool:
    """Worker side: sweep one hypothesis range into the inherited arena;
    then, once every worker has swept, aggregate one band of rows.  Returns
    False if another worker failed to reach the barrier; a worker that
    fails first breaks it, so none waits for it."""
    window, intrinsics, velocity, depths, (lo, hi), rows, sweep, agg = task
    layout, nbytes = _window_layout(len(depths), intrinsics.resolution,
                                    sweep.num_scales)
    out = _window_arrays(layout, _worker_arena)
    try:
        _sweep_into(out, window, intrinsics, velocity, depths, lo, hi, sweep)
    except BaseException:
        _worker_barrier.abort()
        raise
    _drop_mapping(_worker_arena, nbytes)
    try:
        _worker_barrier.wait(_BARRIER_TIMEOUT_S)
    except threading.BrokenBarrierError:
        return False
    _aggregate_band(out, *rows, 1.0 / depths, agg, sweep.focus.window_radius)
    _drop_mapping(_worker_arena, nbytes)
    return True


def _get_pool(workers: int, nbytes: int):
    """The cached pool of ``workers`` processes with its arena of at least
    ``nbytes`` and its barrier; a smaller arena is replaced with its pool.
    Fork keeps start-up cheap and hands the arena to the workers."""
    entry = _POOLS.get(workers)
    if entry is not None and len(entry[1]) < nbytes:
        _close_pool(*_POOLS.pop(workers))
        entry = None
    if entry is None:
        ctx = mp.get_context("fork")
        arena, barrier = mmap.mmap(-1, nbytes), ctx.Barrier(workers)
        pool = ctx.Pool(processes=workers, initializer=_attach,
                        initargs=(arena, barrier))
        entry = _POOLS[workers] = (pool, arena, barrier)
    return entry


def _close_pool(pool, arena, _barrier) -> None:
    pool.terminate()
    pool.join()
    arena.close()


def _run_in_pool(workers: int, layout, nbytes: int, tasks, read):
    """Run one window's ``tasks`` on the cached pool, one task per worker,
    and return ``read`` of the arena's arrays.  A failed run closes the
    pool, so the next call forks a fresh pool and barrier."""
    with _POOL_LOCK:
        pool, arena, _ = _get_pool(workers, nbytes)
        try:
            if not all(pool.map(_window_task, tasks, chunksize=1)):
                raise TimeoutError("a sweep worker did not reach the barrier "
                                   f"within {_BARRIER_TIMEOUT_S:g} s")
        except BaseException:
            _close_pool(*_POOLS.pop(workers))
            raise
        result = read(_window_arrays(layout, arena))
        _drop_mapping(arena, nbytes)
    return result


def shutdown_pools() -> None:
    """Stop every cached worker pool and release its arena."""
    with _POOL_LOCK:
        for entry in _POOLS.values():
            _close_pool(*entry)
        _POOLS.clear()


def objective_sweep(window: EventWindow, intrinsics: CameraIntrinsics,
                    velocity: VelocitySample, hypotheses: HypothesisSet,
                    focus_cfg: FocusConfig, splat: str = "bilinear") -> np.ndarray:
    """Scalar objective value at every hypothesis (any objective kind)."""
    warp = EventWarp(window, intrinsics, velocity)
    off = window.offsets
    out = np.empty(len(hypotheses), dtype=np.float64)
    for i, d in enumerate(hypotheses.depths):
        warped = warp(d)
        iwe = accumulate(warped, intrinsics.resolution, splat=splat)
        out[i] = objective(iwe, focus_cfg, warped=warped, offsets=off, splat=splat)
    return out


# ---------------------------------------------------------------------------
# Inter-hypothesis aggregation

# Aggregation works through a volume a block of hypothesis slices at a
# time; a block of float64 slices takes at most this many bytes (or one
# slice), so that a block and its temporaries stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 19


def _block_slices(shape) -> int:
    """Hypothesis slices of the (h, w) slice ``shape`` per block."""
    return max(1, _BLOCK_BYTES // (8 * int(np.prod(shape))))


def _trend_filter_inplace(s: np.ndarray, iterations: int, peak_alpha: float,
                          step: int) -> np.ndarray:
    """Trend-filter the (D, h, w) volume ``s`` in place, ``step`` hypothesis
    slices at a time, and return each curve's maximum after filtering.

    Smoothing applies the (1, 2, 1)/4 kernel with replicated endpoints
    ``iterations`` times.  A single suppression pass then replaces every
    strict interior local maximum below ``peak_alpha`` times the curve's
    global maximum with the average of its neighbours.

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
        peak = s.max(axis=0)
    return peak


def _scale_weights(scale_weights, count: int) -> np.ndarray:
    """The fusion weights of ``count`` scales; None weighs them equally.
    ``AggregationConfig`` has checked their values."""
    if scale_weights is None:
        scale_weights = (1.0,) * count
    weights = np.asarray(scale_weights, dtype=np.float64)
    if len(weights) != count:
        raise ValueError(f"{len(weights)} scale weights for {count} scales")
    return weights


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
    n, h, w = out.shape
    for k in range(1, len(levels)):
        norm = levels[k] / divisors[k]
        norm *= weights[k]
        f = 2 ** k
        wide = norm.repeat(f, axis=2)[:, :, :w]
        # whole groups of f rows, each upsampled from one coarse row, then
        # the rows left over at the bottom
        full = h // f
        s0, s1, s2 = out.strides
        groups = np.lib.stride_tricks.as_strided(
            out, (n, full, f, w), (s0, f * s1, s1, s2))
        groups += wide[:, :full, None]
        out[:, full * f:] += wide[:, full:full + 1]
    out /= weights.sum()
    return out


# ---------------------------------------------------------------------------
# Depth extraction

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


def _readout(idx, peak, lo, hi, mean, support_at, inverse,
             min_support) -> DepthMap:
    """The depth map from each pixel's winning hypothesis ``idx``: its
    score ``peak``, the scores ``lo`` and ``hi`` either side of it (clamped
    at the ends), its curve's mean and the support at the winner."""
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

    valid = support_at >= min_support
    confidence = np.ones(idx.shape, dtype=np.float64)
    np.divide(peak, mean, out=confidence, where=mean > 0)
    depth = np.where(valid, 1.0 / q_refined, DEPTH_SENTINEL)
    flags = np.where(valid, FLAG_MEASURED, FLAG_INVALID).astype(np.uint8)
    return DepthMap(depth=depth, confidence=confidence, flags=flags)


def _aggregate_band(out: _WindowArrays, r0: int, r1: int, inverse,
                    agg: AggregationConfig, side: int) -> None:
    """Trend-filter, fuse and read out full-resolution rows ``r0..r1-1`` of
    a swept window in place, and write their depth, confidence, flags and
    winner.  ``r0`` is a multiple of 2**(scales-1), so every pyramid
    level's band is whole.  A pixel's support is the mass of its winner's
    IWE in the ``side`` x ``side`` window around it.

    Every step reduces over hypotheses one pixel at a time, in the order
    of filtering, fusing and reading out whole volumes, so the maps are
    bitwise theirs whatever the bands and blocks.  The fused curves are
    stored in place of the band's level 0, a block at a time; the readout
    keeps a running winner and the curve sum, and then reads the winner's
    neighbours from the fused curves and support from its IWE.
    """
    if r0 == r1:
        return
    weights = _scale_weights(agg.scale_weights, len(out.scores))
    d, _, w = out.iwe.shape
    h = r1 - r0
    levels, divisors = [], []
    for k, scores in enumerate(out.scores):
        band = scores[:, r0 >> k:-(-r1 // 2 ** k)]
        divisors.append(_divisor(_trend_filter_inplace(
            band, agg.trend_iterations, agg.peak_alpha,
            _block_slices(band.shape[1:]))))
        levels.append(band)

    total = np.zeros((h, w))          # 0.0 + s is s: no fused value is -0.0
    best = np.full((h, w), -np.inf)
    idx = np.zeros((h, w), dtype=np.int64)
    step = _block_slices((h, w))
    for a in range(0, d, step):
        f = _fuse_block([level[a:a + step] for level in levels], divisors,
                        weights)
        for j, s in enumerate(f, start=a):
            total += s                # the curve sum, in hypothesis order
            new = s > best            # strict: the first maximum wins ties
            np.copyto(best, s, where=new)
            np.copyto(idx, j, where=new)
    # the winner's neighbours in the fused curves, clamped at the ends
    lo, hi = (np.take_along_axis(levels[0], j[None], axis=0)[0]
              for j in (np.maximum(idx - 1, 0), np.minimum(idx + 1, d - 1)))

    band_map = _readout(idx, best, lo, hi, total / d,
                        _support_at(out.iwe, idx, r0, side), inverse,
                        agg.min_support)
    out.depth[r0:r1] = band_map.depth
    out.confidence[r0:r1] = band_map.confidence
    out.flags[r0:r1] = band_map.flags
    out.winner[r0:r1] = idx


# Measured pixels whose fused curves a window reports.
_CURVE_PIXELS = 8


def _read_window(out: _WindowArrays) -> tuple[DepthMap, SweepSummary]:
    """Copy a window's maps and tallies out of its arrays, and the fused
    curves of up to ``_CURVE_PIXELS`` measured pixels, spread evenly over
    them in row-major order."""
    depth_map = DepthMap(depth=out.depth.copy(),
                         confidence=out.confidence.copy(),
                         flags=out.flags.copy())
    ys, xs = np.nonzero(depth_map.valid)
    step = max(len(ys) // _CURVE_PIXELS, 1)
    curves = {(int(y), int(x)): out.scores[0][:, y, x].copy()
              for y, x in zip(ys[::step][:_CURVE_PIXELS],
                              xs[::step][:_CURVE_PIXELS])}
    return depth_map, SweepSummary(winner=out.winner.copy(), curves=curves,
                                   discarded=out.discarded.copy(),
                                   mass=out.mass.copy())


def fill_depth(depth_map: DepthMap, policy: str = "none",
               radius: int = 5) -> DepthMap:
    """Complete invalid pixels.  ``nearest-valid`` copies the closest
    measured depth; ``median-window`` takes the median of measured depths in
    a (2*radius+1)^2 window and leaves isolated pixels invalid."""
    if policy not in FILL_POLICIES:
        raise ValueError(f"unknown fill policy {policy!r}")
    if policy == "none":
        return depth_map
    valid = depth_map.valid
    holes = ~valid
    if not holes.any():
        return depth_map
    depth = depth_map.depth.copy()
    flags = depth_map.flags.copy()
    if policy == "nearest-valid":
        from scipy.ndimage import distance_transform_edt

        _, (iv, iu) = distance_transform_edt(holes, return_indices=True)
        depth[holes] = depth_map.depth[iv[holes], iu[holes]]
        flags[holes] = FLAG_FILLED
    else:                             # median-window
        h, w = depth.shape
        ys, xs = np.nonzero(holes)
        for y, x in zip(ys, xs):
            y0, y1 = max(y - radius, 0), min(y + radius + 1, h)
            x0, x1 = max(x - radius, 0), min(x + radius + 1, w)
            patch = depth_map.depth[y0:y1, x0:x1][valid[y0:y1, x0:x1]]
            if patch.size:
                depth[y, x] = np.median(patch)
                flags[y, x] = FLAG_FILLED
    return DepthMap(depth=depth, confidence=depth_map.confidence, flags=flags)


# ---------------------------------------------------------------------------
# Whole-window pipeline

def estimate_depth(window: EventWindow, intrinsics: CameraIntrinsics,
                   velocity: VelocitySample, hypotheses: HypothesisSet,
                   sweep: SweepConfig = SweepConfig(),
                   agg: AggregationConfig = AggregationConfig()
                   ) -> tuple[DepthMap, SweepSummary]:
    """sweep -> per-scale trend filter -> multi-scale fusion -> extraction
    -> fill, with no (D, H, W) volume returned.

    With N workers, one pool dispatch runs N tasks: each sweeps a share of
    the hypotheses into the shared arena, waits until all have, and then
    aggregates one band of rows in place.  With one worker the same two
    steps run in-process over all hypotheses, then all rows, and the
    outputs are bitwise the same whatever the worker count.
    """
    check_scales(sweep.num_scales, intrinsics)
    _scale_weights(agg.scale_weights, sweep.num_scales)   # before any sweep
    depths = hypotheses.depths
    d = len(depths)
    h = intrinsics.height
    layout, nbytes = _window_layout(d, intrinsics.resolution, sweep.num_scales)
    if sweep.workers == 1:
        out = _window_arrays(layout)
        _sweep_into(out, window, intrinsics, velocity, depths, 0, d, sweep)
        _aggregate_band(out, 0, h, hypotheses.inverse, agg,
                        sweep.focus.window_radius)
        depth_map, summary = _read_window(out)
    else:
        align = 2 ** (sweep.num_scales - 1)
        bands = [(min(a * align, h), min(b * align, h))
                 for a, b in _split(-(-h // align), sweep.workers)]
        tasks = [(window, intrinsics, velocity, depths, hyps, rows, sweep, agg)
                 for hyps, rows in zip(_split(d, sweep.workers), bands)]
        depth_map, summary = _run_in_pool(sweep.workers, layout, nbytes,
                                          tasks, _read_window)
    return fill_depth(depth_map, agg.fill), summary
