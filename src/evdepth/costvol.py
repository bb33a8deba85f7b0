"""Plane-sweep cost volumes: construction, aggregation, depth extraction.

For every depth hypothesis the window is warped, accumulated, pyramided,
and scored per pixel; the per-scale score volumes are then refined by an
along-hypothesis trend filter, fused across scales, and read out by
winner-take-all with sub-bin parabolic refinement in inverse depth.

Hypothesis slices are independent, so the sweep parallelizes across a
process pool; every hypothesis is computed by the same code path on the
same inputs regardless of worker count, which keeps results bitwise
deterministic.
"""
from __future__ import annotations

import mmap
import multiprocessing as mp
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .events import EventWindow
from .focus import (VOLUME_KINDS, FocusConfig, box_window_sum, objective,
                    volume_score_map)
from .iwe import accumulate, build_pyramid
from .motion import CameraIntrinsics, EventWarp, VelocitySample

DEPTH_SENTINEL = -1.0

# DepthMap.flags values
FLAG_INVALID = 0
FLAG_MEASURED = 1
FLAG_FILLED = 2


@dataclass(frozen=True)
class HypothesisSet:
    """Ordered metric depth candidates of the sweep."""
    depths: np.ndarray        # strictly increasing, all > 0

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=np.float64)
        object.__setattr__(self, "depths", d)
        if d.size < 1:
            raise ValueError("need at least 1 depth hypothesis")
        if not (d > 0).all():
            raise ValueError("all depth hypotheses must be positive")
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

    def matches(self, other: "HypothesisSet") -> bool:
        return len(self) == len(other) and bool(np.array_equal(self.depths, other.depths))


def inverse_depth_hypotheses(d_min: float, d_max: float, count: int) -> HypothesisSet:
    """Sampling uniform in 1/d: flow magnitude is linear in inverse depth,
    so each bin covers the same flow resolution."""
    if not (0 < d_min < d_max):
        raise ValueError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    inv = np.linspace(1.0 / d_min, 1.0 / d_max, count)
    return HypothesisSet(depths=1.0 / inv)


@dataclass(frozen=True)
class CostVolume:
    """Per-pixel focus scores over hypotheses at one pyramid scale."""
    scores: np.ndarray        # (D, H, W), higher = better
    hypotheses: HypothesisSet

    def __post_init__(self):
        if self.scores.ndim != 3 or self.scores.shape[0] != len(self.hypotheses):
            raise ValueError(f"score volume shape {self.scores.shape} does not "
                             f"match {len(self.hypotheses)} hypotheses")


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
class SweepResult:
    volumes: list[CostVolume]       # one per pyramid scale
    support: np.ndarray             # (D, H, W) float32 windowed event mass
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
            raise ValueError("num_scales must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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
                raise ValueError("scale weights must be finite and non-negative "
                                 "with positive sum")


def check_scales(num_scales: int, intrinsics: CameraIntrinsics) -> None:
    """Reject a pyramid whose coarsest level, halved rounding up, is under 3x3."""
    w, h = intrinsics.resolution
    if -(-min(w, h) // 2 ** (num_scales - 1)) < 3:
        raise ValueError(f"{num_scales} scales shrink the {w}x{h} sensor below 3x3")


# ---------------------------------------------------------------------------
# Sweep execution

def _sweep_into(out, window, intrinsics, velocity, depths, lo, hi, config):
    """Score hypotheses ``lo..hi-1`` into the preallocated sweep outputs
    ``out``: the per-scale score volumes, then support, discarded and mass."""
    *scores, support, discarded, mass = out
    warp = EventWarp(window, intrinsics, velocity)
    for j in range(lo, hi):
        iwe = accumulate(warp(depths[j]), intrinsics.resolution,
                         splat=config.splat)
        levels = build_pyramid(iwe.grid, config.num_scales)
        for k, grid in enumerate(levels):
            scores[k][j] = volume_score_map(grid, config.focus)
        support[j] = box_window_sum(iwe.grid, config.focus.window_radius)
        discarded[j] = iwe.discarded
        mass[j] = iwe.mass


def _sweep_layout(d, resolution, num_scales):
    """(dtype, shape, byte offset) of each sweep output, packed 8-byte
    aligned in one buffer, and the buffer's size.  Pyramid level k is the
    grid ceil-halved k times."""
    w, h = resolution
    specs = [(np.float64, (d, -(-h // 2 ** k), -(-w // 2 ** k)))
             for k in range(num_scales)]
    specs += [(np.float32, (d, h, w)), (np.int64, (d,)), (np.float64, (d,))]
    layout, offset = [], 0
    for dtype, shape in specs:
        layout.append((dtype, shape, offset))
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        offset += -(-nbytes // 8) * 8
    return layout, offset


def _sweep_arrays(layout, buffer=None) -> list[np.ndarray]:
    """The sweep outputs as views of ``buffer``, or freshly allocated."""
    if buffer is None:
        return [np.empty(shape, dtype) for dtype, shape, _ in layout]
    return [np.frombuffer(buffer, dtype, int(np.prod(shape)), offset).reshape(shape)
            for dtype, shape, offset in layout]


# Each pool is forked with its own anonymous shared-memory arena; workers
# write their hypotheses there and return nothing, so no volume is pickled.
_POOLS: dict[int, tuple["mp.pool.Pool", mmap.mmap]] = {}
_POOL_LOCK = threading.Lock()
_worker_arena: mmap.mmap | None = None


def _attach_arena(arena: mmap.mmap) -> None:
    global _worker_arena
    _worker_arena = arena


def _sweep_task(task) -> None:
    """Worker side: score one chunk of hypotheses into the inherited arena."""
    window, intrinsics, velocity, depths, lo, hi, config = task
    layout, _ = _sweep_layout(len(depths), intrinsics.resolution,
                              config.num_scales)
    _sweep_into(_sweep_arrays(layout, _worker_arena), window, intrinsics,
                velocity, depths, lo, hi, config)


def _get_pool(workers: int, nbytes: int):
    """The cached pool of ``workers`` processes and its arena of at least
    ``nbytes``; a smaller arena is replaced with its pool.  Fork keeps
    start-up cheap and hands the arena to the workers."""
    entry = _POOLS.get(workers)
    if entry is not None and len(entry[1]) < nbytes:
        _close_pool(*_POOLS.pop(workers))
        entry = None
    if entry is None:
        arena = mmap.mmap(-1, nbytes)
        pool = mp.get_context("fork").Pool(processes=workers,
                                           initializer=_attach_arena,
                                           initargs=(arena,))
        entry = _POOLS[workers] = (pool, arena)
    return entry


def _close_pool(pool, arena) -> None:
    pool.terminate()
    pool.join()
    arena.close()


def shutdown_pools() -> None:
    """Stop every cached worker pool and release its arena."""
    with _POOL_LOCK:
        for entry in _POOLS.values():
            _close_pool(*entry)
        _POOLS.clear()


def build_volume(window: EventWindow, intrinsics: CameraIntrinsics,
                 velocity: VelocitySample, hypotheses: HypothesisSet,
                 config: SweepConfig = SweepConfig()) -> SweepResult:
    """Run the full hypothesis sweep; returns one score volume per scale."""
    check_scales(config.num_scales, intrinsics)
    depths = hypotheses.depths
    d = len(depths)
    layout, nbytes = _sweep_layout(d, intrinsics.resolution, config.num_scales)
    if config.workers == 1:
        out = _sweep_arrays(layout)
        _sweep_into(out, window, intrinsics, velocity, depths, 0, d, config)
    else:
        n = min(config.workers, d)
        bounds = [i * (d // n) + min(i, d % n) for i in range(n + 1)]
        tasks = [(window, intrinsics, velocity, depths, lo, hi, config)
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
        with _POOL_LOCK:
            pool, arena = _get_pool(config.workers, nbytes)
            pool.map(_sweep_task, tasks)
            out = [view.copy() for view in _sweep_arrays(layout, arena)]
    *scores, support, discarded, mass = out
    volumes = [CostVolume(scores=s, hypotheses=hypotheses) for s in scores]
    return SweepResult(volumes=volumes, support=support, discarded=discarded,
                       mass=mass)


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

def trend_filter(volume: CostVolume, iterations: int = 1,
                 peak_alpha: float = 0.7) -> CostVolume:
    """Smooth each pixel's score curve along the hypothesis axis and knock
    out weak secondary peaks.

    Smoothing applies the (1, 2, 1)/4 kernel with replicated endpoints
    ``iterations`` times.  A single suppression pass then replaces every
    strict interior local maximum below ``peak_alpha`` times the curve's
    global maximum with the average of its neighbors.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    s = volume.scores
    for _ in range(iterations):
        # (prev + 2 * cur + next) / 4 with replicated ends, accumulated in
        # place; addition commutes exactly, so the sum is bitwise the same.
        out = s * 2.0
        out[1:] += s[:-1]
        out[0] += s[0]
        out[:-1] += s[1:]
        out[-1] += s[-1]
        out *= 0.25
        s = out
    if peak_alpha > 0 and s.shape[0] >= 3:
        s = s.copy() if s is volume.scores else s
        limit = peak_alpha * s.max(axis=0)
        prev = s[0].copy()            # the previous slice before suppression
        for j in range(1, s.shape[0] - 1):
            cur, nxt = s[j], s[j + 1]
            weak = (cur > prev) & (cur > nxt) & (cur < limit)
            mid = 0.5 * (prev + nxt)
            prev[...] = cur
            np.copyto(cur, mid, where=weak)
    return replace(volume, scores=s)


def multiscale_fuse(volumes, scale_weights=None) -> CostVolume:
    """Weighted per-curve-normalized average of the per-scale volumes at
    full resolution (coarse scales upsampled nearest-neighbor).  Volume k
    is pyramid level k of volume 0, as ``build_volume`` returns them."""
    if not volumes:
        raise ValueError("need at least one volume to fuse")
    base = volumes[0]
    d, h, w = base.scores.shape
    if scale_weights is None:
        scale_weights = (1.0,) * len(volumes)
    weights = np.asarray(scale_weights, dtype=np.float64)
    if len(weights) != len(volumes):
        raise ValueError(f"{len(weights)} weights for {len(volumes)} volumes")
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("scale weights must be non-negative with positive sum")

    acc = np.zeros((d, h, w), dtype=np.float64)
    for k, (vol, wk) in enumerate(zip(volumes, weights)):
        if not vol.hypotheses.matches(base.hypotheses):
            raise ValueError("hypothesis sets differ across scales")
        if vol.scores.shape != (d, -(-h // 2 ** k), -(-w // 2 ** k)):
            raise ValueError(f"volume {k} has shape {vol.scores.shape}, not "
                             f"pyramid level {k} of {(d, h, w)}")
        # Each slice is normalised by its curves' peaks and weighted at the
        # volume's own scale, then upsampled into the accumulator.
        peak = vol.scores.max(axis=0)
        positive = peak > 0
        factor = 2 ** k
        for j in range(d):
            norm = np.zeros_like(peak)
            np.divide(vol.scores[j], peak, out=norm, where=positive)
            norm *= wk
            if k:
                norm = norm.repeat(factor, axis=0)[:h].repeat(factor, axis=1)[:, :w]
            acc[j] += norm
    acc /= weights.sum()
    return CostVolume(scores=acc, hypotheses=base.hypotheses)


# ---------------------------------------------------------------------------
# Depth extraction

def extract_depth(volume: CostVolume, support: np.ndarray,
                  min_support: float = 0.5) -> DepthMap:
    """Winner-take-all with sub-bin parabolic refinement in inverse depth.

    ``support`` is the (D, H, W) windowed event mass of the sweep, read at
    each pixel's winning hypothesis.  Confidence is the peak-to-mean ratio
    of each pixel's curve, 1 where the curve is flat.
    """
    scores = volume.scores
    d, h, w = scores.shape
    idx = scores.argmax(axis=0)
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    peak = scores[idx, vv, uu]

    interior = (idx > 0) & (idx < d - 1)
    lo = scores[np.maximum(idx - 1, 0), vv, uu]
    hi = scores[np.minimum(idx + 1, d - 1), vv, uu]
    denom = lo - 2.0 * peak + hi
    offset = np.zeros((h, w), dtype=np.float64)
    refine = interior & (denom < 0)
    offset[refine] = np.clip((lo - hi)[refine] / (2.0 * denom[refine]), -0.5, 0.5)

    q = volume.hypotheses.inverse
    q_at = q[idx]
    step_up = q[np.minimum(idx + 1, d - 1)] - q_at
    step_dn = q_at - q[np.maximum(idx - 1, 0)]
    q_refined = q_at + np.where(offset >= 0, offset * step_up, offset * step_dn)
    depth = 1.0 / q_refined

    valid = support[idx, vv, uu].astype(np.float64) >= min_support

    mean = scores.mean(axis=0)
    confidence = np.ones((h, w), dtype=np.float64)
    np.divide(peak, mean, out=confidence, where=mean > 0)

    depth = np.where(valid, depth, DEPTH_SENTINEL)
    flags = np.where(valid, FLAG_MEASURED, FLAG_INVALID).astype(np.uint8)
    return DepthMap(depth=depth, confidence=confidence, flags=flags)


def fill_depth(depth_map: DepthMap, policy: str = "none",
               radius: int = 5) -> DepthMap:
    """Complete invalid pixels.  ``nearest-valid`` copies the closest
    measured depth; ``median-window`` takes the median of measured depths in
    a (2*radius+1)^2 window and leaves isolated pixels invalid."""
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
    elif policy == "median-window":
        h, w = depth.shape
        ys, xs = np.nonzero(holes)
        for y, x in zip(ys, xs):
            y0, y1 = max(y - radius, 0), min(y + radius + 1, h)
            x0, x1 = max(x - radius, 0), min(x + radius + 1, w)
            patch = depth_map.depth[y0:y1, x0:x1][valid[y0:y1, x0:x1]]
            if patch.size:
                depth[y, x] = np.median(patch)
                flags[y, x] = FLAG_FILLED
    else:
        raise ValueError(f"unknown fill policy {policy!r}")
    return DepthMap(depth=depth, confidence=depth_map.confidence, flags=flags)


# ---------------------------------------------------------------------------
# Whole-window pipeline

def estimate_depth(window: EventWindow, intrinsics: CameraIntrinsics,
                   velocity: VelocitySample, hypotheses: HypothesisSet,
                   sweep: SweepConfig = SweepConfig(),
                   agg: AggregationConfig = AggregationConfig()
                   ) -> tuple[DepthMap, SweepResult, CostVolume]:
    """sweep -> per-scale trend filter -> multi-scale fusion -> extraction."""
    result = build_volume(window, intrinsics, velocity, hypotheses, sweep)
    filtered = [trend_filter(vol, agg.trend_iterations, agg.peak_alpha)
                for vol in result.volumes]
    fused = multiscale_fuse(filtered, agg.scale_weights)
    depth_map = extract_depth(fused, result.support, agg.min_support)
    depth_map = fill_depth(depth_map, agg.fill)
    return depth_map, result, fused
