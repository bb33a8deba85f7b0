"""Plane-sweep cost volumes: the hypotheses, the configs and the pipeline.

Every depth hypothesis is warped, accumulated, pyramided and scored per
pixel; ``aggregate`` refines the volumes and reads out depth (IHCA).  On
``pool``'s workers the sweep runs by hypotheses and aggregation by rows,
through the same code on the same inputs, so results are bitwise the same
whatever the worker count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .aggregate import DEPTH_SENTINEL, _aggregate_band
from .events import EventWindow
from .focus import VOLUME_KINDS, FocusConfig, objective, volume_score_map
from .iwe import SPLATS, accumulate, build_pyramid
from .motion import CameraIntrinsics, EventWarp, VelocitySample
from .pool import fork_pool, run_window, shutdown_pools

FILL_POLICIES = ("none", "nearest-valid")

# DepthMap.flags values
FLAG_INVALID = 0
FLAG_MEASURED = 1
FLAG_FILLED = 2


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
class SweepSummary:
    """What ``estimate_depth`` reports beside the depth map."""
    winner: np.ndarray              # (H, W) int64 fused winning hypothesis
    curves: dict                    # (y, x) -> (D,) fused curve, <= 8 pixels
    discarded: np.ndarray           # (D,) out-of-bounds tally per hypothesis


@dataclass(frozen=True)
class SweepConfig:
    focus: FocusConfig = field(default_factory=FocusConfig)
    num_scales: int = 3
    scale_weights: tuple[float, ...] | None = None   # None = equal
    splat: str = "bilinear"
    workers: int = 1

    def __post_init__(self):
        if self.focus.kind not in VOLUME_KINDS:
            raise ValueError(
                f"objective {self.focus.kind!r} has no per-pixel score map; "
                f"depth estimation supports {', '.join(sorted(VOLUME_KINDS))}")
        if self.num_scales < 1:
            raise ValueError(f"num_scales must be >= 1, got {self.num_scales}")
        if self.scale_weights is not None:
            w = np.asarray(self.scale_weights, dtype=np.float64)
            if len(w) != self.num_scales:
                raise ValueError(f"scale_weights needs {self.num_scales} "
                                 f"values, got {len(w)}")
            if not ((w >= 0).all() and 0 < w.sum() < np.inf):    # NaN fails too
                raise ValueError("scale_weights must be finite and non-negative "
                                 "with positive sum")
        if self.splat not in SPLATS:
            raise ValueError(f"unknown splat mode {self.splat!r}; choose one "
                             f"of {', '.join(SPLATS)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class AggregationConfig:
    trend_iterations: int = 1
    peak_alpha: float = 0.7
    min_support: float = 0.5
    fill: str = "none"

    def __post_init__(self):
        if self.trend_iterations < 0:
            raise ValueError(f"trend_iterations must be >= 0, "
                             f"got {self.trend_iterations}")
        for name in ("peak_alpha", "min_support"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # above 1, suppression would replace a curve's own maximum
        if not 0 <= self.peak_alpha <= 1:
            raise ValueError(f"peak_alpha must be in [0, 1], got {self.peak_alpha}")
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
    depth: np.ndarray         # (H, W) float64
    confidence: np.ndarray    # (H, W) float64
    winner: np.ndarray        # (H, W) int64


def _window_layout(d, resolution, num_scales):
    """(dtype, shape, byte offset) of each of a window's arrays, in
    ``_WindowArrays`` order and packed 8-byte aligned in one buffer, and the
    buffer's size.  Pyramid level k is the grid ceil-halved k times."""
    w, h = resolution
    specs = [(np.float64, (d, -(-h // 2 ** k), -(-w // 2 ** k)))
             for k in range(num_scales)]
    specs += [(np.float32, (d, h, w)), (np.int64, (d,)), (np.float64, (h, w)),
              (np.float64, (h, w)), (np.int64, (h, w))]
    layout, offset = [], 0
    for dtype, shape in specs:
        layout.append((dtype, shape, offset))
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        offset += -(-nbytes // 8) * 8
    return layout, offset


def _window_arrays(layout, buffer) -> _WindowArrays:
    """A window's arrays as views of ``buffer``."""
    arrays = [np.frombuffer(buffer, dtype, int(np.prod(shape)), offset
                            ).reshape(shape)
              for dtype, shape, offset in layout]
    n = len(arrays) - 5
    return _WindowArrays(arrays[:n], *arrays[n:])


def _sweep_into(out, window, intrinsics, velocity, depths, lo, hi, config,
                release):
    """Score hypotheses ``lo..hi-1`` into the window arrays ``out``: the
    per-scale score volumes, then the IWE and discarded tally.  Calls
    ``release`` once each hypothesis's arrays are written."""
    warp = EventWarp(window, intrinsics, velocity)
    for j in range(lo, hi):
        iwe = accumulate(warp(depths[j]), intrinsics.resolution,
                         splat=config.splat)
        levels = build_pyramid(iwe.grid, config.num_scales)
        for k, grid in enumerate(levels):
            volume_score_map(grid, config.focus, out=out.scores[k][j])
        out.iwe[j] = iwe.grid
        out.discarded[j] = iwe.discarded
        release()


def _sweep_task(layout, window, intrinsics, velocity, depths, hyps, rows,
                sweep, agg, buffer, release):
    """A ``run_window`` task: sweep the hypothesis range ``hyps`` into the
    window's arrays in ``buffer``, and return the step that aggregates band
    ``rows`` under the sweep's scale weights, equal if None; both steps
    call ``release`` when done with the pages so far."""
    out = _window_arrays(layout, buffer)
    _sweep_into(out, window, intrinsics, velocity, depths, *hyps, sweep,
                release)
    weights = (np.ones(sweep.num_scales) if sweep.scale_weights is None
               else np.asarray(sweep.scale_weights, dtype=np.float64))
    return partial(_aggregate_band, out, *rows, 1.0 / depths, agg, weights,
                   sweep.focus.window_radius, release)


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous ranges covering ``0..n-1`` whose sizes differ by
    at most one; some are empty when ``n < parts``."""
    bounds = [i * (n // parts) + min(i, n % parts) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# Measured pixels whose fused curves a window reports.
_CURVE_PIXELS = 8


def _read_arena(readv, layout) -> tuple[DepthMap, SweepSummary]:
    """A window's depth map and summary, read into fresh arrays by
    ``readv(view, offset)``, which fills a byte view from the window's bytes
    and returns the bytes read, so that the parent never maps a pool's
    arena.  A pixel is invalid where its depth is ``DEPTH_SENTINEL``, which
    no measured depth is, and measured elsewhere.  The summary keeps the
    fused curves of up to ``_CURVE_PIXELS`` measured pixels, spread evenly
    over them in row-major order, one read per hypothesis.  A short read
    raises ``OSError``."""
    def read(view, offset):
        got = readv(view, offset)
        if got != len(view):
            raise OSError(f"read {got} of {len(view)} bytes of the window "
                          "arena")

    arrays = [np.empty(shape, dtype) for dtype, shape, _ in layout[-4:]]
    for array, (_, _, offset) in zip(arrays, layout[-4:]):
        read(memoryview(array).cast("B"), offset)
    discarded, depth, confidence, winner = arrays
    flags = np.where(depth == DEPTH_SENTINEL, FLAG_INVALID,
                     FLAG_MEASURED).astype(np.uint8)
    depth_map = DepthMap(depth=depth, confidence=confidence, flags=flags)
    dtype, (d, h, w), start = layout[0]
    size = np.dtype(dtype).itemsize
    ys, xs = np.nonzero(depth_map.valid)
    step = max(len(ys) // _CURVE_PIXELS, 1)
    curves = {}
    for y, x in zip(ys[::step][:_CURVE_PIXELS].tolist(),
                    xs[::step][:_CURVE_PIXELS].tolist()):
        curve = curves[y, x] = np.empty(d, dtype)
        values = memoryview(curve).cast("B")
        for j in range(d):
            read(values[j * size:(j + 1) * size],
                 start + ((j * h + y) * w + x) * size)
    return depth_map, SweepSummary(winner=winner, curves=curves,
                                   discarded=discarded)


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


def fill_depth(depth_map: DepthMap, policy: str = "none") -> DepthMap:
    """Complete invalid pixels.  ``nearest-valid`` copies the closest
    measured depth; a map with no measured pixel is returned as it is."""
    if policy not in FILL_POLICIES:
        raise ValueError(f"unknown fill policy {policy!r}")
    holes = ~depth_map.valid
    if policy == "none" or not holes.any() or holes.all():
        return depth_map
    from scipy.ndimage import distance_transform_edt

    _, (iv, iu) = distance_transform_edt(holes, return_indices=True)
    depth = depth_map.depth.copy()
    flags = depth_map.flags.copy()
    depth[holes] = depth_map.depth[iv[holes], iu[holes]]
    flags[holes] = FLAG_FILLED
    return DepthMap(depth=depth, confidence=depth_map.confidence, flags=flags)


# ---------------------------------------------------------------------------
# Whole-window pipeline

def start_pool(sweep: SweepConfig, hypotheses: HypothesisSet,
               intrinsics: CameraIntrinsics) -> None:
    """Fork the pool that ``estimate_depth`` runs this sweep's windows on,
    with their arena, before the caller loads the event stream: a worker's
    resident set then holds none of it.  One worker forks nothing.  A
    window that cannot be held fails here, with a ``MemoryError``, rather
    than at the first window."""
    _, nbytes = _window_layout(len(hypotheses), intrinsics.resolution,
                               sweep.num_scales)
    fork_pool(sweep.workers, nbytes)


def estimate_depth(window: EventWindow, intrinsics: CameraIntrinsics,
                   velocity: VelocitySample, hypotheses: HypothesisSet,
                   sweep: SweepConfig = SweepConfig(),
                   agg: AggregationConfig = AggregationConfig()
                   ) -> tuple[DepthMap, SweepSummary]:
    """sweep -> per-scale trend filter -> multi-scale fusion -> extraction
    -> fill, with no (D, H, W) volume returned.

    One task per worker sweeps a share of the hypotheses into the window's
    buffer and then, once every task has swept, aggregates one band of rows
    in place; ``pool.run_window`` runs one task in-process and more on the
    pool's shared arena, and the outputs are bitwise the same whatever the
    worker count.  The pool is forked at the first window unless
    ``start_pool`` forked it earlier.
    """
    check_scales(sweep.num_scales, intrinsics)
    depths = hypotheses.depths
    d = len(depths)
    h = intrinsics.height
    layout, nbytes = _window_layout(d, intrinsics.resolution, sweep.num_scales)
    align = 2 ** (sweep.num_scales - 1)
    bands = [(min(a * align, h), min(b * align, h))
             for a, b in _split(-(-h // align), sweep.workers)]
    tasks = [partial(_sweep_task, layout, window, intrinsics, velocity,
                     depths, hyps, rows, sweep, agg)
             for hyps, rows in zip(_split(d, sweep.workers), bands)]
    depth_map, summary = run_window(nbytes, tasks,
                                    partial(_read_arena, layout=layout))
    return fill_depth(depth_map, agg.fill), summary
