"""Synthetic scenes with exact ground truth.

Events are generated geometrically: texture edges are sampled at integer
image rows, and each sample emits events along the pixel trajectory its
true depth induces over the window.  Event times are drawn uniformly and
then snapped to the instants where the trajectory crosses an integer pixel
on its dominant flow axis, so the stream satisfies the integer-coordinate
event contract while warping at the true depth still collapses every
trajectory exactly (for axis-aligned flow; general flows collapse to
within rounding of the off-axis coordinate).

The module doubles as the brute-force oracle: it knows where every event
came from, so it can score any pipeline configuration against the truth.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from .costvol import (AggregationConfig, HypothesisSet, SweepConfig,
                      estimate_depth)
from .events import EventWindow, make_events
from .focus import box_window_sum
from .iwe import accumulate
from .motion import CameraRig, EventWarp, interpolate_velocity, motion_field

SCENE_KINDS = ("plane", "two_plane", "striped")


@dataclass(frozen=True)
class SceneSpec:
    """Desk-scale scene geometry (fronto-parallel planes, vertical edges)."""
    kind: str
    depths: tuple[float, ...]
    split_col: int | None = None     # two_plane: first column of the far plane
    period: int | None = None        # striped: texture period in px
    band: tuple[int, int] | None = None  # striped: [start, stop) texture columns
    edge_spacing: int = 8            # plane / two_plane texture spacing in px

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        depths = tuple(float(d) for d in self.depths)
        object.__setattr__(self, "depths", depths)
        want = 2 if self.kind == "two_plane" else 1
        if len(depths) != want:
            raise ValueError(f"{self.kind} scene needs {want} depth(s), "
                             f"got {len(depths)}")
        for d in depths:
            if not (1.0 <= d <= 200.0):
                raise ValueError(f"scene depth {d} outside [1, 200] m")
        for name in ("split_col", "period", "edge_spacing"):
            if getattr(self, name) is not None or name == "edge_spacing":
                object.__setattr__(self, name, int(getattr(self, name)))
        if self.edge_spacing < 1:
            raise ValueError(f"edge_spacing must be >= 1 px, got {self.edge_spacing}")
        if self.kind == "two_plane" and self.split_col is None:
            raise ValueError("two_plane scene needs split_col")
        if self.kind == "striped":
            if self.period is None or self.period < 2:
                raise ValueError("striped scene needs period >= 2 px")
        if self.band is not None:
            band = tuple(int(b) for b in self.band)
            if len(band) != 2 or band[0] >= band[1]:
                raise ValueError("band must be a non-empty [start, stop) range")
            object.__setattr__(self, "band", band)

    def edge_columns(self, width: int) -> np.ndarray:
        spacing = self.period if self.kind == "striped" else self.edge_spacing
        start = spacing // 2
        stop = width
        if self.band is not None:
            start, stop = self.band
            stop = min(stop, width)
        cols = np.arange(start, stop, spacing, dtype=np.int64)
        if self.kind == "two_plane":
            cols = cols[cols != self.split_col]
        return cols

    def depth_at_column(self, cols) -> np.ndarray:
        cols = np.asarray(cols)
        if self.kind == "two_plane":
            return np.where(cols < self.split_col, self.depths[0], self.depths[1])
        return np.full(cols.shape, self.depths[0], dtype=np.float64)

    def depth_grid(self, width: int, height: int) -> np.ndarray:
        row = self.depth_at_column(np.arange(width))
        return np.broadcast_to(row, (height, width)).copy()


@dataclass(frozen=True)
class GroundTruth:
    depth: np.ndarray            # (H, W) scene depth at the reference time
    event_depth: np.ndarray      # (N,) true depth of each event's trajectory
    event_trajectory: np.ndarray  # (N,) id of the edge sample that emitted it


def save_scene(path, scene: SceneSpec) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(scene), fh, indent=2)
        fh.write("\n")


def load_scene(path) -> SceneSpec:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a scene spec is a JSON object")
    raw.pop("contrast_threshold", None)      # older files carry it; unused
    # named by repr, so that a key with a newline keeps the error one line
    unknown = sorted(raw.keys() - {f.name for f in fields(SceneSpec)})
    if unknown:
        raise ValueError(f"{path}: unexpected scene keys "
                         f"{', '.join(map(repr, unknown))}")
    try:
        return SceneSpec(**raw)
    except (TypeError, OverflowError) as exc:   # missing keys, or not numbers
        raise ValueError(f"{path}: {exc}") from exc


def _quantize_times(u_ref, v_ref, flow, dt, duration, jitter, rng, width, height):
    """Snap uniformly drawn offsets onto integer-pixel trajectory crossings.

    Events land on integer pixels at the instants the trajectory from
    (``u_ref``, ``v_ref``) crosses them, so the warp at the true depth
    recovers the reference point exactly.  Returns integer event pixels, the
    resolved time offsets (<= 0), and a keep mask for events that stay
    inside the sensor and the window.
    """
    n = dt.shape[0]
    lookup_u = min(max(int(round(u_ref)), 0), width - 1)
    vel = np.tile(flow[v_ref, lookup_u], (n, 1))
    pos = np.stack([np.full(n, u_ref, dtype=np.float64),
                    np.full(n, v_ref, dtype=np.float64)], axis=1)
    ref = pos[0].copy()
    for _ in range(4):
        speed = np.abs(vel)
        if speed.max() == 0:
            break
        axis = (speed[:, 1] > speed[:, 0]).astype(np.int64)
        rows = np.arange(n)
        va = vel[rows, axis]
        moving = va != 0
        snapped = np.rint(ref[axis] - va * dt)
        dt = np.where(moving, (ref[axis] - snapped) / np.where(moving, va, 1.0), dt)
        pos = ref[None, :] - vel * dt[:, None]
        pix_u = np.clip(np.rint(pos[:, 0]), 0, width - 1).astype(np.int64)
        pix_v = np.clip(np.rint(pos[:, 1]), 0, height - 1).astype(np.int64)
        new_vel = flow[pix_v, pix_u]
        if np.array_equal(new_vel, vel):
            break
        vel = new_vel
    # a position beyond int64 lies off the sensor either way; clipped, it
    # casts without overflow
    np.clip(pos, -2.0 ** 52, 2.0 ** 52, out=pos)
    u = np.rint(pos[:, 0]).astype(np.int64)
    v = np.rint(pos[:, 1]).astype(np.int64)
    if jitter > 0:
        u = u + np.rint(rng.normal(0.0, jitter, size=n)).astype(np.int64)
        v = v + np.rint(rng.normal(0.0, jitter, size=n)).astype(np.int64)
    keep = ((u >= 0) & (u < width) & (v >= 0) & (v < height)
            & (dt <= 0) & (dt >= -duration))
    return u, v, dt, keep


def generate(scene: SceneSpec, rig: CameraRig, duration: float,
             events_per_edge: int, seed: int, jitter: float = 0.0,
             t_ref: float | None = None) -> tuple[EventWindow, GroundTruth]:
    """Emit an ideal event stream for the scene over [t_ref - duration, t_ref].

    Every edge sample (edge column x integer row) emits ``events_per_edge``
    events at uniformly random times along its trajectory; portions of a
    trajectory that leave the sensor emit nothing.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if events_per_edge < 1:
        raise ValueError("events_per_edge must be >= 1")
    intr = rig.intrinsics
    if t_ref is None:
        t_ref = rig.track[-1].t
    velocity = interpolate_velocity(rig.track, t_ref - duration, t_ref)

    cols = scene.edge_columns(intr.width)
    col_depth = scene.depth_at_column(cols)
    flows = {d: motion_field(intr, velocity, d) for d in np.unique(col_depth)}
    # seeds[-2] is unused; it keeps seeds[-1], the polarities' seed, in place.
    seeds = np.random.SeedSequence(seed).spawn(len(cols) * intr.height + 2)

    all_t, all_u, all_v, all_d, all_traj = [], [], [], [], []
    sample_id = 0
    for col, d_true in zip(cols, col_depth):
        flow = flows[d_true]
        for row in range(intr.height):
            rng = np.random.default_rng(seeds[sample_id])
            dt = -rng.uniform(0.0, duration, size=events_per_edge)
            u, v, dt, keep = _quantize_times(col, row, flow, dt,
                                             duration, jitter, rng,
                                             intr.width, intr.height)
            if keep.any():
                all_t.append(t_ref + dt[keep])
                all_u.append(u[keep])
                all_v.append(v[keep])
                all_d.append(np.full(int(keep.sum()), d_true))
                all_traj.append(np.full(int(keep.sum()), sample_id, dtype=np.int64))
            sample_id += 1

    if not all_t:
        raise ValueError("scene emitted no in-bounds events")
    t = np.concatenate(all_t)
    order = np.argsort(t, kind="stable")
    t = t[order]
    u = np.concatenate(all_u)[order]
    v = np.concatenate(all_v)[order]
    d = np.concatenate(all_d)[order]
    traj = np.concatenate(all_traj)[order]
    p = np.random.default_rng(seeds[-1]).integers(0, 2, size=len(t), dtype=np.uint8)

    events = make_events(t, u, v, p)
    window = EventWindow.from_events(events)
    truth = GroundTruth(depth=scene.depth_grid(intr.width, intr.height),
                        event_depth=d, event_trajectory=traj)
    return window, truth


def trajectory_spread(window: EventWindow, truth: GroundTruth, intrinsics,
                      velocity, d: float) -> float:
    """Largest per-trajectory extent (px) after warping under depth d; the
    generator's inverse property says this vanishes at the true depth."""
    warped = EventWarp(window, intrinsics, velocity)(d)
    spread = 0.0
    for tid in np.unique(truth.event_trajectory):
        pts = warped[truth.event_trajectory == tid]
        if len(pts) > 1:
            extent = pts.max(axis=0) - pts.min(axis=0)
            spread = max(spread, float(extent.max()))
    return spread


def event_pixel_mask(window: EventWindow, intrinsics, velocity,
                     truth: GroundTruth, radius: int,
                     min_support: float = 0.5, splat: str = "bilinear"
                     ) -> np.ndarray:
    """Pixels whose focus window holds real signal: windowed mass of the
    IWE warped at each pixel's own true depth meets the support threshold."""
    warp = EventWarp(window, intrinsics, velocity)
    support = np.zeros((intrinsics.height, intrinsics.width))
    for d in np.unique(truth.depth):
        iwe = accumulate(warp(float(d)), intrinsics.resolution, splat=splat)
        mass = box_window_sum(iwe.grid, radius)
        sel = truth.depth == d
        support[sel] = mass[sel]
    return support >= min_support


@dataclass(frozen=True)
class OracleReport:
    bin_accuracy: float          # fraction of event pixels on the true bin
    median_abs_rel: float        # over valid event pixels, refined depth
    aliased_fraction: float      # event pixels more than one bin off
    per_plane_accuracy: dict
    n_event_pixels: int


def oracle_depth_error(window: EventWindow, intrinsics, velocity,
                       hypotheses: HypothesisSet, truth: GroundTruth,
                       sweep: SweepConfig = SweepConfig(),
                       agg: AggregationConfig = AggregationConfig(),
                       ) -> OracleReport:
    """Run the full pipeline and grade the selected bins against ground truth."""
    depth_map, summary = estimate_depth(window, intrinsics, velocity,
                                        hypotheses, sweep, agg)

    mask = event_pixel_mask(window, intrinsics, velocity, truth,
                            sweep.focus.window_radius, agg.min_support,
                            sweep.splat)
    true_bin = hypotheses.bin_of(truth.depth)
    sel_bin = summary.winner

    n = int(mask.sum())
    if n == 0:
        raise ValueError("no event pixels to grade")
    hit = sel_bin[mask] == true_bin[mask]
    aliased = np.abs(sel_bin[mask] - true_bin[mask]) > 1

    graded = mask & depth_map.valid
    rel = np.abs(depth_map.depth[graded] - truth.depth[graded]) / truth.depth[graded]
    median_rel = float(np.median(rel)) if rel.size else float("nan")

    per_plane = {}
    for d in np.unique(truth.depth):
        sel = mask & (truth.depth == d)
        if sel.any():
            per_plane[float(d)] = float(
                np.mean(sel_bin[sel] == true_bin[sel]))
    return OracleReport(bin_accuracy=float(hit.mean()),
                        median_abs_rel=median_rel,
                        aliased_fraction=float(aliased.mean()),
                        per_plane_accuracy=per_plane,
                        n_event_pixels=n)
