"""Depth-hypothesis motion fields, event warping, and velocity handling.

The per-pixel image velocity under a candidate depth d combines a 1/d-scaled
translational term with a depth-independent rotational term:

    du = (1/d) * (-f*tx + u'*tz) + (1/f) * (u'v'*wx - (f^2+u'^2)*wy + f*v'*wz)
    dv = (1/d) * (-f*ty + v'*tz) + (1/f) * ((f^2+v'^2)*wx - u'v'*wy - f*u'*wz)

with u' = u - cu, v' = v - cv.  Events are warped to the window's reference
time by a single linear step: p_warped = p + flow(p) * (t - t_ref), the flow
sampled at each event's original integer pixel.  The flow is affine in 1/d,
so a window's per-event terms are computed once and reused for every
hypothesis (``EventWarp``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import EventWindow


@dataclass(frozen=True)
class CameraIntrinsics:
    f: float
    cu: float
    cv: float
    width: int
    height: int

    def __post_init__(self):
        if not self.f > 0:
            raise ValueError(f"focal length must be positive, got {self.f}")
        # the flow takes f * f, and f * 0 where a velocity component is 0
        if not float(self.f) * float(self.f) < np.inf:
            raise ValueError(f"focal length must have a finite square, "
                             f"got {self.f}")
        if not (0 < self.cu < self.width and 0 < self.cv < self.height):
            raise ValueError("principal point must lie inside the sensor")

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.width, self.height)


@dataclass(frozen=True)
class VelocitySample:
    """Linear velocity T (m/s) and angular velocity omega (rad/s) at time t."""
    t: float
    linear: tuple[float, float, float]
    angular: tuple[float, float, float]

    def __post_init__(self):
        vals = (self.t, *self.linear, *self.angular)
        if not all(np.isfinite(vals)):
            raise ValueError(f"velocity sample has non-finite components: {self}")


@dataclass(frozen=True)
class CameraRig:
    intrinsics: CameraIntrinsics
    track: tuple[VelocitySample, ...]

    def __post_init__(self):
        ts = [s.t for s in self.track]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("velocity track timestamps must be strictly increasing")
        intr = self.intrinsics
        for s in self.track:
            if not flow_bound(intr, s, 1.0) < np.inf:
                raise ValueError(f"velocity at t={s.t} gives a flow beyond the "
                                 f"float range on the {intr.width}x"
                                 f"{intr.height} sensor")


def flow_terms(intrinsics: CameraIntrinsics, velocity: VelocitySample,
               u, v) -> tuple[np.ndarray, np.ndarray]:
    """Flow (px/s) at pixels (u, v) split as ``trans / d + rot``.

    Both terms have shape ``u.shape + (2,)``.  The translational term scales
    with 1/d; the rotational term is depth-independent, so pure rotation
    yields the same flow at every d.
    """
    f = intrinsics.f
    tx, ty, tz = velocity.linear
    wx, wy, wz = velocity.angular
    up = np.asarray(u, dtype=np.float64) - intrinsics.cu
    vp = np.asarray(v, dtype=np.float64) - intrinsics.cv
    upvp = up * vp
    trans = np.stack([-f * tx + up * tz, -f * ty + vp * tz], axis=-1)
    rot = np.stack([(upvp * wx - (f * f + up * up) * wy + f * vp * wz) / f,
                    ((f * f + vp * vp) * wx - upvp * wy - f * up * wz) / f],
                   axis=-1)
    return trans, rot


def flow_bound(intrinsics: CameraIntrinsics, velocity: VelocitySample,
               d: float) -> float:
    """An upper bound, in px/s, on either flow component at any pixel of
    the sensor and any depth >= d; it also bounds each intermediate that
    ``flow_terms`` computes.

    It is taken in Python floats, so a flow beyond the float range reads
    inf without a NumPy warning."""
    f = float(intrinsics.f)
    tx, ty, tz = (abs(float(x)) for x in velocity.linear)
    wx, wy, wz = (abs(float(x)) for x in velocity.angular)
    # every term grows with |u'| and |v'|, which peak at the sensor's edges
    up = max(intrinsics.cu, intrinsics.width - 1 - intrinsics.cu)
    vp = max(intrinsics.cv, intrinsics.height - 1 - intrinsics.cv)
    trans = max(f * tx + up * tz, f * ty + vp * tz)
    rot = max(up * vp * wx + (f * f + up * up) * wy + f * vp * wz,
              (f * f + vp * vp) * wx + up * vp * wy + f * up * wz)
    return trans / d + rot / f


def _check_depth(d: float) -> None:
    if not d > 0:
        raise ValueError(f"depth hypothesis must be positive, got {d}")


def motion_field(intrinsics: CameraIntrinsics, velocity: VelocitySample,
                 d: float) -> np.ndarray:
    """Per-pixel flow (px/s) for depth hypothesis d, shape (H, W, 2)."""
    _check_depth(d)
    u, v = np.meshgrid(np.arange(intrinsics.width), np.arange(intrinsics.height))
    trans, rot = flow_terms(intrinsics, velocity, u, v)
    return trans / d + rot


class EventWarp:
    """One window's events warped to t_ref under any depth hypothesis.

    The flow terms are gathered at the events' own pixels once, as (2, N)
    rows; each call ``warp(d)`` then returns the (N, 2) sub-pixel (x, y)
    coordinates under depth d, a transposed view with contiguous columns.
    Out-of-bounds results pass through untouched; accumulation decides
    their fate.
    """

    def __init__(self, window: EventWindow, intrinsics: CameraIntrinsics,
                 velocity: VelocitySample):
        u = window.events["u"]
        v = window.events["v"]
        if u.size and (u.max() >= intrinsics.width or v.max() >= intrinsics.height):
            raise ValueError(f"events lie outside the {intrinsics.width}x"
                             f"{intrinsics.height} sensor")
        self.pixels = np.stack([u, v]).astype(np.float64)
        self.trans, self.rot = (np.ascontiguousarray(term.T) for term in
                                flow_terms(intrinsics, velocity, u, v))
        self.dt = window.offsets

    def __call__(self, d: float) -> np.ndarray:
        _check_depth(d)
        # pixels + (trans / d + rot) * dt, in place in one buffer
        out = self.trans / d
        out += self.rot
        out *= self.dt
        out += self.pixels
        return out.T


# ---------------------------------------------------------------------------
# Velocity track interpolation and the noise-ablation model.

def _track_arrays(track) -> tuple[np.ndarray, np.ndarray]:
    ts = np.array([s.t for s in track], dtype=np.float64)
    vals = np.array([[*s.linear, *s.angular] for s in track], dtype=np.float64)
    return ts, vals


def interpolate_velocity(track, t_a: float, t_b: float) -> VelocitySample:
    """Component-wise time-average over [t_a, t_b] of the piecewise-linear
    interpolant; outside the track the nearest sample is held constant.
    An average beyond the float range is a ValueError."""
    if len(track) == 0:
        raise ValueError("velocity track is empty")
    if t_b < t_a:
        raise ValueError(f"bad interval: t_a={t_a} > t_b={t_b}")
    ts, vals = _track_arrays(track)
    if t_a == t_b:
        avg = np.array([np.interp(t_a, ts, vals[:, k]) for k in range(6)])
    else:
        inner = ts[(ts > t_a) & (ts < t_b)]
        grid = np.concatenate(([t_a], inner, [t_b]))
        avg = np.empty(6)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(6):
                y = np.interp(grid, ts, vals[:, k])
                avg[k] = np.trapezoid(y, grid) / (t_b - t_a)
            _check_average(avg, t_a, t_b)
    t_mid = 0.5 * t_a + 0.5 * t_b       # (t_a + t_b) may overflow
    return VelocitySample(t=t_mid, linear=tuple(avg[:3]), angular=tuple(avg[3:]))


def _check_average(avg, t_a, t_b) -> None:
    """Reject averages over [t_a, t_b] that are not finite, or an interval
    longer than the float range, over which every average reads 0."""
    if not (t_b - t_a < np.inf and np.isfinite(avg).all()):
        raise ValueError(f"the velocity average over [{t_a!r}, {t_b!r}] "
                         f"is beyond the float range")


def average_velocity_norms(track, t_a: float, t_b: float,
                           steps: int = 1024) -> tuple[float, float]:
    """Time-averaged ||T|| and ||omega|| over [t_a, t_b].

    The norm of a piecewise-linear track has no simple closed form, so this
    integrates on a fixed fine grid (deterministic, plenty for a noise scale).
    """
    if len(track) == 0:
        raise ValueError("velocity track is empty")
    ts, vals = _track_arrays(track)
    with np.errstate(over="ignore", invalid="ignore"):
        if t_a == t_b:
            at = np.array([np.interp(t_a, ts, vals[:, k]) for k in range(6)])
            norms = float(np.linalg.norm(at[:3])), float(np.linalg.norm(at[3:]))
        else:
            grid = np.linspace(t_a, t_b, steps + 1)
            interp = np.stack([np.interp(grid, ts, vals[:, k])
                               for k in range(6)], axis=1)
            lin = np.linalg.norm(interp[:, :3], axis=1)
            ang = np.linalg.norm(interp[:, 3:], axis=1)
            span = t_b - t_a
            norms = (float(np.trapezoid(lin, grid) / span),
                     float(np.trapezoid(ang, grid) / span))
        _check_average(norms, t_a, t_b)
    return norms


def inject_velocity_noise(velocity: VelocitySample, level: float, seed: int,
                          linear_norm: float | None = None,
                          angular_norm: float | None = None) -> VelocitySample:
    """Add zero-mean Gaussian noise: sigma = level * ||T|| per linear component
    and level * ||omega|| per angular component.

    Pass ``linear_norm``/``angular_norm`` to use norms averaged over a window
    interval instead of this sample's own.  Deterministic per (seed, level);
    Philox is counter-based, so parallel callers share no state.
    """
    if level < 0:
        raise ValueError(f"noise level must be >= 0, got {level}")
    if level == 0:
        return velocity
    t_norm = float(np.linalg.norm(velocity.linear)) if linear_norm is None else linear_norm
    w_norm = float(np.linalg.norm(velocity.angular)) if angular_norm is None else angular_norm
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = rng.standard_normal(6)
    with np.errstate(over="ignore"):     # inf fails the sample's own check
        lin = np.asarray(velocity.linear) + level * t_norm * noise[:3]
        ang = np.asarray(velocity.angular) + level * w_norm * noise[3:]
    return VelocitySample(t=velocity.t, linear=tuple(lin), angular=tuple(ang))


# ---------------------------------------------------------------------------
# File formats: JSON camera config, whitespace-separated velocity track.

def load_camera(path: str | Path) -> CameraIntrinsics:
    """Intrinsics from a JSON object of numbers f, cu, cv and whole numbers
    width and height; every error starts with the path."""
    with open(path) as fh:
        cfg = json.load(fh)
    try:
        if not isinstance(cfg, dict):
            raise ValueError("a camera config is a JSON object")
        values = {key: cfg[key] for key in ("f", "cu", "cv", "width", "height")}
        for key, x in values.items():
            whole = key in ("width", "height")
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or whole and not float(x).is_integer()):
                raise ValueError(f"{key} {x!r} is not a {'whole ' * whole}number")
            values[key] = int(x) if whole else float(x)
        return CameraIntrinsics(**values)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_camera(path: str | Path, intrinsics: CameraIntrinsics) -> None:
    with open(path, "w") as fh:
        json.dump({"f": intrinsics.f, "cu": intrinsics.cu, "cv": intrinsics.cv,
                   "width": intrinsics.width, "height": intrinsics.height},
                  fh, indent=2)
        fh.write("\n")


def load_track(path: str | Path) -> tuple[VelocitySample, ...]:
    samples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = [float(x) for x in line.split()]
                if len(parts) != 7:
                    raise ValueError("expected 't tx ty tz wx wy wz'")
                samples.append(VelocitySample(t=parts[0], linear=tuple(parts[1:4]),
                                              angular=tuple(parts[4:7])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not samples:
        raise ValueError(f"{path}: no velocity samples")
    return tuple(samples)


def save_track(path: str | Path, track) -> None:
    with open(path, "w") as fh:
        fh.write("# t tx ty tz wx wy wz\n")
        for s in track:
            vals = " ".join(repr(float(x)) for x in (*s.linear, *s.angular))
            fh.write(f"{s.t!r} {vals}\n")
