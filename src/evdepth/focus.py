"""Focus scoring of warped-event images.

The primary scorer is a deterministic gradient-energy operator: a weighted
sum of absolute first/second-order gradient channels, and a windowed
root-sum-of-squares aggregation.  The four classic contrast
objectives (variance, squared timestamp image, sum of exponentials, sum of
suppressed accumulations) are provided as scalar baselines; all kinds share
the maximize-is-focused convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iwe import Iwe, accumulate

CHANNELS = ("x", "y", "xx", "yy", "xy", "xxyy")
OBJECTIVE_KINDS = ("fcd", "var", "sti", "soe", "sosa")
# Kinds with a non-negative per-pixel score map, usable for cost volumes.
VOLUME_KINDS = ("fcd", "var", "soe")


@dataclass(frozen=True)
class FocusConfig:
    kind: str = "fcd"
    weights: tuple[float, ...] = (1.0,) * 6       # one per CHANNELS entry
    window_radius: int = 5
    sosa_lambda: float = 1.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if len(self.weights) != len(CHANNELS):
            raise ValueError(f"weights must be {len(CHANNELS)} channel "
                             f"weights, got {len(self.weights)}")
        if not np.isfinite(self.weights).all():
            raise ValueError(f"weights must be finite, got {self.weights}")
        if not any(w != 0 for w in self.weights):
            raise ValueError("weights must hold a nonzero channel weight")
        if self.window_radius < 1 or self.window_radius % 2 == 0:
            raise ValueError(
                f"window_radius must be odd >= 1, got {self.window_radius}")


def _along(grid: np.ndarray, out: np.ndarray, axis: int):
    """``grid`` and ``out`` as arrays whose axis 0 steps along ``axis``, for
    the interior differences.  Along rows (axis 1) both are flattened, so
    that the differences run over contiguous memory; those that straddle two
    rows land in the border columns, which the caller sets afterwards."""
    if axis:
        return np.ascontiguousarray(grid).reshape(-1), out.reshape(-1)
    return grid, out


def _gradient(grid: np.ndarray, axis: int) -> np.ndarray:
    """np.gradient along ``axis`` for unit spacing: central differences
    halved inside, one-sided differences at the borders."""
    out = np.empty_like(grid)
    g, o = _along(grid, out, axis)
    np.subtract(g[2:], g[:-2], out=o[1:-1])
    o[1:-1] /= 2.0
    g, o = (grid.T, out.T) if axis else (grid, out)
    np.subtract(g[1], g[0], out=o[0])
    np.subtract(g[-1], g[-2], out=o[-1])
    return out


def _second_difference(grid: np.ndarray, axis: int) -> np.ndarray:
    """Central second difference, one-sided (forward/backward) at borders."""
    out = np.empty_like(grid)
    g, o = _along(grid, out, axis)
    # g[2:] - 2 * g[1:-1] + g[:-2], evaluated left to right
    np.multiply(g[1:-1], 2.0, out=o[1:-1])
    np.subtract(g[2:], o[1:-1], out=o[1:-1])
    o[1:-1] += g[:-2]
    g, o = (grid.T, out.T) if axis else (grid, out)
    o[0] = g[0] - 2 * g[1] + g[2]
    o[-1] = g[-1] - 2 * g[-2] + g[-3]
    return out


def weighted_gradients(grid: np.ndarray, config: FocusConfig) -> np.ndarray:
    """Weighted sum of the absolute gradient channels, in CHANNELS order.

    Absolute values stop signed derivatives from cancelling; the squaring
    happens in the window energy.  Only channels with a nonzero weight (and the
    channels they derive from) are computed.  First order uses central
    differences (one-sided at borders, matching np.gradient); the mixed term
    is the v-gradient of gx; the product channel is gxx * gyy.  Needs at
    least a 3x3 grid.  The sum is formed in the first channel's buffer, and
    equals ``0.0 + w0 * |c0| + w1 * |c1| + ...`` bit for bit.
    """
    h, w = grid.shape
    if h < 3 or w < 3:
        raise ValueError(f"grid {h}x{w} too small for gradients (needs >= 3x3)")
    w_x, w_y, w_xx, w_yy, w_xy, w_xxyy = config.weights
    # axis 0 is v (rows), axis 1 is u (columns)
    gx = _gradient(grid, axis=1) if w_x or w_xy else None
    gy = _gradient(grid, axis=0) if w_y else None
    gxx = _second_difference(grid, axis=1) if w_xx or w_xxyy else None
    gyy = _second_difference(grid, axis=0) if w_yy or w_xxyy else None
    gxy = _gradient(gx, axis=0) if w_xy else None
    gxxyy = gxx * gyy if w_xxyy else None
    out = None
    for wt, m in zip(config.weights, (gx, gy, gxx, gyy, gxy, gxxyy)):
        if wt == 0:
            continue
        np.abs(m, out=m)
        if wt != 1:
            m *= wt
        if out is None:
            out = m
            if wt < 0:
                out += 0.0            # as 0.0 + x: -0.0 adds as zero
        else:
            out += m
    return out


def box_window_sum(grid: np.ndarray, radius: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the r x r window centered at each pixel, clipped at borders.

    ``radius`` is the window side r (odd); implemented with an integral
    image.  The sums go to ``out`` if given, else to a new array.
    """
    if radius < 1 or radius % 2 == 0:
        raise ValueError(f"window side must be odd >= 1, got {radius}")
    if out is None:
        out = np.empty(grid.shape)
    if radius == 1:
        np.copyto(out, grid)
        return out
    h, w = grid.shape
    half = radius // 2
    # Zero margins (half + 1 before, half after) clamp every window to the
    # grid, so the four corners of all windows are plain slices.
    sat = np.zeros((h + radius, w + radius), dtype=np.float64)
    sat[half + 1:half + 1 + h, half + 1:half + 1 + w] = grid
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    np.subtract(sat[radius:, radius:], sat[:h, radius:], out=out)
    out -= sat[radius:, :w]
    out += sat[:h, :w]
    return out


def _window_root(squares: np.ndarray, radius: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(max(box_window_sum(squares), 0)), formed in ``out`` if given."""
    out = box_window_sum(squares, radius, out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def window_energy(combined: np.ndarray, radius: int) -> np.ndarray:
    """Root of the windowed sum of squares: C(p) = sqrt(sum_window R(q)^2)."""
    return _window_root(combined * combined, radius)


def fcd_score_map(grid: np.ndarray, config: FocusConfig,
                  out: np.ndarray | None = None) -> np.ndarray:
    r = weighted_gradients(grid, config)
    return _window_root(np.multiply(r, r, out=r), config.window_radius, out)


def volume_score_map(grid: np.ndarray, config: FocusConfig,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel score map used to build cost volumes, written to ``out``
    if given, else to a new array.

    fcd is the native map; var and soe use the windowed sum of their
    per-pixel contributions.  sti and sosa have no non-negative local form
    and stay scalar-only.
    """
    if config.kind == "fcd":
        return fcd_score_map(grid, config, out)
    if config.kind == "var":
        dev = grid - grid.mean()
        return box_window_sum(np.multiply(dev, dev, out=dev),
                              config.window_radius, out)
    if config.kind == "soe":
        return box_window_sum(np.expm1(grid), config.window_radius, out)
    raise ValueError(f"objective {config.kind!r} has no per-pixel score map; "
                     f"choose one of {VOLUME_KINDS}")


def mean_timestamp_image(iwe: Iwe, warped: np.ndarray, offsets: np.ndarray,
                         splat: str = "bilinear") -> np.ndarray:
    """Per-pixel mean time offset of the events splatted there (0 if none)."""
    h, w = iwe.grid.shape
    weighted = accumulate(warped, (w, h), splat=splat,
                          weights=offsets.astype(np.float64))
    out = np.zeros((h, w), dtype=np.float64)
    np.divide(weighted.grid, iwe.grid, out=out, where=iwe.grid > 0)
    return out


def objective(iwe: Iwe, config: FocusConfig, warped: np.ndarray | None = None,
              offsets: np.ndarray | None = None,
              splat: str = "bilinear") -> float:
    """Scalar focus score of one IWE; higher = more focused for every kind."""
    grid = iwe.grid
    kind = config.kind
    if kind == "fcd":
        return float(fcd_score_map(grid, config).sum())
    if kind == "var":
        return float(grid.var())
    if kind == "soe":
        return float(np.expm1(grid).sum())
    if kind == "sosa":
        return float(np.exp(-config.sosa_lambda * grid).sum())
    if kind == "sti":
        if warped is None or offsets is None:
            raise ValueError("sti needs the warped coordinates and time offsets")
        tbar = mean_timestamp_image(iwe, warped, offsets, splat=splat)
        return float(-(tbar * tbar).sum())
    raise ValueError(f"unknown objective kind {kind!r}")
