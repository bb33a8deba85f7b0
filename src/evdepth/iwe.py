"""Images of warped events: splatting and multi-scale pyramids.

Accumulation counts unit event mass per pixel.  Bilinear splatting is the
default because the sub-pixel warp offsets carry the focus signal; nearest
rounding quantizes it away.  Pyramids use 2x2 block sums so event mass is
conserved at every scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPLATS = ("bilinear", "nearest")


@dataclass(frozen=True)
class Iwe:
    """Event mass per pixel under one depth hypothesis."""
    grid: np.ndarray          # (H, W) float64, all >= 0
    discarded: int            # events whose warped position fell out of bounds

    @property
    def mass(self) -> float:
        return float(self.grid.sum())


def accumulate(warped: np.ndarray, resolution: tuple[int, int],
               splat: str = "bilinear", weights: np.ndarray | None = None) -> Iwe:
    """Splat warped (x, y) coordinates onto a (height, width) grid.

    Each in-bounds event contributes unit mass (or its entry of ``weights``);
    out-of-bounds events are dropped and tallied.  With bilinear splatting an
    event is in bounds when all four neighbor pixels exist.
    """
    w, h = resolution
    if w < 1 or h < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    x, y = warped[:, 0], warped[:, 1]
    n = x.shape[0]

    if splat == "nearest":
        xi = np.rint(x).astype(np.int64)
        yi = np.rint(y).astype(np.int64)
        ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        wts = np.ones(n, dtype=np.float64) if weights is None else weights
        grid = np.zeros(h * w, dtype=np.float64)
        grid += np.bincount(yi[ok] * w + xi[ok], weights=wts[ok], minlength=h * w)
        kept = int(ok.sum())
    elif splat == "bilinear":
        ok = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
        if ok.all():                      # the usual case: nothing to drop
            xk, yk, wts = x, y, weights
        else:
            xk, yk = x[ok], y[ok]
            wts = None if weights is None else weights[ok]
        x0 = xk.astype(np.int64)          # truncation is floor for x >= 0
        y0 = yk.astype(np.int64)
        fx, fy = xk - x0, yk - y0
        gx, gy = 1 - fx, 1 - fy
        # A grid padded by one row and column takes the far corner of
        # x == w-1 or y == h-1 (weight 0) unclamped, and is sliced off.  One
        # flat index stepped +1, +w, +1 visits the four corners in order.
        size = (h + 1) * (w + 1)
        idx = y0 * (w + 1) + x0
        padded = np.zeros(size, dtype=np.float64)
        for step, wx, wy in ((0, gx, gy), (1, fx, gy), (w, gx, fy), (1, fx, fy)):
            if step:
                idx += step
            ww = wx * wy
            if wts is not None:
                ww *= wts
            padded += np.bincount(idx, weights=ww, minlength=size)
        grid = np.ascontiguousarray(padded.reshape(h + 1, w + 1)[:h, :w])
        kept = xk.shape[0]
    else:
        raise ValueError(f"unknown splat mode {splat!r}")

    return Iwe(grid=grid.reshape(h, w), discarded=n - kept)


def block_sum(grid: np.ndarray) -> np.ndarray:
    """2x2 block sum; odd trailing rows/columns fold into the last block."""
    h, w = grid.shape
    if h % 2 or w % 2:
        padded = np.zeros((h + h % 2, w + w % 2), dtype=grid.dtype)
        padded[:h, :w] = grid
        grid = padded
    top, bottom = grid[0::2], grid[1::2]
    # (a + b) + (c + d) per 2x2 block: the order of NumPy 2.4's reshape-sum
    # over the blocks of any grid more than 2 columns wide
    out = top[:, 0::2] + top[:, 1::2]
    out += bottom[:, 0::2] + bottom[:, 1::2]
    return out


def build_pyramid(grid: np.ndarray, num_scales: int) -> list[np.ndarray]:
    """Block-sum halvings of ``grid``; level 0 is ``grid`` itself."""
    if num_scales < 1:
        raise ValueError(f"num_scales must be >= 1, got {num_scales}")
    h, w = grid.shape
    factor = 2 ** (num_scales - 1)
    if h < factor or w < factor:
        raise ValueError(
            f"grid {h}x{w} too small for {num_scales} scales (needs >= {factor})")
    levels = [grid]
    for _ in range(1, num_scales):
        levels.append(block_sum(levels[-1]))
    return levels
