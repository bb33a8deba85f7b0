"""PFM (raw float) and PGM (8-bit preview) image files."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def _read_size(fh, path, comments=False) -> tuple[int, int]:
    """Parse a ``width height`` header line of positive integers."""
    line = fh.readline()
    while comments and line.startswith(b"#"):
        line = fh.readline()
    fields = line.split()
    try:
        w, h = (int(x) for x in fields)
    except ValueError:
        w = h = 0
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad size line {line!r}")
    return w, h


def _read_grid(fh, path, w: int, h: int, dtype, kind: str) -> np.ndarray:
    """The (h, w) grid of ``dtype`` after the header.  A file too short for
    it is rejected before anything is read, so a huge size allocates nothing."""
    nbytes = w * h * np.dtype(dtype).itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise ValueError(f"{path}: truncated {kind} payload: {left} of "
                         f"{nbytes} bytes")
    return np.frombuffer(fh.read(nbytes), dtype).reshape(h, w)


def write_pfm(path: str | Path, image: np.ndarray) -> None:
    """Grayscale PFM, little-endian, rows stored bottom-up per the format."""
    data = np.asarray(image, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode())
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(data[::-1]).tobytes())


def read_pfm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"Pf":
            raise ValueError(f"{path}: not a grayscale PFM file (magic {magic!r})")
        w, h = _read_size(fh, path)
        line = fh.readline()
        try:
            scale = float(line)
        except ValueError:
            scale = 0.0
        if not (np.isfinite(scale) and scale != 0):
            raise ValueError(f"{path}: bad PFM scale line {line!r}")
        dtype = "<f4" if scale < 0 else ">f4"
        return _read_grid(fh, path, w, h, dtype, "PFM")[::-1].astype(np.float32)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """8-bit binary PGM of whole grey levels 0..255, written as given."""
    data = np.asarray(image)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {data.shape}")
    if data.size and not 0 <= data.min() <= data.max() <= 255:
        raise ValueError(f"grey levels must lie in 0..255, got "
                         f"{data.min()}..{data.max()}")
    levels = data.astype(np.uint8)
    if not np.array_equal(levels, data):
        raise ValueError("grey levels must be whole numbers")
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(levels.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        w, h = _read_size(fh, path, comments=True)
        line = fh.readline()
        try:
            maxval = int(line)
        except ValueError:
            maxval = 0
        if not 0 < maxval <= 255:
            raise ValueError(f"{path}: bad PGM maxval line {line!r} "
                             f"(only 8-bit PGM is supported)")
        return _read_grid(fh, path, w, h, np.uint8, "PGM").copy()
