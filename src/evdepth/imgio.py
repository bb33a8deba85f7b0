"""PFM (raw float) and PGM (8-bit preview) image files."""
from __future__ import annotations

from pathlib import Path

import numpy as np


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
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        scale = float(fh.readline().strip())
        count = w * h
        dtype = "<f4" if scale < 0 else ">f4"
        payload = fh.read(count * 4)
    if len(payload) < count * 4:
        raise ValueError(f"{path}: truncated PFM payload: {len(payload)} of "
                         f"{count * 4} bytes")
    data = np.frombuffer(payload, dtype=dtype, count=count)
    return data.reshape(h, w)[::-1].astype(np.float32)


def write_pgm(path: str | Path, image: np.ndarray,
              normalize: bool = True) -> None:
    """8-bit binary PGM; by default max-normalizes float input to 0..255."""
    data = np.asarray(image)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {data.shape}")
    if normalize:
        peak = float(data.max()) if data.size else 0.0
        scaled = data / peak * 255.0 if peak > 0 else np.zeros_like(data, dtype=np.float64)
        data = np.clip(np.rint(scaled), 0, 255)
    data = data.astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        w, h = (int(x) for x in line.split())
        maxval = int(fh.readline())
        if maxval > 255:
            raise ValueError(f"{path}: only 8-bit PGM supported")
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8, count=w * h)
    return data.reshape(h, w).copy()
