"""Event records, event windows, and the window-formation policy.

Events are kept in a packed numpy structured array rather than per-event
objects; every downstream stage consumes whole columns at once.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# One record per event: timestamp (s), pixel column, pixel row, polarity.
# The layout doubles as the on-disk binary format (little-endian, packed).
EVENT_DTYPE = np.dtype([("t", "<f8"), ("u", "<u2"), ("v", "<u2"), ("p", "u1")])


def make_events(t, u, v, p) -> np.ndarray:
    """Assemble parallel columns into an event array (copies its inputs)."""
    t = np.asarray(t, dtype=np.float64)
    n = t.shape[0]
    out = np.empty(n, dtype=EVENT_DTYPE)
    out["t"] = t
    out["u"] = np.asarray(u)
    out["v"] = np.asarray(v)
    out["p"] = np.asarray(p)
    return out


def check_stream(events: np.ndarray, width: int | None = None,
                 height: int | None = None) -> None:
    """Validate finite, monotone timestamps and, if a resolution is given,
    bounds.

    Raises ValueError naming the first offending event index.
    """
    t = events["t"]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"event {i} has a non-finite timestamp {t[i]!r}")
    if t.size > 1:
        bad = np.nonzero(t[1:] < t[:-1])[0]      # a difference may overflow
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(
                f"event timestamps decrease at index {i}: "
                f"t[{i - 1}]={t[i - 1]!r} > t[{i}]={t[i]!r}")
    if width is not None:
        out = np.nonzero(events["u"] >= width)[0]
        if out.size:
            i = int(out[0])
            raise ValueError(f"event {i} column {events['u'][i]} outside width {width}")
    if height is not None:
        out = np.nonzero(events["v"] >= height)[0]
        if out.size:
            i = int(out[0])
            raise ValueError(f"event {i} row {events['v'][i]} outside height {height}")


@dataclass(frozen=True)
class EventWindow:
    """A contiguous slice of the stream, bounded by count and elapsed time.

    ``t_ref`` is the timestamp of the last event: warping moves every event
    forward to the most recent instant, so the depth map is current.
    """
    events: np.ndarray
    t_ref: float
    t_span: float

    def __len__(self) -> int:
        return len(self.events)

    @property
    def offsets(self) -> np.ndarray:
        """Per-event time offsets t - t_ref (non-positive)."""
        return self.events["t"] - self.t_ref

    @staticmethod
    def from_events(events: np.ndarray) -> "EventWindow":
        if len(events) == 0:
            raise ValueError("cannot form a window from zero events")
        t_ref = float(events["t"][-1])
        # in Python floats, a span beyond the float range is inf, unwarned
        return EventWindow(events=events, t_ref=t_ref,
                           t_span=t_ref - float(events["t"][0]))


def form_windows(stream: np.ndarray, max_count: int,
                 max_interval: float) -> list[EventWindow]:
    """Partition a stream into contiguous windows.

    Each window closes at whichever bound is hit first: ``max_count`` events
    or ``max_interval`` seconds measured from the window's first event.
    Concatenating the windows reproduces the stream exactly.
    """
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if not max_interval > 0:
        raise ValueError(f"max_interval must be > 0, got {max_interval}")
    stream = np.asarray(stream)
    if stream.dtype != EVENT_DTYPE:
        raise ValueError(f"stream must have dtype {EVENT_DTYPE}, got {stream.dtype}")
    check_stream(stream)

    windows: list[EventWindow] = []
    # one contiguous copy: searchsorted copies a strided field view per call
    t = np.ascontiguousarray(stream["t"])
    n = len(stream)
    start = 0
    while start < n:
        # Last index still inside the time bound, then the count bound.
        # (in Python floats, so that a bound past the float range is inf)
        end = int(np.searchsorted(t, float(t[start]) + max_interval,
                                  side="right"))
        end = min(end, start + max_count, n)
        windows.append(EventWindow.from_events(stream[start:end]))
        start = end
    return windows


# ---------------------------------------------------------------------------
# On-disk formats: text is `t u v p` per line (everything after a `#` is a
# comment), binary is the packed EVENT_DTYPE records.  Text integers parse
# as int64, so that a value outside EVENT_DTYPE's range is rejected, not
# wrapped.
_TEXT_DTYPE = np.dtype([("t", "f8"), ("u", "i8"), ("v", "i8"), ("p", "i8")])
_TEXT_MAX = {name: int(np.iinfo(EVENT_DTYPE[name]).max) for name in "uvp"}


def save_events_text(path: str | Path, events: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("# t u v p\n")
        for rec in events:
            fh.write(f"{float(rec['t'])!r} {rec['u']} {rec['v']} {rec['p']}\n")


def load_events_text(path: str | Path) -> np.ndarray:
    """Rows of `t u v p`; every error reads ``path:lineno: ...``."""
    try:
        with warnings.catch_warnings():     # no rows is zero events
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, dtype=_TEXT_DTYPE, comments="#", ndmin=1)
    except ValueError as exc:
        raise _first_bad_line(path, str(exc)) from None
    for name, top in _TEXT_MAX.items():
        if rows.size and not 0 <= rows[name].min() <= rows[name].max() <= top:
            raise _first_bad_line(path, "a value is out of range")
    return make_events(rows["t"], rows["u"], rows["v"], rows["p"])


def _first_bad_line(path, fallback: str) -> ValueError:
    """The error of the first line that does not parse or holds a value out
    of range; ``np.loadtxt`` counts rows, not lines, so this runs on failure."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if len(parts) != 4:
                    raise ValueError(f"expected 't u v p', got {line.strip()!r}")
                float(parts[0])
                for (name, top), text in zip(_TEXT_MAX.items(), parts[1:]):
                    if not 0 <= int(text) <= top:
                        raise ValueError(f"{name} {text} outside 0..{top}")
            except ValueError as err:
                return ValueError(f"{path}:{lineno}: {err}")
    # np.loadtxt rejected a value Python parses (say `1_0`)
    return ValueError(f"{path}: {fallback}")


def save_events_binary(path: str | Path, events: np.ndarray) -> None:
    np.ascontiguousarray(events, dtype=EVENT_DTYPE).tofile(path)


def load_events_binary(path: str | Path) -> np.ndarray:
    size = Path(path).stat().st_size
    if size % EVENT_DTYPE.itemsize:
        raise ValueError(f"{path}: {size} bytes is not a whole number of "
                         f"{EVENT_DTYPE.itemsize}-byte event records")
    return np.fromfile(path, dtype=EVENT_DTYPE)


def load_events(path: str | Path) -> np.ndarray:
    """Dispatch on extension: .bin/.dat binary, anything else text."""
    suffix = Path(path).suffix.lower()
    if suffix in (".bin", ".dat"):
        return load_events_binary(path)
    return load_events_text(path)
