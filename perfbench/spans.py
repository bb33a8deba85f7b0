"""Span tracing around evdepth's public functions, from outside ``src/``.

A module that does ``from .iwe import accumulate`` calls its own binding,
so each function is wrapped at the name its caller looks it up by (for
example ``costvol.accumulate``, not ``iwe.accumulate``).  Spans and counts
are kept in memory and written out once, when the traced run ends.

A span's self time is its duration minus the time its child spans cover;
spans nest strictly because the traced run is single-threaded
(``--threads 1`` keeps the sweep in-process).
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

MB = 2.0 ** 20


class Tracer:
    """Spans (name, start, end, parent) and counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [-1]
        self.missing: list[str] = []

    def wrap(self, fn, name, count=None):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1]]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result
        return traced

    def patch(self, module, attr, name, count=None):
        """Replace ``module.attr`` by its traced wrapper.  A boundary the
        program no longer has is recorded as missing, and its metrics read 0."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(fn, name, count))


def _accumulate_counts(args, iwe):
    n = len(args[0])
    return {"iwe.events_in": n, "iwe.events_kept": n - iwe.discarded}


def _score_counts(args, _):
    return {"focus.pixels_scored": args[0].size}


def _write_counts(args, _):
    return {"imgio.bytes_out": os.path.getsize(args[0])}


def _sweep_counts(args, result):
    volume = sum(v.scores.nbytes for v in result.volumes) + result.support.nbytes
    # What _sweep_chunk hands back; with --threads >= 2 all of it is pickled.
    returned = volume + result.discarded.nbytes + result.mass.nbytes
    return {"costvol.volume_bytes": volume, "costvol.returned_bytes": returned}


def install(tracer: Tracer) -> None:
    """Wrap every public function on the `evdepth depth` path."""
    from evdepth import cli, costvol, focus

    for module, attr, name, count in (
            (cli, "load_events", "events.load", None),
            (cli, "form_windows", "events.form_windows", None),
            (cli, "load_camera", "motion.load_camera", None),
            (cli, "load_track", "motion.load_track", None),
            (cli, "interpolate_velocity", "motion.interp", None),
            (cli, "average_velocity_norms", "motion.interp", None),
            (cli, "estimate_depth", "costvol.estimate", None),
            (cli, "write_pfm", "imgio.write", _write_counts),
            (cli, "write_pgm", "imgio.write", _write_counts),
            (costvol, "build_volume", "costvol.sweep", _sweep_counts),
            (costvol, "trend_filter", "costvol.trend", None),
            (costvol, "multiscale_fuse", "costvol.fuse", None),
            (costvol, "extract_depth", "costvol.extract", None),
            (costvol, "fill_depth", "costvol.fill", None),
            (costvol, "motion_field", "motion.field", None),
            (costvol, "accumulate", "iwe.accumulate", _accumulate_counts),
            (costvol, "build_pyramid", "iwe.pyramid", None),
            (costvol, "volume_score_map", "focus.score", _score_counts),
            (costvol, "box_window_sum", "focus.box_sum", None),
            (focus, "box_window_sum", "focus.box_sum", None)):
        tracer.patch(module, attr, name, count)


MODULES = ("events", "motion", "iwe", "focus", "costvol", "imgio", "cli")


def layer_metrics(spans, counts, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``wall_s`` is the traced process's own wall time around ``cli.main``;
    whatever no span covers is reported as ``trace.remainder_s``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
    module_self = defaultdict(float)
    for name, value in self_time.items():
        module_self[name.split(".")[0]] += value
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    events_in = counts.get("iwe.events_in", 0.0)

    metrics = {
        "events.load_s": total["events.load"],
        "events.form_windows_s": total["events.form_windows"],
        "motion.field_s": total["motion.field"],
        "motion.field_calls": calls["motion.field"],
        "motion.interp_s": total["motion.interp"],
        "iwe.accumulate_s": total["iwe.accumulate"],
        "iwe.accumulate_calls": calls["iwe.accumulate"],
        "iwe.events_in": events_in,
        "iwe.kept_ratio": (counts.get("iwe.events_kept", 0.0) / events_in
                           if events_in else 0.0),
        "iwe.pyramid_s": total["iwe.pyramid"],
        "focus.score_s": total["focus.score"],
        "focus.box_sum_s": total["focus.box_sum"],
        "focus.box_sum_calls": calls["focus.box_sum"],
        "focus.pixels_scored": counts.get("focus.pixels_scored", 0.0),
        "costvol.sweep_s": total["costvol.sweep"],
        "costvol.sweep_self_s": self_time["costvol.sweep"],
        "costvol.trend_s": total["costvol.trend"],
        "costvol.fuse_s": total["costvol.fuse"],
        "costvol.extract_s": total["costvol.extract"],
        "costvol.volume_mb": (counts.get("costvol.volume_bytes", 0.0)
                              / max(calls["costvol.sweep"], 1) / MB),
        "costvol.ipc_mb": counts.get("costvol.returned_bytes", 0.0) / MB,
        "imgio.write_s": total["imgio.write"],
        "imgio.bytes_out": counts.get("imgio.bytes_out", 0.0),
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - covered,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
    return metrics
