"""One fresh process of the benchmark; perfbench/run.py launches it.

    child.py setup EVENTS CAMERA TRACK MAX_COUNT MAX_INTERVAL
        Import evdepth.cli, load and window the inputs, then print the
        monotonic clock; the launcher subtracts its reading at the spawn.

    child.py depth -- EVDEPTH_ARGS...
    child.py trace SPANS_JSON -- EVDEPTH_ARGS...
        Run ``evdepth.cli.main`` once and shut the worker pool down, then
        print a JSON line with the exit code, wall time and peak RSS of this
        process and of its largest pool worker.  ``trace`` also records spans
        around every public function on the depth path and writes them to
        SPANS_JSON.

A fresh process per run matters: ``costvol`` caches its fork pool per
process, and every CLI invocation pays that pool's start-up.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def _setup(events_path, camera_path, track_path, max_count, max_interval):
    import evdepth.cli  # noqa: F401  (the import is part of what is timed)
    from evdepth.events import form_windows, load_events
    from evdepth.motion import load_camera, load_track

    stream = load_events(events_path)
    load_camera(camera_path)
    load_track(track_path)
    form_windows(stream, int(max_count), float(max_interval))
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    return 0


def _run(cli_args, spans_path=None):
    from evdepth import cli, costvol

    tracer = None
    main = cli.main
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        main = tracer.wrap(cli.main, "cli.main")
    t0 = time.perf_counter()
    rc = main(cli_args)
    costvol.shutdown_pools()
    wall = time.perf_counter() - t0
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "missing": tracer.missing}, fh)
    kib = 1024.0
    print(json.dumps({
        "rc": rc, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "worker_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
    }), flush=True)
    return rc


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return _setup(*argv[1:])
    cli_args = argv[argv.index("--") + 1:]
    if mode == "depth":
        return _run(cli_args)
    if mode == "trace":
        return _run(cli_args, spans_path=argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
