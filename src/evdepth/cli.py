"""Command-line surface: simulate, depth, eval, ablate.

Every run resolves its full configuration (defaults < --config file < flags)
and writes it to a manifest JSON in the output directory, so any result can
be reproduced bit for bit by pointing --config at the manifest.

Exit codes: 0 success, 1 runtime failure, 2 configuration problem.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .costvol import (FILL_POLICIES, FLAG_FILLED, FLAG_MEASURED,
                      AggregationConfig, SweepConfig, check_scales,
                      estimate_depth, inverse_depth_hypotheses, start_pool)
from .events import (check_stream, form_windows, load_events,
                     save_events_binary, save_events_text)
from .focus import CHANNELS, VOLUME_KINDS, FocusConfig
from .imgio import read_pfm, write_pfm, write_pgm
from .iwe import SPLATS
from .metrics import METRIC_COLUMNS, aggregate_reports, evaluate
from .motion import (CameraRig, flow_bound, inject_velocity_noise,
                     interpolate_velocity, load_camera, load_track,
                     average_velocity_norms, save_camera, save_track)
from .synth import generate, load_scene, save_scene

log = logging.getLogger("evdepth")


class ConfigError(Exception):
    """Invalid configuration or input files; maps to exit code 2."""


def _csv_floats(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_global_flags(p):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with defaults for any flag (flags override)")
    p.add_argument("--verbose", action="store_true")


def _add_depth_flags(p):
    p.add_argument("--events", type=Path, help="event stream (.txt or .bin)")
    p.add_argument("--camera", type=Path, help="camera intrinsics JSON")
    p.add_argument("--track", type=Path, help="velocity track file")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes for the hypothesis sweep")
    # The pipeline defaults are those of the default library configs.
    sweep, agg = SweepConfig(), AggregationConfig()
    p.add_argument("--objective", default=sweep.focus.kind,
                   choices=VOLUME_KINDS)
    p.add_argument("--fcd-weights", type=_csv_floats,
                   default=sweep.focus.weights,
                   help="comma-separated gradient-channel weights, one per "
                   f"channel {','.join(CHANNELS)}")
    p.add_argument("--window-radius", type=int, default=sweep.focus.window_radius,
                   help="side of the square focus and support window, "
                   "in pixels (odd)")
    p.add_argument("--sosa-lambda", type=float, default=sweep.focus.sosa_lambda)
    p.add_argument("--dmin", type=float, default=2.0)
    p.add_argument("--dmax", type=float, default=80.0)
    p.add_argument("--num-hypotheses", type=int, default=64)
    p.add_argument("--scales", type=int, default=sweep.num_scales)
    p.add_argument("--scale-weights", type=_csv_floats, default=sweep.scale_weights)
    p.add_argument("--trend-iters", type=int, default=agg.trend_iterations)
    p.add_argument("--peak-alpha", type=float, default=agg.peak_alpha)
    p.add_argument("--min-support", type=float, default=agg.min_support)
    p.add_argument("--fill", default=agg.fill, choices=FILL_POLICIES)
    p.add_argument("--splat", default=sweep.splat, choices=SPLATS)
    p.add_argument("--max-count", type=int, default=80_000)
    p.add_argument("--max-interval", type=float, default=0.2)


def build_parser():
    parser = argparse.ArgumentParser(prog="evdepth",
                                     description="plane-sweep depth from event streams")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_global_flags(sim)
    sim.add_argument("--scene", type=Path, help="scene spec JSON")
    sim.add_argument("--camera", type=Path, help="camera intrinsics JSON")
    sim.add_argument("--track", type=Path, help="velocity track file")
    sim.add_argument("--out", type=Path, help="output directory")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--duration", type=float, default=0.1)
    sim.add_argument("--events-per-edge", type=int, default=10)
    sim.add_argument("--jitter", type=float, default=0.0)
    sim.add_argument("--format", default="text", choices=["text", "binary"])

    dep = sub.add_parser("depth", help="estimate depth maps from an event stream")
    _add_global_flags(dep)
    _add_depth_flags(dep)
    dep.add_argument("--noise", type=float, default=0.0,
                     help="velocity noise level as a fraction of the velocity norm")

    ev = sub.add_parser("eval", help="score predicted depth maps against truth")
    _add_global_flags(ev)       # and no --seed: grading draws no random numbers
    ev.add_argument("--pred", type=Path, help="directory of predicted .pfm maps")
    ev.add_argument("--truth", type=Path,
                    help="truth .pfm file, or directory matched by filename")
    ev.add_argument("--max-depth", type=float, default=80.0)
    ev.add_argument("--out", type=Path, default=None,
                    help="directory for report JSON (default: print only)")

    ab = sub.add_parser("ablate", help="velocity-noise robustness sweep")
    _add_global_flags(ab)
    _add_depth_flags(ab)
    ab.add_argument("--truth", type=Path, help="ground-truth depth .pfm")
    ab.add_argument("--levels", type=_csv_floats, default=(0.0, 0.1, 0.2, 0.5, 1.0))
    ab.add_argument("--trials", type=int, default=10,
                    help="noise seeds per level")
    ab.add_argument("--max-depth", type=float, default=80.0)

    parser.subcommands = {"simulate": sim, "depth": dep, "eval": ev, "ablate": ab}
    return parser


def _config_value(parser, action, value):
    """Parse one --config value as the command line parses its flag: null
    keeps a default of None, a list stands for a comma-separated value, and
    anything else goes through the flag's type and choices."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0 and isinstance(value, bool):   # --verbose
        return value
    if isinstance(value, list) and action.type is _csv_floats:
        value = ",".join(str(x) for x in value)
    if (action.nargs == 0 or isinstance(value, bool)
            or not isinstance(value, (str, int, float))):
        raise ConfigError(f"{action.dest}: {value!r} is not a value of "
                          f"{action.option_strings[0]}")
    try:
        parsed = parser._get_value(action, str(value))
        parser._check_value(action, parsed)
    except argparse.ArgumentError as exc:
        raise ConfigError(f"{action.dest}: {exc.message}") from exc
    return parsed


def _merge_config(argv, parser):
    """Apply --config file values as defaults, keeping flag precedence.  A
    manifest's ``config`` object is read; keys that are not flags are ignored."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    path = probe.parse_known_args(argv)[0].config
    subparser = parser.subcommands.get(argv[0] if argv else "")
    if path is None or subparser is None:
        return
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "config" in raw:
            raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError("not a JSON object")
        actions = {a.dest: a for a in subparser._actions
                   if a.dest not in ("help", "config")}
        subparser.set_defaults(**{
            key: _config_value(subparser, actions[key], value)
            for key, value in raw.items() if key in actions})
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _check_finite(flag, value, positive=False):
    """Reject a NaN, infinite or negative flag value, and zero if ``positive``."""
    if not (0 < value < np.inf if positive else 0 <= value < np.inf):
        raise ConfigError(f"{flag} must be finite and {'>' if positive else '>='} 0, "
                          f"got {value}")


def _parse_input(loader, path, what):
    """Load an input file; a missing or malformed file is a configuration
    error naming the file."""
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return loader(path)
    except ValueError as exc:
        # A loader that names the file starts its message with the path.
        msg = str(exc) if str(exc).startswith(str(path)) else f"{path}: {exc}"
        raise ConfigError(f"{what} {msg}") from exc


def _write_manifest(out_dir, command, args):
    """Make the output directory and write the resolved flags to its
    manifest.json, which --config reads back."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = {key: value for key, value in vars(args).items()
           if key not in ("command", "config", "verbose")}
    manifest = {"tool": "evdepth", "version": __version__,
                "command": command, "config": cfg}
    with open(out_dir / "manifest.json", "w") as fh:
        # Tuples are written as lists and paths (via ``default``) as strings.
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_rig(args) -> CameraRig:
    intrinsics = _parse_input(load_camera, args.camera, "camera config")
    # The rig checks the track's timestamps, so its errors name the track.
    return _parse_input(lambda path: CameraRig(intrinsics, load_track(path)),
                        args.track, "velocity track")


def _sensor(args, rig) -> str:
    """The sensor a run's windows are swept on, for a MemoryError message."""
    return (f"the {rig.intrinsics.width}x{rig.intrinsics.height} sensor of "
            f"camera config {args.camera}")


def _load_windows(args, hyp, sweep):
    """The camera rig, checked against --scales, and the windows of a
    non-empty event stream that fits its sensor.  The sweep's pool is
    forked in between, so that its workers hold no copy of the stream, and
    a window too large to hold fails before the stream loads."""
    rig = _load_rig(args)
    # the rig bounds the flow at 1 m; nearer hypotheses scale it up
    if not max(flow_bound(rig.intrinsics, s, args.dmin) for s in rig.track) < np.inf:
        raise ConfigError(f"--dmin must be large enough that velocity track "
                          f"{args.track} gives a finite flow, got {args.dmin}")
    try:
        check_scales(args.scales, rig.intrinsics)
    except ValueError as exc:
        raise ConfigError(f"--scales: {exc}") from exc
    try:
        start_pool(sweep, hyp, rig.intrinsics)
    except MemoryError as exc:
        raise MemoryError(f"{_sensor(args, rig)}: {exc}") from exc
    events = _parse_input(load_events, args.events, "event stream")
    if len(events) == 0:
        raise ConfigError(f"event stream is empty: {args.events}")
    try:
        check_stream(events, *rig.intrinsics.resolution)
    except ValueError as exc:
        raise ConfigError(f"event stream {args.events}: {exc}") from exc
    windows = form_windows(events, args.max_count, args.max_interval)
    log.info("%d events -> %d windows", len(events), len(windows))
    return rig, windows


def cmd_simulate(args) -> int:
    _require(args, "scene", "camera", "track", "out")
    _check_finite("--duration", args.duration, positive=True)
    _check_finite("--jitter", args.jitter)
    if args.events_per_edge < 1:
        raise ConfigError(f"--events-per-edge must be >= 1, got {args.events_per_edge}")
    scene = _parse_input(load_scene, args.scene, "scene spec")
    rig = _load_rig(args)
    t_ref = rig.track[-1].t
    try:
        interpolate_velocity(rig.track, t_ref - args.duration, t_ref)
    except ValueError as exc:
        raise ConfigError(f"--duration must be small enough that velocity "
                          f"track {args.track} has a finite average over "
                          f"it, got {args.duration}") from exc
    try:
        window, truth = generate(scene, rig, args.duration,
                                 args.events_per_edge, seed=args.seed,
                                 jitter=args.jitter)
    except ValueError as exc:
        raise ValueError(f"scene {args.scene} on camera {args.camera}: "
                         f"{exc}") from exc
    _write_manifest(args.out, "simulate", args)
    if args.format == "binary":
        events_path = args.out / "events.bin"
        save_events_binary(events_path, window.events)
    else:
        events_path = args.out / "events.txt"
        save_events_text(events_path, window.events)
    save_camera(args.out / "camera.json", rig.intrinsics)
    save_track(args.out / "track.txt", rig.track)
    save_scene(args.out / "scene.json", scene)
    write_pfm(args.out / "truth.pfm", truth.depth)
    log.info("wrote %d events to %s", len(window.events), events_path)
    print(f"simulate: {len(window.events)} events -> {args.out}")
    return 0


# The config fields and ``inverse_depth_hypotheses`` parameters that flags
# set, whose range errors start with the field's name.
_FIELD_FLAGS = {"d_min": "--dmin", "d_max": "--dmax", "count": "--num-hypotheses",
                "weights": "--fcd-weights", "num_scales": "--scales", "workers": "--threads",
                "window_radius": "--window-radius", "scale_weights": "--scale-weights",
                "trend_iterations": "--trend-iters", "peak_alpha": "--peak-alpha",
                "min_support": "--min-support"}


def _pipeline_configs(args):
    """The hypothesis set and the sweep and aggregation configs of a run.

    The configs check their own fields, and an error that starts with a
    field in ``_FIELD_FLAGS`` names its flag instead.  The checks made here
    have no config field."""
    if args.max_count < 1:
        raise ConfigError(f"--max-count must be >= 1, got {args.max_count}")
    if not args.max_interval > 0:
        raise ConfigError(f"--max-interval must be > 0, got {args.max_interval}")
    try:
        hyp = inverse_depth_hypotheses(args.dmin, args.dmax, args.num_hypotheses)
        # Refined depths lie between the bounds, so a float32 map holds them.
        f32 = np.finfo(np.float32)
        lo, hi = float(f32.tiny), float(f32.max)
        for flag, bound in (("--dmin", args.dmin), ("--dmax", args.dmax)):
            if not lo <= bound <= hi:
                raise ConfigError(f"{flag} must be in [{lo}, {hi}] to fit a "
                                  f"float32 depth map, got {bound}")
        focus = FocusConfig(kind=args.objective,
                            weights=args.fcd_weights,
                            window_radius=args.window_radius,
                            sosa_lambda=args.sosa_lambda)
        sweep = SweepConfig(focus=focus, num_scales=args.scales,
                            scale_weights=args.scale_weights,
                            splat=args.splat, workers=args.threads)
        agg = AggregationConfig(trend_iterations=args.trend_iters,
                                peak_alpha=args.peak_alpha,
                                min_support=args.min_support,
                                fill=args.fill)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        flag = _FIELD_FLAGS.get(field)
        raise ConfigError(f"{flag} {rest}" if flag else str(exc)) from exc
    return hyp, sweep, agg


def _depth_maps(args, rig, windows, hyp, sweep, agg, level, level_index,
                trial, where):
    """Yield ``(i, window, depth_map, summary, seconds)`` per window, under
    velocity noise ``level`` > 0 of the window's mean velocity norms.  A
    MemoryError, a span too long to average the velocity over, or a level
    whose noisy velocity overflows the flow, names the window, after
    ``where``."""
    for i, window in enumerate(windows):
        t0 = time.perf_counter()
        t_first = float(window.events["t"][0])
        try:
            vel = interpolate_velocity(rig.track, t_first, window.t_ref)
            if level > 0:
                norms = average_velocity_norms(rig.track, t_first, window.t_ref)
        except ValueError as exc:
            raise ConfigError(f"velocity track {args.track} over {where}window "
                              f"{i} of event stream {args.events}: {exc}"
                              ) from exc
        if level > 0:
            seed = np.random.SeedSequence([args.seed, level_index, i, trial])
            try:          # a component beyond the float range is a ValueError
                vel = inject_velocity_noise(
                    vel, level, int(seed.generate_state(1)[0]), *norms)
                finite = flow_bound(rig.intrinsics, vel, args.dmin) < np.inf
            except ValueError:
                finite = False
            if not finite:
                flag = "--noise" if args.command == "depth" else "--levels"
                raise ConfigError(f"{flag} must be small enough that the "
                                  f"velocity of {where}window {i} gives a "
                                  f"finite flow, got {level}")
        try:
            depth_map, summary = estimate_depth(window, rig.intrinsics, vel,
                                                hyp, sweep, agg)
        except MemoryError as exc:
            raise MemoryError(f"{where}window {i} on {_sensor(args, rig)}: "
                              f"{exc}") from exc
        yield i, window, depth_map, summary, time.perf_counter() - t0


def _evaluate(pred, truth, max_depth, where):
    """``evaluate``, whose error names the maps graded by ``where``."""
    try:
        return evaluate(pred, truth, max_depth=max_depth)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def cmd_depth(args) -> int:
    _require(args, "events", "camera", "track", "out")
    _check_finite("--noise", args.noise)
    hyp, sweep, agg = _pipeline_configs(args)
    rig, windows = _load_windows(args, hyp, sweep)
    _write_manifest(args.out, "depth", args)

    for i, window, depth_map, summary, elapsed in _depth_maps(
            args, rig, windows, hyp, sweep, agg, args.noise, 0, 0, ""):
        write_pfm(args.out / f"depth_{i:04d}.pfm", depth_map.depth)
        # one grey level per flag, so that masks of any run compare
        flags = depth_map.flags
        write_pgm(args.out / f"mask_{i:04d}.pgm",
                  np.select([flags == FLAG_MEASURED, flags == FLAG_FILLED],
                            [255, 128]))     # invalid: 0
        write_pfm(args.out / f"confidence_{i:04d}.pfm", depth_map.confidence)
        diag = {
            "window": i,
            "t_ref": window.t_ref,
            "t_span": window.t_span,
            "n_events": len(window.events),
            "n_valid_pixels": int(depth_map.valid.sum()),
            "discarded": [int(x) for x in summary.discarded],
            "iwe_mass": [float(len(window) - n) for n in summary.discarded],
            "hypotheses": [round(float(d), 6) for d in hyp.depths],
            "score_curves": {f"{y},{x}": [round(float(s), 6) for s in curve]
                             for (y, x), curve in summary.curves.items()},
            "timing_s": elapsed,
            "workers": args.threads,
        }
        with open(args.out / f"diag_{i:04d}.json", "w") as fh:
            json.dump(diag, fh, indent=2)
            fh.write("\n")
        log.info("window %d: %d events, %.2fs, %d valid pixels",
                 i, len(window.events), elapsed, int(depth_map.valid.sum()))
    print(f"depth: {len(windows)} window(s) -> {args.out}")
    return 0


def _pair_predictions(pred_dir, truth_arg):
    preds = sorted(Path(pred_dir).glob("depth_*.pfm"))
    if not preds:
        preds = sorted(p for p in Path(pred_dir).glob("*.pfm")
                       if not p.name.startswith(("confidence", "truth")))
    if not preds:
        raise ConfigError(f"no .pfm predictions found in {pred_dir}")
    truth_path = Path(truth_arg)
    if truth_path.is_file():
        return [(p, truth_path) for p in preds]
    if not truth_path.is_dir():
        raise ConfigError(f"truth not found: {truth_path}")
    pairs, missing = [], []
    for p in preds:
        t = truth_path / p.name
        (pairs if t.is_file() else missing).append((p, t))
    if missing:
        names = ", ".join(str(t) for _, t in missing)
        raise ConfigError(f"unmatched prediction/truth files: {names}")
    return pairs


def cmd_eval(args) -> int:
    _require(args, "pred", "truth")
    _check_finite("--max-depth", args.max_depth, positive=True)
    pairs = _pair_predictions(args.pred, args.truth)
    reports = [(pred_path.name,
                _evaluate(read_pfm(pred_path), read_pfm(truth_path),
                          args.max_depth, f"{pred_path} against {truth_path}"))
               for pred_path, truth_path in pairs]
    total = aggregate_reports([r for _, r in reports])
    if args.out is not None:
        _write_manifest(args.out, "eval", args)
        for name, report in reports:
            stem = Path(name).stem
            with open(args.out / f"report_{stem}.json", "w") as fh:
                fh.write(report.to_json() + "\n")
        with open(args.out / "report_aggregate.json", "w") as fh:
            fh.write(total.to_json() + "\n")
    print(total.table())
    return 0


def cmd_ablate(args) -> int:
    _require(args, "events", "camera", "track", "truth", "out")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    for level in args.levels:
        _check_finite("--levels", level)
    _check_finite("--max-depth", args.max_depth, positive=True)
    hyp, sweep, agg = _pipeline_configs(args)
    rig, windows = _load_windows(args, hyp, sweep)
    truth = _parse_input(read_pfm, args.truth, "ground-truth depth")
    sensor = (rig.intrinsics.height, rig.intrinsics.width)
    if truth.shape != sensor:
        raise ConfigError(f"ground-truth depth {args.truth}: shape "
                          f"{truth.shape[1]}x{truth.shape[0]} does not match the "
                          f"camera's {sensor[1]}x{sensor[0]} sensor")
    _write_manifest(args.out, "ablate", args)

    # the distance-cutoff errors are left out of the medians and the table
    names = [c for c in METRIC_COLUMNS if not c.startswith("cutoff_")]
    rows = []
    for li, level in enumerate(args.levels):
        trial_reports = []
        for trial in range(args.trials if level > 0 else 1):
            where = f"noise {level:g} trial {trial} "
            trial_reports.append(aggregate_reports(
                _evaluate(depth_map.depth, truth, args.max_depth,
                          f"{where}window {i} against {args.truth}")
                for i, _, depth_map, _, _ in _depth_maps(
                    args, rig, windows, hyp, sweep, agg, level, li, trial,
                    where)))
        medians = {name: float(np.median([getattr(r, name)
                                          for r in trial_reports]))
                   for name in names}
        rows.append({"level": level, "trials": len(trial_reports), **medians})
        log.info("noise %.0f%%: median abs_rel %.4f",
                 100 * level, medians["abs_rel"])

    cols = ["level", *names]
    lines = ["  ".join(c.rjust(8) for c in cols)]
    for row in rows:
        lines.append("  ".join(f"{row[c]:8.4f}" for c in cols))
    table = "\n".join(lines)
    with open(args.out / "ablation.json", "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    (args.out / "ablation.txt").write_text(table + "\n")
    print(table)
    return 0


COMMANDS = {"simulate": cmd_simulate, "depth": cmd_depth,
            "eval": cmd_eval, "ablate": cmd_ablate}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _merge_config(argv, parser)
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:    # covers a --config seed too
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(message)s")
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
