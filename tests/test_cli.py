"""End-to-end command-line runs: simulate -> depth -> eval, plus the
manifest replay and failure exit codes."""

import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evdepth import cli, costvol, pool
from evdepth.cli import main
from evdepth.costvol import shutdown_pools
from evdepth.events import load_events, save_events_binary
from evdepth.imgio import read_pfm, read_pgm, write_pfm
from evdepth.motion import CameraIntrinsics, VelocitySample, save_camera, save_track
from evdepth.synth import SceneSpec, save_scene

BASE = ["--dmin", "2", "--dmax", "50", "--num-hypotheses", "16",
        "--scales", "1", "--threads", "1"]
FAST = [*BASE, "--fcd-weights", "1,0,1,0,0,0"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A simulated plane scene with its input configs and event stream."""
    root = tmp_path_factory.mktemp("dataset")
    save_scene(root / "scene.json",
               SceneSpec(kind="plane", depths=(10.0,), edge_spacing=10))
    save_camera(root / "camera.json",
                CameraIntrinsics(f=200.0, cu=32.0, cv=32.0, width=64, height=64))
    save_track(root / "track.txt",
               (VelocitySample(t=0.0, linear=(1.0, 0.0, 0.0),
                               angular=(0.0, 0.0, 0.0)),))
    rc = main(["simulate", "--scene", str(root / "scene.json"),
               "--camera", str(root / "camera.json"),
               "--track", str(root / "track.txt"),
               "--out", str(root / "sim"),
               "--events-per-edge", "10", "--seed", "1"])
    assert rc == 0
    return root


def inputs(dataset):
    return ["--events", str(dataset / "sim" / "events.txt"),
            "--camera", str(dataset / "camera.json"),
            "--track", str(dataset / "track.txt")]


def huge_camera(tmp_path):
    """A camera config of a 10,000,000 x 10,000,000 sensor, whose window
    at 4 hypotheses and 1 scale takes 6.39 PiB."""
    camera = tmp_path / "huge_camera.json"
    save_camera(camera, CameraIntrinsics(f=200.0, cu=32.0, cv=32.0,
                                         width=10_000_000, height=10_000_000))
    return camera


def run_depth(dataset, out, extra=()):
    return main(["depth", *inputs(dataset), "--out", str(out), *FAST, *extra])


def assert_same_run(a, b):
    """Two depth runs resolved the same config (apart from --out) and wrote
    bitwise-equal maps."""
    configs = [json.loads((d / "manifest.json").read_text())["config"]
               for d in (a, b)]
    for cfg in configs:
        del cfg["out"]
    assert configs[0] == configs[1]
    names = sorted(p.name for p in a.glob("*_*.p[fg]m"))
    assert names == sorted(p.name for p in b.glob("*_*.p[fg]m"))
    assert names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestSimulate:
    def test_outputs_written(self, dataset):
        sim = dataset / "sim"
        for name in ("events.txt", "camera.json", "track.txt", "scene.json",
                     "truth.pfm", "manifest.json"):
            assert (sim / name).is_file()
        truth = read_pfm(sim / "truth.pfm")
        assert truth.shape == (64, 64)
        assert (truth == 10.0).all()

    def test_missing_scene_file_is_config_error(self, dataset, tmp_path):
        rc = main(["simulate", "--scene", str(tmp_path / "absent.json"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_required_flag_is_config_error(self, dataset, tmp_path):
        rc = main(["simulate", "--scene", str(dataset / "scene.json"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt")])
        assert rc == 2

    @pytest.mark.parametrize("raw", [
        {"kind": "plane", "depths": [10.0], "edge_spacng": 10},
        {"kind": "plane"}], ids=["unknown_key", "missing_key"])
    def test_bad_scene_key_is_config_error(self, dataset, tmp_path, capsys,
                                           raw):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(raw))
        rc = main(["simulate", "--scene", str(scene),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scene spec {scene}: ")
        assert err.count(str(scene)) == 1
        assert not (tmp_path / "out").exists()

    def test_scene_without_events_names_scene_and_writes_nothing(
            self, dataset, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        save_scene(scene, SceneSpec(kind="striped", depths=(10.0,),
                                    period=4, band=(500, 600)))
        rc = main(["simulate", "--scene", str(scene),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scene {scene} on camera "
                              f"{dataset / 'camera.json'}: ")
        assert "no in-bounds events" in err
        assert not (tmp_path / "out").exists()

    def test_binary_format(self, dataset, tmp_path):
        rc = main(["simulate", "--scene", str(dataset / "scene.json"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "simbin"),
                   "--events-per-edge", "3", "--format", "binary"])
        assert rc == 0
        assert (tmp_path / "simbin" / "events.bin").is_file()


class TestDepth:
    def test_round_trip_and_eval(self, dataset, tmp_path):
        out = tmp_path / "depth"
        assert run_depth(dataset, out) == 0
        for name in ("depth_0000.pfm", "mask_0000.pgm",
                     "confidence_0000.pfm", "diag_0000.json", "manifest.json"):
            assert (out / name).is_file()

        depth = read_pfm(out / "depth_0000.pfm")
        valid = depth > 0
        assert valid.any()
        # grade only the collapse columns (the texture edges at 5, 15, ...);
        # pixels between edges carry no signal and arbitrary depth
        on_edge = np.zeros(64, dtype=bool)
        on_edge[5::10] = True
        sel = valid & on_edge[None, :]
        assert sel.any()
        assert np.median(np.abs(depth[sel] - 10.0)) < 2.0

        rc = main(["eval", "--pred", str(out),
                   "--truth", str(dataset / "sim" / "truth.pfm"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        with open(tmp_path / "eval" / "report_aggregate.json") as fh:
            report = json.load(fh)
        assert report["n_eval"] > 0
        assert np.isfinite(report["abs_rel"])

    def test_diagnostics_content(self, dataset, tmp_path):
        out = tmp_path / "depth"
        assert run_depth(dataset, out) == 0
        with open(out / "diag_0000.json") as fh:
            diag = json.load(fh)
        assert diag["n_events"] > 0
        assert len(diag["hypotheses"]) == 16
        assert len(diag["iwe_mass"]) == 16
        # every kept event splats unit mass
        assert diag["iwe_mass"] == [float(diag["n_events"] - n)
                                    for n in diag["discarded"]]
        assert diag["score_curves"]

    def test_timing_keeps_every_digit(self, dataset, tmp_path, monkeypatch):
        # each window's time is written as measured, not rounded
        clock = itertools.cycle([2.0, 2.0123456789012345])
        monkeypatch.setattr("evdepth.cli.time.perf_counter",
                            lambda: next(clock))
        out = tmp_path / "depth"
        assert run_depth(dataset, out) == 0
        elapsed = 2.0123456789012345 - 2.0
        assert round(elapsed, 4) != elapsed
        diags = sorted(out.glob("diag_*.json"))
        assert diags
        for diag in diags:
            assert json.loads(diag.read_text())["timing_s"] == elapsed

    def test_sensor_too_large_to_allocate_names_the_camera(self, dataset,
                                                           tmp_path, capsys):
        # one worker maps 6.39 PiB of fresh memory for its window before the
        # stream loads, which fails at once and touches no memory
        camera = huge_camera(tmp_path)
        rc = main(["depth", "--events", str(dataset / "sim" / "events.txt"),
                   "--camera", str(camera),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out"), *FAST,
                   "--num-hypotheses", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the 10000000x10000000 sensor of camera "
                              f"config {camera}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_arena_too_large_to_map_names_the_camera(self, dataset, tmp_path):
        # the parent cannot map the window's 6.39 PiB arena, a sparse memfd,
        # which fails at once, touches no memory and forks no worker.  The
        # run is a separate process, so that any worker's stderr is read
        # too, and its pipes reach end of file only once no worker holds them.
        camera = huge_camera(tmp_path)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "evdepth.cli", "depth",
             "--events", str(dataset / "sim" / "events.txt"),
             "--camera", str(camera), "--track", str(dataset / "track.txt"),
             "--out", str(tmp_path / "out"), *FAST, "--num-hypotheses", "4",
             "--threads", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 1
        assert run.stderr == (
            "error: the 10000000x10000000 sensor of camera config "
            f"{camera}: cannot map the 7200000000000032-byte window arena: "
            "[Errno 12] Cannot allocate memory\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_oversized_sensor_fails_before_the_stream_loads(
            self, dataset, tmp_path, capsys, threads):
        # the event stream is missing, so a run that loaded it would exit 2
        camera = huge_camera(tmp_path)
        try:
            rc = main(["depth", "--events", str(tmp_path / "missing.txt"),
                       "--camera", str(camera),
                       "--track", str(dataset / "track.txt"),
                       "--out", str(tmp_path / "out"), *FAST,
                       "--num-hypotheses", "4", "--threads", threads])
        finally:
            shutdown_pools()
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: the 10000000x10000000 sensor of "
                                   f"camera config {camera}: ")

    def test_noise_runs_are_seed_deterministic(self, dataset, tmp_path):
        a = tmp_path / "noise_a"
        b = tmp_path / "noise_b"
        assert run_depth(dataset, a, ["--noise", "0.5", "--seed", "7"]) == 0
        assert run_depth(dataset, b, ["--noise", "0.5", "--seed", "7"]) == 0
        assert ((a / "depth_0000.pfm").read_bytes()
                == (b / "depth_0000.pfm").read_bytes())
        c = tmp_path / "noise_c"
        assert run_depth(dataset, c, ["--noise", "0.5", "--seed", "8"]) == 0
        assert ((a / "depth_0000.pfm").read_bytes()
                != (c / "depth_0000.pfm").read_bytes())

    def test_killed_pool_worker_exits_1(self, dataset, tmp_path, monkeypatch,
                                        capsys):
        # a worker killed mid-window (SIGKILL, as the OOM killer sends) fails
        # the run; the run is in a thread, so that a hang fails the test
        parent, score = os.getpid(), costvol.volume_score_map

        def killing_score(grid, config, out=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return score(grid, config, out)

        shutdown_pools()              # the pools fork with the killing scorer
        monkeypatch.setattr(costvol, "volume_score_map", killing_score)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(run_depth(
            dataset, tmp_path / "out", ["--threads", "2"])), daemon=True)
        thread.start()
        thread.join(timeout=30)
        hung = thread.is_alive()
        if not hung:                  # a hung run may hold the pool lock
            shutdown_pools()
        assert not hung
        assert codes == [1]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: pool worker ")

    def test_manifest_replays_bitwise(self, dataset, tmp_path):
        first = tmp_path / "first"
        assert run_depth(dataset, first, ["--window-radius", "3"]) == 0
        replay = tmp_path / "replay"
        rc = main(["depth", "--config", str(first / "manifest.json"),
                   "--out", str(replay)])
        assert rc == 0
        assert ((first / "depth_0000.pfm").read_bytes()
                == (replay / "depth_0000.pfm").read_bytes())

    def test_flags_override_config_file(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_hypotheses": 16, "scales": 1}))
        out = tmp_path / "override"
        rc = main(["depth", "--config", str(cfg),
                   "--events", str(dataset / "sim" / "events.txt"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(out),
                   "--dmin", "2", "--dmax", "50", "--threads", "1",
                   "--num-hypotheses", "8"])
        assert rc == 0
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["num_hypotheses"] == 8   # flag wins
        assert manifest["config"]["scales"] == 1           # config applies

    def test_every_pipeline_flag_replays_from_manifest(self, dataset, tmp_path):
        first, replay = tmp_path / "first", tmp_path / "replay"
        try:
            assert main([
                "depth", *inputs(dataset), "--out", str(first),
                "--threads", "2", "--seed", "5", "--objective", "var",
                "--fcd-weights", "1,0,2,0,0,0.5", "--window-radius", "3",
                "--sosa-lambda", "2.5", "--dmin", "3", "--dmax", "40",
                "--num-hypotheses", "12", "--scales", "2",
                "--scale-weights", "1,0.5", "--trend-iters", "2",
                "--peak-alpha", "0.5", "--min-support", "1.5",
                "--fill", "nearest-valid", "--splat", "nearest",
                "--max-count", "2000", "--max-interval", "0.05",
                "--noise", "0.1"]) == 0
            assert main(["depth", "--config", str(first / "manifest.json"),
                         "--out", str(replay)]) == 0
        finally:
            shutdown_pools()
        assert_same_run(first, replay)
        assert len(list(first.glob("depth_*.pfm"))) > 1

    @pytest.mark.parametrize("key, value", [
        ("window_radius", "3"), ("fcd_weights", "1,0,1,0,0,0")])
    def test_config_string_runs_like_its_flag(self, dataset, tmp_path, key,
                                              value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        assert main(["depth", *inputs(dataset), "--out", str(tmp_path / "a"),
                     *BASE, flag, value]) == 0
        assert main(["depth", "--config", str(cfg), *inputs(dataset),
                     "--out", str(tmp_path / "b"), *BASE]) == 0
        assert_same_run(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("text", [
        '{"fill": "bogus"}', '{"splat": "bogus"}', '{"num_hypotheses": 2.5}',
        '{"max_count": 1.5}', '{"threads": "two"}', "[1, 2]", "{fill: none",
        '{"fill": "median-window"}'],
        ids=["fill", "splat", "num_hypotheses", "max_count", "threads",
             "not_an_object", "not_json", "fill_median_window"])
    def test_bad_config_file_is_config_error(self, dataset, tmp_path, capsys,
                                             text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = run_depth(dataset, tmp_path / "out", ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: config file {cfg}: ")
        assert not (tmp_path / "out").exists()

    def test_all_zero_fcd_weights_is_config_error(self, dataset, tmp_path,
                                                  capsys):
        rc = run_depth(dataset, tmp_path / "out",
                       ["--fcd-weights", "0,0,0,0,0,0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --fcd-weights must hold a nonzero channel weight\n")
        assert not (tmp_path / "out").exists()

    def test_bad_float_list_is_config_error(self, dataset, tmp_path, capsys):
        # the flag's type rejects the list, and so it does in a --config file
        with pytest.raises(SystemExit) as exc:
            run_depth(dataset, tmp_path / "out", ["--fcd-weights", "1,x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --fcd-weights: not a comma-separated float list: "
            "'1,x'\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"fcd_weights": "1,x"}')
        rc = run_depth(dataset, tmp_path / "out", ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config file {cfg}: fcd_weights: not a comma-separated "
            "float list: '1,x'\n")
        assert not (tmp_path / "out").exists()

    def test_scalar_only_objective_is_config_error(self, dataset, tmp_path):
        # --objective offers only the kinds with a per-pixel score map
        for kind in ("sti", "sosa"):
            with pytest.raises(SystemExit) as exc:
                run_depth(dataset, tmp_path / "out", ["--objective", kind])
            assert exc.value.code == 2
            assert not (tmp_path / "out").exists()

    def test_median_window_fill_is_not_a_choice(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_depth(dataset, tmp_path / "out", ["--fill", "median-window"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_mask_grey_level_per_flag(self, dataset, tmp_path):
        # invalid 0, measured 255, filled 128, whatever else the map holds
        masks = {}
        for fill in ("none", "nearest-valid"):
            assert run_depth(dataset, tmp_path / fill, ["--fill", fill]) == 0
            masks[fill] = read_pgm(tmp_path / fill / "mask_0000.pgm")
        measured = masks["none"] == 255
        assert measured.any() and not measured.all()
        assert set(np.unique(masks["none"])) == {0, 255}
        assert np.array_equal(masks["nearest-valid"] == 255, measured)
        assert (masks["nearest-valid"][~measured] == 128).all()

    def test_fill_with_nothing_measured_leaves_all_invalid(self, dataset,
                                                          tmp_path):
        out = tmp_path / "out"
        assert run_depth(dataset, out, ["--min-support", "1e9",
                                        "--fill", "nearest-valid"]) == 0
        assert not read_pgm(out / "mask_0000.pgm").any()

    def test_bad_window_radius_is_config_error(self, dataset, tmp_path):
        rc = run_depth(dataset, tmp_path / "out", ["--window-radius", "4"])
        assert rc == 2

    def test_missing_config_file_is_config_error(self, dataset, tmp_path,
                                                 capsys):
        cfg = tmp_path / "absent.json"
        rc = run_depth(dataset, tmp_path / "out", ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config file not found: {cfg}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1"])
    def test_peak_alpha_out_of_range_in_config_names_the_flag(
            self, dataset, tmp_path, capsys, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"peak_alpha": {alpha}}}')
        rc = run_depth(dataset, tmp_path / "out", ["--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --peak-alpha must be in [0, 1], got {alpha}\n")
        assert not (tmp_path / "out").exists()

    def test_missing_events_is_config_error(self, dataset, tmp_path):
        rc = main(["depth", "--events", str(tmp_path / "no.txt"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out"), *FAST])
        assert rc == 2


DEPTH_DESTS = sorted(a.dest for a in cli.build_parser().subcommands["depth"]._actions
                     if a.dest not in ("help", "config"))
# Integers and strings stay small: a valid but huge --num-hypotheses would
# allocate its hypothesis grid, which is not what this test is about.
NUMBERS = st.integers(-10_000, 10_000) | st.floats()
SCALARS = (st.none() | st.booleans() | NUMBERS | NUMBERS.map(str)
           | st.text(max_size=6)
           | st.sampled_from(["fcd", "sti", "nearest", "median-window",
                              "1,0,1,0,0,0", "1,2"]))
CONFIGS = st.dictionaries(st.sampled_from(DEPTH_DESTS),
                          SCALARS | st.lists(SCALARS, max_size=7), max_size=8)


@settings(max_examples=300, deadline=None)
@given(CONFIGS)
@example({"dmin": 5e-324})        # 1/dmin is inf, and np.linspace warned
def test_any_config_file_gives_configs_or_config_error(raw):
    """Whatever a --config object holds, resolving it into the pipeline
    configs either succeeds or raises ConfigError (exit 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = ["depth", "--config", str(cfg)]
        parser = cli.build_parser()
        try:
            cli._merge_config(argv, parser)
            hyp, sweep, agg = cli._pipeline_configs(parser.parse_args(argv))
        except cli.ConfigError:
            return
    assert len(hyp) >= 1 and sweep.workers >= 1


def write_bad_stream(dataset, path, u=None, t=None):
    """The simulated stream with one event moved to column ``u`` or time ``t``."""
    lines = (dataset / "sim" / "events.txt").read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 3
    ts, us, vs, ps = lines[i].split()
    lines[i] = f"{ts if t is None else t} {us if u is None else u} {vs} {ps}"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command", ["depth", "ablate"])
@pytest.mark.parametrize("bad", [{"u": 64}, {"t": "nan"}],
                         ids=["column", "nan_time"])
def test_bad_event_is_config_error_naming_file(dataset, tmp_path, capsys,
                                               command, bad):
    events = write_bad_stream(dataset, tmp_path / "bad.txt", **bad)
    extra = (["--truth", str(dataset / "sim" / "truth.pfm"), "--levels", "0"]
             if command == "ablate" else [])
    rc = main([command, "--events", str(events),
               "--camera", str(dataset / "camera.json"),
               "--track", str(dataset / "track.txt"),
               "--out", str(tmp_path / "out"), *FAST, *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: event stream {events}: event 3 ")
    assert not (tmp_path / "out").exists()


def test_partial_binary_record_is_config_error_naming_file(dataset, tmp_path,
                                                           capsys):
    events = tmp_path / "events.bin"
    save_events_binary(events, load_events(dataset / "sim" / "events.txt"))
    with open(events, "ab") as fh:
        fh.write(b"\x00\x01\x02")
    rc = main(["depth", "--events", str(events),
               "--camera", str(dataset / "camera.json"),
               "--track", str(dataset / "track.txt"),
               "--out", str(tmp_path / "out"), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: event stream {events}: ")
    assert err.count(str(events)) == 1
    assert "13-byte" in err
    assert not (tmp_path / "out").exists()


def test_bad_text_line_names_file_once(dataset, tmp_path, capsys):
    events = tmp_path / "bad.txt"
    events.write_text("# t u v p\n0.0 1 2 1\n0.1 1 2\n")
    rc = main(["depth", "--events", str(events),
               "--camera", str(dataset / "camera.json"),
               "--track", str(dataset / "track.txt"),
               "--out", str(tmp_path / "out"), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: event stream {events}:3: expected ")
    assert err.count(str(events)) == 1
    assert not (tmp_path / "out").exists()


def test_bad_text_value_names_file_and_line(dataset, tmp_path, capsys):
    events = tmp_path / "bad.txt"
    events.write_text("# t u v p\n0.0 1 2 1\nabc 1 2 1\n")
    rc = main(["depth", "--events", str(events),
               "--camera", str(dataset / "camera.json"),
               "--track", str(dataset / "track.txt"),
               "--out", str(tmp_path / "out"), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: event stream {events}:3: could not convert")
    assert err.count(str(events)) == 1
    assert not (tmp_path / "out").exists()


def test_out_of_range_text_value_names_file_and_line(dataset, tmp_path, capsys):
    # 65540 once wrapped to column 4 and passed the sensor check
    events = tmp_path / "bad.txt"
    events.write_text("# t u v p\n0.0 1 2 1\n0.1 65540 2 1\n")
    rc = main(["depth", "--events", str(events),
               "--camera", str(dataset / "camera.json"),
               "--track", str(dataset / "track.txt"),
               "--out", str(tmp_path / "out"), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: event stream {events}:3: u 65540 outside 0..65535")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["depth", "ablate"])
@pytest.mark.parametrize("flag", ["--max-count", "--max-interval", "--threads"])
def test_zero_valued_flags_are_config_errors_naming_the_flag(
        dataset, tmp_path, capsys, command, flag):
    extra = (["--truth", str(dataset / "sim" / "truth.pfm"), "--levels", "0"]
             if command == "ablate" else [])
    rc = main([command, *inputs(dataset), "--out", str(tmp_path / "out"),
               *FAST, flag, "0", *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
    assert not (tmp_path / "out").exists()


RANGE_ERRORS = [
    ("--scales", "0", ">= 1, got 0"),
    ("--window-radius", "4", "odd >= 1, got 4"),
    ("--trend-iters", "-1", ">= 0, got -1"),
    ("--num-hypotheses", "0", ">= 1, got 0"),
    ("--num-hypotheses", "-3", ">= 1, got -3"),
    ("--dmin", "0", "finite and > 0, got 0.0"),
    ("--dmin", "nan", "finite and > 0, got nan"),
    ("--dmax", "1.5", "finite and > d_min = 2.0, got 1.5"),
    ("--dmax", "inf", "finite and > d_min = 2.0, got inf"),
    # bounds whose grid or float32 depth map once overflowed with a warning
    ("--dmin", "1e-320",
     ">= 2.2250738585072014e-308 to have a finite inverse, got 1e-320"),
    ("--dmin", "1e-300", "in [1.1754943508222875e-38, 3.4028234663852886e+38]"
     " to fit a float32 depth map, got 1e-300"),
    ("--dmax", "1e39", "in [1.1754943508222875e-38, 3.4028234663852886e+38]"
     " to fit a float32 depth map, got 1e+39"),
    ("--dmax", "1e308",
     "<= 4.49423283715579e+307 to have a normal inverse, got 1e+308"),
    ("--fcd-weights", "1,2", "6 channel weights, got 2"),
    ("--fcd-weights", "nan,0,1,0,0,0",
     "finite, got (nan, 0.0, 1.0, 0.0, 0.0, 0.0)"),
    ("--scale-weights", "nan", "finite and non-negative with positive sum"),
    ("--peak-alpha", "nan", "finite, got nan"),
    ("--peak-alpha", "1.5", "in [0, 1], got 1.5"),
    ("--peak-alpha", "-0.1", "in [0, 1], got -0.1"),
    ("--min-support", "nan", "finite, got nan"),
    ("--noise", "nan", "finite and >= 0, got nan"),
    ("--noise", "inf", "finite and >= 0, got inf")]


# --noise is a flag of depth only: ablate takes its noise from --levels
@pytest.mark.parametrize("flag, value, message, command", [
    (*row, command) for row in RANGE_ERRORS for command in ("depth", "ablate")
    if not (row[0] == "--noise" and command == "ablate")])
def test_config_range_errors_name_the_flag(dataset, tmp_path, capsys, command,
                                           flag, value, message):
    # the library configs check these fields (--noise has none); the error
    # names the flag
    extra = (["--truth", str(dataset / "sim" / "truth.pfm"), "--levels", "0"]
             if command == "ablate" else [])
    rc = main([command, *inputs(dataset), "--out", str(tmp_path / "out"),
               *FAST, flag, value, *extra])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag} must be {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["depth", "ablate"])
def test_colliding_hypotheses_name_the_count(dataset, tmp_path, capsys,
                                             command):
    # 16 hypotheses between two adjacent floats repeat a depth
    extra = (["--truth", str(dataset / "sim" / "truth.pfm"), "--levels", "0"]
             if command == "ablate" else [])
    rc = main([command, *inputs(dataset), "--out", str(tmp_path / "out"),
               *FAST, "--dmax", "2.0000000000000004", *extra])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --num-hypotheses must be small enough that the hypotheses "
        "from d_min = 2.0 to d_max = 2.0000000000000004 strictly increase, "
        "got 16\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("ablate", "--levels", "0,nan", "finite and >= 0, got nan"),
    ("ablate", "--levels", "0,inf", "finite and >= 0, got inf"),
    ("ablate", "--levels", "-0.5", "finite and >= 0, got -0.5"),
    ("ablate", "--max-depth", "nan", "finite and > 0, got nan"),
    ("eval", "--max-depth", "nan", "finite and > 0, got nan"),
    ("eval", "--max-depth", "0", "finite and > 0, got 0.0"),
    ("simulate", "--duration", "nan", "finite and > 0, got nan"),
    ("simulate", "--duration", "inf", "finite and > 0, got inf"),
    ("simulate", "--jitter", "nan", "finite and >= 0, got nan"),
    ("simulate", "--jitter", "-1", "finite and >= 0, got -1.0"),
    ("simulate", "--events-per-edge", "0", ">= 1, got 0")])
def test_numeric_flag_errors_name_the_flag(dataset, tmp_path, capsys, command,
                                           flag, value, message):
    # the flags outside the pipeline configs, checked before anything is
    # written
    given = {"simulate": ["--scene", str(dataset / "scene.json"),
                          "--camera", str(dataset / "camera.json"),
                          "--track", str(dataset / "track.txt")],
             "eval": ["--pred", str(dataset / "sim"),
                      "--truth", str(dataset / "sim" / "truth.pfm")],
             "ablate": [*inputs(dataset), *FAST, "--levels", "0",
                        "--truth", str(dataset / "sim" / "truth.pfm")]}
    rc = main([command, *given[command], "--out", str(tmp_path / "out"),
               flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag} must be {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["depth", "ablate"])
@pytest.mark.parametrize("flags, message", [
    (["--scales", "6"], "error: --scales: 6 scales shrink the 64x64 sensor"),
    (["--scales", "1", "--scale-weights", "0"], "error: --scale-weights must be"),
    (["--scales", "2", "--scale-weights", "1,1,1"],
     "error: --scale-weights needs 2 values")],
    ids=["too_deep", "zero_weight", "weight_count"])
def test_bad_scales_are_config_errors(dataset, tmp_path, capsys, command,
                                      flags, message):
    extra = (["--truth", str(dataset / "sim" / "truth.pfm"), "--levels", "0"]
             if command == "ablate" else [])
    rc = main([command, *inputs(dataset), "--out", str(tmp_path / "out"),
               *FAST, *flags, *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


CAMERA = {"f": 200.0, "cu": 32.0, "cv": 32.0, "width": 64, "height": 64}


@pytest.mark.parametrize("what, text, after_path", [
    ("camera config", "[1, 2]", ": a camera config is a JSON object"),
    ("camera config", json.dumps({**CAMERA, "width": None}), ": width None "),
    ("camera config", json.dumps({**CAMERA, "f": [1]}), ": f [1] "),
    ("camera config", json.dumps({**CAMERA, "width": 64.5}), ": width 64.5 "),
    ("velocity track", "0.0 1 0 0 0 0 abc\n", ":1: could not convert"),
    ("velocity track", "# t\n0.0 1 0 0 0 0 nan\n", ":2: velocity sample"),
    ("velocity track", "0.1 1 0 0 0 0 0\n0.0 1 0 0 0 0 0\n",
     ": velocity track timestamps must be strictly increasing"),
    ("velocity track", "# t tx ty tz wx wy wz\n", ": no velocity samples"),
    ("velocity track", "0.0 1e307 0 0 0 0 0\n", ": velocity at t=0.0 gives "
     "a flow beyond the float range on the 64x64 sensor\n"),
    ("velocity track", "0.0 0 0 0 0 1e306 0\n", ": velocity at t=0.0 gives "
     "a flow beyond the float range on the 64x64 sensor\n")],
    ids=["camera_not_object", "camera_null", "camera_list", "camera_fraction",
         "track_word", "track_nan", "track_order", "track_empty",
         "track_translation_overflows", "track_rotation_overflows"])
def test_bad_camera_or_track_is_config_error_naming_file(
        dataset, tmp_path, capsys, what, text, after_path):
    bad = tmp_path / "bad_input"
    bad.write_text(text)
    camera = bad if what == "camera config" else dataset / "camera.json"
    track = bad if what == "velocity track" else dataset / "track.txt"
    rc = main(["depth", "--events", str(dataset / "sim" / "events.txt"),
               "--camera", str(camera), "--track", str(track),
               "--out", str(tmp_path / "out"), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {bad}{after_path}")
    assert err.count(str(bad)) == 1
    assert not (tmp_path / "out").exists()


def sweep_extra(command, dataset):
    """The flags ``ablate`` needs beside ``depth``'s: the truth, and two
    noise levels of two trials each."""
    return (["--truth", str(dataset / "sim" / "truth.pfm"),
             "--levels", "0,0.5", "--trials", "2"]
            if command == "ablate" else [])


@pytest.mark.parametrize("command", ["depth", "ablate"])
def test_pool_forks_before_the_stream_loads(dataset, tmp_path, monkeypatch,
                                            command):
    # the pool of a --threads 2 run exists when the stream is read, and
    # every window of the run (five here) runs on that same pool
    load, pools_at_load = cli.load_events, []

    def recording_load(path):
        pools_at_load.append(dict(pool._POOLS))
        return load(path)

    shutdown_pools()
    monkeypatch.setattr(cli, "load_events", recording_load)
    outs = {threads: tmp_path / f"threads_{threads}" for threads in "12"}
    try:
        for threads, out in outs.items():
            assert main([command, *inputs(dataset), "--out", str(out), *FAST,
                         "--threads", threads, "--max-count", "800",
                         *sweep_extra(command, dataset)]) == 0
        pools_at_end = dict(pool._POOLS)
    finally:
        shutdown_pools()
    assert pools_at_load[0] == {}                  # one worker forks none
    assert list(pools_at_load[1]) == list(pools_at_end) == [2]
    assert pools_at_load[1][2] is pools_at_end[2]
    pattern = "*_*.p[fg]m" if command == "depth" else "ablation.*"
    names = sorted(p.name for p in outs["1"].glob(pattern))
    assert len(names) == (15 if command == "depth" else 2)
    assert names == sorted(p.name for p in outs["2"].glob(pattern))
    for name in names:
        assert ((outs["1"] / name).read_bytes()
                == (outs["2"] / name).read_bytes()), name


@pytest.mark.parametrize("command", ["depth", "ablate"])
@pytest.mark.parametrize("stream", ["missing", "malformed"])
def test_bad_stream_after_the_pool_forks_is_config_error(
        dataset, tmp_path, capsys, command, stream):
    events = tmp_path / "events.txt"
    if stream == "malformed":
        events.write_text("# t u v p\n0.0 1 2 1\n0.1 1 2\n")
    shutdown_pools()
    try:
        rc = main([command, "--events", str(events),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--out", str(tmp_path / "out"), *FAST, "--threads", "2",
                   *sweep_extra(command, dataset)])
        forked = list(pool._POOLS)
    finally:
        shutdown_pools()
    assert rc == 2
    assert forked == [2]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: event stream ")
    assert str(events) in lines[0]
    assert not (tmp_path / "out").exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("command", ["depth", "ablate"])
@pytest.mark.parametrize("flags", [["--scales", "6"], ["--camera", "no.json"]],
                         ids=["scales", "camera"])
def test_config_error_before_the_stream_forks_no_pool(
        dataset, tmp_path, command, flags):
    shutdown_pools()
    try:
        rc = main([command, *inputs(dataset), "--out", str(tmp_path / "out"),
                   *FAST, "--threads", "2", *flags,
                   *sweep_extra(command, dataset)])
        forked = list(pool._POOLS)
    finally:
        shutdown_pools()
    assert rc == 2
    assert forked == []


@pytest.mark.parametrize("command, where", [
    ("depth", "window 1"), ("ablate", "noise 0 trial 0 window 1")])
def test_window_out_of_memory_names_the_window(dataset, tmp_path, capsys,
                                               monkeypatch, command, where):
    # the second sweep, of window 1, runs out of memory
    estimate, calls = cli.estimate_depth, []

    def failing_estimate(*args):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return estimate(*args)

    monkeypatch.setattr(cli, "estimate_depth", failing_estimate)
    out = tmp_path / "out"
    rc = main([command, *inputs(dataset), "--out", str(out), *FAST,
               "--max-count", "800", *sweep_extra(command, dataset)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {where} on the 64x64 sensor of camera config "
        f"{dataset / 'camera.json'}: Unable to allocate 1.00 TiB\n")
    written = sorted(p.name for p in out.iterdir())
    assert written == (["confidence_0000.pfm", "depth_0000.pfm",
                        "diag_0000.json", "manifest.json", "mask_0000.pgm"]
                       if command == "depth" else ["manifest.json"])


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_threads_is_not_a_flag_of_commands_without_a_sweep(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "depth", "ablate"])
@pytest.mark.parametrize("through_config", [False, True])
def test_negative_seed_is_config_error(dataset, tmp_path, capsys, command,
                                       through_config):
    given = {"simulate": ["--scene", str(dataset / "scene.json"),
                          "--camera", str(dataset / "camera.json"),
                          "--track", str(dataset / "track.txt")],
             "depth": [*inputs(dataset), *FAST],
             "ablate": [*inputs(dataset), *FAST, "--levels", "0",
                        "--truth", str(dataset / "sim" / "truth.pfm")]}
    if through_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -3}))
        seed, value = ["--config", str(config)], -3
    else:
        seed, value = ["--seed", "-1"], -1
    rc = main([command, *given[command], "--out", str(tmp_path / "out"), *seed])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --seed must be >= 0, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_eval_takes_no_seed(dataset, tmp_path):
    # grading draws no random numbers; an old manifest holding a seed replays
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--seed", "1"])
    assert exc.value.code == 2
    assert run_depth(dataset, tmp_path / "depth") == 0
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps({"config": {
        "pred": str(tmp_path / "depth"),
        "truth": str(dataset / "sim" / "truth.pfm"), "seed": 1}}))
    assert main(["eval", "--config", str(old)]) == 0


@pytest.mark.parametrize("command", ["depth", "ablate"])
def test_dmin_with_an_overflowing_flow_names_the_flag(dataset, tmp_path, capsys,
                                                       command):
    # the flow is finite at 1 m, and overflows at 1e-30 m
    track = tmp_path / "track.txt"
    track.write_text("0.0 1e280 0 0 0 0 0\n")
    rc = main([command, "--events", str(dataset / "sim" / "events.txt"),
               "--camera", str(dataset / "camera.json"), "--track", str(track),
               "--out", str(tmp_path / "out"), *FAST, "--dmin", "1e-30",
               *sweep_extra(command, dataset)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --dmin must be large enough that velocity track {track} "
        f"gives a finite flow, got 1e-30\n")
    assert not (tmp_path / "out").exists()


def test_ablate_grades_the_maps_depth_writes(dataset, tmp_path, monkeypatch):
    # at noise level 0, ablate and depth run the same sweep of each window
    flags = [*inputs(dataset), *FAST, "--max-count", "800", "--seed", "5"]
    assert main(["depth", *flags, "--out", str(tmp_path / "depth")]) == 0
    evaluate, graded = cli.evaluate, []

    def capturing_evaluate(pred, truth, **kwargs):
        graded.append(pred)
        return evaluate(pred, truth, **kwargs)

    monkeypatch.setattr(cli, "evaluate", capturing_evaluate)
    assert main(["ablate", *flags, "--out", str(tmp_path / "ablate"),
                 "--truth", str(dataset / "sim" / "truth.pfm"),
                 "--levels", "0"]) == 0
    written = sorted((tmp_path / "depth").glob("depth_*.pfm"))
    assert len(written) == len(graded) > 1
    for path, pred in zip(written, graded):
        assert np.array_equal(pred.astype(np.float32), read_pfm(path)), path


class TestEval:
    def test_truth_directory_pairs_by_name(self, dataset, tmp_path, capsys):
        out = tmp_path / "depth"
        assert run_depth(dataset, out) == 0
        truth = dataset / "sim" / "truth.pfm"
        truth_dir = tmp_path / "truth"
        truth_dir.mkdir()
        for pred in out.glob("depth_*.pfm"):
            (truth_dir / pred.name).write_bytes(truth.read_bytes())
        capsys.readouterr()
        reports = {}
        for name, arg in (("file", truth), ("dir", truth_dir)):
            assert main(["eval", "--pred", str(out), "--truth", str(arg),
                         "--out", str(tmp_path / name)]) == 0
            reports[name] = (capsys.readouterr().out,
                             (tmp_path / name / "report_aggregate.json"
                              ).read_text())
        assert reports["dir"] == reports["file"]
        assert json.loads(reports["dir"][1])["n_eval"] > 0

    def test_missing_truth_is_config_error(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        write_pfm(pred / "depth_0000.pfm", np.ones((2, 2)))
        truth = tmp_path / "absent"
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: truth not found: {truth}\n"

    def test_unmatched_truth_directory_is_config_error(self, dataset, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "depth_0000.pfm").write_bytes(
            b"Pf\n2 2\n-1.0\n" + np.ones(4, dtype="<f4").tobytes())
        truth_dir = tmp_path / "truth"
        truth_dir.mkdir()
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth_dir)])
        assert rc == 2

    def test_truncated_prediction_names_file(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        path = pred / "depth_0000.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + np.ones(3, dtype="<f4").tobytes())
        rc = main(["eval", "--pred", str(pred),
                   "--truth", str(dataset / "sim" / "truth.pfm")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: truncated")

    @pytest.mark.parametrize("header", [
        b"PF\n2 2\n-1.0\n", b"Pf\nx 2\n-1.0\n", b"Pf\n\n-1.0\n",
        b"Pf\n2 2 2\n-1.0\n", b"Pf\n2 0\n-1.0\n", b"Pf\n2 2\nabc\n",
        b"Pf\n2 2\n\n"],
        ids=["magic", "size_text", "size_empty", "size_three", "size_zero",
             "scale_text", "scale_empty"])
    def test_bad_prediction_header_names_file(self, dataset, tmp_path, capsys,
                                              header):
        pred = tmp_path / "pred"
        pred.mkdir()
        path = pred / "depth_0000.pfm"
        path.write_bytes(header + np.ones(4, dtype="<f4").tobytes())
        rc = main(["eval", "--pred", str(pred),
                   "--truth", str(dataset / "sim" / "truth.pfm")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("size", ["100000000", "4000000000"],
                             ids=["memory", "overflow"])
    def test_truth_larger_than_its_file_names_file(self, dataset, tmp_path,
                                                    capsys, size):
        pred = tmp_path / "pred"
        pred.mkdir()
        write_pfm(pred / "depth_0000.pfm", np.ones((2, 2)))
        truth = tmp_path / "truth.pfm"
        truth.write_bytes(f"Pf\n{size} {size}\n-1.0\n".encode())
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {truth}: truncated PFM payload: 0 of ")

    def test_shape_mismatch_names_both_files(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        path = pred / "depth_0000.pfm"
        write_pfm(path, np.ones((2, 3)))
        truth = tmp_path / "truth.pfm"
        write_pfm(truth, np.ones((2, 2)))
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path} against {truth}: shape mismatch: pred (2, 3) vs "
            "truth (2, 2)\n")

    def test_empty_prediction_dir_is_config_error(self, dataset, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        rc = main(["eval", "--pred", str(pred),
                   "--truth", str(dataset / "sim" / "truth.pfm")])
        assert rc == 2


class TestAblate:
    def test_small_sweep(self, dataset, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["ablate",
                   "--events", str(dataset / "sim" / "events.txt"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--truth", str(dataset / "sim" / "truth.pfm"),
                   "--out", str(out), *FAST,
                   "--levels", "0.0,0.5", "--trials", "2", "--seed", "3"])
        assert rc == 0
        with open(out / "ablation.json") as fh:
            rows = json.load(fh)
        assert [row["level"] for row in rows] == [0.0, 0.5]
        assert rows[0]["trials"] == 1      # the clean level needs no repeats
        assert rows[1]["trials"] == 2
        assert (out / "ablation.txt").read_text().count("\n") == 3

    def test_zero_trials_is_config_error(self, dataset, tmp_path, capsys):
        rc = main(["ablate", *inputs(dataset),
                   "--truth", str(dataset / "sim" / "truth.pfm"),
                   "--out", str(tmp_path / "out"), *FAST, "--trials", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --trials must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_noise_comes_from_levels_only(self, dataset, tmp_path):
        argv = ["ablate", *inputs(dataset),
                "--truth", str(dataset / "sim" / "truth.pfm"), *FAST,
                "--levels", "0.0,0.5", "--trials", "1", "--seed", "3"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "bad"), "--noise", "0.5"])
        assert exc.value.code == 2
        assert not (tmp_path / "bad").exists()
        # a manifest written while ablate took --noise still replays
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main([*argv, "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "noise" not in manifest["config"]
        manifest["config"]["noise"] = 0.5
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["ablate", "--config", str(old), "--out", str(replay)]) == 0
        assert ((first / "ablation.json").read_bytes()
                == (replay / "ablation.json").read_bytes())

    def test_truth_shape_checked_before_any_sweep(self, dataset, tmp_path,
                                                  capsys, monkeypatch):
        truth = tmp_path / "truth.pfm"
        write_pfm(truth, np.full((10, 10), 10.0))

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the truth was checked")

        monkeypatch.setattr(cli, "estimate_depth", no_sweep)
        rc = main(["ablate",
                   "--events", str(dataset / "sim" / "events.txt"),
                   "--camera", str(dataset / "camera.json"),
                   "--track", str(dataset / "track.txt"),
                   "--truth", str(truth),
                   "--out", str(tmp_path / "out"), *FAST, "--levels", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ground-truth depth {truth}: shape 10x10")
        assert "64x64" in err
        assert not (tmp_path / "out").exists()

    def test_window_with_nothing_to_grade_is_named(self, dataset, tmp_path,
                                                   capsys):
        # no pixel reaches the support floor, so window 0 has no depth
        truth = dataset / "sim" / "truth.pfm"
        rc = main(["ablate", *inputs(dataset), "--truth", str(truth),
                   "--out", str(tmp_path / "out"), *FAST,
                   "--min-support", "1e9", "--levels", "0"])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: noise 0 trial 0 window 0 against "
                                   f"{truth}: no pixels are valid")
