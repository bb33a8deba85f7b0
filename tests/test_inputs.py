"""Fuzzed input files through the command line: a file its loader rejects
exits 1 or 2 with one ``error:`` line naming the file, and no input file
ends a run in a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evdepth.cli import main
from evdepth.events import load_events, make_events
from evdepth.imgio import read_pfm, read_pgm, write_pfm, write_pgm
from evdepth.motion import CameraRig, load_camera, load_track
from evdepth.synth import load_scene

CAMERA = {"f": 20.0, "cu": 8.0, "cv": 8.0, "width": 16, "height": 16}
TRACK = "# t tx ty tz wx wy wz\n0.0 1 0 0 0 0 0\n0.1 1 0 0 0 0 0.1\n"
SCENE = {"kind": "plane", "depths": [10.0], "edge_spacing": 4}
EVENTS = make_events([0.01, 0.02, 0.03, 0.05], [3, 4, 5, 6], [7, 7, 8, 9],
                     [1, 0, 1, 1])
EVENTS_TEXT = "# t u v p\n" + "".join(
    f"{t} {u} {v} {p}\n" for t, u, v, p in EVENTS.tolist())
DEPTH = ["--dmin", "2", "--dmax", "50", "--num-hypotheses", "4",
         "--scales", "1", "--threads", "1", "--fcd-weights", "1,0,1,0,0,0"]


def mutations(valid: bytes):
    """Byte strings near ``valid``: cut short, one byte changed, a run of
    bytes inserted, or anything at all."""
    n = len(valid)
    return st.one_of(
        st.integers(0, n).map(lambda i: valid[:i]),
        st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(
            lambda a: valid[:a[0]] + bytes([a[1]]) + valid[a[0] + 1:]),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=8)).map(
            lambda a: valid[:a[0]] + a[1] + valid[a[0]:]),
        st.binary(max_size=2 * n))


def text_rows(tokens, width):
    """Lines of up to ``width`` + 1 whitespace-separated tokens."""
    line = st.lists(tokens, max_size=width + 1).map(" ".join)
    return st.lists(line, max_size=5).map(lambda rows: "\n".join(rows).encode())


NUMBER_TOKENS = st.sampled_from(
    ["0", "1", "-1", "0.01", "0.05", "7", "15", "16", "255", "256", "65536",
     "nan", "inf", "-inf", "1e400", "1_0", "0x1", "abc", "#", "\x00", "é"])
JSON_VALUES = st.recursive(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 4, 2.5, 8, 10, 16, 32,
                     200.0, "plane", "two_plane", "striped", "10", "x",
                     float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def json_objects(valid):
    """The valid object with keys dropped, replaced or added, or any JSON."""
    keys = st.sampled_from([*valid, "x"])
    edits = st.dictionaries(keys, JSON_VALUES, max_size=3)
    return st.one_of(
        st.tuples(st.sets(st.sampled_from(list(valid))), edits).map(
            lambda a: {**{k: v for k, v in valid.items() if k not in a[0]},
                       **a[1]}),
        JSON_VALUES).map(lambda obj: json.dumps(obj).encode())


def pfm_bytes():
    """A 2x2 PFM's bytes mutated, or header lines from odd tokens over a
    payload of odd values."""
    valid = b"Pf\n2 2\n-1.0\n" + np.array([1.0, 2.0, 3.0, 4.0], "<f4").tobytes()
    header = st.lists(st.sampled_from(
        [b"Pf", b"PF", b"P5", b"2 2", b"2", b"0 2", b"-2 2", b"2 2 2", b"a b",
         b"-1.0", b"1.0", b"0", b"nan", b"inf", b"#", b""]), max_size=4)
    payload = st.lists(st.sampled_from(
        [0.0, -1.0, 5.0, 1e30, np.nan, np.inf, -np.inf]), max_size=5)
    return mutations(valid) | st.tuples(header, payload).map(
        lambda a: b"\n".join(a[0]) + b"\n"
        + np.array(a[1], dtype="<f4").tobytes())


def run(argv):
    """The exit code and stderr of ``main(argv)``; an exception that
    escapes ``main`` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:          # argparse
            rc = exc.code
    return rc, err.getvalue()


def check(loader, path, argv):
    """Run ``argv``; if ``loader`` rejects ``path``, the run exits 1 or 2
    with one error line naming it.  Any run that fails prints one error
    line."""
    try:
        loader(path)
        rejected = False
    except ValueError:
        rejected = True
    rc, err = run(argv)
    assert rc in (0, 1, 2), err
    if rejected:
        assert rc != 0
        assert str(path) in err, err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def inputs(root, **bad):
    """Valid camera, track, scene and event files under ``root``, with
    the bytes in ``bad`` written in place of the named ones."""
    files = {"camera": (root / "camera.json", json.dumps(CAMERA).encode()),
             "track": (root / "track.txt", TRACK.encode()),
             "scene": (root / "scene.json", json.dumps(SCENE).encode()),
             "events": (root / "events.txt", EVENTS_TEXT.encode())}
    if "binary" in bad:
        files["events"] = (root / "events.bin", bad.pop("binary"))
    for name, (path, data) in files.items():
        path.write_bytes(bad.get(name, data))
    return {name: path for name, (path, _) in files.items()}


def depth_argv(paths, out):
    return ["depth", "--events", str(paths["events"]),
            "--camera", str(paths["camera"]), "--track", str(paths["track"]),
            "--out", str(out), *DEPTH]


def simulate_argv(paths, out):
    return ["simulate", "--scene", str(paths["scene"]),
            "--camera", str(paths["camera"]), "--track", str(paths["track"]),
            "--out", str(out), "--duration", "0.05", "--events-per-edge", "2"]


def test_valid_inputs_run():
    # the fuzzed files below start from files that work
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp))
        assert run(depth_argv(paths, Path(tmp) / "depth")) == (0, "")
        assert run(simulate_argv(paths, Path(tmp) / "sim")) == (0, "")


@settings(max_examples=150, deadline=None)
@given(mutations(EVENTS_TEXT.encode()) | text_rows(NUMBER_TOKENS, 4))
def test_text_events(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp), events=data)
        check(load_events, paths["events"], depth_argv(paths, Path(tmp) / "out"))


@settings(max_examples=100, deadline=None)
@given(mutations(EVENTS.tobytes()))
def test_binary_events(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp), binary=data)
        check(load_events, paths["events"], depth_argv(paths, Path(tmp) / "out"))


@settings(max_examples=150, deadline=None)
@given(mutations(TRACK.encode()) | text_rows(NUMBER_TOKENS, 7))
@example(b"0.0 1e307 0 0 0 0 0\n")      # the translation overflows the flow
@example(b"0.0 0 0 0 0 1e306 0\n")      # the rotation does
@example(b"0.0 1e21 0 0 0 0 0\n")       # events land beyond int64's range
def test_track(data):
    # simulate and depth both check the track against the camera
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp), track=data)

        def load_rig(path):
            return CameraRig(load_camera(paths["camera"]), load_track(path))

        check(load_rig, paths["track"], depth_argv(paths, Path(tmp) / "out"))
        check(load_rig, paths["track"], simulate_argv(paths, Path(tmp) / "sim"))


@settings(max_examples=150, deadline=None)
@given(json_objects(CAMERA) | mutations(json.dumps(CAMERA).encode()))
@example(b'{"f": Infinity, "cu": 8.0, "cv": 8.0, "width": 16, "height": 16}')
@example(b'{"f": 1e200, "cu": 8.0, "cv": 8.0, "width": 16, "height": 16}')
def test_camera(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp), camera=data)
        check(load_camera, paths["camera"], depth_argv(paths, Path(tmp) / "out"))


@settings(max_examples=150, deadline=None)
@given(json_objects({**SCENE, "split_col": 8, "period": 4, "band": [2, 12]})
       | mutations(json.dumps(SCENE).encode()))
@example(b'{"kind": "plane", "depths": [10.0], "edge_spacing": false}')
@example(b'{"kind": "plane", "depths": [10.0], "edge_spacing": null}')
@example(b'{"kind": "plane", "depths": [10.0], "band": [1]}')
@example(b'{"kind": "plane", "depths": [10.0], "period": Infinity}')
@example(b'{"k\\nd": "plane", "depths": [10.0], "edge_spacing": 4}')
def test_scene(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(Path(tmp), scene=data)
        check(load_scene, paths["scene"], simulate_argv(paths, Path(tmp) / "out"))


@settings(max_examples=150, deadline=None)
@given(pfm_bytes(), st.booleans())
@example(b"Pf\n2 2\n-1.0\n" + np.array([1.0, 2.0, 3.0], "<f4").tobytes()
         + b"\x00\x00\x81\x7f", True)        # a signalling NaN
def test_pfm(data, as_truth):
    # a fuzzed prediction scored against a valid truth, or the other way
    with tempfile.TemporaryDirectory() as tmp:
        pred_dir = Path(tmp) / "pred"
        pred_dir.mkdir()
        bad = Path(tmp) / "truth.pfm" if as_truth else pred_dir / "depth_0000.pfm"
        good = pred_dir / "depth_0000.pfm" if as_truth else Path(tmp) / "truth.pfm"
        write_pfm(good, np.full((2, 2), 10.0))
        bad.write_bytes(data)
        check(read_pfm, bad, ["eval", "--pred", str(pred_dir),
                              "--truth", str(Path(tmp) / "truth.pfm")])


@settings(max_examples=150, deadline=None)
@given(mutations(b"P5\n# comment\n2 2\n255\n" + bytes([0, 128, 255, 1])))
def test_pgm(data):
    # no subcommand reads a PGM, so the reader itself is held to the
    # property: it returns a grid or raises ValueError naming the file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mask.pgm"
        path.write_bytes(data)
        try:
            grid = read_pgm(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), exc
        else:
            write_pgm(Path(tmp) / "again.pgm", grid)
            assert np.array_equal(read_pgm(Path(tmp) / "again.pgm"), grid)
