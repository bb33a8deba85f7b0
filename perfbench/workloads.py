"""The benchmark's workloads and the seeded inputs each one runs on.

Every workload is a synthetic scene from ``evdepth.synth.generate`` seen by
a camera translating sideways at constant speed.  The three differ in what
dominates the cost of ``evdepth depth``: events (dense_stream), pixels x
hypotheses (wide_sweep), or fixed per-window costs (many_windows).

The DAVIS-size workloads move at 10 m/s, a vehicle's speed, so that each of
their short windows still sees a few pixels of parallax; many_windows keeps
the 1 m/s of the acceptance geometry.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evdepth.costvol import HypothesisSet, inverse_depth_hypotheses
from evdepth.events import save_events_binary, save_events_text
from evdepth.motion import (CameraIntrinsics, CameraRig, VelocitySample,
                            save_camera, save_track)
from evdepth.synth import GroundTruth, SceneSpec, generate


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    scene: SceneSpec
    duration: float               # seconds of events ending at the last track sample
    events_per_edge: int
    binary: bool                  # .bin input, else the text format
    num_hypotheses: int
    scales: int
    max_count: int
    max_interval: float
    speed: float                  # sideways camera velocity, m/s

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(f=FOCAL, cu=self.width / 2,
                                cv=self.height / 2, width=self.width,
                                height=self.height)

    def rig(self) -> CameraRig:
        track = tuple(VelocitySample(t=t, linear=(self.speed, 0.0, 0.0),
                                     angular=(0.0, 0.0, 0.0))
                      for t in (0.0, self.duration))
        return CameraRig(intrinsics=self.intrinsics(), track=track)

    def hypotheses(self) -> HypothesisSet:
        return inverse_depth_hypotheses(DMIN, DMAX, self.num_hypotheses)

    def depth_args(self, inputs: "Inputs", out: Path, threads: int) -> list[str]:
        """Every `evdepth depth` flag, spelled out so that a later change of
        a default cannot move the benchmark."""
        return ["depth", "--events", str(inputs.events),
                "--camera", str(inputs.camera), "--track", str(inputs.track),
                "--out", str(out), "--threads", str(threads), "--seed", "0",
                "--objective", "fcd", "--fcd-weights", FCD_WEIGHTS,
                "--window-radius", str(WINDOW_RADIUS), "--sosa-lambda", "1.0",
                "--dmin", str(DMIN), "--dmax", str(DMAX),
                "--num-hypotheses", str(self.num_hypotheses),
                "--scales", str(self.scales),
                "--scale-weights", ",".join(["1.0"] * self.scales),
                "--trend-iters", "1", "--peak-alpha", "0.7",
                "--min-support", str(MIN_SUPPORT), "--fill", "none",
                "--splat", "bilinear", "--max-count", str(self.max_count),
                "--max-interval", str(self.max_interval), "--noise", "0.0"]


THREADS = 2                       # workers; the workloads are sized for 2 cores
FOCAL = 200.0
DMIN, DMAX = 2.0, 50.0
FCD_WEIGHTS = "1,0,1,0,0,0"
WINDOW_RADIUS = 5
MIN_SUPPORT = 0.5

WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense_stream",
        width=240, height=180,
        scene=SceneSpec(kind="two_plane", depths=(5.0, 15.0), split_col=120,
                        edge_spacing=6),
        duration=0.1, events_per_edge=160, binary=True,
        num_hypotheses=32, scales=1, max_count=80_000, max_interval=0.2,
        speed=10.0),
    Workload(
        name="wide_sweep",
        width=346, height=260,
        scene=SceneSpec(kind="two_plane", depths=(5.0, 15.0), split_col=173,
                        edge_spacing=24),
        duration=0.1, events_per_edge=6, binary=True,
        num_hypotheses=128, scales=3, max_count=80_000, max_interval=0.02,
        speed=10.0),
    Workload(
        name="many_windows",
        width=64, height=64,
        scene=SceneSpec(kind="plane", depths=(10.0,), edge_spacing=8),
        duration=2.0, events_per_edge=870, binary=False,
        num_hypotheses=32, scales=1, max_count=2_000, max_interval=0.2,
        speed=1.0),
)}


@dataclass(frozen=True)
class Inputs:
    events: Path
    camera: Path
    track: Path
    stream: np.ndarray            # the generated events
    truth: GroundTruth


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's event stream from ``seed`` and write the three
    files `evdepth depth` reads."""
    rig = workload.rig()
    window, truth = generate(workload.scene, rig, workload.duration,
                             workload.events_per_edge, seed=seed)
    directory.mkdir(parents=True, exist_ok=True)
    events = directory / ("events.bin" if workload.binary else "events.txt")
    if workload.binary:
        save_events_binary(events, window.events)
    else:
        save_events_text(events, window.events)
    save_camera(directory / "camera.json", rig.intrinsics)
    save_track(directory / "track.txt", rig.track)
    return Inputs(events=events, camera=directory / "camera.json",
                  track=directory / "track.txt", stream=window.events,
                  truth=truth)
