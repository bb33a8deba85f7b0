"""Metric monocular depth from event streams by motion-compensation plane sweep.

Events are warped to a reference time under a set of depth hypotheses; the
hypothesis that collapses event trajectories best at each pixel, judged by
the focus of the warped-event image, is the depth estimate there.
"""
from .events import (EVENT_DTYPE, EventWindow, check_stream, form_windows,
                     load_events, make_events, save_events_binary,
                     save_events_text)
from .motion import (CameraIntrinsics, CameraRig, EventWarp, VelocitySample,
                     flow_terms, inject_velocity_noise, interpolate_velocity,
                     load_camera, load_track, motion_field, save_camera,
                     save_track)
from .iwe import Iwe, accumulate, build_pyramid
from .focus import FocusConfig, fcd_score_map, objective, weighted_gradients
from .costvol import (AggregationConfig, DepthMap, HypothesisSet, SweepConfig,
                      SweepSummary, estimate_depth, fill_depth,
                      inverse_depth_hypotheses, objective_sweep)
from .synth import GroundTruth, SceneSpec, generate, oracle_depth_error
from .metrics import MetricReport, evaluate
from .imgio import read_pfm, read_pgm, write_pfm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "EVENT_DTYPE", "EventWindow", "check_stream", "form_windows",
    "load_events", "make_events", "save_events_binary", "save_events_text",
    "CameraIntrinsics", "CameraRig", "EventWarp", "VelocitySample",
    "flow_terms", "inject_velocity_noise", "interpolate_velocity",
    "load_camera", "load_track", "motion_field", "save_camera", "save_track",
    "Iwe", "accumulate", "build_pyramid",
    "FocusConfig", "fcd_score_map", "objective", "weighted_gradients",
    "AggregationConfig", "DepthMap", "HypothesisSet", "SweepConfig",
    "SweepSummary", "estimate_depth", "fill_depth",
    "inverse_depth_hypotheses", "objective_sweep",
    "GroundTruth", "SceneSpec", "generate", "oracle_depth_error",
    "MetricReport", "evaluate",
    "read_pfm", "read_pgm", "write_pfm", "write_pgm",
    "__version__",
]
