"""End-to-end guarantees of the depth pipeline, verified on synthetic
scenes with exact ground truth.

Each test covers one headline property (motion-field arithmetic, the
warp-inverse focus principle, full depth recovery, objective agreement,
curve unimodality, alias suppression, noise robustness, metric fixtures,
and parallel determinism) and prints a one-line verdict with the measured
numbers next to their bounds.
"""

import os
import time

import numpy as np
import pytest

from evdepth import aggregate
from evdepth.costvol import (
    AggregationConfig,
    SweepConfig,
    estimate_depth,
    inverse_depth_hypotheses,
    objective_sweep,
    shutdown_pools,
)
from evdepth.focus import FocusConfig
from evdepth.iwe import accumulate
from evdepth.metrics import evaluate
from evdepth.motion import (
    CameraIntrinsics,
    CameraRig,
    EventWarp,
    VelocitySample,
    inject_velocity_noise,
    interpolate_velocity,
    motion_field,
)
from evdepth.synth import (
    SceneSpec,
    event_pixel_mask,
    generate,
    oracle_depth_error,
    trajectory_spread,
)

# First-derivative and second-derivative channels only: the gxx*gyy product
# channel is quadratic in event count and favors dispersed mass, so the
# discriminative weighting zeroes it (the library default keeps all six).
GRAD_WEIGHTS = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)

INTR = CameraIntrinsics(f=200.0, cu=32.0, cv=32.0, width=64, height=64)
TRACK = (VelocitySample(t=0.0, linear=(1.0, 0.0, 0.0),
                        angular=(0.0, 0.0, 0.0)),)
RIG = CameraRig(intrinsics=INTR, track=TRACK)
VEL = interpolate_velocity(TRACK, 0.0, 0.1)
HYP = inverse_depth_hypotheses(2.0, 50.0, 32)
TRUE_DEPTH = 10.0

PLANE_SWEEP = SweepConfig(focus=FocusConfig(weights=GRAD_WEIGHTS),
                          num_scales=1)
PLANE_AGG = AggregationConfig()


@pytest.fixture(scope="module")
def plane_data():
    scene = SceneSpec(kind="plane", depths=(TRUE_DEPTH,), edge_spacing=10)
    return generate(scene, RIG, duration=0.1, events_per_edge=20, seed=1,
                    t_ref=0.1)


def test_01_motion_field_hand_cases_fast_and_exact():
    t0 = time.perf_counter()
    center = CameraIntrinsics(f=100.0, cu=10.0, cv=10.0, width=21, height=21)

    def vel(linear=(0.0, 0.0, 0.0), angular=(0.0, 0.0, 0.0)):
        return VelocitySample(t=0.0, linear=linear, angular=angular)

    # forward translation at the principal point: (-f tx / d, 0)
    flow = motion_field(center, vel(linear=(1.0, 0.0, 0.0)), d=10.0)
    np.testing.assert_allclose(flow[10, 10], (-10.0, 0.0), rtol=1e-9)
    # axial translation 50 px right of the principal point: (u' tz / d, 0)
    wide = CameraIntrinsics(f=100.0, cu=5.0, cv=10.0, width=61, height=21)
    flow = motion_field(wide, vel(linear=(0.0, 0.0, 1.0)), d=5.0)
    np.testing.assert_allclose(flow[10, 55], (10.0, 0.0), rtol=1e-9)
    # yaw 20 px below the principal point: (f v' wz / f, -f u' wz / f)
    tall = CameraIntrinsics(f=100.0, cu=10.0, cv=5.0, width=21, height=31)
    flow = motion_field(tall, vel(angular=(0.0, 0.0, 1.0)), d=7.0)
    np.testing.assert_allclose(flow[25, 10], (20.0, 0.0), rtol=1e-9)
    # roll about x at the principal point: (0, f wx)
    flow = motion_field(center, vel(angular=(0.01, 0.0, 0.0)), d=3.0)
    np.testing.assert_allclose(flow[10, 10], (0.0, 1.0), rtol=1e-9)

    rotation = vel(angular=(0.02, -0.01, 0.03))
    fields = [motion_field(center, rotation, d)
              for d in np.geomspace(0.5, 500.0, 64)]
    bitwise = all(np.array_equal(f, fields[0]) for f in fields[1:])
    assert bitwise
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS motion field: 4 hand cases at 1e-9 rel, rotation bitwise "
          f"equal across 64 depths, {elapsed:.3f}s (< 1s)")


def test_02_true_depth_collapse_and_mass_conservation(plane_data):
    window, truth = plane_data
    spread = trajectory_spread(window, truth, INTR, VEL, TRUE_DEPTH)
    assert spread <= 1e-6

    n = len(window.events)
    worst = 0.0
    warp = EventWarp(window, INTR, VEL)
    for d in (2.0, 5.0, TRUE_DEPTH, 25.0, 50.0):
        warped = warp(d)
        for splat in ("bilinear", "nearest"):
            iwe = accumulate(warped, INTR.resolution, splat=splat)
            worst = max(worst, abs(iwe.mass + iwe.discarded - n) / n)
    assert worst <= 1e-6
    print(f"PASS warp inverse: trajectory spread {spread:.2e} px at the true "
          f"depth (<= 1e-6); event mass conserved to {worst:.2e} rel (<= 1e-6)")


def test_03_depth_recovery_on_plane_and_two_plane_scenes(plane_data):
    window, truth = plane_data
    t0 = time.perf_counter()
    plane = oracle_depth_error(window, INTR, VEL, HYP, truth,
                               PLANE_SWEEP, PLANE_AGG)

    scene2 = SceneSpec(kind="two_plane", depths=(8.0, 12.0), split_col=32,
                       edge_spacing=10)
    window2, truth2 = generate(scene2, RIG, duration=0.1, events_per_edge=20,
                               seed=2, t_ref=0.1)
    split = oracle_depth_error(window2, INTR, VEL, HYP, truth2,
                               PLANE_SWEEP, PLANE_AGG)
    elapsed = time.perf_counter() - t0

    assert plane.bin_accuracy >= 0.95
    assert plane.median_abs_rel < 0.05
    per_plane = {d: round(a, 4) for d, a in split.per_plane_accuracy.items()}
    assert all(acc >= 0.90 for acc in per_plane.values())
    assert elapsed < 30.0
    print(f"PASS depth recovery: plane bin accuracy {plane.bin_accuracy:.4f} "
          f"(>= 0.95), median abs-rel {plane.median_abs_rel:.4f} (< 0.05); "
          f"two-plane per-plane accuracy {per_plane} (>= 0.90); "
          f"{elapsed:.1f}s (< 30s)")


def test_04_contrast_objectives_agree_on_the_depth(plane_data):
    window, _ = plane_data
    true_bin = int(HYP.bin_of(TRUE_DEPTH))
    tolerance = {"fcd": 1, "var": 1, "sti": 1, "soe": 1, "sosa": 2}
    picks = {}
    for kind in ("fcd", "var", "sti", "soe", "sosa"):
        cfg = FocusConfig(kind=kind, weights=GRAD_WEIGHTS)
        values = objective_sweep(window, INTR, VEL, HYP, cfg, splat="nearest")
        picks[kind] = int(np.argmax(values))
        assert abs(picks[kind] - true_bin) <= tolerance[kind], kind
    print(f"PASS objective cross-check: argmax bins {picks} all within "
          f"tolerance of true bin {true_bin} (fcd/var/sti/soe 1, sosa 2)")


def test_05_score_curves_unimodal_after_trend_filter(plane_data, sweep_window):
    window, truth = plane_data
    sweep = SweepConfig(focus=FocusConfig(kind="var", window_radius=5),
                        num_scales=1, splat="nearest")
    scores = sweep_window(window, INTR, VEL, HYP, sweep).scores[0]
    aggregate._trend_filter_inplace(scores, 1, 0.7, len(scores))
    mask = event_pixel_mask(window, INTR, VEL, truth, radius=5,
                            splat="nearest")
    curves = scores[:, mask]
    inner = curves[1:-1]
    peaks = ((inner > curves[:-2]) & (inner > curves[2:])).sum(axis=0)
    frac = float((peaks <= 1).mean())
    assert frac >= 0.90

    spike = np.array([0.0, 0.0, 4.0, 0.0, 0.0]).reshape(5, 1, 1)
    aggregate._trend_filter_inplace(spike, 1, 0.0, len(spike))
    np.testing.assert_array_equal(spike[:, 0, 0], (0.0, 1.0, 2.0, 1.0, 0.0))
    print(f"PASS unimodality: {frac:.4f} of event-pixel curves keep a single "
          f"peak after the trend filter (>= 0.90); smoothing kernel case exact")


def test_06_repetitive_texture_alias_suppressed_by_scales():
    scene = SceneSpec(kind="striped", depths=(TRUE_DEPTH,), period=4,
                      band=(20, 44))
    window, truth = generate(scene, RIG, duration=0.1, events_per_edge=20,
                             seed=3, t_ref=0.1)
    focus = FocusConfig(weights=GRAD_WEIGHTS)
    single = oracle_depth_error(window, INTR, VEL, HYP, truth,
                                SweepConfig(focus=focus, num_scales=1),
                                AggregationConfig())
    fused = oracle_depth_error(window, INTR, VEL, HYP, truth,
                               SweepConfig(focus=focus, num_scales=3),
                               AggregationConfig())
    assert single.aliased_fraction >= 0.10
    reduction = 1.0 - fused.aliased_fraction / single.aliased_fraction
    assert reduction >= 0.80
    print(f"PASS alias suppression: single-scale aliased fraction "
          f"{single.aliased_fraction:.4f} (>= 0.10), 3-scale fusion "
          f"{fused.aliased_fraction:.4f}, reduction {reduction:.1%} (>= 80%)")


def test_07_velocity_noise_degrades_accuracy_monotonically(plane_data):
    window, truth = plane_data
    mask = event_pixel_mask(window, INTR, VEL, truth, radius=5)
    levels = (0.0, 0.1, 0.2, 0.5, 1.0)
    medians = []
    for level in levels:
        trials = []
        for s in range(10):
            noisy = inject_velocity_noise(VEL, level, seed=100 + s)
            dm, _ = estimate_depth(window, INTR, noisy, HYP,
                                   PLANE_SWEEP, PLANE_AGG)
            report = evaluate(dm.depth, truth.depth, max_depth=80.0,
                              pred_valid=dm.valid & mask)
            trials.append(report.abs_rel)
        medians.append(float(np.median(trials)))

    assert all(b >= a for a, b in zip(medians, medians[1:]))
    gap = (medians[-1] - medians[0]) / medians[0]
    assert gap >= 0.2
    shown = [round(m, 4) for m in medians]
    print(f"PASS noise trend: median abs-rel {shown} non-decreasing over "
          f"levels {levels}; full-noise vs clean gap {gap:.1f}x (>= 0.2)")


def test_08_metric_fixtures_exact_with_strict_thresholds():
    r = evaluate(np.full((1, 1), 11.0), np.full((1, 1), 10.0))
    assert abs(r.abs_rel - 0.1) <= 1e-12
    assert abs(r.sq_rel - 0.1) <= 1e-12
    assert abs(r.rmse - 1.0) <= 1e-12
    assert abs(r.epe - 1.0) <= 1e-12
    assert abs(r.rmse_log - np.log(1.1)) <= 1e-12
    assert abs(r.cutoff_10m - 1.0) <= 1e-12
    assert r.delta1 == 1.0

    over = evaluate(np.full((1, 1), 12.5), np.full((1, 1), 10.0))
    under = evaluate(np.full((1, 1), 8.0), np.full((1, 1), 10.0))
    assert over.delta1 == 0.0 and over.delta2 == 1.0
    assert under.delta1 == 0.0
    print("PASS metric fixtures: hand values exact to 1e-12; ratio exactly "
          "1.25 classified as not-within on both sides")


BIG_INTR = CameraIntrinsics(f=200.0, cu=173.0, cv=130.0, width=346, height=260)
BIG_HYP = inverse_depth_hypotheses(2.0, 80.0, 64)
BIG_FOCUS = FocusConfig(weights=GRAD_WEIGHTS)


@pytest.fixture(scope="module")
def big_window():
    scene = SceneSpec(kind="plane", depths=(TRUE_DEPTH,), edge_spacing=10)
    rig = CameraRig(intrinsics=BIG_INTR, track=TRACK)
    window, _ = generate(scene, rig, duration=0.1, events_per_edge=12,
                         seed=5, t_ref=0.1)
    return window


def test_09_worker_count_never_changes_results(big_window):
    assert len(big_window.events) >= 100_000
    results = {}
    try:
        for workers in (1, 2, 8):
            cfg = SweepConfig(focus=BIG_FOCUS, num_scales=3, workers=workers)
            results[workers] = estimate_depth(big_window, BIG_INTR, VEL,
                                              BIG_HYP, cfg)
    finally:
        shutdown_pools()
    base_map, base = results[1]
    assert base_map.valid.any() and base.curves
    for workers in (2, 8):
        depth_map, summary = results[workers]
        for name in ("depth", "confidence", "flags"):
            assert np.array_equal(getattr(depth_map, name),
                                  getattr(base_map, name)), name
        for name in ("winner", "discarded"):
            assert np.array_equal(getattr(summary, name),
                                  getattr(base, name)), name
        assert list(summary.curves) == list(base.curves)
        for pixel, curve in summary.curves.items():
            assert np.array_equal(curve, base.curves[pixel])
    print(f"PASS determinism: {len(big_window.events)} events, 64 hypotheses, "
          f"346x260, 3 scales; 1-, 2- and 8-worker depth, confidence, flags, "
          f"winners, curves and discarded tallies bitwise identical")


@pytest.mark.skipif((os.cpu_count() or 1) < 8,
                    reason="the parallel speedup measurement needs at least "
                           "8 CPUs; this host has fewer")
def test_09_eight_workers_speed_up_the_sweep(big_window):
    def timed_run(workers):
        cfg = SweepConfig(focus=BIG_FOCUS, num_scales=3, workers=workers)
        t0 = time.perf_counter()
        estimate_depth(big_window, BIG_INTR, VEL, BIG_HYP, cfg)
        return time.perf_counter() - t0

    try:
        timed_run(8)                  # warm the worker pool before timing
        t8 = timed_run(8)
        t1 = timed_run(1)
    finally:
        shutdown_pools()
    speedup = t1 / t8
    assert speedup >= 4.0
    print(f"PASS scaling: 8-worker window {t8:.2f}s vs 1-worker {t1:.2f}s, "
          f"speedup {speedup:.1f}x (>= 4x)")
