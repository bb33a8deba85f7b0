"""Geometric event generation with exact ground truth, and the grading
helpers built on it."""

import json

import numpy as np
import pytest

from evdepth.costvol import (AggregationConfig, SweepConfig, estimate_depth,
                             inverse_depth_hypotheses)
from evdepth.focus import FocusConfig
from evdepth.motion import (CameraIntrinsics, CameraRig, EventWarp,
                            VelocitySample, interpolate_velocity)
from evdepth.synth import (SceneSpec, event_pixel_mask, generate, load_scene,
                           oracle_depth_error, save_scene, trajectory_spread)

INTR = CameraIntrinsics(f=200.0, cu=32.0, cv=32.0, width=64, height=64)
TRACK = (VelocitySample(t=0.0, linear=(1.0, 0.0, 0.0),
                        angular=(0.0, 0.0, 0.0)),)
RIG = CameraRig(intrinsics=INTR, track=TRACK)
VEL = interpolate_velocity(TRACK, 0.0, 0.1)
PLANE = SceneSpec(kind="plane", depths=(10.0,), edge_spacing=10)


def make_window(scene=PLANE, seed=1, events_per_edge=20, rig=RIG):
    return generate(scene, rig, duration=0.1, events_per_edge=events_per_edge,
                    seed=seed, t_ref=0.1)


class TestSceneSpec:
    def test_plane_edge_columns(self):
        scene = SceneSpec(kind="plane", depths=(10.0,), edge_spacing=8)
        np.testing.assert_array_equal(scene.edge_columns(64),
                                      [4, 12, 20, 28, 36, 44, 52, 60])

    def test_striped_uses_period(self):
        scene = SceneSpec(kind="striped", depths=(10.0,), period=4)
        np.testing.assert_array_equal(scene.edge_columns(16),
                                      [2, 6, 10, 14])

    def test_band_limits_striped_texture(self):
        scene = SceneSpec(kind="striped", depths=(10.0,), period=4,
                          band=(20, 44))
        cols = scene.edge_columns(64)
        np.testing.assert_array_equal(cols, np.arange(20, 44, 4))
        # the band is clipped to the sensor
        cols = scene.edge_columns(30)
        np.testing.assert_array_equal(cols, [20, 24, 28])

    def test_two_plane_depth_grid(self):
        scene = SceneSpec(kind="two_plane", depths=(8.0, 12.0), split_col=32)
        grid = scene.depth_grid(64, 4)
        assert (grid[:, :32] == 8.0).all()
        assert (grid[:, 32:] == 12.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(kind="sphere", depths=(10.0,))
        with pytest.raises(ValueError):
            SceneSpec(kind="plane", depths=(10.0, 20.0))
        with pytest.raises(ValueError):
            SceneSpec(kind="two_plane", depths=(10.0,), split_col=32)
        with pytest.raises(ValueError):
            SceneSpec(kind="plane", depths=(500.0,))
        with pytest.raises(ValueError):
            SceneSpec(kind="two_plane", depths=(8.0, 12.0))
        with pytest.raises(ValueError):
            SceneSpec(kind="striped", depths=(10.0,))
        with pytest.raises(ValueError):
            SceneSpec(kind="striped", depths=(10.0,), period=1)
        with pytest.raises(ValueError):
            SceneSpec(kind="plane", depths=(10.0,), band=(30, 30))
        with pytest.raises(ValueError, match="band must be"):
            SceneSpec(kind="plane", depths=(10.0,), band=(30,))
        for spacing in (0, False, -4):
            with pytest.raises(ValueError, match="edge_spacing must be >= 1"):
                SceneSpec(kind="plane", depths=(10.0,), edge_spacing=spacing)

    def test_json_round_trip(self, tmp_path):
        scene = SceneSpec(kind="striped", depths=(10.0,), period=4,
                          band=(20, 44))
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        assert load_scene(path) == scene

    def test_json_round_trip_two_plane(self, tmp_path):
        scene = SceneSpec(kind="two_plane", depths=(8.0, 12.0), split_col=32,
                          edge_spacing=10)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        assert load_scene(path) == scene

    def test_old_file_with_contrast_threshold_loads(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "kind": "plane", "depths": [10.0], "split_col": None,
            "period": None, "band": None, "edge_spacing": 10,
            "contrast_threshold": 0.2}))
        assert load_scene(path) == PLANE

    @pytest.mark.parametrize("raw, words", [
        ({"kind": "plane", "depths": [10.0], "edge_spacng": 10},
         ["unexpected", "'edge_spacng'"]),
        ({"kind": "plane"}, ["missing", "'depths'"]),
        ({"kind": "plane", "depths": 10.0}, ["not iterable"]),
        ([10.0], ["a scene spec is a JSON object"])],
        ids=["unknown", "missing", "depths_not_a_list", "not_an_object"])
    def test_bad_keys_name_the_file(self, tmp_path, raw, words):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as info:
            load_scene(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert all(word in message for word in words), message


class TestGenerate:
    def test_zero_motion_events_sit_on_edges(self):
        rig = CameraRig(intrinsics=INTR,
                        track=(VelocitySample(t=0.0, linear=(0.0, 0.0, 0.0),
                                              angular=(0.0, 0.0, 0.0)),))
        win, truth = make_window(rig=rig, events_per_edge=5)
        cols = set(PLANE.edge_columns(64).tolist())
        assert set(np.unique(win.events["u"]).tolist()) <= cols
        assert len(win.events) == len(cols) * 64 * 5

    def test_warp_at_true_depth_collapses_trajectories(self):
        win, truth = make_window()
        assert trajectory_spread(win, truth, INTR, VEL, 10.0) <= 1e-6

    @pytest.mark.parametrize("linear, angular", [
        ((0.5, 0.0, 0.5), (0.0, 0.0, 0.0)), ((1.0, 0.0, 0.0), (0.0, 0.05, 0.0))],
        ids=["forward", "yawing"])
    def test_varying_flow_collapses_within_rounding(self, linear, angular):
        # flow that changes along a trajectory makes the generator look the
        # flow up again at each snapped pixel; the module promises a collapse
        # within rounding of the off-axis coordinate (0.0 and 0.07 px here)
        intr = CameraIntrinsics(f=50.0, cu=32.0, cv=32.0, width=64, height=64)
        track = (VelocitySample(t=0.0, linear=linear, angular=angular),)
        scene = SceneSpec(kind="plane", depths=(5.0,), edge_spacing=8)
        win, truth = make_window(scene, seed=3,
                                 rig=CameraRig(intrinsics=intr, track=track))
        assert len(win.events) > 0
        vel = interpolate_velocity(track, 0.0, 0.1)
        assert trajectory_spread(win, truth, intr, vel, 5.0) < 0.5

    def test_warp_at_wrong_depth_smears(self):
        win, truth = make_window()
        assert trajectory_spread(win, truth, INTR, VEL, 5.0) > 1.0

    def test_streak_covers_three_pixel_crossings(self):
        # flow -20 px/s over 0.1 s: each trajectory crosses 3 integer pixels,
        # at time offsets 0, -0.05, -0.1 exactly
        win, truth = make_window()
        offsets = win.offsets
        for tid in np.unique(truth.event_trajectory)[:40]:
            sel = truth.event_trajectory == tid
            us = np.unique(win.events["u"][sel])
            assert len(us) <= 3
            assert us.max() - us.min() <= 2
            snapped = np.unique(np.round(offsets[sel] * 20.0))
            assert set(snapped.tolist()) <= {-2.0, -1.0, 0.0}

    def test_event_times_inside_window(self):
        win, _ = make_window()
        t = win.events["t"]
        assert t.min() >= 0.0 - 1e-12
        assert win.t_ref <= 0.1 + 1e-12
        assert (np.diff(t) >= 0).all()

    def test_same_seed_reproduces_bitwise(self):
        a, _ = make_window(seed=7)
        b, _ = make_window(seed=7)
        assert np.array_equal(a.events, b.events)

    def test_different_seeds_differ(self):
        a, _ = make_window(seed=7)
        b, _ = make_window(seed=8)
        assert not np.array_equal(a.events, b.events)

    def test_two_plane_event_depths_follow_split(self):
        scene = SceneSpec(kind="two_plane", depths=(8.0, 12.0), split_col=32,
                          edge_spacing=10)
        win, truth = make_window(scene=scene)
        near = win.events["u"] < 28    # streaks stay within 2 px of the edge
        assert (truth.event_depth[near] <= 8.0).all()
        assert set(np.unique(truth.event_depth).tolist()) == {8.0, 12.0}

    def test_striped_band_confines_events(self):
        scene = SceneSpec(kind="striped", depths=(10.0,), period=4,
                          band=(20, 44))
        win, _ = make_window(scene=scene)
        assert win.events["u"].min() >= 18   # 2 px streak to the left
        assert win.events["u"].max() <= 43

    def test_jitter_moves_events(self):
        clean, _ = make_window(seed=9)
        noisy, _ = generate(PLANE, RIG, duration=0.1, events_per_edge=20,
                            seed=9, jitter=1.0, t_ref=0.1)
        assert not np.array_equal(clean.events["u"], noisy.events["u"])
        assert noisy.events["u"].max() < 64

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(PLANE, RIG, duration=0.0, events_per_edge=5, seed=0)
        with pytest.raises(ValueError):
            generate(PLANE, RIG, duration=0.1, events_per_edge=0, seed=0)


class TestObliqueMotion:
    """Motion (0.6, 0.8) runs mostly along the vertical edges.  Each edge
    still fires where it crosses a column, so the stream encodes the true
    depth in x."""

    INTR = CameraIntrinsics(f=200.0, cu=120.0, cv=90.0, width=240, height=180)
    TRACK = (VelocitySample(t=0.0, linear=(0.6, 0.8, 0.0),
                            angular=(0.0, 0.0, 0.0)),)
    SCENE = SceneSpec(kind="plane", depths=(10.0,), edge_spacing=12)

    def window(self):
        rig = CameraRig(intrinsics=self.INTR, track=self.TRACK)
        return generate(self.SCENE, rig, duration=0.1, events_per_edge=20,
                        seed=1, t_ref=0.1)

    def test_events_snap_to_columns_of_their_edge(self):
        win, truth = self.window()
        # trajectory ids run row by row within each edge column
        edge = self.SCENE.edge_columns(240)[truth.event_trajectory // 180]
        # the edge moves 1.2 px in x over the window
        assert set(np.unique(edge - win.events["u"]).tolist()) <= {0, 1}
        vel = interpolate_velocity(self.TRACK, 0.0, 0.1)
        warped = EventWarp(win, self.INTR, vel)(10.0)
        np.testing.assert_allclose(warped[:, 0], edge, rtol=0, atol=1e-9)

    def test_depth_on_the_mask_is_the_plane_depth(self):
        # a stream snapped on the dominant flow axis (y) encodes 7.5 m
        win, truth = self.window()
        vel = interpolate_velocity(self.TRACK, 0.0, 0.1)
        sweep = SweepConfig(
            focus=FocusConfig(weights=(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)),
            num_scales=1)
        agg = AggregationConfig()
        depth_map, _ = estimate_depth(win, self.INTR, vel,
                                      inverse_depth_hypotheses(2.0, 50.0, 61),
                                      sweep, agg)
        mask = event_pixel_mask(win, self.INTR, vel, truth,
                                sweep.focus.window_radius, agg.min_support)
        graded = mask & depth_map.valid
        assert graded.sum() > 1000
        assert abs(np.median(depth_map.depth[graded]) - 10.0) <= 0.2


class TestEventPixelMask:
    def test_mask_hugs_edge_columns(self):
        win, truth = make_window()
        mask = event_pixel_mask(win, INTR, VEL, truth, radius=5)
        assert mask.any()
        cols = PLANE.edge_columns(64)
        near_edge = np.zeros(64, dtype=bool)
        for c in cols:
            near_edge[max(c - 2, 0):c + 3] = True
        masked_cols = np.unique(np.nonzero(mask)[1])
        assert near_edge[masked_cols].all()


class TestOracle:
    def test_oracle_grades_true_depth_correctly(self):
        win, truth = make_window()
        hyp = inverse_depth_hypotheses(2.0, 50.0, 32)
        sweep = SweepConfig(
            focus=FocusConfig(weights=(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
            num_scales=1)
        agg = AggregationConfig()
        report = oracle_depth_error(win, INTR, VEL, hyp, truth, sweep, agg)
        assert report.n_event_pixels > 100
        assert report.bin_accuracy >= 0.9
        assert report.aliased_fraction <= 0.1
        assert set(report.per_plane_accuracy) == {10.0}
