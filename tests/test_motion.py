"""Motion-field evaluation, event warping, velocity handling, and noise."""

import numpy as np
import pytest

from evdepth.events import EventWindow, make_events
from evdepth.motion import (
    CameraIntrinsics,
    CameraRig,
    EventWarp,
    VelocitySample,
    average_velocity_norms,
    flow_bound,
    inject_velocity_noise,
    interpolate_velocity,
    load_camera,
    load_track,
    motion_field,
    save_camera,
    save_track,
)

# A 21x21 sensor with the principal point at (10, 10): pixel (10, 10) has
# u' = v' = 0, pixel (60, 10) would be off-sensor, so offsets are probed by
# placing the principal point instead.
CENTER = CameraIntrinsics(f=100.0, cu=10.0, cv=10.0, width=21, height=21)


def vel(linear=(0.0, 0.0, 0.0), angular=(0.0, 0.0, 0.0), t=0.0):
    return VelocitySample(t=t, linear=linear, angular=angular)


class TestMotionField:
    """Hand-evaluated flow cases, each checked to 1e-9 relative."""

    def test_forward_x_translation_at_center(self):
        # u' = v' = 0, T = (1,0,0), d = 10 -> flow (-f tx / d, 0) = (-10, 0)
        flow = motion_field(CENTER, vel(linear=(1.0, 0.0, 0.0)), d=10.0)
        np.testing.assert_allclose(flow[10, 10], (-10.0, 0.0), rtol=1e-9)

    def test_zero_motion_everywhere(self):
        flow = motion_field(CENTER, vel(), d=3.0)
        assert not flow.any()

    def test_z_translation_off_axis(self):
        # u' = 50 needs a pixel 50 right of the principal point.
        intr = CameraIntrinsics(f=100.0, cu=5.0, cv=10.0, width=61, height=21)
        flow = motion_field(intr, vel(linear=(0.0, 0.0, 1.0)), d=5.0)
        # u' tz / d = 50 / 5 = 10
        np.testing.assert_allclose(flow[10, 55], (10.0, 0.0), rtol=1e-9)

    def test_yaw_rotation_depth_cancels(self):
        # u' = 0, v' = 20, omega = (0,0,1) -> (f v' wz / f, -f u' wz / f) = (20, 0)
        intr = CameraIntrinsics(f=100.0, cu=10.0, cv=5.0, width=21, height=31)
        for d in (0.5, 10.0, 1e4):
            flow = motion_field(intr, vel(angular=(0.0, 0.0, 1.0)), d=d)
            np.testing.assert_allclose(flow[25, 10], (20.0, 0.0), rtol=1e-9)

    def test_pure_rotation_bitwise_equal_across_depths(self):
        omega = vel(angular=(0.02, -0.01, 0.03))
        fields = [motion_field(CENTER, omega, d)
                  for d in np.geomspace(0.5, 500.0, 64)]
        for f in fields[1:]:
            assert np.array_equal(f, fields[0])

    def test_translational_magnitude_strictly_decreasing_in_depth(self):
        v = vel(linear=(0.8, -0.3, 0.5))
        depths = np.linspace(1.0, 60.0, 40)
        mags = [np.linalg.norm(motion_field(CENTER, v, d), axis=2).sum()
                for d in depths]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_large_depth_limit_is_pure_rotation(self):
        v = vel(linear=(1.0, 1.0, 1.0), angular=(0.1, 0.0, -0.1))
        far = motion_field(CENTER, v, d=1e9)
        rot = motion_field(CENTER, vel(angular=(0.1, 0.0, -0.1)), d=1e9)
        assert np.abs(far - rot).max() < 1e-6

    def test_rejects_non_positive_depth(self):
        with pytest.raises(ValueError):
            motion_field(CENTER, vel(), d=0.0)
        with pytest.raises(ValueError):
            motion_field(CENTER, vel(), d=-2.0)

    def test_rejects_non_finite_velocity(self):
        with pytest.raises(ValueError):
            VelocitySample(t=0.0, linear=(np.inf, 0.0, 0.0),
                           angular=(0.0, 0.0, 0.0))


def field_gather_warp(window, intrinsics, velocity, d):
    """Reference warp: the full motion field, gathered at the event pixels."""
    flow = motion_field(intrinsics, velocity, d)
    u = window.events["u"].astype(np.int64)
    v = window.events["v"].astype(np.int64)
    per_event = flow[v, u]
    dt = window.offsets
    out = np.empty((len(window), 2), dtype=np.float64)
    out[:, 0] = u + per_event[:, 0] * dt
    out[:, 1] = v + per_event[:, 1] * dt
    return out


class TestWarpEvents:
    """EventWarp: per-event flow terms gathered once, any depth per call."""

    def window(self, u, v, offset):
        ev = make_events([0.0], [u], [v], [0])
        return EventWindow(events=ev, t_ref=-offset, t_span=0.0)

    def test_single_event_arithmetic(self):
        # flow (-10, 0) at the principal point, t - t_ref = 0.1 -> (10, 10)
        # warps to (9.0, 10.0)
        warp = EventWarp(self.window(10, 10, 0.1), CENTER,
                         vel(linear=(1.0, 0.0, 0.0)))
        np.testing.assert_allclose(warp(10.0)[0], (9.0, 10.0), rtol=1e-12)

    def test_zero_offset_identity(self):
        warp = EventWarp(self.window(4, 5, 0.0), CENTER,
                         vel(linear=(0.7, -0.2, 0.4), angular=(0.1, 0.2, 0.3)))
        np.testing.assert_allclose(warp(2.0)[0], (4.0, 5.0))

    def test_zero_flow_identity(self):
        warp = EventWarp(self.window(4, 5, 0.3), CENTER, vel())
        np.testing.assert_allclose(warp(2.0)[0], (4.0, 5.0))

    def test_flow_sampled_at_original_pixel(self):
        # z translation: flow (u', v') tz / d is (-60, -50) at the source
        # pixel (4, 5) and differs everywhere along the way; the warp must
        # use the source pixel's flow only
        warp = EventWarp(self.window(4, 5, 0.1), CENTER,
                         vel(linear=(0.0, 0.0, 1.0)))
        np.testing.assert_allclose(warp(0.1)[0], (-2.0, 0.0), atol=1e-12)

    def test_flow_must_cover_events(self):
        with pytest.raises(ValueError):
            EventWarp(self.window(30, 5, 0.1), CENTER, vel())
        with pytest.raises(ValueError):
            EventWarp(self.window(5, 21, 0.1), CENTER, vel())

    def test_rejects_non_positive_depth(self):
        warp = EventWarp(self.window(4, 5, 0.1), CENTER, vel())
        for d in (0.0, -2.0):
            with pytest.raises(ValueError):
                warp(d)

    def test_bitwise_equal_to_field_gather(self):
        intr = CameraIntrinsics(f=180.0, cu=31.3, cv=22.7, width=64, height=48)
        rng = np.random.default_rng(11)
        n = 2000
        t = np.sort(rng.uniform(0.0, 0.05, size=n))
        ev = make_events(t, rng.integers(0, 64, size=n),
                         rng.integers(0, 48, size=n), rng.integers(0, 2, size=n))
        window = EventWindow.from_events(ev)
        velocity = vel(linear=(0.9, -0.4, 0.6), angular=(0.05, -0.08, 0.12))
        warp = EventWarp(window, intr, velocity)
        for d in np.geomspace(0.5, 200.0, 97):
            ref = field_gather_warp(window, intr, velocity, d)
            out = warp(d)
            assert out.shape == (n, 2)
            assert np.array_equal(out, ref)
            # x and y are contiguous rows for the splat to read
            assert out[:, 0].flags.c_contiguous and out[:, 1].flags.c_contiguous


class TestInterpolateVelocity:
    def test_constant_track(self):
        track = (vel(linear=(1.0, 0.0, 0.0)),)
        out = interpolate_velocity(track, 0.0, 5.0)
        np.testing.assert_allclose(out.linear, (1.0, 0.0, 0.0))

    def test_linear_ramp_average(self):
        track = (vel(linear=(0.0, 0.0, 0.0), t=0.0),
                 vel(linear=(2.0, 0.0, 0.0), t=1.0))
        out = interpolate_velocity(track, 0.0, 1.0)
        np.testing.assert_allclose(out.linear[0], 1.0, rtol=1e-12)

    def test_hold_after_last_sample(self):
        track = (vel(linear=(1.0, 2.0, 3.0), t=0.0),
                 vel(linear=(5.0, 6.0, 7.0), t=1.0))
        out = interpolate_velocity(track, 10.0, 12.0)
        np.testing.assert_allclose(out.linear, (5.0, 6.0, 7.0))

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            interpolate_velocity((), 0.0, 1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^bad interval: t_a=1.0 > t_b=0.5$"):
            interpolate_velocity((vel(),), 1.0, 0.5)

    def test_point_query(self):
        track = (vel(linear=(0.0, 0.0, 0.0), t=0.0),
                 vel(linear=(2.0, 0.0, 0.0), t=1.0))
        out = interpolate_velocity(track, 0.5, 0.5)
        np.testing.assert_allclose(out.linear[0], 1.0, rtol=1e-12)


class TestVelocityNoise:
    def test_zero_level_identity(self):
        v = vel(linear=(1.0, 2.0, 3.0), angular=(0.1, 0.2, 0.3))
        assert inject_velocity_noise(v, 0.0, seed=1) is v

    def test_deterministic_per_seed(self):
        v = vel(linear=(1.0, 0.0, 0.0), angular=(0.0, 0.1, 0.0))
        a = inject_velocity_noise(v, 0.5, seed=42)
        b = inject_velocity_noise(v, 0.5, seed=42)
        assert a == b
        c = inject_velocity_noise(v, 0.5, seed=43)
        assert a != c

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            inject_velocity_noise(vel(), -0.1, seed=0)

    def test_sampler_scale_monte_carlo(self):
        # level 1 with ||T|| = 2: each linear component gets sigma = 2.
        v = vel(linear=(2.0, 0.0, 0.0))
        n = 100_000
        xs = np.empty(n)
        for seed in range(n):
            xs[seed] = inject_velocity_noise(v, 1.0, seed=seed).linear[1]
        assert abs(xs.std() - 2.0) / 2.0 < 0.02
        assert abs(xs.mean()) < 0.05

    def test_norms_can_come_from_window_average(self):
        v = vel(linear=(1.0, 0.0, 0.0))
        a = inject_velocity_noise(v, 1.0, seed=7, linear_norm=100.0,
                                  angular_norm=0.0)
        # same draw, a hundredfold the scale
        b = inject_velocity_noise(v, 1.0, seed=7)
        np.testing.assert_allclose(np.asarray(a.linear) - (1.0, 0.0, 0.0),
                                   100.0 * (np.asarray(b.linear) - (1.0, 0.0, 0.0)),
                                   rtol=1e-12)


class TestAverageNorms:
    def test_constant_track(self):
        track = (vel(linear=(3.0, 4.0, 0.0), angular=(0.0, 0.0, 1.0)),)
        lin, ang = average_velocity_norms(track, 0.0, 1.0)
        np.testing.assert_allclose(lin, 5.0, rtol=1e-9)
        np.testing.assert_allclose(ang, 1.0, rtol=1e-9)

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="^velocity track is empty$"):
            average_velocity_norms((), 0.0, 1.0)


class TestIntrinsics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(f=0.0, cu=10.0, cv=10.0, width=21, height=21)
        with pytest.raises(ValueError):
            CameraIntrinsics(f=10.0, cu=25.0, cv=10.0, width=21, height=21)
        # the flow takes f * f
        for f in (np.inf, 1e200):
            with pytest.raises(ValueError, match="^focal length "):
                CameraIntrinsics(f=f, cu=10.0, cv=10.0, width=21, height=21)
        CameraIntrinsics(f=1e150, cu=10.0, cv=10.0, width=21, height=21)

    def test_resolution_order(self):
        assert CENTER.resolution == (21, 21)


class TestRig:
    def test_flow_bound_bounds_the_field(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = vel(linear=tuple(rng.normal(size=3)),
                    angular=tuple(rng.normal(size=3)))
            for d in (0.5, 1.0, 7.0):
                bound = flow_bound(CENTER, v, d)
                for depth in (d, 2 * d):
                    assert np.abs(motion_field(CENTER, v, depth)).max() <= bound

    @pytest.mark.parametrize("intrinsics, velocity", [
        (CENTER, vel(linear=(1e307, 0.0, 0.0))),
        (CENTER, vel(linear=(0.0, 0.0, 1e308))),
        (CENTER, vel(angular=(0.0, 1e306, 0.0))),
        # a finite numerator over a tiny focal length
        (CameraIntrinsics(f=1e-300, cu=10.0, cv=10.0, width=21, height=21),
         vel(angular=(1e10, 0.0, 0.0)))],
        ids=["tx", "tz", "wy", "tiny_focal_length"])
    def test_flow_beyond_float_range_rejected(self, intrinsics, velocity):
        track = (vel(t=-1.0), velocity)
        with pytest.raises(ValueError, match=r"^velocity at t=0\.0 gives a flow "
                           r"beyond the float range on the 21x21 sensor$"):
            CameraRig(intrinsics, track)

    def test_benchmark_tracks_accepted(self):
        # 10 m/s sideways on the DAVIS-size sensors, f = 200
        for width, height in ((240, 180), (346, 260)):
            intr = CameraIntrinsics(f=200.0, cu=width / 2, cv=height / 2,
                                    width=width, height=height)
            track = tuple(vel(linear=(10.0, 0.0, 0.0), t=t) for t in (0.0, 0.1))
            assert flow_bound(intr, track[0], 2.0) == 1000.0
            CameraRig(intr, track)
        CameraRig(CENTER, (vel(linear=(1e300, 0.0, 0.0)),))


class TestFileFormats:
    def test_camera_round_trip(self, tmp_path):
        path = tmp_path / "camera.json"
        save_camera(path, CENTER)
        assert load_camera(path) == CENTER

    def test_track_round_trip(self, tmp_path):
        track = (vel(linear=(1.0, 2.0, 3.0), angular=(0.1, 0.2, 0.3), t=0.0),
                 vel(linear=(4.0, 5.0, 6.0), angular=(0.4, 0.5, 0.6), t=0.5))
        path = tmp_path / "track.txt"
        save_track(path, track)
        loaded = load_track(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded[1].angular, (0.4, 0.5, 0.6))
