"""Hypothesis sets, the trend, fusion and readout kernels, hole filling,
and the sweep pipeline."""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from evdepth import costvol
from evdepth.costvol import (
    DEPTH_SENTINEL,
    FLAG_FILLED,
    FLAG_INVALID,
    FLAG_MEASURED,
    FILL_POLICIES,
    AggregationConfig,
    DepthMap,
    HypothesisSet,
    SweepConfig,
    estimate_depth,
    fill_depth,
    inverse_depth_hypotheses,
    objective_sweep,
    shutdown_pools,
)
from evdepth.events import EventWindow, make_events
from evdepth.focus import FocusConfig, box_window_sum
from evdepth.iwe import accumulate
from evdepth.motion import CameraIntrinsics, EventWarp, VelocitySample

HYP5 = inverse_depth_hypotheses(2.0, 10.0, 5)   # 1/d = 0.5, 0.4, 0.3, 0.2, 0.1


def volume_from_curves(curves):
    """Stack per-pixel score curves (list of rows of tuples) into a
    (D, H, W) volume."""
    return np.moveaxis(np.asarray(curves, dtype=np.float64), 2, 0).copy()


def trend_curves(curves, iterations, peak_alpha):
    """The trend kernel over a volume of ``curves``, in one block."""
    s = volume_from_curves(curves)
    costvol._trend_filter_inplace(s, iterations, peak_alpha, len(s))
    return s


def fuse(levels, scale_weights=None):
    """Fuse the per-scale volumes ``levels``, level k at pyramid level k,
    with the fusion kernel in blocks of the pipeline's size, over a copy of
    level 0."""
    d, h, w = levels[0].shape
    weights = costvol._scale_weights(scale_weights, len(levels))
    divisors = [costvol._divisor(level.max(axis=0)) for level in levels]
    fused = levels[0].copy()
    step = costvol._block_slices((h, w))
    for a in range(0, d, step):
        costvol._fuse_block([fused[a:a + step]]
                            + [level[a:a + step] for level in levels[1:]],
                            divisors, weights)
    return fused


def read_out(curves, iwe, min_support=0.5):
    """The band readout of one-scale ``curves`` over ``HYP5``, with no trend
    filtering, ``iwe`` broadcast to the (D, H, W) IWE volume and a support
    window of side 1, so that a pixel's support is its winner's IWE."""
    scores = volume_from_curves(curves)
    d, h, w = scores.shape
    layout, _ = costvol._window_layout(d, (w, h), 1)
    out = costvol._window_arrays(layout)
    out.scores[0][:] = scores
    out.iwe[:] = iwe
    costvol._aggregate_band(out, 0, h, HYP5.inverse, AggregationConfig(
        trend_iterations=0, peak_alpha=0.0, min_support=min_support), 1)
    return DepthMap(depth=out.depth, confidence=out.confidence,
                    flags=out.flags)


class TestHypothesisSet:
    def test_inverse_sampling_uniform_in_inverse_depth(self):
        hyp = inverse_depth_hypotheses(2.0, 50.0, 32)
        steps = np.diff(hyp.inverse)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
        assert hyp.depths[0] == 2.0
        np.testing.assert_allclose(hyp.depths[-1], 50.0, rtol=1e-12)

    def test_bin_of_maps_each_hypothesis_to_itself(self):
        hyp = inverse_depth_hypotheses(2.0, 50.0, 32)
        np.testing.assert_array_equal(hyp.bin_of(hyp.depths), np.arange(32))

    def test_bin_of_nearest_in_inverse_depth(self):
        # 1/3.4 = 0.294 sits in the cell of 1/d = 0.3 (bin 2)
        assert HYP5.bin_of(3.4) == 2
        assert HYP5.bin_of(2.1) == 0
        assert HYP5.bin_of(1000.0) == 4

    def test_single_hypothesis_allowed(self):
        hyp = HypothesisSet(depths=np.array([4.0]))
        assert len(hyp) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            HypothesisSet(depths=np.array([3.0, 2.0]))
        with pytest.raises(ValueError):
            HypothesisSet(depths=np.array([-1.0, 2.0]))
        for depths in ([2.0, np.inf], [np.nan], [2.0, np.nan, 3.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                HypothesisSet(depths=np.array(depths))
        with pytest.raises(ValueError, match="^d_max must be"):
            inverse_depth_hypotheses(5.0, 2.0, 4)
        with pytest.raises(ValueError, match="^d_max must be"):
            inverse_depth_hypotheses(2.0, np.inf, 4)
        with pytest.raises(ValueError, match="^d_min must be"):
            inverse_depth_hypotheses(0.0, 2.0, 4)
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"^count must be >= 1, "
                                                 f"got {count}"):
                inverse_depth_hypotheses(2.0, 5.0, count)


class TestTrendFilter:
    def test_point_peak_spreads_once(self):
        out = trend_curves([[(0.0, 0.0, 4.0, 0.0, 0.0)]], 1, peak_alpha=0.0)
        np.testing.assert_array_equal(out[:, 0, 0], (0, 1, 2, 1, 0))

    def test_zero_iterations_zero_alpha_is_identity(self):
        curves = [[(1.0, 5.0, 2.0, 4.0, 0.5)]]
        out = trend_curves(curves, 0, peak_alpha=0.0)
        np.testing.assert_array_equal(out, volume_from_curves(curves))

    def test_weak_secondary_peak_replaced_by_neighbor_mean(self):
        out = trend_curves([[(0.0, 1.0, 0.0, 2.0, 0.0)]], 0, peak_alpha=0.7)
        # 1 < 0.7 * 2 -> replaced by (0 + 0)/2; the global peak survives
        np.testing.assert_array_equal(out[:, 0, 0], (0, 0, 0, 2, 0))

    def test_strong_secondary_peak_survives(self):
        out = trend_curves([[(0.0, 1.9, 0.0, 2.0, 0.0)]], 0, peak_alpha=0.7)
        np.testing.assert_array_equal(out[:, 0, 0], (0, 1.9, 0, 2, 0))

    def test_suppression_runs_once_not_to_fixpoint(self):
        # replacing bin 2 turns bin 1 into a fresh local maximum; a single
        # pass leaves that new maximum alone
        out = trend_curves([[(0.0, 0.2, 1.0, 0.0, 4.0)]], 0, peak_alpha=0.9)
        np.testing.assert_allclose(out[:, 0, 0], (0.0, 0.2, 0.1, 0.0, 4.0))

    def test_smoothing_keeps_symmetric_argmax(self):
        out = trend_curves([[(0.0, 2.0, 5.0, 2.0, 0.0)]], 3, peak_alpha=0.0)
        assert out[:, 0, 0].argmax() == 2

    def test_negative_iterations_rejected(self):
        # the pipeline's trend settings are checked where they are set
        with pytest.raises(ValueError, match="trend_iterations must be >= 0"):
            AggregationConfig(trend_iterations=-1)
        AggregationConfig(trend_iterations=0)


def padded_trend_filter(scores, iterations, peak_alpha):
    """The trend filter on whole volumes, with a padded concatenation and
    mask-indexed suppression: the previous implementation, kept as the
    bitwise reference."""
    s = scores
    for _ in range(iterations):
        padded = np.concatenate([s[:1], s, s[-1:]], axis=0)
        s = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) * 0.25
    if peak_alpha > 0 and s.shape[0] >= 3:
        s = s.copy()
        inner = s[1:-1]
        weak = ((inner > s[:-2]) & (inner > s[2:])
                & (inner < peak_alpha * s.max(axis=0)[None]))
        inner[weak] = (0.5 * (s[:-2] + s[2:]))[weak]
    return s


@pytest.mark.parametrize("iterations", [0, 1, 2])
@pytest.mark.parametrize("peak_alpha", [0.0, 0.7])
def test_trend_filter_bitwise_equal_to_padded_reference(iterations, peak_alpha):
    # the kernel on a whole volume, in blocks of the pipeline's size
    rng = np.random.default_rng(iterations * 10 + int(peak_alpha * 10))
    for d in (1, 2, 3, 4, 17):
        # rounded values give plateaus and ties between neighbors
        scores = np.round(rng.gamma(1.0, size=(d, 9, 11)), 1)
        want = padded_trend_filter(scores, iterations, peak_alpha)
        peak = costvol._trend_filter_inplace(scores, iterations, peak_alpha,
                                             costvol._block_slices((9, 11)))
        assert np.array_equal(scores, want)
        assert np.array_equal(peak, want.max(axis=0))


@pytest.mark.parametrize("iterations", [0, 1, 2])
@pytest.mark.parametrize("peak_alpha", [0.0, 0.7, 1.5])
def test_blocked_trend_kernel_bitwise_equal_to_padded_reference(iterations,
                                                               peak_alpha):
    rng = np.random.default_rng(iterations * 10 + int(peak_alpha * 10))
    for d in (1, 2, 3, 4, 17):
        scores = np.round(rng.gamma(1.0, size=(d, 9, 11)), 1)
        want = padded_trend_filter(scores, iterations, peak_alpha)
        for step in sorted({1, 2, d}):
            # a band of rows of a larger volume, filtered where it lies
            volume = np.zeros((d, 13, 11))
            volume[:, 2:11] = scores
            peak = costvol._trend_filter_inplace(volume[:, 2:11], iterations,
                                                 peak_alpha, step)
            assert np.array_equal(volume[:, 2:11], want), step
            assert np.array_equal(peak, want.max(axis=0)), step
            assert not volume[:, :2].any() and not volume[:, 11:].any()


def gather_fuse(volumes, weights):
    """Fusion with whole-volume normalisation and a (D, H, W) fancy-index
    upsample: the previous implementation, kept as the bitwise reference."""
    d, h, w = volumes[0].shape
    acc = np.zeros((d, h, w), dtype=np.float64)
    for shift, (vol, wk) in enumerate(zip(volumes, weights)):
        peak = vol.max(axis=0)
        norm = np.zeros_like(vol)
        np.divide(vol, peak[None], out=norm, where=peak[None] > 0)
        if shift:
            vi = np.arange(h) >> shift
            ui = np.arange(w) >> shift
            norm = norm[:, vi[:, None], ui[None, :]]
        norm *= wk
        acc += norm
    acc /= np.sum(weights)
    return acc


def test_multiscale_fuse_bitwise_equal_to_gather_reference():
    rng = np.random.default_rng(5)
    volumes = []
    for shape in [(260, 346), (130, 173), (65, 87)]:
        scores = rng.gamma(2.0, size=(4, *shape))
        scores[:, rng.uniform(size=shape) < 0.2] = 0.0    # flat zero curves
        volumes.append(scores)
    weights = (0.5, 1.25, 3.0)
    assert np.array_equal(fuse(volumes, weights), gather_fuse(volumes, weights))


class TestMultiscaleFuse:
    def test_single_volume_normalizes_curves(self):
        out = fuse([volume_from_curves([[(1.0, 2.0, 4.0, 2.0, 1.0)]])])
        np.testing.assert_allclose(out[:, 0, 0], (0.25, 0.5, 1.0, 0.5, 0.25))

    def test_zero_curve_stays_zero(self):
        out = fuse([volume_from_curves([[(0.0,) * 5,
                                         (1.0, 0.0, 0.0, 0.0, 0.0)]])])
        assert not out[:, 0, 0].any()
        assert np.isfinite(out).all()

    def test_identical_volumes_fuse_to_same_curves(self):
        vol = volume_from_curves([[(1.0, 3.0, 2.0, 0.5, 0.1)]])
        one = fuse([vol])
        two = fuse([vol, vol], scale_weights=(1.0, 1.0))
        np.testing.assert_allclose(two, one, rtol=1e-12)

    def test_coarse_level_upsampled_nearest_neighbor(self):
        coarse = np.zeros((2, 2, 2))
        coarse[:, 0, 0] = (1.0, 2.0)
        out = fuse([np.zeros((2, 4, 4)), coarse], scale_weights=(0.0, 1.0))
        np.testing.assert_allclose(out[0, :2, :2], np.full((2, 2), 0.5))
        np.testing.assert_allclose(out[1, :2, :2], np.ones((2, 2)))
        assert not out[:, 2:, 2:].any()

    def test_result_is_weight_normalized(self):
        vol = volume_from_curves([[(0.0, 4.0, 0.0, 0.0, 0.0)]])
        out = fuse([vol, vol], scale_weights=(3.0, 1.0))
        assert out[:, 0, 0].max() == 1.0

    def test_weight_validation(self):
        # AggregationConfig checks the values (test_config_validation)
        with pytest.raises(ValueError, match="2 scale weights for 1 scales"):
            fuse([volume_from_curves([[(1.0,) * 5]])], scale_weights=(1.0, 1.0))

    def test_volume_k_must_be_pyramid_level_k(self):
        # levels ceil-halved from an odd sensor upsample, then crop to it
        levels = [np.ones((2, 5, 9)), np.ones((2, 3, 5)), np.ones((2, 2, 3))]
        assert np.array_equal(fuse(levels), np.ones((2, 5, 9)))


class TestExtractDepth:
    def test_symmetric_peak_no_offset(self):
        dm = read_out([[(0.0, 1.0, 3.0, 1.0, 0.0)]], iwe=1.0)
        np.testing.assert_allclose(dm.depth[0, 0], 1.0 / 0.3, rtol=1e-12)
        assert dm.valid[0, 0]
        assert dm.flags[0, 0] == FLAG_MEASURED

    def test_asymmetric_peak_parabolic_offset(self):
        # lo=1, peak=3, hi=2: offset = (1-2)/(2*(1-6+2)) = 1/6 of the
        # inverse-depth step toward the larger neighbor
        dm = read_out([[(0.0, 1.0, 3.0, 2.0, 0.0)]], iwe=1.0)
        np.testing.assert_allclose(dm.depth[0, 0], 1.0 / (0.3 - 0.1 / 6.0),
                                   rtol=1e-12)

    def test_boundary_peak_skips_refinement(self):
        dm = read_out([[(3.0, 1.0, 0.0, 0.0, 0.0),
                        (0.0, 0.0, 0.0, 1.0, 3.0)]], iwe=1.0)
        assert dm.depth[0, 0] == 2.0
        assert dm.depth[0, 1] == 10.0

    def test_confidence_is_peak_to_mean_ratio(self):
        dm = read_out([[(0.0, 1.0, 3.0, 2.0, 0.0)]], iwe=1.0)
        np.testing.assert_allclose(dm.confidence[0, 0], 3.0 / 1.2, rtol=1e-12)

    def test_flat_zero_curve_confidence_one(self):
        dm = read_out([[(0.0,) * 5]], iwe=1.0)
        assert dm.confidence[0, 0] == 1.0

    def test_min_support_invalidates(self):
        dm = read_out([[(0.0, 1.0, 3.0, 1.0, 0.0)] * 2], iwe=[[0.4, 0.6]],
                      min_support=0.5)
        assert not dm.valid[0, 0]
        assert dm.depth[0, 0] == DEPTH_SENTINEL
        assert dm.flags[0, 0] == FLAG_INVALID
        assert dm.valid[0, 1]

    def test_volumetric_support_gathered_at_winner(self):
        curves = [[(0.0, 1.0, 3.0, 1.0, 0.0)]]
        iwe = np.zeros((5, 1, 1))
        iwe[2] = 0.7         # mass under the winning hypothesis only
        assert read_out(curves, iwe, min_support=0.5).valid[0, 0]
        iwe[2] = 0.3
        assert not read_out(curves, iwe, min_support=0.5).valid[0, 0]


class TestFillDepth:
    def make_map(self, depth_row, valid_row):
        depth = np.asarray([depth_row], dtype=np.float64)
        valid = np.asarray([valid_row], dtype=bool)
        flags = np.where(valid, FLAG_MEASURED, FLAG_INVALID).astype(np.uint8)
        return DepthMap(depth=depth, confidence=np.ones_like(depth),
                        flags=flags)

    def test_none_returns_input(self):
        dm = self.make_map([5.0, DEPTH_SENTINEL], [True, False])
        assert fill_depth(dm, "none") is dm

    def test_no_holes_returns_input(self):
        dm = self.make_map([5.0, 6.0], [True, True])
        assert fill_depth(dm, "nearest-valid") is dm

    def test_nearest_valid_copies_closest(self):
        dm = self.make_map([5.0, DEPTH_SENTINEL, DEPTH_SENTINEL, 9.0],
                           [True, False, False, True])
        out = fill_depth(dm, "nearest-valid")
        np.testing.assert_array_equal(out.depth, [[5.0, 5.0, 9.0, 9.0]])
        np.testing.assert_array_equal(out.flags, [[1, 2, 2, 1]])
        np.testing.assert_array_equal(out.valid, dm.valid)

    def test_median_window_fills_from_neighbors(self):
        dm = self.make_map([4.0, DEPTH_SENTINEL, 6.0, 8.0],
                           [True, False, True, True])
        out = fill_depth(dm, "median-window", radius=1)
        np.testing.assert_allclose(out.depth[0, 1], 5.0)
        assert out.flags[0, 1] == FLAG_FILLED

    def test_median_window_leaves_isolated_holes(self):
        dm = self.make_map([4.0, DEPTH_SENTINEL, DEPTH_SENTINEL,
                            DEPTH_SENTINEL, 6.0],
                           [True, False, False, False, True])
        out = fill_depth(dm, "median-window", radius=1)
        assert out.depth[0, 2] == DEPTH_SENTINEL
        assert out.flags[0, 2] == FLAG_INVALID

    def test_unknown_policy_rejected(self):
        dm = self.make_map([5.0, DEPTH_SENTINEL], [True, False])
        with pytest.raises(ValueError):
            fill_depth(dm, "inpaint")


def tiny_window():
    ev = make_events([0.0, 0.04, 0.08, 0.1],
                     [4, 8, 11, 6], [4, 8, 3, 12], [1, 0, 1, 0])
    return EventWindow(events=ev, t_ref=0.1, t_span=0.1)


TINY_INTR = CameraIntrinsics(f=50.0, cu=8.0, cv=8.0, width=16, height=16)
WIDE_INTR = CameraIntrinsics(f=50.0, cu=20.0, cv=15.0, width=41, height=30)


def random_window(seed, n=300):
    """``n`` random events inside the 16x16 corner every sensor here has."""
    rng = np.random.default_rng(seed)
    ev = make_events(np.sort(rng.uniform(0.0, 0.1, n)),
                     rng.integers(0, 16, n), rng.integers(0, 16, n),
                     rng.integers(0, 2, n))
    return EventWindow(events=ev, t_ref=float(ev["t"][-1]), t_span=0.1)


def same_estimate(a, b):
    """Whether two ``estimate_depth`` results are bitwise equal."""
    (map_a, sum_a), (map_b, sum_b) = a, b
    return (all(np.array_equal(getattr(map_a, name), getattr(map_b, name))
                for name in ("depth", "confidence", "flags"))
            and all(np.array_equal(getattr(sum_a, name), getattr(sum_b, name))
                    for name in ("winner", "discarded", "mass"))
            and list(sum_a.curves) == list(sum_b.curves)
            and all(np.array_equal(curve, sum_b.curves[pixel])
                    for pixel, curve in sum_a.curves.items()))


class TestBuildVolume:
    """The sweep that builds a window's cost volumes, and the worker pool
    that runs it with the aggregation."""

    def test_pure_rotation_slices_identical(self, sweep_window):
        # rotational flow carries no depth information, so every hypothesis
        # produces the same scores, bit for bit
        vel = VelocitySample(t=0.0, linear=(0.0, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.5))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        out = sweep_window(tiny_window(), TINY_INTR, vel, hyp,
                           SweepConfig(num_scales=1,
                                       focus=FocusConfig(window_radius=3)))
        scores = out.scores[0]
        for j in range(1, 6):
            assert np.array_equal(scores[j], scores[0])
        assert np.array_equal(out.mass, np.full(6, out.mass[0]))

    def test_pure_rotation_confidence_is_one(self):
        vel = VelocitySample(t=0.0, linear=(0.0, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.5))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        dm, summary = estimate_depth(
            tiny_window(), TINY_INTR, vel, hyp,
            SweepConfig(num_scales=1, focus=FocusConfig(window_radius=3)),
            AggregationConfig(scale_weights=(1.0,), trend_iterations=0,
                              peak_alpha=0.0))
        assert summary.curves
        for curve in summary.curves.values():
            np.testing.assert_allclose(curve, curve[0], atol=1e-12)
        np.testing.assert_allclose(dm.confidence, 1.0, atol=1e-12)

    def test_volume_shapes_follow_pyramid(self, sweep_window):
        vel = VelocitySample(t=0.0, linear=(0.5, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 4)
        out = sweep_window(tiny_window(), TINY_INTR, vel, hyp,
                           SweepConfig(num_scales=3,
                                       focus=FocusConfig(window_radius=3)))
        assert [s.shape for s in out.scores] == [
            (4, 16, 16), (4, 8, 8), (4, 4, 4)]
        assert out.iwe.shape == (4, 16, 16)
        assert out.discarded.shape == (4,)

    def test_too_many_scales_rejected(self):
        vel = VelocitySample(t=0.0, linear=(0.5, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 4)
        intr = CameraIntrinsics(f=50.0, cu=4.0, cv=4.0, width=8, height=8)
        with pytest.raises(ValueError):
            estimate_depth(tiny_window(), intr, vel, hyp,
                           SweepConfig(num_scales=3))

    def test_odd_sensor_coarsest_level_rounds_up(self, sweep_window):
        # an 11x11 pyramid is 11, 6 and 3 px: three scales fit, four do not
        intr = CameraIntrinsics(f=50.0, cu=5.0, cv=5.0, width=11, height=11)
        vel = VelocitySample(t=0.0, linear=(0.5, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.0))
        ev = make_events([0.0, 0.05, 0.1], [2, 5, 9], [3, 6, 10], [1, 0, 1])
        window = EventWindow(events=ev, t_ref=0.1, t_span=0.1)
        hyp = inverse_depth_hypotheses(2.0, 10.0, 4)
        sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=3))
        out = sweep_window(window, intr, vel, hyp, sweep)
        assert [s.shape for s in out.scores] == [
            (4, 11, 11), (4, 6, 6), (4, 3, 3)]
        dm, _ = estimate_depth(window, intr, vel, hyp, sweep)
        assert dm.depth.shape == (11, 11)
        with pytest.raises(ValueError, match="4 scales"):
            estimate_depth(window, intr, vel, hyp, SweepConfig(num_scales=4))

    def test_worker_count_does_not_change_results(self):
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 8)
        cfg1 = SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                           workers=1)
        cfg2 = SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                           workers=2)
        try:
            r1 = estimate_depth(tiny_window(), TINY_INTR, vel, hyp, cfg1)
            r2 = estimate_depth(tiny_window(), TINY_INTR, vel, hyp, cfg2)
        finally:
            shutdown_pools()
        assert same_estimate(r1, r2)

    def test_arena_regrowth_keeps_results(self):
        # a larger sensor replaces the pool's arena; a smaller one reuses it
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 7)
        window = random_window(3)
        sizes = []
        try:
            for intr in (TINY_INTR, WIDE_INTR, TINY_INTR):
                results = [estimate_depth(window, intr, vel, hyp, SweepConfig(
                    num_scales=3, focus=FocusConfig(window_radius=3),
                    workers=workers)) for workers in (1, 2)]
                sizes.append(len(costvol._POOLS[2][1]))
                assert same_estimate(*results)
        finally:
            shutdown_pools()
        assert sizes[0] < sizes[1] == sizes[2]
        assert not costvol._POOLS

    def test_threads_sharing_the_pool_keep_results(self):
        # two threads estimate depth on different sensors through one pool
        # of more workers than this host may have cores; a window that read
        # another thread's arena contents would differ from its one-worker
        # result
        window = random_window(4)
        hyp = inverse_depth_hypotheses(2.0, 10.0, 9)
        cases = [(TINY_INTR, VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                                            angular=(0.0, 0.01, 0.0))),
                 (WIDE_INTR, VelocitySample(t=0.0, linear=(-0.5, 0.4, 0.1),
                                            angular=(0.02, 0.0, 0.0)))]

        def config(workers):
            return SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                               workers=workers)

        refs = [estimate_depth(window, intr, vel, hyp, config(1))
                for intr, vel in cases]
        matched = []

        def sweep(first):
            for i in range(8):
                k = (first + i) % 2
                matched.append(same_estimate(
                    estimate_depth(window, *cases[k], hyp, config(3)), refs[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=sweep, args=(k,), daemon=True)
                   for k in (0, 1)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        hung = any(t.is_alive() for t in threads)
        if not hung:                  # a hung sweep may hold the pool lock
            shutdown_pools()
        assert not hung
        assert matched == [True] * 16

    def test_objective_sweep_constant_under_rotation(self):
        vel = VelocitySample(t=0.0, linear=(0.0, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.5))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        vals = objective_sweep(tiny_window(), TINY_INTR, vel, hyp,
                               FocusConfig(kind="var"))
        assert vals.shape == (6,)
        np.testing.assert_allclose(vals, vals[0], rtol=1e-12)

    def test_estimate_depth_output_coherent(self):
        vel = VelocitySample(t=0.0, linear=(1.0, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        dm, summary = estimate_depth(
            tiny_window(), TINY_INTR, vel, hyp,
            SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3)))
        assert dm.depth.shape == summary.winner.shape == (16, 16)
        assert all(curve.shape == (6,) for curve in summary.curves.values())
        assert (dm.flags[dm.valid] == FLAG_MEASURED).all()
        assert (dm.depth[~dm.valid] == DEPTH_SENTINEL).all()
        inside = (dm.valid & (dm.depth >= hyp.depths[0])
                  & (dm.depth <= hyp.depths[-1]))
        np.testing.assert_array_equal(inside, dm.valid)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(num_scales=0)
        with pytest.raises(ValueError):
            SweepConfig(workers=0)
        with pytest.raises(ValueError, match="unknown splat mode 'cubic'"):
            SweepConfig(splat="cubic")
        for name in ("peak_alpha", "min_support"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    AggregationConfig(**{name: value})
        for kind in ("sti", "sosa"):
            with pytest.raises(ValueError, match="no per-pixel score map"):
                SweepConfig(focus=FocusConfig(kind=kind))
        for weights in [(0.0,), (-1.0, 2.0), (np.nan,), (np.inf, 1.0)]:
            with pytest.raises(ValueError, match="scale_weights must be"):
                AggregationConfig(scale_weights=weights)
        AggregationConfig(scale_weights=(0.0, 1.0))
        with pytest.raises(ValueError, match="unknown fill policy 'inpaint'"):
            AggregationConfig(fill="inpaint")
        for policy in FILL_POLICIES:
            AggregationConfig(fill=policy)


def sensor_window(intr, seed, n=300):
    """``n`` random events anywhere on the sensor of ``intr``."""
    rng = np.random.default_rng(seed)
    ev = make_events(np.sort(rng.uniform(0.0, 0.1, n)),
                     rng.integers(0, intr.width, n),
                     rng.integers(0, intr.height, n), rng.integers(0, 2, n))
    return EventWindow(events=ev, t_ref=float(ev["t"][-1]), t_span=0.1)


def support_volume(iwe, side):
    """The ``side`` x ``side`` box sum of every hypothesis's IWE."""
    return np.stack([box_window_sum(grid.astype(np.float64), side)
                     for grid in iwe])


def reference_estimate(window, intr, vel, hyp, sweep, agg, sweep_window):
    """The pipeline on whole volumes from the test references: the raw
    sweep, ``padded_trend_filter`` at every scale, ``gather_fuse``, and an
    argmax readout with support taken from the box sums of every
    hypothesis's IWE; returns the filled depth map, the fused volume and the
    sweep's arrays."""
    out = sweep_window(window, intr, vel, hyp, sweep)
    fused = gather_fuse([padded_trend_filter(s, agg.trend_iterations,
                                             agg.peak_alpha)
                         for s in out.scores], agg.scale_weights)
    d, h, w = fused.shape
    idx = fused.argmax(axis=0)

    def at(j):
        return np.take_along_axis(fused, j[None], axis=0)[0]

    dm = costvol._readout(
        idx, at(idx), at(np.maximum(idx - 1, 0)), at(np.minimum(idx + 1, d - 1)),
        fused.mean(axis=0),
        np.take_along_axis(support_volume(out.iwe, sweep.focus.window_radius),
                           idx[None], axis=0)[0], hyp.inverse, agg.min_support)
    return fill_depth(dm, agg.fill), fused, out


def assert_same_estimate(got, want):
    (dm, summary), (ref, fused, res) = got, want
    for name in ("depth", "confidence", "flags"):
        assert np.array_equal(getattr(dm, name), getattr(ref, name)), name
    assert np.array_equal(summary.winner, fused.argmax(axis=0))
    assert np.array_equal(summary.discarded, res.discarded)
    assert np.array_equal(summary.mass, res.mass)
    # up to 8 measured pixels, spread evenly in row-major order
    ys, xs = np.nonzero(ref.valid)
    step = max(len(ys) // 8, 1)
    pixels = list(zip(ys[::step][:8].tolist(), xs[::step][:8].tolist()))
    assert list(summary.curves) == pixels
    for (y, x), curve in summary.curves.items():
        assert np.array_equal(curve, fused[:, y, x])


class TestEstimateDepthBands:
    """The band pipeline against the whole-volume references, bit for bit."""

    # (width, height, scales, hypotheses, trend iterations, peak alpha,
    # events)
    CASES = [
        (16, 16, 1, 7, 0, 0.0, 15),     # flat zero curves: ties at bin 0
        (13, 11, 3, 9, 1, 0.7, 300),    # height not a multiple of 4
        (21, 9, 3, 2, 2, 0.7, 300),     # fewer hypotheses than 3 workers
        (10, 9, 3, 5, 2, 0.0, 300),     # 3 row blocks of 4 for 4 workers
        (12, 7, 2, 6, 1, 0.7, 300),     # height not a multiple of 2
    ]

    @pytest.mark.parametrize("block_bytes", [1, 2_000, 1 << 19],
                             ids=["slice", "blocks", "whole"])
    def test_maps_winner_and_curves_match_whole_volume_stages(
            self, monkeypatch, sweep_window, block_bytes):
        shutdown_pools()              # the pools fork with these sizes
        monkeypatch.setattr(costvol, "_BLOCK_BYTES", block_bytes)
        # every window drops its mappings, which must keep the data
        monkeypatch.setattr(costvol, "_DROP_BYTES", 0)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        try:
            for i, (w, h, scales, d, iters, alpha, n) in enumerate(self.CASES):
                intr = CameraIntrinsics(f=50.0, cu=w / 2, cv=h / 2, width=w,
                                        height=h)
                window = sensor_window(intr, seed=i, n=n)
                hyp = inverse_depth_hypotheses(2.0, 10.0, d)
                sweep = SweepConfig(num_scales=scales,
                                    focus=FocusConfig(window_radius=3))
                agg = AggregationConfig(
                    scale_weights=tuple(np.linspace(1.0, 0.5, scales)),
                    trend_iterations=iters, peak_alpha=alpha, min_support=0.3,
                    fill="nearest-valid")
                want = reference_estimate(window, intr, vel, hyp, sweep, agg,
                                          sweep_window)
                assert want[0].valid.any()
                for workers in (1, 2, 3, 4):
                    got = estimate_depth(window, intr, vel, hyp,
                                         replace(sweep, workers=workers), agg)
                    assert_same_estimate(got, want)
        finally:
            shutdown_pools()

    def test_failed_worker_fails_the_window_and_the_pool(self, monkeypatch):
        # one hypothesis raises in the second worker; the first must not
        # wait for it at the barrier
        window, intr = random_window(5), TINY_INTR
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        sweep = SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                            workers=2)
        bad = accumulate(EventWarp(window, intr, vel)(hyp.depths[4]),
                         intr.resolution).grid
        score = costvol.volume_score_map

        def failing_score(grid, config, out=None):
            if grid.shape == bad.shape and np.array_equal(grid, bad):
                raise ValueError("hypothesis 4 cannot be scored")
            return score(grid, config, out)

        shutdown_pools()              # the pool forks with the patched scorer
        monkeypatch.setattr(costvol, "volume_score_map", failing_score)
        errors = []

        def run():
            try:
                estimate_depth(window, intr, vel, hyp, sweep)
            except ValueError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        t0 = time.monotonic()
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 10
        assert errors == ["hypothesis 4 cannot be scored"]
        assert 2 not in costvol._POOLS
        monkeypatch.undo()
        try:
            got = estimate_depth(window, intr, vel, hyp, sweep)
        finally:
            shutdown_pools()
        want = estimate_depth(window, intr, vel, hyp, replace(sweep, workers=1))
        for name in ("depth", "confidence", "flags"):
            assert np.array_equal(getattr(got[0], name), getattr(want[0], name))
        assert np.array_equal(got[1].winner, want[1].winner)


@pytest.mark.parametrize("side", [1, 3, 5, 15])
def test_support_is_the_box_sum_of_the_winners_iwe(sweep_window, side):
    # a 13x11 sensor in bands of 4 rows: the windows reach across band
    # edges, and a side of 15 covers the whole sensor from its centre
    intr = CameraIntrinsics(f=50.0, cu=6.5, cv=5.5, width=13, height=11)
    vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                         angular=(0.0, 0.01, 0.0))
    hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
    window = sensor_window(intr, seed=side, n=20)
    out = sweep_window(window, intr, vel, hyp, SweepConfig(
        num_scales=1, focus=FocusConfig(window_radius=3)))
    warp = EventWarp(window, intr, vel)
    box = np.stack([box_window_sum(accumulate(warp(depth),
                                              intr.resolution).grid, side)
                    for depth in hyp.depths])
    d, h, w = box.shape

    def at(volume, idx):
        return np.take_along_axis(volume, idx[None], axis=0)[0]

    # random winners, with the first and last hypothesis at the corners and
    # along the borders
    idx = np.random.default_rng(side).integers(0, d, size=(h, w))
    idx[0, :] = idx[:, 0] = 0
    idx[-1, :] = idx[:, -1] = d - 1
    for r0, r1 in ((0, h), (0, 4), (4, 8), (8, h)):
        got = costvol._support_at(out.iwe, idx[r0:r1], r0, side)
        # the IWE is stored as float32
        np.testing.assert_allclose(got, at(box, idx)[r0:r1], rtol=1e-7,
                                   atol=1e-12)
        if side == 1:
            assert np.array_equal(got, at(out.iwe, idx)[r0:r1])

    # at the pipeline's own winners, support decides the flags
    costvol._aggregate_band(out, 0, h, hyp.inverse,
                            AggregationConfig(min_support=0.3), side)
    support = at(box, out.winner)
    if side < 15:
        assert 0 < (support >= 0.3).sum() < h * w
    assert not np.isclose(support, 0.3, rtol=1e-6).any()
    assert np.array_equal(out.flags == FLAG_MEASURED, support >= 0.3)


@pytest.mark.parametrize("bands", [[(0, 11)], [(0, 4), (4, 8), (8, 11)]],
                         ids=["whole", "bands"])
@pytest.mark.parametrize("block_bytes", [1, 2_000, 1 << 19],
                         ids=["slice", "blocks", "whole"])
def test_readout_leaves_the_fused_curves_in_level_0(monkeypatch, sweep_window,
                                                   bands, block_bytes):
    # the band readout fuses over level 0 in place, and the sampled curves
    # and the winner's neighbours are read from there
    monkeypatch.setattr(costvol, "_BLOCK_BYTES", block_bytes)
    intr = CameraIntrinsics(f=50.0, cu=6.5, cv=5.5, width=13, height=11)
    vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                         angular=(0.0, 0.01, 0.0))
    hyp = inverse_depth_hypotheses(2.0, 10.0, 9)
    agg = AggregationConfig(scale_weights=(1.0, 0.75, 0.5),
                            trend_iterations=1, peak_alpha=0.7)
    out = sweep_window(sensor_window(intr, seed=3), intr, vel, hyp,
                       SweepConfig(num_scales=3,
                                   focus=FocusConfig(window_radius=3)))
    want = gather_fuse([padded_trend_filter(s, agg.trend_iterations,
                                            agg.peak_alpha)
                        for s in out.scores], agg.scale_weights)
    for r0, r1 in bands:
        costvol._aggregate_band(out, r0, r1, hyp.inverse, agg, 3)
    assert np.array_equal(out.scores[0], want)
