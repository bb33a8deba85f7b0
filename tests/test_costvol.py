"""Hypothesis sets, the trend, fusion and readout kernels, hole filling,
and the sweep pipeline."""

import gc
import mmap
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from evdepth import aggregate, costvol, pool
from evdepth.costvol import (
    DEPTH_SENTINEL,
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
    aggregate._trend_filter_inplace(s, iterations, peak_alpha, len(s))
    return s


def fuse(levels, scale_weights=None):
    """Fuse the per-scale volumes ``levels``, level k at pyramid level k,
    with the fusion kernel in blocks of the pipeline's size, over a copy of
    level 0, under the ``SweepConfig`` weights ``scale_weights``."""
    d, h, w = levels[0].shape
    sweep = SweepConfig(num_scales=len(levels), scale_weights=scale_weights)
    weights = np.asarray(sweep.scale_weights or (1.0,) * len(levels))
    divisors = [aggregate._divisor(level.max(axis=0)) for level in levels]
    fused = levels[0].copy()
    step = aggregate._block_slices((h, w))
    for a in range(0, d, step):
        aggregate._fuse_block([fused[a:a + step]]
                            + [level[a:a + step] for level in levels[1:]],
                            divisors, weights)
    return fused


def keep(*views):
    """The release, or populate, of a window's buffer in this process,
    which keeps every page it maps."""


def read_out(curves, iwe, min_support=0.5):
    """The band readout of one-scale ``curves`` over ``HYP5``, with no trend
    filtering, ``iwe`` broadcast to the (D, H, W) IWE volume and a support
    window of side 1, so that a pixel's support is its winner's IWE."""
    scores = volume_from_curves(curves)
    d, h, w = scores.shape
    layout, nbytes = costvol._window_layout(d, (w, h), 1)
    out = costvol._window_arrays(layout, bytearray(nbytes))
    out.scores[0][:] = scores
    out.iwe[:] = iwe
    aggregate._aggregate_band(out, 0, h, HYP5.inverse, AggregationConfig(
        trend_iterations=0, peak_alpha=0.0, min_support=min_support),
        np.ones(1), 1, keep, keep)
    flags = np.where(out.depth == DEPTH_SENTINEL, FLAG_INVALID,
                     FLAG_MEASURED).astype(np.uint8)
    return DepthMap(depth=out.depth, confidence=out.confidence, flags=flags)


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
        with pytest.raises(ValueError, match="^need at least 1 depth hypothesis$"):
            HypothesisSet(depths=[])
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
        # bounds without a usable grid, which once ran into NumPy warnings
        for d_min, d_max, count, field in (
                (5e-324, 2.0, 4, "d_min"),                  # 1/d_min is inf
                (1e-320, 2.0, 4, "d_min"),
                (2.0, 1.7976931348623157e308, 4, "d_max"),  # 1/(1/d_max) is inf
                (1.0, 1.0000000000000002, 8, "count")):     # equal neighbors
            with pytest.raises(ValueError, match=f"^{field} must be "):
                inverse_depth_hypotheses(d_min, d_max, count)

    def test_widest_bounds_give_a_usable_grid(self):
        tiny = np.finfo(np.float64).tiny
        hyp = inverse_depth_hypotheses(tiny, 1 / tiny, 64)
        assert np.isfinite(hyp.depths).all() and (np.diff(hyp.depths) > 0).all()
        assert len(inverse_depth_hypotheses(1.0, 1.0000000000000002, 2)) == 2


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
        peak = aggregate._trend_filter_inplace(
            scores, iterations, peak_alpha, aggregate._block_slices((9, 11)))
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
            peak = aggregate._trend_filter_inplace(volume[:, 2:11],
                                                   iterations, peak_alpha,
                                                   step)
            assert np.array_equal(volume[:, 2:11], want), step
            # the maximum after smoothing, which a peak_alpha in [0, 1]
            # leaves in place
            assert np.array_equal(
                peak, padded_trend_filter(scores, iterations, 0.0).max(axis=0)
            ), step
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
        # SweepConfig checks the values too (test_config_validation)
        with pytest.raises(ValueError, match="^scale_weights needs 1 values, got 2$"):
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

    def test_nothing_measured_returns_input(self):
        # no measured depth to copy: every pixel stays invalid
        dm = self.make_map([DEPTH_SENTINEL, DEPTH_SENTINEL], [False, False])
        out = fill_depth(dm, "nearest-valid")
        assert out is dm and not out.flags.any()

    def test_nearest_valid_copies_closest(self):
        dm = self.make_map([5.0, DEPTH_SENTINEL, DEPTH_SENTINEL, 9.0],
                           [True, False, False, True])
        out = fill_depth(dm, "nearest-valid")
        np.testing.assert_array_equal(out.depth, [[5.0, 5.0, 9.0, 9.0]])
        np.testing.assert_array_equal(out.flags, [[1, 2, 2, 1]])
        np.testing.assert_array_equal(out.valid, dm.valid)

    def test_unknown_policy_rejected(self):
        dm = self.make_map([5.0, DEPTH_SENTINEL], [True, False])
        for policy in ("inpaint", "median-window"):
            with pytest.raises(ValueError, match=f"unknown fill policy '{policy}'"):
                fill_depth(dm, policy)


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
                    for name in ("winner", "discarded"))
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
        assert np.array_equal(out.discarded, np.full(6, out.discarded[0]))

    def test_pure_rotation_confidence_is_one(self):
        vel = VelocitySample(t=0.0, linear=(0.0, 0.0, 0.0),
                             angular=(0.0, 0.0, 0.5))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        dm, summary = estimate_depth(
            tiny_window(), TINY_INTR, vel, hyp,
            SweepConfig(num_scales=1, scale_weights=(1.0,),
                        focus=FocusConfig(window_radius=3)),
            AggregationConfig(trend_iterations=0, peak_alpha=0.0))
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

    def test_one_worker_needs_no_memfd_or_fork(self, monkeypatch):
        # one worker runs its one task and the arena reader in this process,
        # so it runs where there is no memfd or fork, forks no pool, and
        # gives the 2-worker result
        intr = CameraIntrinsics(f=50.0, cu=6.5, cv=5.5, width=13, height=11)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 9)
        window = sensor_window(intr, seed=1)
        sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=3),
                            workers=2)
        try:
            want = estimate_depth(window, intr, vel, hyp, sweep)
        finally:
            shutdown_pools()

        def unavailable(*args, **kwargs):
            raise OSError("not available")

        monkeypatch.setattr(os, "memfd_create", unavailable, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", unavailable)
        got = estimate_depth(window, intr, vel, hyp, replace(sweep, workers=1))
        assert same_estimate(got, want)
        assert len(got[1].curves) == 8
        assert not pool._POOLS

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
                sizes.append(os.fstat(pool._POOLS[2][1]).st_size)
                assert same_estimate(*results)
        finally:
            shutdown_pools()
        assert sizes[0] < sizes[1] == sizes[2]
        assert not pool._POOLS

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
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError, match=re.escape(
                    f"peak_alpha must be in [0, 1], got {alpha}")):
                AggregationConfig(peak_alpha=alpha)
        for alpha in (0.0, 1.0):
            AggregationConfig(peak_alpha=alpha)
        for kind in ("sti", "sosa"):
            with pytest.raises(ValueError, match="no per-pixel score map"):
                SweepConfig(focus=FocusConfig(kind=kind))
        for weights in [(0.0,), (-1.0, 2.0), (np.nan,), (np.inf, 1.0)]:
            with pytest.raises(ValueError, match="scale_weights must be"):
                SweepConfig(num_scales=len(weights), scale_weights=weights)
        SweepConfig(num_scales=2, scale_weights=(0.0, 1.0))
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
                         for s in out.scores], sweep.scale_weights)
    d, h, w = fused.shape
    idx = fused.argmax(axis=0)

    def at(j):
        return np.take_along_axis(fused, j[None], axis=0)[0]

    support = np.take_along_axis(
        support_volume(out.iwe, sweep.focus.window_radius), idx[None],
        axis=0)[0]
    depth, confidence = aggregate._readout(
        idx, at(idx), at(np.maximum(idx - 1, 0)), at(np.minimum(idx + 1, d - 1)),
        fused.mean(axis=0), support, hyp.inverse, agg.min_support)
    # the flags from the support, not from the depth's sentinel
    flags = np.where(support >= agg.min_support, FLAG_MEASURED,
                     FLAG_INVALID).astype(np.uint8)
    dm = DepthMap(depth=depth, confidence=confidence, flags=flags)
    return fill_depth(dm, agg.fill), fused, out


def assert_same_estimate(got, want):
    (dm, summary), (ref, fused, res) = got, want
    for name in ("depth", "confidence", "flags"):
        assert np.array_equal(getattr(dm, name), getattr(ref, name)), name
    assert np.array_equal(summary.winner, fused.argmax(axis=0))
    assert np.array_equal(summary.discarded, res.discarded)
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

    # 1-byte sub-bands are one row group each; 5,000 bytes leave a short
    # last sub-band of several groups in all but the 13x11 case
    @pytest.mark.parametrize("band_bytes", [1, 5_000, aggregate._BAND_BYTES],
                             ids=["group", "short", "default"])
    @pytest.mark.parametrize("block_bytes", [1, 2_000, 1 << 19],
                             ids=["slice", "blocks", "whole"])
    def test_maps_winner_and_curves_match_whole_volume_stages(
            self, monkeypatch, sweep_window, block_bytes, band_bytes):
        shutdown_pools()              # the pools fork with these sizes
        monkeypatch.setattr(aggregate, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(aggregate, "_BAND_BYTES", band_bytes)
        # every window drops its mappings, which must keep the data
        monkeypatch.setattr(pool, "_DROP_BYTES", 0)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        try:
            for i, (w, h, scales, d, iters, alpha, n) in enumerate(self.CASES):
                intr = CameraIntrinsics(f=50.0, cu=w / 2, cv=h / 2, width=w,
                                        height=h)
                window = sensor_window(intr, seed=i, n=n)
                hyp = inverse_depth_hypotheses(2.0, 10.0, d)
                sweep = SweepConfig(
                    num_scales=scales,
                    scale_weights=tuple(np.linspace(1.0, 0.5, scales)),
                    focus=FocusConfig(window_radius=3))
                agg = AggregationConfig(
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
        assert_failed_window_closes_the_pool(
            monkeypatch, False, ValueError, "hypothesis 4 cannot be scored")

    def test_killed_worker_fails_the_window_and_the_pool(self, monkeypatch):
        # SIGKILL, as the OOM killer sends, in the second worker: its task
        # never returns, and the first worker waits for it at the barrier
        assert_failed_window_closes_the_pool(
            monkeypatch, True, ChildProcessError,
            r"pool worker \d+ exited with code -9 during a window")

    def test_parent_maps_none_of_the_arena(self, monkeypatch):
        # no process drops its mapping, so any page of the arena the parent
        # touched would stay in its RssShmem
        if rss_shmem_kib() is None:
            pytest.skip("no RssShmem in /proc/self/status")
        shutdown_pools()
        monkeypatch.setattr(pool, "_DROP_BYTES", 1 << 62)
        intr = CameraIntrinsics(f=150.0, cu=100.0, cv=75.0, width=200,
                                height=150)
        window = sensor_window(intr, seed=6, n=20_000)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 32)
        sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=3),
                            workers=2)
        try:
            before = rss_shmem_kib()
            _, summary = estimate_depth(window, intr, vel, hyp, sweep)
            grown = rss_shmem_kib() - before
        finally:
            shutdown_pools()
        assert len(summary.curves) == 8
        assert grown < 1024

    def test_workers_map_one_step_of_the_arena_at_a_time(self, monkeypatch,
                                                         tmp_path):
        # each worker logs its mapped arena pages as it drops them: after
        # every hypothesis it sweeps, and before each sub-band's support
        # gather and after its maps, so it never maps much more than one
        # sub-band of the score volumes; here each band is one sub-band,
        # 33 and 32 row groups, and where the kernel populates, a worker
        # maps no more than its score rows, whole pages per hypothesis
        # slice plus one
        records, nbytes = logged_drops(monkeypatch, tmp_path)
        assert sorted(map(len, records.values())) == [8 + 2, 8 + 2]
        for logged in records.values():
            assert max(held for held, _ in logged) < 0.55 * nbytes
        if populates():
            peaks = sorted(max(mapped for _, mapped in logged)
                           for logged in records.values())
            bounds = sorted(score_rows_bound(a, b)
                            for a, b in ((0, 132), (132, 260)))
            assert all(peak <= bound for peak, bound in zip(peaks, bounds))

    def test_workers_map_one_sub_band_at_a_time(self, monkeypatch, tmp_path):
        # sub-bands of one 4-row group: the workers' bands are 33 and 32
        # groups, each worker releases once per hypothesis it sweeps and
        # twice per sub-band, and no more; it maps a small share of its
        # band at any time, and where the kernel populates, before each
        # support gather it maps no more than the sub-band's score rows
        monkeypatch.setattr(aggregate, "_BAND_BYTES", 1)
        records, nbytes = logged_drops(monkeypatch, tmp_path)
        assert sorted(map(len, records.values())) == [8 + 2 * 32, 8 + 2 * 33]
        for logged in records.values():
            assert max(held for held, _ in logged) < 0.25 * nbytes
            if populates():
                # every 4-row group has 4, 2 and 1 rows at the three levels
                assert (max(mapped for _, mapped in logged[8::2])
                        <= score_rows_bound(0, 4))

    def test_populate_maps_only_the_slices_of_its_view(self, monkeypatch):
        # a (D, rows, W) view of a memfd mapping, written and then dropped:
        # populating it maps each slice's own pages, and no others, where a
        # read maps, by fault-around, the pages around each slice too
        if rss_shmem_kib() is None:
            pytest.skip("no RssShmem in /proc/self/status")
        if not populates():
            pytest.skip("the kernel rejects MADV_POPULATE_WRITE")
        monkeypatch.setattr(pool, "_DROP_BYTES", 0)
        d, h, w, page = 16, 100, 300, mmap.PAGESIZE
        fd = os.memfd_create("populate-test")
        try:
            os.ftruncate(fd, d * h * w * 8)
            arena = mmap.mmap(fd, d * h * w * 8)
        finally:
            os.close(fd)
        volume = np.frombuffer(arena, np.float64).reshape(d, h, w)
        # unaligned rows: 7,200 bytes per slice, 240,000 bytes apart
        view = volume[:, 40:43]
        try:
            volume[:] = np.arange(volume.size).reshape(volume.shape)
            bound = d * (-(-view[0].nbytes // page) + 1) * page
            grown = []
            for touch in (partial(pool._populate, arena), np.sum):
                arena.madvise(mmap.MADV_DONTNEED)
                before = rss_shmem_kib()
                touch(view)
                grown.append((rss_shmem_kib() - before) * 1024)
            populated, read = grown
            assert 0 < populated <= bound < read
            assert np.array_equal(volume.reshape(-1), np.arange(volume.size))
        finally:
            del volume, view
            arena.close()

    def test_rejected_populate_falls_back_to_faults(self, monkeypatch,
                                                    tmp_path, capfd):
        # as on a kernel before Linux 5.14, madvise rejects the advice with
        # EINVAL: each worker then faults the pages in as it reads them, and
        # 2 workers still give 1 worker's window, with no warning
        log = tmp_path / "advice.txt"

        def einval(address, length, advice):
            with open(log, "a") as fh:
                fh.write(f"{advice}\n")
            return -1

        shutdown_pools()              # the pools fork with the failing call
        monkeypatch.setattr(pool, "_madvise", einval)
        monkeypatch.setattr(pool, "_DROP_BYTES", 0)
        intr = CameraIntrinsics(f=150.0, cu=50.0, cv=40.0, width=100,
                                height=80)
        window = sensor_window(intr, seed=4, n=5_000)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 12)
        sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=3))
        try:
            one = estimate_depth(window, intr, vel, hyp, sweep)
            two = estimate_depth(window, intr, vel, hyp,
                                 replace(sweep, workers=2))
        finally:
            shutdown_pools()
        # each worker tried once per level of its one sub-band
        assert log.read_text().split() == [str(pool._MADV_POPULATE_WRITE)] * 6
        (got, got_summary), (want, summary) = two, one
        for name in ("depth", "confidence", "flags"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("winner", "discarded"):
            assert np.array_equal(getattr(got_summary, name),
                                  getattr(summary, name))
        assert list(got_summary.curves) == list(summary.curves)
        assert len(summary.curves) == 8
        for pixel, curve in summary.curves.items():
            assert np.array_equal(got_summary.curves[pixel], curve)
        assert capfd.readouterr().err == ""

    def test_pools_leak_no_fd(self, monkeypatch):
        def open_fds():
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd")
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
        sweep = SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                            workers=2)
        shutdown_pools()
        before = open_fds()
        try:
            # a larger sensor replaces the pool and its arena
            for intr in (TINY_INTR, WIDE_INTR):
                estimate_depth(random_window(3), intr, vel, hyp, sweep)
            window, intr, vel, hyp, sweep = failing_window(monkeypatch)
            with pytest.raises(ValueError, match="cannot be scored"):
                estimate_depth(window, intr, vel, hyp, sweep)
        finally:
            shutdown_pools()
        assert open_fds() == before

    def test_failed_pool_start_closes_its_arena(self, monkeypatch):
        # a pool that cannot be created leaves no arena fd and no entry
        def no_pool(*args, **kwargs):
            raise OSError("cannot fork the pool")

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd")
        shutdown_pools()
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_pool)
        # the first start's barrier opens multiprocessing's shared heap,
        # which stays open, so the count after it is the baseline
        counts = []
        for _ in range(3):
            with pytest.raises(OSError, match="^cannot fork the pool$"):
                pool.fork_pool(2, 1 << 20)
            gc.collect()
            counts.append(len(os.listdir("/proc/self/fd")))
            assert not pool._POOLS
        assert counts == [counts[0]] * 3

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="pins glibc malloc's thresholds")
    def test_workers_keep_freed_buffers_resident(self):
        # a pool worker that frees a 1 MiB buffer and fills another of the
        # same size refills the first's pages; the pool is forked in a
        # fresh process, whose malloc thresholds no earlier test raised
        src = os.path.dirname(os.path.dirname(pool.__file__))
        run = subprocess.run(
            [sys.executable, "-c", REFAULTS], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 64         # 256 pages if mapped afresh


REFAULTS = """
import resource
import numpy as np
from evdepth import pool


def refaults(nbytes):
    np.ones(nbytes, np.uint8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(nbytes, np.uint8)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


pool.fork_pool(2, 4096)
try:
    print(pool._POOLS[2][0].apply(refaults, (1 << 20,)))
finally:
    pool.shutdown_pools()
"""


def logged_drops(monkeypatch, tmp_path):
    """Run a 346x260 window at 16 hypotheses and 3 scales on 2 workers
    that drop their mappings at every release; returns, by pid in the
    order of the drops, each worker's (RssShmem just before the drop, the
    arena bytes it had mapped: that RssShmem less RssShmem just after the
    drop), and the window's arena bytes."""
    if rss_shmem_kib() is None:
        pytest.skip("no RssShmem in /proc/self/status")
    log = tmp_path / "drops.txt"
    drop = pool._drop_mapping

    def logged_drop(arena):
        before = rss_shmem_kib()
        drop(arena)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {before} {rss_shmem_kib()}\n")

    shutdown_pools()              # the pools fork with the logged drop
    monkeypatch.setattr(pool, "_drop_mapping", logged_drop)
    monkeypatch.setattr(pool, "_DROP_BYTES", 0)
    intr = CameraIntrinsics(f=200.0, cu=173.0, cv=130.0, width=346,
                            height=260)
    window = sensor_window(intr, seed=7, n=20_000)
    vel = VelocitySample(t=0.0, linear=(1.0, 0.0, 0.0),
                         angular=(0.0, 0.0, 0.0))
    hyp = inverse_depth_hypotheses(2.0, 50.0, 16)
    sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=5),
                        workers=2)
    _, nbytes = costvol._window_layout(16, intr.resolution, 3)
    try:
        estimate_depth(window, intr, vel, hyp, sweep)
    finally:
        shutdown_pools()
    records = {}
    for line in log.read_text().splitlines():
        pid, before, after = line.split()
        records.setdefault(pid, []).append(
            (int(before) * 1024, (int(before) - int(after)) * 1024))
    return records, nbytes


def score_rows_bound(r0, r1):
    """The most arena bytes that mapping rows ``r0..r1-1`` of each of
    ``logged_drops``' 16 hypothesis slices of its 3 score levels takes:
    each slice's bytes in whole pages, plus one page for its alignment."""
    page, total = mmap.PAGESIZE, 0
    for k in range(3):
        rows = -(-r1 // 2 ** k) - (r0 >> k)
        row_bytes = -(-346 // 2 ** k) * 8
        total += 16 * (-(-rows * row_bytes // page) + 1) * page
    return total


def populates():
    """Whether the kernel takes ``pool``'s advice to populate a mapping
    (MADV_POPULATE_WRITE, Linux 5.14 and later)."""
    buffer = np.zeros(2 * mmap.PAGESIZE, np.uint8)
    first = -(-buffer.ctypes.data // mmap.PAGESIZE) * mmap.PAGESIZE
    return pool._madvise(first, mmap.PAGESIZE,
                         pool._MADV_POPULATE_WRITE) == 0


def rss_shmem_kib():
    """This process's resident shared memory in KiB, or None where
    /proc/self/status does not report it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def failing_window(monkeypatch, kill=False):
    """A window, its sensor, velocity, hypotheses and a 2-worker sweep
    whose hypothesis 4 raises in the second worker, or with ``kill`` has
    the worker kill itself; the pools are shut down so that the next forks
    with the failing scorer."""
    window, intr = random_window(5), TINY_INTR
    vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                         angular=(0.0, 0.01, 0.0))
    hyp = inverse_depth_hypotheses(2.0, 10.0, 6)
    sweep = SweepConfig(num_scales=2, focus=FocusConfig(window_radius=3),
                        workers=2)
    bad = accumulate(EventWarp(window, intr, vel)(hyp.depths[4]),
                     intr.resolution).grid
    score = costvol.volume_score_map
    parent = os.getpid()

    def failing_score(grid, config, out=None):
        if grid.shape == bad.shape and np.array_equal(grid, bad):
            if kill and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("hypothesis 4 cannot be scored")
        return score(grid, config, out)

    shutdown_pools()
    monkeypatch.setattr(costvol, "volume_score_map", failing_score)
    return window, intr, vel, hyp, sweep


def assert_failed_window_closes_the_pool(monkeypatch, kill, error, message):
    """The ``failing_window`` (with ``kill``) raises ``error`` with
    ``message`` within 10 s and closes its pool; the next window forks a
    fresh pool that gives the 1-worker result, and no worker outlives
    ``shutdown_pools``.  The window runs in a thread, so that a hang fails
    the test instead of stalling it."""
    window, intr, vel, hyp, sweep = failing_window(monkeypatch, kill)
    errors = []

    def run():
        try:
            estimate_depth(window, intr, vel, hyp, sweep)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    t0 = time.monotonic()
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert time.monotonic() - t0 < 10
    assert [type(exc) for exc in errors] == [error]
    assert re.fullmatch(message, str(errors[0]))
    assert 2 not in pool._POOLS
    monkeypatch.undo()
    try:
        got = estimate_depth(window, intr, vel, hyp, sweep)
    finally:
        shutdown_pools()
    assert not multiprocessing.active_children()
    want = estimate_depth(window, intr, vel, hyp, replace(sweep, workers=1))
    for name in ("depth", "confidence", "flags"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name))
    assert np.array_equal(got[1].winner, want[1].winner)


class TestReadArena:
    """The one reader of a window's discarded tally, maps and sampled
    curves, which both runners hand a ``readv`` of the window's bytes."""
    INTR = CameraIntrinsics(f=50.0, cu=6.5, cv=5.5, width=13, height=11)
    HYP = inverse_depth_hypotheses(2.0, 10.0, 9)

    def test_buffer_reads_as_preadv_reads_a_file(self, tmp_path):
        data = bytes(range(16))
        path = tmp_path / "arena"
        path.write_bytes(data)
        fd = os.open(path, os.O_RDONLY)
        try:
            for offset in (0, 5, 12, 16, 20):
                for n in (0, 4, 6):
                    views = [memoryview(bytearray(n)) for _ in range(2)]
                    assert (pool._read_buffer(memoryview(data), views[0],
                                              offset)
                            == os.preadv(fd, [views[1]], offset))
                    assert views[0] == views[1]
        finally:
            os.close(fd)

    # a read one byte short, of the discarded tally, the first of the
    # tally's and maps' reads, or of every curve value, which lies before
    # them; in this process (1 worker) or from the pool's arena (2)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("short", ["maps", "curve"])
    def test_short_read_fails_the_window(self, monkeypatch, workers, short):
        layout, _ = costvol._window_layout(len(self.HYP),
                                           self.INTR.resolution, 3)
        tally = layout[-4][2]
        want = 8 * len(self.HYP) if short == "maps" else 8
        target, name = (pool, "_read_buffer") if workers == 1 else (os,
                                                                   "preadv")
        read = getattr(target, name)

        def short_read(source, into, offset):
            got = read(source, into, offset)
            cut = offset == tally if short == "maps" else offset < tally
            return got - 1 if cut else got

        monkeypatch.setattr(target, name, short_read)
        vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                             angular=(0.0, 0.01, 0.0))
        sweep = SweepConfig(num_scales=3, focus=FocusConfig(window_radius=3),
                            workers=workers)
        try:
            with pytest.raises(OSError, match=f"^read {want - 1} of {want} "
                               "bytes of the window arena$"):
                estimate_depth(sensor_window(self.INTR, seed=1), self.INTR,
                               vel, self.HYP, sweep)
        finally:
            shutdown_pools()


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
        got = aggregate._support_at(out.iwe, idx[r0:r1], r0, side)
        # the IWE is stored as float32
        np.testing.assert_allclose(got, at(box, idx)[r0:r1], rtol=1e-7,
                                   atol=1e-12)
        if side == 1:
            assert np.array_equal(got, at(out.iwe, idx)[r0:r1])

    # at the pipeline's own winners, support decides the flags
    aggregate._aggregate_band(out, 0, h, hyp.inverse,
                              AggregationConfig(min_support=0.3), np.ones(1),
                              side, keep, keep)
    support = at(box, out.winner)
    if side < 15:
        assert 0 < (support >= 0.3).sum() < h * w
    assert not np.isclose(support, 0.3, rtol=1e-6).any()
    assert np.array_equal(out.depth != DEPTH_SENTINEL, support >= 0.3)


# a 13x11 sensor at 3 scales and 9 hypotheses: a 4-row group of its score
# levels takes 5,040 bytes, so the whole band runs in sub-bands of 4, 4
# and 3 rows at 1 byte and of 8 and 3 rows at 12,000 bytes
@pytest.mark.parametrize("bands, band_bytes", [
    ([(0, 11)], aggregate._BAND_BYTES),
    ([(0, 4), (4, 8), (8, 11)], aggregate._BAND_BYTES),
    ([(0, 11)], 1),
    ([(0, 11)], 12_000),
], ids=["whole", "bands", "whole-group", "whole-short"])
@pytest.mark.parametrize("block_bytes", [1, 2_000, 1 << 19],
                         ids=["slice", "blocks", "whole"])
def test_readout_leaves_the_fused_curves_in_level_0(monkeypatch, sweep_window,
                                                   bands, band_bytes,
                                                   block_bytes):
    # the band readout fuses over level 0 in place, and the sampled curves
    # and the winner's neighbours are read from there, bit for bit and sign
    # of zero included
    monkeypatch.setattr(aggregate, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(aggregate, "_BAND_BYTES", band_bytes)
    intr = CameraIntrinsics(f=50.0, cu=6.5, cv=5.5, width=13, height=11)
    vel = VelocitySample(t=0.0, linear=(0.8, -0.2, 0.3),
                         angular=(0.0, 0.01, 0.0))
    hyp = inverse_depth_hypotheses(2.0, 10.0, 9)
    agg = AggregationConfig(trend_iterations=1, peak_alpha=0.7)
    weights = np.array([1.0, 0.75, 0.5])
    for residue in (False, True):
        out = sweep_window(sensor_window(intr, seed=3), intr, vel, hyp,
                           SweepConfig(num_scales=3,
                                       focus=FocusConfig(window_radius=3)))
        if residue:
            # pixel (5, 6) has no positive peak at any scale, only the tiny
            # negative values an integral-image box sum leaves of zero, so
            # each level's normalised curve is x / inf = -0.0
            for k, scores in enumerate(out.scores):
                scores[:, 5 >> k, 6 >> k] = -1e-17 * (1 + np.arange(9) % 3)
        want = gather_fuse([padded_trend_filter(s, agg.trend_iterations,
                                                agg.peak_alpha)
                            for s in out.scores], weights)
        for r0, r1 in bands:
            aggregate._aggregate_band(out, r0, r1, hyp.inverse, agg, weights,
                                      3, keep, keep)
        assert out.scores[0].tobytes() == want.tobytes()
