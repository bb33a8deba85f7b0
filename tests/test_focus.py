"""Weighted gradient channels, window energy, and the scalar contrast
objectives."""

import numpy as np
import pytest

from evdepth.focus import (
    CHANNELS,
    OBJECTIVE_KINDS,
    VOLUME_KINDS,
    FocusConfig,
    box_window_sum,
    fcd_score_map,
    mean_timestamp_image,
    objective,
    volume_score_map,
    weighted_gradients,
    window_energy,
)
from evdepth.iwe import accumulate


def ramp(h=5, w=5):
    """grid[v, u] = u, so gx = 1 exactly everywhere (borders included)."""
    return np.tile(np.arange(w, dtype=np.float64), (h, 1))


def channel(grid, k, weight=1.0):
    """weight * |channel k| alone, through a one-hot weight vector."""
    values = [0.0] * len(CHANNELS)
    values[k] = weight
    return weighted_gradients(grid, FocusConfig(weights=tuple(values)))


def moveaxis_second_difference(grid, axis):
    """Second difference through np.moveaxis, with allocated temporaries:
    the previous implementation, kept as the bitwise reference."""
    g = np.moveaxis(grid, axis, 0)
    out = np.empty_like(g)
    out[1:-1] = g[2:] - 2 * g[1:-1] + g[:-2]
    out[0] = g[0] - 2 * g[1] + g[2]
    out[-1] = g[-1] - 2 * g[-2] + g[-3]
    return np.moveaxis(out, 0, axis)


def six_channel_sum(grid, weights):
    """Reference: all six channels computed with np.gradient and the
    moveaxis second difference, weighted and summed in CHANNELS order onto
    zeros."""
    gx = np.gradient(grid, axis=1)
    gy = np.gradient(grid, axis=0)
    gxx = moveaxis_second_difference(grid, 1)
    gyy = moveaxis_second_difference(grid, 0)
    gxy = np.gradient(gx, axis=0)
    out = np.zeros_like(grid)
    for w, m in zip(weights, (gx, gy, gxx, gyy, gxy, gxx * gyy)):
        if w != 0:
            out += w * np.abs(m)
    return out


class TestGradientStack:
    """Each channel of weighted_gradients, isolated by a one-hot weight."""

    def test_horizontal_ramp(self):
        np.testing.assert_array_equal(channel(ramp(), 0), np.ones((5, 5)))
        for k in range(1, 6):
            assert not channel(ramp(), k).any()

    def test_constant_grid_all_zero(self):
        for k in range(6):
            assert not channel(np.full((4, 6), 3.0), k).any()

    def test_parabola_second_difference(self):
        # grid = u^2: second difference is exactly 2, borders included
        u = np.arange(6, dtype=np.float64)
        np.testing.assert_array_equal(channel(np.tile(u * u, (4, 1)), 2),
                                      np.full((4, 6), 2.0))

    def test_bilinear_saddle_mixed_term(self):
        # grid = u*v: gx = v, so the v-gradient of gx is exactly 1
        v = np.arange(5, dtype=np.float64)[:, None]
        u = np.arange(7, dtype=np.float64)[None, :]
        np.testing.assert_array_equal(channel(u * v, 4), np.ones((5, 7)))

    def test_product_channel_is_elementwise(self):
        rng = np.random.default_rng(2)
        grid = rng.uniform(size=(6, 6))
        np.testing.assert_array_equal(channel(grid, 5),
                                      channel(grid, 2) * channel(grid, 3))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            weighted_gradients(np.zeros((2, 5)), FocusConfig())

    def test_channel_count_matches_names(self):
        assert len(FocusConfig().weights) == len(CHANNELS) == 6


class TestCombine:
    def test_single_channel_selection(self):
        out = weighted_gradients(ramp(), FocusConfig(weights=(1.0, 0, 0, 0, 0, 0)))
        np.testing.assert_array_equal(out, np.abs(np.gradient(ramp(), axis=1)))

    def test_signed_weights_on_constant_stack(self):
        # a signed weight subtracts its channel's magnitude, in channel order
        rng = np.random.default_rng(3)
        grid = rng.uniform(size=(6, 7))
        out = weighted_gradients(grid, FocusConfig(weights=(1.0, -1.0, 2.0, 0, 0, 0)))
        expect = channel(grid, 0) + channel(grid, 1, -1.0) + channel(grid, 2, 2.0)
        np.testing.assert_array_equal(out, expect)

    def test_absolute_values_prevent_cancellation(self):
        # grid = u - v: gx = 1 and gy = -1 everywhere
        v = np.arange(4, dtype=np.float64)[:, None]
        u = np.arange(5, dtype=np.float64)[None, :]
        out = weighted_gradients(u - v, FocusConfig(weights=(1.0, 1.0, 0, 0, 0, 0)))
        np.testing.assert_array_equal(out, np.full((4, 5), 2.0))

    @pytest.mark.parametrize("weights", [(1, 0, 1, 0, 0, 0), (1,) * 6,
                                         (0, 0.5, 0, 2, 0, 0), (0, 0, 0, 0, 0, 1)])
    def test_sparse_channels_match_six_channel_sum(self, weights):
        rng = np.random.default_rng(8)
        grid = rng.poisson(2.0, size=(18, 23)).astype(np.float64)
        weights = tuple(float(w) for w in weights)
        cfg = FocusConfig(kind="fcd", window_radius=5,
                          weights=weights)
        np.testing.assert_array_equal(
            fcd_score_map(grid, cfg),
            window_energy(six_channel_sum(grid, weights), 5))


class TestBoxWindowSum:
    def test_side_one_is_copy(self):
        grid = np.arange(9.0).reshape(3, 3)
        out = box_window_sum(grid, 1)
        np.testing.assert_array_equal(out, grid)
        out[0, 0] = 99.0
        assert grid[0, 0] == 0.0

    def test_border_clipping_on_ones(self):
        out = box_window_sum(np.ones((5, 5)), 3)
        assert out[0, 0] == 4.0
        assert out[0, 2] == 6.0
        assert out[2, 2] == 9.0

    def test_even_side_rejected(self):
        with pytest.raises(ValueError):
            box_window_sum(np.ones((4, 4)), 2)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(9)
        grid = rng.uniform(size=(8, 11))
        out = box_window_sum(grid, 5)
        for v, u in ((0, 0), (3, 5), (7, 10), (4, 0)):
            v0, v1 = max(v - 2, 0), min(v + 3, 8)
            u0, u1 = max(u - 2, 0), min(u + 3, 11)
            np.testing.assert_allclose(out[v, u], grid[v0:v1, u0:u1].sum(),
                                       rtol=1e-12)


def gather_box_sum(grid, radius):
    """Box sum by four clamped 2-D gathers from an integral image: the
    previous implementation, kept as the bitwise reference."""
    if radius == 1:
        return grid.copy()
    h, w = grid.shape
    half = radius // 2
    sat = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(grid, axis=0, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    v = np.arange(h)[:, None]
    u = np.arange(w)[None, :]
    v0 = np.maximum(v - half, 0)
    v1 = np.minimum(v + half + 1, h)
    u0 = np.maximum(u - half, 0)
    u1 = np.minimum(u + half + 1, w)
    return sat[v1, u1] - sat[v0, u1] - sat[v1, u0] + sat[v0, u0]


@pytest.mark.parametrize("shape", [(5, 6), (7, 9), (8, 10), (33, 48)])
@pytest.mark.parametrize("radius", [1, 3, 5, 7])
def test_box_sum_bitwise_equal_to_gather_reference(shape, radius):
    rng = np.random.default_rng(radius * 100 + shape[0])
    # sparse event-like masses, so that many windows sum exact zeros
    grid = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.3)
    out = box_window_sum(grid, radius)
    assert out.shape == shape
    assert np.array_equal(out, gather_box_sum(grid, radius))


def padded_box_sum(grid, radius):
    """Box sum from a zero-padded integral image whose four corners combine
    into allocated temporaries: the previous implementation, kept as the
    bitwise reference."""
    if radius == 1:
        return grid.copy()
    h, w = grid.shape
    half = radius // 2
    sat = np.zeros((h + radius, w + radius), dtype=np.float64)
    sat[half + 1:half + 1 + h, half + 1:half + 1 + w] = grid
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    return (sat[radius:, radius:] - sat[:h, radius:] - sat[radius:, :w]
            + sat[:h, :w])


def allocating_score_map(grid, config):
    """volume_score_map from the reference kernels, every step allocating."""
    r = config.window_radius
    if config.kind == "fcd":
        combined = six_channel_sum(grid, config.weights)
        return np.sqrt(np.maximum(padded_box_sum(combined * combined, r), 0.0))
    if config.kind == "var":
        dev = grid - grid.mean()
        return padded_box_sum(dev * dev, r)
    return padded_box_sum(np.expm1(grid), r)


def same_bits(a, b):
    """Equal shape, dtype and bytes: -0.0 differs from 0.0 here."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signed_sparse_grid(shape, seed):
    """Signed values with many exact zeros, so that a negative weight makes
    -0.0 products."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 3.0, size=shape) * (rng.uniform(size=shape) < 0.5)


KERNEL_SHAPES = [(3, 3), (3, 11), (11, 3), (9, 13), (8, 10)]
ONE_HOT = [tuple(float(i == k) for i in range(6)) for k in range(6)]


class TestInPlaceKernels:
    """The in-place kernels against the allocating references, bit for bit."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("weights", ONE_HOT + [
        (1.0,) * 6, (-1.0, 0.5, 2.0, -0.25, 0.0, 1.5), (-2.0, 0, 0, 0, 0, 1.0),
        (0, 0, -1.0, 0, 0, 0), (0.0, 3.0, 0.0, -1.0, -0.5, 0.0)],
        ids=[f"only_{c}" for c in CHANNELS]
        + ["all_six", "mixed", "negative_first", "negative_only", "tail"])
    def test_weighted_gradients(self, shape, weights):
        grid = signed_sparse_grid(shape, sum(shape))
        before = grid.copy()
        got = weighted_gradients(grid, FocusConfig(weights=weights))
        assert same_bits(got, six_channel_sum(grid, weights))
        assert same_bits(grid, before)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("side", [1, 3, 5, 15])
    def test_box_window_sum(self, shape, side):
        grid = signed_sparse_grid(shape, side)
        assert same_bits(box_window_sum(grid, side), padded_box_sum(grid, side))

    @pytest.mark.parametrize("kind", VOLUME_KINDS)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("side", [1, 3, 5, 15])
    def test_score_map_into_strided_view(self, kind, shape, side):
        rng = np.random.default_rng(side)
        # IWE-like: non-negative, sparse
        grid = rng.uniform(0.0, 2.0, size=shape) * (rng.uniform(size=shape) < 0.4)
        config = FocusConfig(kind=kind, window_radius=side,
                             weights=(1.0, -0.5, 1.0, 0.0, 2.0, 0.25))
        want = allocating_score_map(grid, config)
        assert same_bits(volume_score_map(grid, config), want)
        h, w = shape
        volume = np.full((3, h + 2, 2 * w + 1), np.nan)
        view = volume[1, 1:h + 1, 1::2]
        assert volume_score_map(grid, config, out=view) is view
        assert same_bits(view.copy(), want)
        volume[1, 1:h + 1, 1::2] = np.nan
        assert np.isnan(volume).all()


class TestWindowEnergy:
    def test_zero_input(self):
        assert not window_energy(np.zeros((6, 6)), 3).any()

    def test_single_spike_spreads_over_window(self):
        combined = np.zeros((7, 7))
        combined[3, 3] = 3.0
        expect = np.zeros((7, 7))
        expect[2:5, 2:5] = 3.0
        np.testing.assert_allclose(window_energy(combined, 3), expect)

    def test_side_one_is_magnitude(self):
        combined = np.array([[-2.0, 0.5], [0.0, 3.0], [1.0, -1.0]])
        np.testing.assert_allclose(window_energy(combined, 1), np.abs(combined))


class TestScalarObjectives:
    def iwe_of(self, grid):
        grid = np.asarray(grid, dtype=np.float64)
        pts = []
        for (v, u), c in np.ndenumerate(grid):
            pts += [[u, v]] * int(c)
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        return accumulate(pts, (grid.shape[1], grid.shape[0]), splat="nearest")

    def test_variance_hand_value(self):
        iwe = self.iwe_of([[0, 0], [0, 4]])
        # mean 1, deviations (1,1,1,3) squared -> 12/4
        assert objective(iwe, FocusConfig(kind="var")) == 3.0

    def test_soe_zero_grid(self):
        iwe = self.iwe_of(np.zeros((3, 4)))
        assert objective(iwe, FocusConfig(kind="soe")) == 0.0

    def test_soe_counts_exponentially(self):
        iwe = self.iwe_of([[2, 0], [0, 0]])
        np.testing.assert_allclose(objective(iwe, FocusConfig(kind="soe")),
                                   np.expm1(2.0), rtol=1e-12)

    def test_sosa_zero_grid_is_pixel_count(self):
        iwe = self.iwe_of(np.zeros((3, 4)))
        assert objective(iwe, FocusConfig(kind="sosa")) == 12.0

    def test_sosa_rewards_concentration(self):
        spread = self.iwe_of([[1, 1], [1, 1]])
        packed = self.iwe_of([[4, 0], [0, 0]])
        cfg = FocusConfig(kind="sosa")
        assert objective(packed, cfg) > objective(spread, cfg)

    def test_fcd_ramp_closed_form(self):
        # gx = 1, every other channel 0; side-1 window keeps R = 1 per pixel
        iwe = accumulate(np.empty((0, 2)), (5, 5))
        object.__setattr__(iwe, "grid", ramp())
        cfg = FocusConfig(kind="fcd", window_radius=1)
        assert objective(iwe, cfg) == 25.0

    def test_fcd_linear_channels_scale_homogeneous(self):
        # the product channel gxx*gyy is quadratic in the grid, so
        # homogeneity only holds with it zeroed out
        rng = np.random.default_rng(4)
        grid = rng.uniform(size=(9, 9))
        a = accumulate(np.empty((0, 2)), (9, 9))
        b = accumulate(np.empty((0, 2)), (9, 9))
        object.__setattr__(a, "grid", grid)
        object.__setattr__(b, "grid", 3.0 * grid)
        cfg = FocusConfig(
            kind="fcd", window_radius=3,
            weights=(1.0, 1.0, 1.0, 1.0, 1.0, 0.0))
        np.testing.assert_allclose(objective(b, cfg), 3.0 * objective(a, cfg),
                                   rtol=1e-9)

    def test_fcd_product_channel_is_quadratic(self):
        rng = np.random.default_rng(4)
        grid = rng.uniform(size=(9, 9))
        a = accumulate(np.empty((0, 2)), (9, 9))
        b = accumulate(np.empty((0, 2)), (9, 9))
        object.__setattr__(a, "grid", grid)
        object.__setattr__(b, "grid", 3.0 * grid)
        cfg = FocusConfig(
            kind="fcd", window_radius=3,
            weights=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
        np.testing.assert_allclose(objective(b, cfg), 9.0 * objective(a, cfg),
                                   rtol=1e-9)

    def test_sti_needs_event_data(self):
        iwe = self.iwe_of([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            objective(iwe, FocusConfig(kind="sti"))

    def test_sti_hand_value(self):
        warped = np.array([[1.0, 1.0], [1.0, 1.0]])
        offsets = np.array([-0.1, -0.3])
        iwe = accumulate(warped, (3, 3), splat="nearest")
        score = objective(iwe, FocusConfig(kind="sti"), warped=warped,
                          offsets=offsets, splat="nearest")
        # mean offset -0.2 at one pixel; score is minus its square
        np.testing.assert_allclose(score, -0.04, rtol=1e-12)

    def test_sti_perfect_alignment_is_maximal(self):
        # all offsets zero -> score 0, the global maximum of -sum(T^2)
        warped = np.array([[0.0, 0.0], [1.0, 1.0]])
        offsets = np.zeros(2)
        iwe = accumulate(warped, (2, 2), splat="nearest")
        score = objective(iwe, FocusConfig(kind="sti"), warped=warped,
                          offsets=offsets, splat="nearest")
        assert score == 0.0


class TestMeanTimestampImage:
    def test_zero_where_no_events(self):
        warped = np.array([[0.0, 0.0]])
        offsets = np.array([-0.5])
        iwe = accumulate(warped, (3, 3), splat="nearest")
        tbar = mean_timestamp_image(iwe, warped, offsets, splat="nearest")
        assert tbar[0, 0] == -0.5
        assert np.count_nonzero(tbar) == 1


class TestVolumeScoreMap:
    def test_var_form(self):
        grid = np.array([[0.0, 0.0, 0.0],
                         [0.0, 4.0, 0.0],
                         [0.0, 0.0, 0.0]])
        out = volume_score_map(grid, FocusConfig(kind="var", window_radius=3))
        dev = grid - grid.mean()
        np.testing.assert_allclose(out, box_window_sum(dev * dev, 3))

    def test_soe_form(self):
        rng = np.random.default_rng(6)
        grid = rng.uniform(0, 2, size=(6, 6))
        out = volume_score_map(grid, FocusConfig(kind="soe", window_radius=3))
        np.testing.assert_allclose(out, box_window_sum(np.expm1(grid), 3))

    def test_fcd_form_matches_score_map(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(size=(7, 7))
        cfg = FocusConfig(kind="fcd", window_radius=3)
        np.testing.assert_array_equal(volume_score_map(grid, cfg),
                                      fcd_score_map(grid, cfg))

    def test_scalar_only_kinds_rejected(self):
        for kind in ("sti", "sosa"):
            with pytest.raises(ValueError):
                volume_score_map(np.ones((4, 4)), FocusConfig(kind=kind))
        assert set(VOLUME_KINDS) <= set(OBJECTIVE_KINDS)


class TestConfigValidation:
    def test_weights_length(self):
        with pytest.raises(ValueError):
            FocusConfig(weights=(1.0, 1.0, 1.0))

    def test_weights_not_all_zero(self):
        with pytest.raises(ValueError):
            FocusConfig(weights=(0.0,) * 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weights_finite(self, bad):
        with pytest.raises(ValueError, match="^weights must be finite"):
            FocusConfig(weights=(1.0, bad, 0.0, 0.0, 0.0, 0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FocusConfig(kind="sharpness")

    def test_even_or_small_radius(self):
        with pytest.raises(ValueError):
            FocusConfig(window_radius=4)
        with pytest.raises(ValueError):
            FocusConfig(window_radius=0)
