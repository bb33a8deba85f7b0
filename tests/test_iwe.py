"""Accumulation of warped events into count images and pyramid downsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdepth.iwe import accumulate, block_sum, build_pyramid


class TestNearest:
    def test_two_events_one_pixel(self):
        warped = np.array([[5.0, 5.0], [5.2, 4.9]])
        out = accumulate(warped, resolution=(10, 10), splat="nearest")
        assert out.grid[5, 5] == 2.0
        assert out.mass == 2.0
        assert out.discarded == 0

    def test_half_rounds_to_even(self):
        # np.rint banker's rounding: 2.5 -> 2, 3.5 -> 4
        warped = np.array([[2.5, 0.0], [3.5, 0.0]])
        out = accumulate(warped, resolution=(8, 4), splat="nearest")
        assert out.grid[0, 2] == 1.0
        assert out.grid[0, 4] == 1.0

    def test_out_of_bounds_discarded(self):
        warped = np.array([[-3.0, 2.0], [2.0, 100.0], [1.0, 1.0]])
        out = accumulate(warped, resolution=(6, 6), splat="nearest")
        assert out.mass == 1.0
        assert out.discarded == 2

    def test_integer_shift_equivariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(2.0, 5.0, size=(40, 2))
        a = accumulate(pts, resolution=(12, 12), splat="nearest").grid
        b = accumulate(pts + 3.0, resolution=(12, 12), splat="nearest").grid
        np.testing.assert_array_equal(np.roll(a, (3, 3), axis=(0, 1)), b)


class TestBilinear:
    def test_split_between_two_pixels(self):
        warped = np.array([[2.5, 3.0]])
        out = accumulate(warped, resolution=(6, 6), splat="bilinear")
        assert out.grid[3, 2] == 0.5
        assert out.grid[3, 3] == 0.5
        assert out.mass == 1.0

    def test_four_corner_split(self):
        # fractional offsets fx = 0.25, fy = 0.75
        warped = np.array([[1.25, 2.75]])
        out = accumulate(warped, resolution=(5, 5), splat="bilinear")
        np.testing.assert_allclose(out.grid[2, 1], 0.75 * 0.25)
        np.testing.assert_allclose(out.grid[2, 2], 0.25 * 0.25)
        np.testing.assert_allclose(out.grid[3, 1], 0.75 * 0.75)
        np.testing.assert_allclose(out.grid[3, 2], 0.25 * 0.75)

    def test_exact_far_corner_kept(self):
        warped = np.array([[4.0, 4.0]])
        out = accumulate(warped, resolution=(5, 5), splat="bilinear")
        assert out.grid[4, 4] == 1.0
        assert out.discarded == 0

    def test_just_outside_discarded(self):
        warped = np.array([[4.0001, 2.0], [-0.0001, 2.0]])
        out = accumulate(warped, resolution=(5, 5), splat="bilinear")
        assert out.mass == 0.0
        assert out.discarded == 2

    def test_weights_scale_mass(self):
        warped = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = accumulate(warped, resolution=(4, 4), splat="bilinear",
                         weights=np.array([0.25, 0.5]))
        np.testing.assert_allclose(out.mass, 0.75)


def clamped_splat(warped, resolution, weights=None):
    """Reference bilinear splat: floor, the far corner clamped onto the last
    row or column, one ``bincount`` per corner over an unpadded grid."""
    w, h = resolution
    x, y = warped[:, 0], warped[:, 1]
    ok = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xk, yk = x[ok], y[ok]
    wts = np.ones(xk.shape[0]) if weights is None else weights[ok]
    x0 = np.floor(xk).astype(np.int64)
    y0 = np.floor(yk).astype(np.int64)
    fx, fy = xk - x0, yk - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    grid = np.zeros(h * w)
    for yy, xx, ww in ((y0, x0, (1 - fx) * (1 - fy)), (y0, x1, fx * (1 - fy)),
                       (y1, x0, (1 - fx) * fy), (y1, x1, fx * fy)):
        grid += np.bincount(yy * w + xx, weights=wts * ww, minlength=h * w)
    return grid.reshape(h, w), int(x.shape[0] - ok.sum())


class TestBilinearReference:
    """The padded single-index splat equals the clamped one bit for bit."""

    @staticmethod
    def points(rng, w, h, n):
        pts = np.column_stack([rng.uniform(-1.5, w + 0.5, n),
                               rng.uniform(-1.5, h + 0.5, n)])
        kind = rng.integers(0, 16, n)              # 8..15: left as drawn
        pts[kind == 0, 0] = w - 1                  # exact last column
        pts[kind == 1, 1] = h - 1                  # exact last row
        pts[kind == 2] = (w - 1, h - 1)            # exact far corner
        pts[kind == 3] = np.floor(pts[kind == 3])  # integer positions
        # just outside each side
        pts[kind == 4, 0] = -1e-9
        pts[kind == 5, 0] = w - 1 + 1e-9
        pts[kind == 6, 1] = -1e-9
        pts[kind == 7, 1] = h - 1 + 1e-9
        return pts

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_clamped_reference(self, weighted):
        rng = np.random.default_rng(7)
        for trial in range(200):
            w, h = (int(k) for k in rng.integers(1, 24, size=2))
            n = int(rng.integers(0, 300))
            pts = self.points(rng, w, h, n)
            if trial % 2:
                pts = np.ascontiguousarray(pts.T).T     # the warp's layout
            weights = rng.normal(size=n) if weighted else None
            out = accumulate(pts, (w, h), splat="bilinear", weights=weights)
            grid, discarded = clamped_splat(pts, (w, h), weights)
            assert np.array_equal(out.grid, grid)
            assert out.discarded == discarded
            assert out.grid.flags.c_contiguous

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_event_out_of_bounds_only_adds_a_discard(self, weighted):
        # all in bounds splats the events as given; one more out of bounds
        # splats the in-bounds rest, which must give the same grid
        rng = np.random.default_rng(3)
        pts = np.ascontiguousarray(np.column_stack(
            [rng.uniform(0, 9, 500), rng.uniform(0, 6, 500)]).T).T
        weights = rng.normal(size=501) if weighted else None
        inside = accumulate(pts, (10, 7), splat="bilinear",
                            weights=None if weights is None else weights[:500])
        more = accumulate(np.vstack([pts, [[9.5, 3.0]]]), (10, 7),
                          splat="bilinear", weights=weights)
        assert inside.discarded == 0
        assert more.discarded == 1
        assert np.array_equal(more.grid, inside.grid)


def nearest_splat(warped, resolution, weights=None):
    """Reference nearest splat, the kernel ``accumulate`` once ran for it:
    round to integers, bounds-test those, one flat ``bincount``."""
    w, h = resolution
    xi = np.rint(warped[:, 0]).astype(np.int64)
    yi = np.rint(warped[:, 1]).astype(np.int64)
    ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
    wts = np.ones(xi.shape[0]) if weights is None else weights
    grid = np.zeros(h * w)
    grid += np.bincount(yi[ok] * w + xi[ok], weights=wts[ok], minlength=h * w)
    return grid.reshape(h, w), int(xi.shape[0] - ok.sum())


class TestNearestReference:
    """Nearest rounds, then runs the bilinear kernel: each rounded event has
    fractional parts 0, and the grid equals a flat count bit for bit."""

    @staticmethod
    def points(rng, w, h, n):
        pts = TestBilinearReference.points(rng, w, h, n)
        half = rng.integers(0, 4, n) == 0          # half-pixel coordinates,
        pts[half] = np.floor(pts[half]) + 0.5      # out to -1.5 and w + 0.5
        return pts

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_flat_count(self, weighted):
        rng = np.random.default_rng(11)
        for trial in range(200):
            w, h = (int(k) for k in rng.integers(1, 24, size=2))
            n = int(rng.integers(0, 300))
            pts = self.points(rng, w, h, n)
            if trial % 2:
                pts = np.ascontiguousarray(pts.T).T     # the warp's layout
            # negative weights, as the time offsets ``sti`` splats
            weights = -rng.uniform(0, 0.1, n) if weighted else None
            out = accumulate(pts, (w, h), splat="nearest", weights=weights)
            grid, discarded = nearest_splat(pts, (w, h), weights)
            assert np.array_equal(out.grid, grid)
            assert out.discarded == discarded
            assert out.grid.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_discarded(self, bad):
        # the bounds test drops it before any int64 cast, which would warn
        warped = np.array([[bad, 2.0], [2.0, bad], [1.0, 1.0]])
        out = accumulate(warped, resolution=(4, 4), splat="nearest")
        assert out.discarded == 2
        assert out.grid[1, 1] == 1.0 and out.mass == 1.0


class TestAccumulateGeneral:
    def test_empty_input(self):
        out = accumulate(np.empty((0, 2)), resolution=(4, 4), splat="nearest")
        assert out.mass == 0.0
        assert out.grid.shape == (4, 4)

    def test_all_out_of_bounds_gives_zero_grid(self):
        warped = np.full((7, 2), 50.0)
        out = accumulate(warped, resolution=(4, 4), splat="bilinear")
        assert not out.grid.any()
        assert out.discarded == 7

    def test_unknown_splat_rejected(self):
        with pytest.raises(ValueError):
            accumulate(np.zeros((1, 2)), resolution=(4, 4), splat="cubic")

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            accumulate(np.zeros((3, 2)), resolution=(0, 4), splat="nearest")

    @settings(max_examples=50, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(-5, 15), st.floats(-5, 15)),
            min_size=1, max_size=60,
        ),
        splat=st.sampled_from(["nearest", "bilinear"]),
    )
    def test_mass_plus_discards_is_event_count(self, pts, splat):
        warped = np.asarray(pts, dtype=np.float64)
        out = accumulate(warped, resolution=(10, 10), splat=splat)
        np.testing.assert_allclose(out.mass + out.discarded, len(pts),
                                   rtol=1e-6)


class TestBlockSum:
    def test_even_dims(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(block_sum(grid), [[10.0]])

    def test_four_blocks(self):
        grid = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = block_sum(grid)
        np.testing.assert_array_equal(out, [[10.0, 18.0], [42.0, 50.0]])

    def test_odd_dims_pad_with_zeros(self):
        grid = np.ones((3, 3))
        out = block_sum(grid)
        # trailing row/col fall in their own half-empty blocks
        np.testing.assert_array_equal(out, [[4.0, 2.0], [2.0, 1.0]])
        assert out.sum() == grid.sum()

    def test_mass_preserved(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(size=(9, 13))
        np.testing.assert_allclose(block_sum(grid).sum(), grid.sum(),
                                   rtol=1e-12)


def zero_padded(grid):
    """``grid`` with a zero row and column appended where it is odd."""
    h, w = grid.shape
    padded = np.zeros((h + h % 2, w + w % 2))
    padded[:h, :w] = grid
    return padded


def pairwise_block_sum(grid):
    """(a + b) + (c + d) over each 2x2 block [[a, b], [c, d]] of the
    zero-padded grid, written out: the order block_sum keeps."""
    g = zero_padded(grid)
    a, b = g[0::2, 0::2], g[0::2, 1::2]
    c, d = g[1::2, 0::2], g[1::2, 1::2]
    return (a + b) + (c + d)


def reshape_block_sum(grid):
    """The 2x2 block sum by a reshape and a two-axis sum: the previous
    implementation, kept as the bitwise reference."""
    g = zero_padded(grid)
    h, w = g.shape
    return g.reshape(h // 2, 2, w // 2, 2).sum(axis=(1, 3))


# magnitudes over 16 decades, so that any other order of the four additions
# rounds differently somewhere
def wide_range_grid(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


BLOCK_SHAPES = [(2, 2), (2, 7), (5, 2), (3, 3), (8, 10), (9, 13), (260, 346),
                (130, 173), (65, 87), (180, 240), (64, 64)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_block_sum_adds_each_block_pairwise(shape):
    grid = wide_range_grid(shape, sum(shape))
    assert np.array_equal(block_sum(grid), pairwise_block_sum(grid))


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.4.0",
                    reason="the reshape-sum's order is verified on NumPy 2.4")
@pytest.mark.parametrize("shape", [s for s in BLOCK_SHAPES if s[1] > 2])
def test_block_sum_bitwise_equal_to_reshape_reference(shape):
    # a grid 2 wide reshape-sums as ((a + b) + c) + d; no pyramid halves
    # one, since its coarsest level is at least 3 wide
    grid = wide_range_grid(shape, sum(shape))
    assert np.array_equal(block_sum(grid), reshape_block_sum(grid))


class TestPyramid:
    def test_single_scale_is_identity(self):
        base = np.arange(12.0).reshape(3, 4)
        levels = build_pyramid(base, num_scales=1)
        assert len(levels) == 1
        np.testing.assert_array_equal(levels[0], base)

    def test_two_by_two_collapses(self):
        levels = build_pyramid(np.array([[1.0, 2.0], [3.0, 4.0]]), num_scales=2)
        np.testing.assert_array_equal(levels[1], [[10.0]])

    def test_mass_equal_across_levels(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(size=(16, 24))
        levels = build_pyramid(base, num_scales=4)
        for lv in levels[1:]:
            np.testing.assert_allclose(lv.sum(), base.sum(), rtol=1e-12)

    def test_shapes_halve_with_ceiling(self):
        levels = build_pyramid(np.zeros((10, 14)), num_scales=3)
        shapes = [lv.shape for lv in levels]
        assert shapes == [(10, 14), (5, 7), (3, 4)]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(np.zeros((2, 8)), num_scales=3)

    def test_bad_scale_count_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(np.zeros((8, 8)), num_scales=0)
