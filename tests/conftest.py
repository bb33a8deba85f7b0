"""Fixtures shared by the test modules."""

import pytest

from evdepth import costvol


def _sweep_window(window, intrinsics, velocity, hypotheses, config):
    """The window's arrays after ``estimate_depth``'s sweep over every
    hypothesis, run in this process and not yet aggregated: per-scale score
    volumes ``scores``, then ``iwe`` and ``discarded``."""
    d = len(hypotheses)
    layout, nbytes = costvol._window_layout(d, intrinsics.resolution,
                                            config.num_scales)
    out = costvol._window_arrays(layout, bytearray(nbytes))
    costvol._sweep_into(out, window, intrinsics, velocity, hypotheses.depths,
                        0, d, config, lambda: None)
    return out


@pytest.fixture
def sweep_window():
    """The raw sweep of a window, for tests that read its volumes."""
    return _sweep_window
