"""Fixtures shared by the test modules."""

import pytest

from evdepth import costvol


def _sweep_window(window, intrinsics, velocity, hypotheses, config):
    """The window's arrays after ``costvol._sweep_task``, the task that
    ``estimate_depth`` runs, has swept every hypothesis in this process;
    the aggregate step it returns is dropped, so they hold per-scale score
    volumes ``scores``, then ``iwe`` and ``discarded``."""
    d = len(hypotheses)
    layout, nbytes = costvol._window_layout(d, intrinsics.resolution,
                                            config.num_scales)
    buffer = bytearray(nbytes)
    costvol._sweep_task(layout, window, intrinsics, velocity,
                        hypotheses.depths, (0, d), (0, 0), config,
                        costvol.AggregationConfig(), buffer, lambda: None,
                        lambda view: None)
    return costvol._window_arrays(layout, buffer)


@pytest.fixture
def sweep_window():
    """The raw sweep of a window, for tests that read its volumes."""
    return _sweep_window
