"""Event records, window formation, and the on-disk stream formats."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdepth.events import (
    EVENT_DTYPE,
    EventWindow,
    check_stream,
    form_windows,
    load_events,
    load_events_binary,
    load_events_text,
    make_events,
    save_events_binary,
    save_events_text,
)


def ramp_stream(n=10, dt=0.05):
    t = np.arange(n) * dt
    return make_events(t, np.arange(n) % 7, np.arange(n) % 5, np.arange(n) % 2)


class TestMakeEvents:
    def test_dtype_layout(self):
        ev = make_events([0.5], [3], [4], [1])
        assert ev.dtype == EVENT_DTYPE
        assert ev["t"][0] == 0.5
        assert ev["u"][0] == 3
        assert ev["v"][0] == 4
        assert ev["p"][0] == 1

    def test_record_is_13_bytes_packed(self):
        assert EVENT_DTYPE.itemsize == 13

    def test_inputs_are_copied(self):
        t = np.array([0.0, 1.0])
        ev = make_events(t, [0, 0], [0, 0], [0, 0])
        t[0] = 99.0
        assert ev["t"][0] == 0.0


class TestCheckStream:
    def test_monotone_passes(self):
        check_stream(ramp_stream())

    def test_decreasing_timestamp_names_index(self):
        ev = make_events([0.0, 0.2, 0.1], [0, 0, 0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="index 2"):
            check_stream(ev)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_names_index(self, bad):
        # NaN compares false, so a monotonicity check alone lets it through
        ev = make_events([0.0, 0.1, bad, 0.3], [0] * 4, [0] * 4, [0] * 4)
        with pytest.raises(ValueError, match="event 2 has a non-finite"):
            check_stream(ev)

    def test_out_of_bounds_column(self):
        ev = make_events([0.0], [10], [0], [0])
        with pytest.raises(ValueError, match="width"):
            check_stream(ev, width=10)

    def test_out_of_bounds_row(self):
        ev = make_events([0.0], [0], [7], [0])
        with pytest.raises(ValueError, match="height"):
            check_stream(ev, height=7)


class TestFormWindows:
    def test_time_bound_binds_first(self):
        # 10 events at t = 0.00 .. 0.45; the 0.2 s limit closes the first
        # window after the five events with t <= 0.2.
        windows = form_windows(ramp_stream(10, 0.05), max_count=8,
                               max_interval=0.2)
        assert len(windows[0]) == 5
        np.testing.assert_allclose(windows[0].events["t"],
                                   [0.0, 0.05, 0.1, 0.15, 0.2])

    def test_count_bound_on_simultaneous_events(self):
        ev = make_events([0.0] * 5, range(5), range(5), [0] * 5)
        windows = form_windows(ev, max_count=3, max_interval=1.0)
        assert [len(w) for w in windows] == [3, 2]

    def test_empty_stream(self):
        empty = np.empty(0, dtype=EVENT_DTYPE)
        assert form_windows(empty, max_count=10, max_interval=1.0) == []

    def test_t_ref_is_last_event(self):
        windows = form_windows(ramp_stream(), max_count=4, max_interval=10.0)
        for w in windows:
            assert w.t_ref == w.events["t"][-1]
            assert (w.offsets <= 0).all()

    def test_rejects_bad_bounds(self):
        ev = ramp_stream()
        with pytest.raises(ValueError):
            form_windows(ev, max_count=0, max_interval=1.0)
        with pytest.raises(ValueError):
            form_windows(ev, max_count=5, max_interval=0.0)

    def test_rejects_non_monotone(self):
        ev = make_events([0.0, 0.2, 0.1], [0, 0, 0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="index"):
            form_windows(ev, max_count=10, max_interval=1.0)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            form_windows(np.zeros(3), max_count=1, max_interval=1.0)

    @given(st.lists(st.floats(min_value=0, max_value=5,
                              allow_nan=False), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_bound_properties(self, times, max_count, max_interval):
        times = sorted(times)
        n = len(times)
        stream = make_events(times, np.arange(n) % 4, np.arange(n) % 4,
                             np.zeros(n))
        windows = form_windows(stream, max_count, max_interval)
        rebuilt = np.concatenate([w.events for w in windows])
        assert np.array_equal(rebuilt, stream)
        for w in windows:
            assert len(w) <= max_count
            assert w.t_span <= max_interval + 1e-12


class TestEventWindow:
    def test_from_empty_rejected(self):
        with pytest.raises(ValueError):
            EventWindow.from_events(np.empty(0, dtype=EVENT_DTYPE))

    def test_offsets(self):
        w = EventWindow.from_events(ramp_stream(3, 0.1))
        np.testing.assert_allclose(w.offsets, [-0.2, -0.1, 0.0])


class TestFileFormats:
    def test_text_round_trip(self, tmp_path):
        ev = ramp_stream(7)
        path = tmp_path / "events.txt"
        save_events_text(path, ev)
        assert np.array_equal(load_events_text(path), ev)

    def test_text_ignores_comments_and_blanks(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# header\n0.0 1 2 1\n\n# mid comment\n0.5 3 4 0\n")
        ev = load_events_text(path)
        assert len(ev) == 2
        assert ev["u"][1] == 3

    def test_text_round_trip_is_byte_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 3000
        t = np.sort(np.concatenate([
            rng.uniform(0.0, 3.0, n - 6),
            [0.0, 5e-324, 1e-300, 1.0 / 3.0, 0.1, 2.0 ** 52 + 0.5]]))
        ev = make_events(t, rng.integers(0, 65536, n), rng.integers(0, 65536, n),
                         rng.integers(0, 256, n))
        ev[-1]["u"], ev[-1]["v"], ev[-1]["p"] = 65535, 65535, 255
        path = tmp_path / "events.txt"
        save_events_text(path, ev)
        assert load_events_text(path).tobytes() == ev.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    def test_text_round_trip_any_finite_timestamp(self, tmp_path_factory, ts):
        ev = make_events(ts, [1] * len(ts), [2] * len(ts), [1] * len(ts))
        path = tmp_path_factory.mktemp("rt") / "events.txt"
        save_events_text(path, ev)
        assert load_events_text(path).tobytes() == ev.tobytes()

    def test_text_trailing_comment_and_one_row(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.25 7 8 1   # a note after the values\n")
        ev = load_events_text(path)
        assert ev.shape == (1,)
        assert ev.tobytes() == make_events([0.25], [7], [8], [1]).tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", "# t u v p\n", "# a\n\n  # b\n"],
                             ids=["empty", "blank", "header", "comments"])
    def test_text_without_rows_is_zero_events(self, tmp_path, capfd, text):
        path = tmp_path / "events.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = load_events_text(path)
        assert ev.dtype == EVENT_DTYPE and ev.shape == (0,)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("row, message", [
        ("0.0 65536 2 1", "u 65536 outside 0..65535"),
        ("0.0 65540 2 1", "u 65540 outside 0..65535"),
        ("0.0 -1 2 1", "u -1 outside 0..65535"),
        ("0.0 1 70000 1", "v 70000 outside 0..65535"),
        ("0.0 1 2 256", "p 256 outside 0..255"),
        ("0.0 1 2 300", "p 300 outside 0..255"),
        ("0.0 1 2 -1", "p -1 outside 0..255"),
        ("0.0 99999999999999999999 2 1", "u 99999999999999999999 outside 0..65535"),
        ("abc 1 2 1", "could not convert string to float: 'abc'"),
        ("0.0 1.5 2 1", "invalid literal for int() with base 10: '1.5'"),
        ("0.0 1 2", "expected 't u v p', got '0.0 1 2'"),
        ("0.0 1 2 1 5", "expected 't u v p', got '0.0 1 2 1 5'"),
    ])
    def test_text_bad_row_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "events.txt"
        # the bad row is on line 5, the second data row
        path.write_text(f"# t u v p\n0.0 1 2 1\n\n# note\n{row}\n0.5 3 4 0\n")
        with pytest.raises(ValueError) as info:
            load_events_text(path)
        assert str(info.value) == f"{path}:5: {message}"

    def test_text_value_only_python_parses_still_names_path(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1_0 2 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_events_text(path)

    def test_binary_round_trip(self, tmp_path):
        ev = ramp_stream(9)
        path = tmp_path / "events.bin"
        save_events_binary(path, ev)
        assert np.array_equal(load_events_binary(path), ev)
        # the file is exactly the packed little-endian records
        assert path.stat().st_size == 9 * EVENT_DTYPE.itemsize

    def test_load_dispatches_on_suffix(self, tmp_path):
        ev = ramp_stream(4)
        save_events_text(tmp_path / "a.txt", ev)
        save_events_binary(tmp_path / "a.bin", ev)
        assert np.array_equal(load_events(tmp_path / "a.txt"), ev)
        assert np.array_equal(load_events(tmp_path / "a.bin"), ev)
