"""Unit and property tests for TimeSeries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import CheckpointError, ConfigurationError
from repro.telemetry import TimeSeries


class TestBasics:
    def test_empty(self):
        ts = TimeSeries("x")
        assert len(ts) == 0
        assert ts.is_empty()

    def test_append_and_access(self):
        ts = TimeSeries("x")
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert len(ts) == 2
        assert ts[0] == (1.0, 10.0)
        assert list(ts) == [(1.0, 10.0), (2.0, 20.0)]

    def test_constructor_samples(self):
        ts = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0)])
        assert len(ts) == 2

    def test_rejects_time_going_backwards(self):
        ts = TimeSeries("x")
        ts.append(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            ts.append(1.0, 1.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries("x")
        ts.append(1.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_arrays_are_copies(self):
        ts = TimeSeries("x", [(0.0, 1.0)])
        ts.values[0] = 99.0
        assert ts[0][1] == 1.0


class TestStatistics:
    @pytest.fixture()
    def ts(self):
        return TimeSeries("x", [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)])

    def test_mean(self, ts):
        assert ts.mean() == pytest.approx(4.0)

    def test_min_max(self, ts):
        assert ts.min() == 2.0
        assert ts.max() == 6.0

    def test_std(self, ts):
        assert ts.std() == pytest.approx(np.std([2.0, 4.0, 6.0]))

    def test_cv(self, ts):
        assert ts.coefficient_of_variation() == pytest.approx(ts.std() / 4.0)

    def test_cv_undefined_at_zero_mean(self):
        ts = TimeSeries("x", [(0.0, -1.0), (1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            ts.coefficient_of_variation()

    def test_empty_stats_raise(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("x").mean()


class TestWindow:
    def test_half_open_interval(self):
        ts = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        w = ts.window(0.5, 2.0)
        assert list(w) == [(1.0, 2.0)]

    def test_bad_window_raises(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("x").window(2.0, 1.0)

    def test_bounds_on_repeated_times(self):
        """Every sample at ``t_start`` is kept, every one at ``t_end``
        dropped, however many share the time."""
        ts = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0), (1.0, 3.0),
                              (2.0, 4.0), (2.0, 5.0), (3.0, 6.0)])
        assert list(ts.window(1.0, 2.0)) == [(1.0, 2.0), (1.0, 3.0)]
        assert list(ts.window(2.0, 2.0)) == []
        assert list(ts.window(-1.0, 9.0)) == list(ts)

    def test_window_is_a_copy(self):
        ts = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0)])
        w = ts.window(0.0, 5.0)
        w.append(3.0, 9.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert w.name == "x"


#: Times on a coarse grid, so sorted draws repeat times and bounds land
#: exactly on samples.
_grid_time = st.integers(0, 12).map(lambda k: k * 0.25)


@given(st.lists(st.tuples(_grid_time,
                          st.floats(-1e6, 1e6, allow_subnormal=True)),
                max_size=40),
       st.one_of(_grid_time, st.floats(-1.0, 4.0)),
       st.one_of(_grid_time, st.floats(-1.0, 4.0)))
def test_window_matches_linear_filter(samples, a, b):
    """The bisected window equals the linear ``t_start <= t < t_end``
    filter sample for sample, and the mean ``recent_rate`` takes of it
    is bit-equal."""
    samples = sorted(samples, key=lambda s: s[0])
    t_start, t_end = min(a, b), max(a, b)
    ts = TimeSeries("x", samples)
    want = [(t, v) for t, v in samples if t_start <= t < t_end]
    got = ts.window(t_start, t_end)
    assert list(got) == want
    if want:
        mean = np.asarray([v for _, v in want], dtype=float).mean()
        assert got.values.mean().tobytes() == mean.tobytes()


class TestRestore:
    def test_round_trip_with_repeated_times(self):
        ts = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
        out = TimeSeries("x")
        out.restore(ts.snapshot())
        assert list(out) == list(ts)

    def test_decreasing_times_refused(self):
        state = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0)]).snapshot()
        state["times"] = [1.0, 0.0]
        out = TimeSeries("x", [(5.0, 5.0)])
        with pytest.raises(CheckpointError, match="decreasing"):
            out.restore(state)
        assert list(out) == [(5.0, 5.0)]

    def test_length_mismatch_refused(self):
        state = TimeSeries("x", [(0.0, 1.0), (1.0, 2.0)]).snapshot()
        state["values"] = [1.0]
        with pytest.raises(CheckpointError, match="2 times and 1 values"):
            TimeSeries("x").restore(state)


class TestResample:
    def test_averages_within_bins(self):
        ts = TimeSeries("x", [(0.1, 1.0), (0.6, 3.0), (1.2, 10.0)])
        r = ts.resample(1.0, t_start=0.0, t_end=2.0)
        assert len(r) == 2
        assert r[0] == (pytest.approx(1.0), pytest.approx(2.0))
        assert r[1] == (pytest.approx(2.0), pytest.approx(10.0))

    def test_empty_bins_filled(self):
        ts = TimeSeries("x", [(0.5, 4.0), (2.5, 6.0)])
        r = ts.resample(1.0, t_start=0.0, t_end=3.0, fill=-1.0)
        assert r.values.tolist() == [4.0, -1.0, 6.0]

    def test_rejects_nonpositive_interval(self):
        ts = TimeSeries("x", [(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            ts.resample(0.0)

    def test_empty_series_raises(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("x").resample(1.0)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100),
                  st.floats(min_value=-1e6, max_value=1e6)),
        min_size=1, max_size=50,
    )
)
def test_resample_preserves_value_range(samples):
    samples = sorted(samples, key=lambda s: s[0])
    ts = TimeSeries("x", samples)
    r = ts.resample(1.0, t_start=0.0, t_end=101.0, fill=ts.min())
    # bin means never exceed the raw extremes
    assert r.max() <= ts.max() + 1e-9
    assert r.min() >= ts.min() - 1e-9
