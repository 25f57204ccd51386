"""Unit and property tests for the repeat-measurement confidence interval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import mean_confidence_interval
from repro.exceptions import ConfigurationError


class TestMeanCI:
    def test_single_sample_degenerates(self):
        assert mean_confidence_interval([5.0]) == (5.0, 5.0)

    def test_zero_variance_degenerates(self):
        assert mean_confidence_interval([3.0, 3.0, 3.0]) == (3.0, 3.0)

    def test_contains_mean(self):
        lo, hi = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi

    def test_wider_at_higher_confidence(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo95, hi95 = mean_confidence_interval(data, 0.95)
        lo99, hi99 = mean_confidence_interval(data, 0.99)
        assert hi99 - lo99 > hi95 - lo95

    def test_known_value(self):
        # n=5, mean=3, sem=sqrt(2.5)/sqrt(5); t(0.975, 4)=2.7764
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = mean_confidence_interval(data)
        sem = np.sqrt(2.5 / 5)
        assert hi - 3.0 == pytest.approx(2.7764 * sem, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([])
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0], confidence=1.5)
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([float("nan")])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                max_size=40))
@settings(max_examples=60)
def test_t_interval_brackets_the_sample_mean(samples):
    lo, hi = mean_confidence_interval(samples)
    mean = float(np.mean(samples))
    assert lo <= mean + 1e-9
    assert hi >= mean - 1e-9
