"""Confidence intervals for repeated progress measurements.

The paper averages five repeats per power cap; a credible reproduction
should also say how tight those averages are. The Testbed reports the
Student-t confidence interval of each measurement's repeats.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.exceptions import ConfigurationError

__all__ = ["mean_confidence_interval"]


def _validate(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("samples must be finite")
    return arr


def mean_confidence_interval(samples, confidence: float = 0.95
                             ) -> tuple[float, float]:
    """Student-t confidence interval for the mean.

    With a single sample the interval degenerates to ``(x, x)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0, 1)")
    arr = _validate(samples)
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(stats.sem(arr))
    if sem == 0.0:
        return (mean, mean)
    half = sem * float(stats.t.ppf((1.0 + confidence) / 2.0, arr.size - 1))
    return (mean - half, mean + half)
