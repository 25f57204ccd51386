"""Statistical utilities for repeated measurements.

See :mod:`repro.analysis.stats`.
"""

from repro.analysis.stats import mean_confidence_interval

__all__ = ["mean_confidence_interval"]
