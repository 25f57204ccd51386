"""Dynamic power-capping schedules (paper Section V-B).

A schedule maps the time since the cap controller started to the
package cap to apply:

* :class:`LinearDecreaseSchedule` — "initially the power on the node is
  uncapped, and a linearly decreasing power cap is applied until a
  system- or user-specified minimum value is reached";
* :class:`StepSchedule` — "the power cap on the node alternates between
  an uncapped (or high value) and a low value";
* :class:`JaggedEdgeSchedule` — "the power cap linearly decreases from an
  uncapped level to a low value and then goes back to an uncapped level
  quickly";
* :class:`FixedCapSchedule` / :class:`UncappedSchedule` — static
  references used by the model-evaluation measurements.

``cap_at(t)`` returns the cap in watts, or ``None`` for uncapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "CapSchedule",
    "LinearDecreaseSchedule",
    "StepSchedule",
    "JaggedEdgeSchedule",
    "FixedCapSchedule",
    "UncappedSchedule",
]


class CapSchedule:
    """Base class; subclasses implement :meth:`cap_at`."""

    def cap_at(self, t: float) -> float | None:
        """Package cap (watts) at elapsed time ``t``; None = uncapped."""
        raise NotImplementedError


def _check_range(high: float, low: float) -> None:
    if low <= 0:
        raise ConfigurationError(f"low cap must be positive, got {low}")
    if high <= low:
        raise ConfigurationError(
            f"high cap ({high}) must exceed low cap ({low})"
        )


@dataclass(frozen=True)
class LinearDecreaseSchedule(CapSchedule):
    """Uncapped until ``start``, then descend at ``rate`` W/s from
    ``high`` until ``low``, and hold."""

    high: float
    low: float
    rate: float
    start: float = 0.0

    def __post_init__(self) -> None:
        _check_range(self.high, self.low)
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")

    def cap_at(self, t: float) -> float | None:
        if t < self.start:
            return None
        return max(self.low, self.high - self.rate * (t - self.start))


@dataclass(frozen=True)
class StepSchedule(CapSchedule):
    """Alternate ``high_duration`` seconds at ``high`` (None = uncapped)
    with ``low_duration`` seconds at ``low``."""

    low: float
    high: float | None = None     #: None alternates with *uncapped*
    high_duration: float = 20.0
    low_duration: float = 20.0

    def __post_init__(self) -> None:
        if self.low <= 0:
            raise ConfigurationError(f"low cap must be positive, got {self.low}")
        if self.high is not None:
            _check_range(self.high, self.low)
        if self.high_duration <= 0 or self.low_duration <= 0:
            raise ConfigurationError("step durations must be positive")

    def cap_at(self, t: float) -> float | None:
        period = self.high_duration + self.low_duration
        phase = t % period
        if phase < self.high_duration:
            return self.high
        return self.low


@dataclass(frozen=True)
class JaggedEdgeSchedule(CapSchedule):
    """Sawtooth: descend linearly from ``high`` to ``low`` over
    ``descent`` seconds, then snap back up instantly and repeat."""

    high: float
    low: float
    descent: float = 30.0

    def __post_init__(self) -> None:
        _check_range(self.high, self.low)
        if self.descent <= 0:
            raise ConfigurationError("descent must be positive")

    def cap_at(self, t: float) -> float | None:
        phase = (t % self.descent) / self.descent
        return self.high - (self.high - self.low) * phase


@dataclass(frozen=True)
class FixedCapSchedule(CapSchedule):
    """A constant cap from ``start`` onward (uncapped before), as used by
    the Fig. 4 measurement protocol (uncapped baseline, then step down)."""

    cap: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ConfigurationError(f"cap must be positive, got {self.cap}")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")

    def cap_at(self, t: float) -> float | None:
        return self.cap if t >= self.start else None


@dataclass(frozen=True)
class UncappedSchedule(CapSchedule):
    """Never caps (baseline runs)."""

    def cap_at(self, t: float) -> float | None:
        return None
