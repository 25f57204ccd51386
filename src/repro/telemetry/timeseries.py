"""Timestamped sample container.

Every measured quantity in the library (progress rate, package power,
frequency, power cap) is recorded as a :class:`TimeSeries`: a pair of
parallel arrays of times and values with summary statistics, windowed
views, and mean-preserving resampling.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    check_snapshot_version,
)

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only series of ``(time, value)`` samples.

    Times must be non-decreasing (they come from the simulation clock).
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "",
                 samples: Iterable[tuple[float, float]] | None = None) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        if samples is not None:
            for t, v in samples:
                self.append(t, v)

    # -- building -----------------------------------------------------------

    def append(self, time: float, value: float) -> None:
        """Add one sample; ``time`` must not precede the last sample."""
        if self._times and time < self._times[-1]:
            raise ConfigurationError(
                f"sample at t={time} precedes last sample t={self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def __getitem__(self, idx: int) -> tuple[float, float]:
        return self._times[idx], self._values[idx]

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array (copy)."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array (copy)."""
        return np.asarray(self._values, dtype=float)

    def is_empty(self) -> bool:
        return not self._times

    def copy(self) -> "TimeSeries":
        """An independent copy (same name and samples)."""
        out = TimeSeries(self.name)
        out._times = list(self._times)
        out._values = list(self._values)
        return out

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable state (times/values as plain lists)."""
        return {"version": 1, "name": self.name, "times": list(self._times),
                "values": list(self._values)}

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` (replaces all samples). The
        snapshot must belong to a series of the same name — restoring
        across series was historically silent and always a wiring bug —
        and hold as many values as times, in non-decreasing time order
        (:meth:`window` bisects the times)."""
        check_snapshot_version(state, 1, "TimeSeries")
        if state["name"] != self.name:
            raise CheckpointError(
                f"series snapshot is for {state['name']!r}, "
                f"restoring into {self.name!r}")
        times = list(state["times"])
        values = list(state["values"])
        if len(times) != len(values):
            raise CheckpointError(
                f"series snapshot has {len(times)} times "
                f"and {len(values)} values")
        if any(b < a for a, b in zip(times, times[1:])):
            raise CheckpointError(
                f"series snapshot {self.name!r} has decreasing times")
        self._times = times
        self._values = values

    # -- statistics -----------------------------------------------------------

    def _require_samples(self) -> None:
        if not self._times:
            raise ConfigurationError(f"time series {self.name!r} is empty")

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        self._require_samples()
        return float(np.mean(self._values))

    def std(self) -> float:
        """Standard deviation of the values."""
        self._require_samples()
        return float(np.std(self._values))

    def min(self) -> float:
        self._require_samples()
        return float(np.min(self._values))

    def max(self) -> float:
        self._require_samples()
        return float(np.max(self._values))

    def coefficient_of_variation(self) -> float:
        """std/mean — the consistency measure used to characterize online
        performance (LAMMPS is consistent, AMG fluctuates)."""
        m = self.mean()
        if m == 0.0:
            raise ConfigurationError("coefficient of variation undefined at mean 0")
        return self.std() / abs(m)

    # -- transforms ------------------------------------------------------------

    def window(self, t_start: float, t_end: float) -> "TimeSeries":
        """Samples with ``t_start <= t < t_end`` (a copy), bounded by
        bisection on the sorted times."""
        if t_end < t_start:
            raise ConfigurationError(f"bad window [{t_start}, {t_end})")
        lo = bisect_left(self._times, t_start)
        hi = bisect_left(self._times, t_end, lo)
        out = TimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def resample(self, interval: float, t_start: float | None = None,
                 t_end: float | None = None, fill: float = 0.0
                 ) -> "TimeSeries":
        """Average samples into fixed ``interval`` bins.

        Each output sample is stamped at its bin's *end* (like the 1 Hz
        monitor); empty bins produce ``fill``.
        """
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self._require_samples()
        t0 = self._times[0] if t_start is None else t_start
        t1 = self._times[-1] if t_end is None else t_end
        if t1 < t0:
            raise ConfigurationError("t_end precedes t_start")
        n_bins = max(1, int(np.ceil((t1 - t0) / interval - 1e-12)))
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        out = TimeSeries(self.name)
        for b in range(n_bins):
            lo, hi = t0 + b * interval, t0 + (b + 1) * interval
            mask = (times >= lo) & (times < hi)
            out.append(hi, float(values[mask].mean()) if mask.any() else fill)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._times:
            return f"TimeSeries({self.name!r}, empty)"
        return (
            f"TimeSeries({self.name!r}, n={len(self)}, "
            f"t=[{self._times[0]:.2f}, {self._times[-1]:.2f}])"
        )
