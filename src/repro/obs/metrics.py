"""Labeled counters, gauges, and histograms for harness metrics.

A :class:`MetricsRegistry` holds metrics keyed by ``(name, labels)`` —
the Prometheus data model, minus the server: counters accumulate
(epochs stepped, bytes pickled), gauges hold a last value (daemon
queue depth), histograms keep streaming summary statistics
(per-epoch wall time) without storing samples.

The registry renders as a stable, sorted text report or a JSON
document (``--metrics-out``). Like tracing, metrics only *describe*
runs; nothing in the simulator reads them back. When observability is
off, call sites hold a :class:`NullMetrics` whose factory methods
return shared no-op instruments, so the disabled path costs one method
call and no allocation.
"""

from __future__ import annotations

import json
import threading
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetrics", "NULL_METRICS"]


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically accumulating count (or sum, e.g. bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming summary of observations (no samples retained)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min, "max": self.max}


class _NullInstrument:
    """Shared sink standing in for any instrument when metrics are off."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Metrics keyed by ``(name, sorted labels)``; idempotent factories."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple, tuple[str, dict[str, Any], Any]] = {}
        # any thread of the embedding program may register instruments
        # concurrently; the lock covers registration only — updates on
        # an instrument stay unsynchronized single-opcode-ish operations
        self._reg_lock = threading.Lock()

    def _get(self, kind: type, name: str, labels: dict[str, Any]) -> Any:
        key = (name, _label_key(labels))
        with self._reg_lock:
            entry = self._metrics.get(key)
            if entry is None:
                entry = (name, labels, kind())
                self._metrics[key] = entry
        if not isinstance(entry[2], kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(entry[2]).__name__}, not {kind.__name__}")
        return entry[2]

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """All metrics as plain records, sorted by (name, labels)."""
        with self._reg_lock:
            entries = dict(self._metrics)
        out = []
        for key in sorted(entries):
            name, labels, metric = entries[key]
            out.append({
                "name": name,
                "labels": {k: labels[k] for k in sorted(labels)},
                "kind": type(metric).__name__.lower(),
                "value": metric.snapshot(),
            })
        return out

    def render_text(self) -> str:
        """Human-readable report, one metric per line."""
        lines = []
        for rec in self.snapshot():
            label = ""
            if rec["labels"]:
                pairs = ",".join(f"{k}={v}"
                                 for k, v in rec["labels"].items())
                label = "{" + pairs + "}"
            value = rec["value"]
            if isinstance(value, dict):
                body = ("count={count} total={total:.6g} mean={mean:.6g} "
                        "min={min:.6g} max={max:.6g}").format(**value)
            else:
                body = f"{value:.6g}"
            lines.append(f"{rec['name']}{label} {body}")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({"metrics": self.snapshot()}, indent=2,
                          sort_keys=True)

    def __len__(self) -> int:
        return len(self._metrics)


class NullMetrics:
    """Disabled registry: factories return one shared no-op instrument."""

    enabled = False

    __slots__ = ()

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> list[dict[str, Any]]:
        return []

    def render_text(self) -> str:
        return ""

    def render_json(self) -> str:
        return json.dumps({"metrics": []})

    def __len__(self) -> int:
        return 0


#: The shared disabled registry (what :func:`repro.obs.metrics` returns
#: when observability is off).
NULL_METRICS = NullMetrics()
