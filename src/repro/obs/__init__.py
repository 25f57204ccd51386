"""repro.obs — opt-in observability for the simulation harness.

The simulator's *in-model* telemetry (:mod:`repro.telemetry`) reproduces
the paper's progress sensors; this package instruments the **harness
itself** — the machinery the ROADMAP needs numbers from before it can be
optimized. Three pillars:

* **structured tracing** (:mod:`repro.obs.trace`) — nested spans and
  instant events at the hot seams: cluster/scheduler epoch loops,
  :class:`~repro.cluster.sharding.ShardedLockstep` dispatch (with
  per-epoch pickled payload bytes), :class:`~repro.runtime.executor.
  RunExecutor` fan-out, scheduler decisions, and experiment phases.
  Exportable as JSONL or Chrome trace-event JSON
  (:mod:`repro.obs.export`) — the latter loads directly in Perfetto;
* **metrics** (:mod:`repro.obs.metrics`) — labeled counters, gauges and
  histograms with text/JSON reports;
* **run provenance** (:mod:`repro.obs.provenance`) — a JSON manifest
  (config, seeds, versions, timings) written next to a run's outputs.

The layer is **disabled by default** and zero-cost when off: call sites
hold a shared :class:`~repro.obs.trace.NullTracer` /
:class:`~repro.obs.metrics.NullMetrics` whose operations are no-ops.
Enabling it must never change a simulated number — traced runs are
bit-identical to untraced runs (pinned by ``tests/obs``), because
observability only ever *describes* execution. Its host-clock reads are
confined to the single audited module :mod:`repro.obs.hostclock`, which
the determinism lint recognizes explicitly and which also serves the
daemon's pacing (the one reading that steers anything: when an epoch
runs).

Usage::

    from repro import obs

    session = obs.enable()
    ...  # run experiments
    session.write_trace("run.json")      # Chrome trace (Perfetto)
    print(session.metrics.render_text())
    obs.disable()

or via the CLI: ``python -m repro.experiments figure4 --trace run.json``
then ``python -m repro.obs summarize run.json``.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.export import write_trace
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.provenance import build_manifest, write_manifest
from repro.obs.summarize import summarize
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "enable",
    "disable",
    "enabled",
    "tracer",
    "metrics",
    "session",
    "build_manifest",
    "write_manifest",
    "write_trace",
    "summarize",
    "Tracer",
    "NullTracer",
    "NullMetrics",
]


class ObsSession:
    """One enabled observability scope: a tracer plus a metrics registry."""

    def __init__(self, *, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def write_trace(self, path: str | os.PathLike) -> dict[str, Any]:
        """Write the recorded trace (format by extension, see
        :func:`repro.obs.export.write_trace`); returns a summary dict
        suitable for a manifest's ``trace`` entry."""
        fmt = write_trace(path, self.tracer.events)
        return {"path": os.fspath(path), "format": fmt,
                "events": len(self.tracer.events)}

    def write_metrics(self, path: str | os.PathLike) -> None:
        """Write the metrics report (``.json`` = JSON, else text)."""
        if os.fspath(path).endswith(".json"):
            payload = self.metrics.render_json()
        else:
            payload = self.metrics.render_text()
        with open(path, "w", encoding="utf-8") as f:
            f.write(payload)
            f.write("\n")


#: Module state: the active session, or None when observability is off.
_session: ObsSession | None = None


def enable(session: ObsSession | None = None) -> ObsSession:
    """Turn observability on (idempotent); returns the active session."""
    global _session
    if session is not None:
        _session = session
    elif _session is None:
        _session = ObsSession()
    return _session


def disable() -> None:
    """Turn observability off; instrumented code reverts to no-ops."""
    global _session
    _session = None


def enabled() -> bool:
    return _session is not None


def session() -> ObsSession | None:
    """The active session, or None when disabled."""
    return _session


def tracer() -> Tracer | NullTracer:
    """The active tracer — a shared no-op when observability is off.

    Hot loops should call this once per run (not per iteration): the
    bound tracer stays valid for the loop's lifetime, and hoisting the
    lookup keeps the disabled path at one attribute check per event.
    """
    s = _session
    return s.tracer if s is not None else NULL_TRACER


def metrics() -> MetricsRegistry | NullMetrics:
    """The active metrics registry — a shared no-op when off."""
    s = _session
    return s.metrics if s is not None else NULL_METRICS
