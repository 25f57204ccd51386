"""Structured tracing: nested spans and instant events.

A :class:`Tracer` records two kinds of events, both carrying free-form
``args``:

* **spans** — ``with tracer.span("scheduler.epoch", now=t):`` records a
  complete-duration event covering the block (Chrome trace phase
  ``"X"``), nested naturally by the with-statement;
* **instants** — ``tracer.instant("shard.payload", shard=i)``
  records a point event (phase ``"i"``).

Events are held in memory as plain dicts in Chrome-trace shape with
*nanosecond* ``ts``/``dur`` (the exporters in :mod:`repro.obs.export`
convert to the microsecond unit the Chrome/Perfetto format specifies).
Timestamps come from the audited host clock
(:mod:`repro.obs.hostclock`) and only ever *describe* the run — the
golden-parity tests in ``tests/obs`` pin that tracing never changes a
simulated number.

When observability is off, call sites hold a :class:`NullTracer`
(``enabled = False``) whose :meth:`~NullTracer.span` returns one shared
no-op context manager — the disabled path allocates nothing per event
beyond the kwargs dict Python builds for the call itself.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs import hostclock

__all__ = ["Span", "NullSpan", "Tracer", "NullTracer", "NULL_TRACER"]


class NullSpan:
    """Shared no-op stand-in for :class:`Span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **args: Any) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class Span:
    """One in-flight complete-duration event (use as a context manager).

    Extra attributes observed mid-span (a result count, a payload size)
    attach via :meth:`set`; they merge into the event's ``args`` when
    the span closes.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str,
                 args: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0

    def set(self, **args: Any) -> "Span":
        """Attach attributes to the span while it is open."""
        self._args.update(args)
        return self

    def __enter__(self) -> "Span":
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        end = self._tracer._clock()
        self._tracer._events.append({
            "ph": "X",
            "name": self._name,
            "cat": self._tracer.category,
            "ts": self._start,
            "dur": end - self._start,
            "pid": self._tracer.pid,
            "tid": 0,
            "args": self._args,
        })


class Tracer:
    """In-memory trace recorder.

    Parameters
    ----------
    category:
        Chrome trace ``cat`` stamped on every event.
    clock:
        Nanosecond timestamp source; defaults to the audited host clock.
        Tests inject a fake for deterministic assertions.
    pid:
        Process id stamped on events; purely descriptive (the default 0
        keeps traces byte-stable across runs).
    """

    enabled = True

    def __init__(self, *, category: str = "repro",
                 clock: Callable[[], int] = hostclock.perf_ns,
                 pid: int = 0) -> None:
        self.category = category
        self.pid = pid
        self._clock = clock
        self._events: list[dict[str, Any]] = []

    # ------------------------------------------------------------------

    def span(self, name: str, **args: Any) -> Span:
        """A nested span covering the ``with`` block it guards."""
        return Span(self, name, args)

    def instant(self, name: str, **args: Any) -> None:
        """A point event at the current time."""
        self._events.append({
            "ph": "i",
            "name": name,
            "cat": self.category,
            "ts": self._clock(),
            "s": "p",
            "pid": self.pid,
            "tid": 0,
            "args": args,
        })

    def now_ns(self) -> int:
        """The tracer's current timestamp (for wait/interval attrs)."""
        return self._clock()

    # ------------------------------------------------------------------

    @property
    def events(self) -> list[dict[str, Any]]:
        """The recorded events (internal nanosecond form), in order."""
        return self._events

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``enabled`` is False so call sites can guard genuinely costly
    measurements (pickling a payload just to size it) behind one
    attribute check; plain ``span()``/``instant()`` calls need no guard.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str, **args: Any) -> NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args: Any) -> None:
        return None

    def now_ns(self) -> int:
        return 0

    @property
    def events(self) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer (what :func:`repro.obs.tracer` returns
#: when observability is off).
NULL_TRACER = NullTracer()
