"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded by wrapping the public functions of each layer from
the benchmark's own files; nothing inside ``src/`` is changed. A span
records a name, start, end, its parent span and optional attributes
(``job_id`` for daemon requests). Functions called once per event
inside a node epoch (``SimulatedNode.accrue``, ``TimeSeries.append``,
``PubSocket.send``) get aggregated count and time counters instead of
one span per call.

A layer is the first dotted component of a span or counter name. Its
self time is the duration of its spans minus the time their child
spans and timed counters cover; a timed counter's time is the self
time of its own layer.

Everything stays in memory until :meth:`Tracer.dump` writes it out at
the end of the run (or at the end of a worker or daemon process).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

_now = time.perf_counter_ns


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded (a forked worker starts clean)."""
        #: [name, start_ns, end_ns, parent index, child_ns, attrs]
        self.spans: list[list] = []
        #: name -> [calls, ns, total amount]
        self.counters: dict[str, list] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, _now(), 0, parent, 0, attrs])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = _now()
        self._stack().pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def count(self, name: str, amount: float = 1, ns: int = 0) -> None:
        """Aggregate one call: ``amount`` units of work taking ``ns``.
        Timed calls also charge ``ns`` to the enclosing span as child
        time, so that span's self time excludes them."""
        with self._lock:
            entry = self.counters.get(name)
            if entry is None:
                entry = self.counters[name] = [0, 0, 0.0]
            entry[0] += 1
            entry[1] += ns
            entry[2] += amount
        if ns:
            stack = self._stack()
            if stack:
                self.spans[stack[-1]][4] += ns

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counters": self.counters}, f)


TRACER = Tracer()


# ----------------------------------------------------------------------
# Wrapping helpers
# ----------------------------------------------------------------------


def span(owner, attr: str, name: str, attrs=None, after=None) -> None:
    """Record a span around every call of ``owner.attr``.

    ``attrs(*args, **kwargs)`` may return span attributes; ``after(
    result, *args, **kwargs)`` runs inside the span once the call
    returned (for counters derived from arguments or results).
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = TRACER.begin(name, attrs(*args, **kwargs) if attrs else None)
        try:
            result = orig(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        finally:
            TRACER.end(idx)

    setattr(owner, attr, wrapper)


def counted(owner, attr: str, name: str, *, timed: bool = False,
            amount=None) -> None:
    """Aggregate calls of ``owner.attr`` into the counter ``name``.
    ``amount(result, *args)`` gives the units of work per call (1 by
    default)."""
    orig = getattr(owner, attr)

    if timed:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = _now()
            result = orig(*args, **kwargs)
            TRACER.count(name, amount(result, *args) if amount else 1,
                         _now() - start)
            return result
    else:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            TRACER.count(name, amount(result, *args) if amount else 1)
            return result

    setattr(owner, attr, wrapper)


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------


def load(paths: list[str]) -> list[dict]:
    dumps = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            dumps.append(json.load(f))
    return dumps


def reduce(dumps: list[dict]) -> dict:
    """Per-name span totals, counters and per-layer self times over the
    dumps of every process of one run.

    Returns ``{"spans": {name: {"count", "total_s", "self_s"}},
    "counters": {name: {"calls", "time_s", "amount"}},
    "layers": {layer: self_s}}``.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for dump in dumps:
        for name, start, end, _parent, child_ns, _attrs in dump["spans"]:
            if not end:
                continue  # still open when the process dumped
            entry = spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += (end - start) / 1e9
            own = (end - start - child_ns) / 1e9
            entry["self_s"] += own
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        for name, (calls, ns, amount) in dump["counters"].items():
            entry = counters.setdefault(
                name, {"calls": 0, "time_s": 0.0, "amount": 0.0})
            entry["calls"] += calls
            entry["time_s"] += ns / 1e9
            entry["amount"] += amount
            if ns:
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + ns / 1e9
    return {"spans": spans, "counters": counters, "layers": layers}
