"""The daemon's wire format: versioned, line-delimited JSON.

The paper's NRM speaks JSON messages over ZeroMQ sockets; this module
is the reproduction's equivalent, transport-agnostic so the same codec
serves Unix-domain sockets, TCP, and in-process tests. Every message is
one line::

    {"v": 1, "type": "run_request", "body": {...}}\\n

Three message families, mirrored in the class-name suffixes the
shard-boundary lint recognizes as wire types:

* ``*Request`` — client to daemon commands;
* ``*Reply`` — daemon to client responses (every request gets exactly
  one reply; failures are a typed :class:`ErrorReply`, never a closed
  connection);
* ``*Telemetry`` — daemon to client stream frames, pushed to ``watch``
  subscribers after each tick.

All field types are JSON-native (numbers, strings, bools, lists,
dicts, None), so a decoded message round-trips exactly and the
dataclasses stay trivially picklable. :func:`decode` holds every body
field to its dataclass annotation: an ``int`` field takes neither a
bool nor a float, a ``float`` field takes an int but never a
non-finite value (JSON ``NaN``/``Infinity`` are refused outright), and
only ``X | None`` fields take ``null``. Unknown message types, version
mismatches, and malformed or mistyped bodies raise
:class:`~repro.exceptions.ProtocolError` — the server catches it and
answers with an :class:`ErrorReply` instead of dying.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import typing
from dataclasses import dataclass, field

from repro.exceptions import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "RunRequest",
    "StatusRequest",
    "ListRequest",
    "KillRequest",
    "WatchRequest",
    "TickRequest",
    "InfoRequest",
    "ShutdownRequest",
    "RunReply",
    "StatusReply",
    "ListReply",
    "KillReply",
    "WatchReply",
    "TickReply",
    "InfoReply",
    "ShutdownReply",
    "ErrorReply",
    "StreamTelemetry",
    "EventTelemetry",
    "encode",
    "decode",
    "wire_type",
]

#: Bump on any incompatible wire change; both ends refuse a mismatch.
PROTOCOL_VERSION = 1

#: Longest request line a server buffers (1 MiB, far above any real
#: request); a connection whose unterminated input passes it gets a
#: ``protocol`` error and is closed.
MAX_LINE_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Requests (client -> daemon)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunRequest:
    """Submit one job (the ``upctl run`` equivalent).

    ``priority`` becomes :attr:`~repro.scheduler.job.Job.priority`:
    among the jobs admitted between two ticks, higher priorities queue
    first, ties in arrival order (FIFO per priority). ``work_units`` is
    the per-node progress target, exactly as in
    :class:`~repro.scheduler.job.Job`.
    """

    job_id: str
    app_name: str
    n_nodes: int
    work_units: float
    max_slowdown: float | None = None
    priority: int = 0
    app_kwargs: dict | None = None


@dataclass(frozen=True)
class StatusRequest:
    job_id: str


@dataclass(frozen=True)
class ListRequest:
    pass


@dataclass(frozen=True)
class KillRequest:
    job_id: str


@dataclass(frozen=True)
class WatchRequest:
    """Subscribe this connection to the telemetry stream.

    ``watch_id`` names the subscription: reconnecting with the same id
    re-enters as a slow joiner (fresh queue, no stale backlog; only
    undelivered lifecycle events survive). ``topic`` is a ZeroMQ-style
    prefix filter over the daemon's telemetry topics
    (``progress/<job_id>/<node_id>``, ``cluster/power``, ...); ``hwm``
    bounds the watch's frame queue (0 = this default; at the bound new
    frames are dropped), and ``events`` additionally streams the
    scheduler's lifecycle events (reliable: never dropped at ``hwm``).
    """

    watch_id: str
    topic: str = "progress"
    hwm: int = 1000
    events: bool = True


@dataclass(frozen=True)
class TickRequest:
    """Manually advance up to ``epochs`` simulated epochs (paced
    daemons tick themselves; manual mode is for tests and replays)."""

    epochs: int = 1


@dataclass(frozen=True)
class InfoRequest:
    pass


@dataclass(frozen=True)
class ShutdownRequest:
    pass


# ----------------------------------------------------------------------
# Replies (daemon -> client)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunReply:
    job_id: str
    seq: int          #: daemon-wide admission sequence number
    state: str        #: JobState value at reply time ("pending")


@dataclass(frozen=True)
class StatusReply:
    job_id: str
    state: str
    n_nodes: int
    work_units: float
    progress: float               #: min-over-nodes cumulative units
    submit_time: float | None
    start_time: float | None
    end_time: float | None
    cap: float | None             #: per-node cap chosen at admission
    measured_slowdown: float | None


@dataclass(frozen=True)
class ListReply:
    now: float
    #: one ``{job_id, state, app_name, n_nodes, priority, seq}`` per job
    jobs: list = field(default_factory=list)


@dataclass(frozen=True)
class KillReply:
    job_id: str
    was_running: bool


@dataclass(frozen=True)
class WatchReply:
    watch_id: str
    resumed: bool     #: True when an existing subscription reconnected


@dataclass(frozen=True)
class TickReply:
    now: float
    epochs: int       #: epochs actually run (0 when the cluster idles)
    running: int
    queued: int


@dataclass(frozen=True)
class InfoReply:
    protocol: int
    now: float
    epochs: int       #: epochs the cluster has completed in its lifetime
    n_slots: int
    power_budget: float
    policy: str
    queued: int
    running: int
    completed: int
    killed: int


@dataclass(frozen=True)
class ShutdownReply:
    checkpointed: bool


@dataclass(frozen=True)
class ErrorReply:
    """Typed failure; ``code`` is machine-readable and stable.

    Codes: ``queue-full``, ``duplicate-job``, ``unknown-job``,
    ``unknown-app``, ``inadmissible``, ``not-active``, ``bad-request``,
    ``protocol``, ``internal``.
    """

    code: str
    message: str


# ----------------------------------------------------------------------
# Telemetry stream (daemon -> watch subscribers)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamTelemetry:
    """One telemetry value fanned out to a watch subscriber.

    ``time`` is the simulated time of the epoch that produced the
    value; ``topic`` is ``progress/<job_id>/<node_id>`` (cumulative
    work units) or ``cluster/power`` (the epoch's mean power draw).
    """

    time: float
    topic: str
    value: float


@dataclass(frozen=True)
class EventTelemetry:
    """One scheduler lifecycle event (reliable side channel)."""

    time: float
    kind: str         #: event class name, e.g. "JobStarted"
    data: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------

_MESSAGE_TYPES = (
    RunRequest, StatusRequest, ListRequest, KillRequest, WatchRequest,
    TickRequest, InfoRequest, ShutdownRequest,
    RunReply, StatusReply, ListReply, KillReply, WatchReply, TickReply,
    InfoReply, ShutdownReply, ErrorReply,
    StreamTelemetry, EventTelemetry,
)


def wire_type(cls: type) -> str:
    """``RunRequest`` -> ``"run_request"`` (the envelope type tag)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


_BY_TYPE = {wire_type(cls): cls for cls in _MESSAGE_TYPES}


def _wire_types(hint: object) -> frozenset:
    """The exact types of decoded JSON values that a field annotated
    ``hint`` admits: exact, so an ``int`` field refuses bools; a
    ``float`` field also takes ints."""
    types = set(typing.get_args(hint) or (hint,))
    if float in types:
        types.add(int)
    return frozenset(types)


#: message class -> field name -> admitted exact types
_FIELD_TYPES = {
    cls: {name: _wire_types(hint)
          for name, hint in typing.get_type_hints(cls).items()}
    for cls in _MESSAGE_TYPES
}


def encode(message: object) -> bytes:
    """One wire line (newline-terminated UTF-8) for ``message``."""
    cls = type(message)
    tag = wire_type(cls)
    if _BY_TYPE.get(tag) is not cls:
        raise ProtocolError(f"{cls.__name__} is not a wire message type")
    envelope = {"v": PROTOCOL_VERSION, "type": tag,
                "body": dataclasses.asdict(message)}
    try:
        line = json.dumps(envelope, allow_nan=False, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"{cls.__name__} body is not JSON-encodable: {exc}") from exc
    return line.encode("utf-8") + b"\n"


def _refuse_constant(name: str) -> object:
    raise ProtocolError(f"malformed wire line: {name} is not a number")


#: JSON ``NaN``/``Infinity``/``-Infinity`` are not numbers on this wire
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decode(line: bytes | str) -> object:
    """Parse one wire line back into its message dataclass."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        envelope = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed wire line: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"wire line is not an object: {type(envelope).__name__}")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}")
    tag = envelope.get("type")
    cls = _BY_TYPE.get(tag)
    if cls is None:
        raise ProtocolError(f"unknown message type {tag!r}")
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise ProtocolError(f"{tag}: body must be an object")
    types = _FIELD_TYPES[cls]
    unknown = set(body) - types.keys()
    if unknown:
        raise ProtocolError(
            f"{tag}: unknown field(s) {sorted(unknown)}")
    for name, value in body.items():
        kind = type(value)
        if kind not in types[name] or \
                (kind is float and not math.isfinite(value)):
            annotation = next(f.type for f in dataclasses.fields(cls)
                              if f.name == name)
            raise ProtocolError(
                f"{tag}: field {name!r} must be {annotation}, "
                f"got {value!r}")
    try:
        return cls(**body)
    except TypeError as exc:
        raise ProtocolError(f"{tag}: {exc}") from exc
