"""ZeroMQ-style PUB/SUB progress transport.

The paper publishes progress from inside each application through
ZeroMQ's publish-subscribe sockets. This module reproduces the semantics
that matter for the study, in-process and in simulated time:

* **topic prefix filtering** — a subscription to ``"progress"`` matches
  ``"progress/lammps"``, as with ZeroMQ's prefix subscriptions;
* **slow joiner** — messages published before a subscriber connects are
  lost, not queued;
* **bounded queues (HWM)** — each subscriber has a high-water mark; when
  the queue is full, new messages are dropped;
* **seeded loss** — an optional per-message drop probability. The paper
  notes OpenMC's progress "is occasionally reported as zero ... due to
  a flaw in the design of the ZeroMQ-based progress monitoring
  framework"; enabling loss on the OpenMC channel reproduces those
  spurious zeros (Fig. 3).

Delivery is immediate: a message is receivable as soon as it is
published. The bus is the in-node transport of one
:class:`~repro.stack.builder.NodeStack`; the daemon's stream to its
clients does not use it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    TelemetryError,
    check_snapshot_version,
)
from repro.runtime.clock import SimClock

__all__ = ["Message", "MessageBus", "PubSocket", "SubSocket"]


@dataclass(frozen=True)
class Message:
    """One published progress event."""

    time: float      #: publish timestamp (simulated seconds)
    topic: str
    value: float


class MessageBus:
    """In-process broker connecting PUB and SUB sockets.

    Parameters
    ----------
    clock:
        Simulation clock used to stamp messages.
    drop_prob:
        Probability that any given message is silently lost in transit.
    seed:
        Seed for the loss process (losses are deterministic per seed).
    """

    #: Default subscriber high-water mark (queued messages).
    HWM = 1000

    def __init__(self, clock: SimClock, *, drop_prob: float = 0.0,
                 seed: int = 0) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ConfigurationError(
                f"drop_prob must lie in [0, 1), got {drop_prob}"
            )
        self.clock = clock
        self.drop_prob = drop_prob
        self._rng = np.random.default_rng(seed)
        self._subs: list[SubSocket] = []
        self.published = 0
        self.dropped = 0

    # -- socket factories --------------------------------------------------

    def pub_socket(self) -> "PubSocket":
        """Create a publisher endpoint."""
        return PubSocket(self)

    def sub_socket(self, topic: str, hwm: int = HWM) -> "SubSocket":
        """Create and connect a subscriber with a topic-prefix filter."""
        sub = SubSocket(self, topic, hwm)
        self._subs.append(sub)
        return sub

    # -- internal delivery ------------------------------------------------------

    def _publish(self, topic: str, value: float) -> None:
        self.published += 1
        if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
            self.dropped += 1
            return
        msg = Message(time=self.clock.now, topic=topic, value=value)
        for sub in self._subs:
            if not sub.closed and topic.startswith(sub.topic):
                sub._enqueue(msg)

    def _disconnect(self, sub: "SubSocket") -> None:
        if sub in self._subs:
            self._subs.remove(sub)

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable bus state: loss-process RNG, counters, and each
        connected subscriber's queue (by connection order) as
        ``(delivery time, message)`` pairs; the delivery time is the
        message's publish time."""
        return {
            "version": 1,
            "rng": self._rng.bit_generator.state,
            "published": self.published,
            "dropped": self.dropped,
            "subs": [{
                "topic": sub.topic,
                "hwm": sub.hwm,
                "closed": sub.closed,
                "overflowed": sub.overflowed,
                "queue": [(m.time, m) for m in sub._queue],
            } for sub in self._subs],
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` onto an identically wired bus
        (same subscribers, in the same connection order)."""
        from repro.exceptions import CheckpointError

        check_snapshot_version(state, 1, "MessageBus")
        if len(state["subs"]) != len(self._subs):
            raise CheckpointError(
                f"bus checkpoint has {len(state['subs'])} subscribers, "
                f"rebuilt bus has {len(self._subs)}")
        self._rng.bit_generator.state = state["rng"]
        self.published = state["published"]
        self.dropped = state["dropped"]
        for sub, sub_state in zip(self._subs, state["subs"]):
            if (sub.topic, sub.hwm) != (sub_state["topic"], sub_state["hwm"]):
                raise CheckpointError(
                    f"subscriber mismatch: checkpoint "
                    f"({sub_state['topic']!r}, hwm={sub_state['hwm']}) vs "
                    f"rebuilt ({sub.topic!r}, hwm={sub.hwm})")
            sub.closed = sub_state["closed"]
            sub.overflowed = sub_state["overflowed"]
            sub._queue = deque(
                m if isinstance(m, Message) else Message(*m)
                for _t, m in sub_state["queue"])


class PubSocket:
    """Publisher endpoint; fire-and-forget like a ZMQ PUB socket."""

    def __init__(self, bus: MessageBus) -> None:
        self._bus = bus
        self.closed = False

    def send(self, topic: str, value: float) -> None:
        """Publish one value; never blocks, never errors on no-subscriber."""
        if self.closed:
            raise TelemetryError("send on a closed PUB socket")
        self._bus._publish(topic, float(value))

    def close(self) -> None:
        self.closed = True


class SubSocket:
    """Subscriber endpoint with prefix filtering and a bounded queue."""

    def __init__(self, bus: MessageBus, topic: str, hwm: int) -> None:
        if hwm < 1:
            raise ConfigurationError(f"hwm must be >= 1, got {hwm}")
        self._bus = bus
        self.topic = topic
        self.hwm = hwm
        self.closed = False
        self.overflowed = 0
        self._queue: deque[Message] = deque()

    def _enqueue(self, msg: Message) -> None:
        if len(self._queue) >= self.hwm:
            self.overflowed += 1
            return
        self._queue.append(msg)

    def recv_all(self) -> list[Message]:
        """Drain every queued message."""
        if self.closed:
            raise TelemetryError("recv on a closed SUB socket")
        out = list(self._queue)
        self._queue.clear()
        return out

    def close(self) -> None:
        """Disconnect from the bus; subsequent publishes are not seen."""
        self.closed = True
        self._bus._disconnect(self)
