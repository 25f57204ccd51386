"""Whole-node checkpoint/restore.

A :class:`NodeCheckpoint` bundles a :class:`~repro.stack.spec.StackSpec`
with the mutable state of every component the spec assembles — node and
power model, RAPL firmware, msr-safe + MSR device, libmsr poll baseline,
message bus, progress monitors, cap controller, application task state
and the engine's task/timer wheel. Restoring rebuilds the stack from the
spec (the deterministic part) and overlays the recorded state (the
mutable part), yielding a stack that continues *bit-for-bit* as the
original would have.

The checkpoint is plain picklable data: it can cross a process boundary,
which is what :mod:`repro.cluster.sharding` uses to hand nodes to
long-lived shard workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import CheckpointError
from repro.stack.spec import StackSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import NodeStack, StackHook

__all__ = ["CHECKPOINT_VERSION", "NodeCheckpoint"]

#: Schema version of :attr:`NodeCheckpoint.state`. Bump on layout change
#: (version 2: one cap controller, and the power poll in the taps).
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class NodeCheckpoint:
    """A versioned, picklable snapshot of one node stack.

    Attributes
    ----------
    version:
        Schema version (:data:`CHECKPOINT_VERSION` at creation time).
    spec:
        The spec the stack was assembled from; the restore path re-runs
        the assembly from it before overlaying ``state``.
    state:
        Per-component state dicts, keyed by component.
    """

    version: int
    spec: StackSpec
    state: dict


def take_checkpoint(stack: "NodeStack") -> NodeCheckpoint:
    """Capture ``stack``'s full mutable state (see :class:`NodeCheckpoint`)."""
    if stack._prebuilt:
        raise CheckpointError(
            "stack was assembled around a prebuilt app instance; it cannot "
            "be rebuilt from its spec, so it cannot be checkpointed"
        )
    state = {
        "node": stack.node.snapshot(),
        "firmware": stack.firmware.snapshot(),
        "libmsr": stack.libmsr.snapshot(),
        "bus": stack.bus.snapshot(),
        "monitors": {t: m.snapshot() for t, m in stack.monitors.items()},
        "controller": stack.controller.snapshot(),
        "app": stack.app.snapshot(),
        "taps": {
            "power": stack.power_series.snapshot(),
            "freq": stack.freq_series.snapshot(),
            "duty": stack.duty_series.snapshot(),
            "uncore": stack.uncore_series.snapshot(),
        },
        "engine": stack.engine.snapshot(),
        "launched": stack._launched,
    }
    return NodeCheckpoint(version=CHECKPOINT_VERSION, spec=stack.spec,
                          state=state)


def install_checkpoint(cp: NodeCheckpoint,
                       hooks: Iterable["StackHook"] = ()) -> "NodeStack":
    """Rebuild a stack from ``cp.spec`` and overlay the recorded state.

    Restore order matters: the node (and its clock) first, so every later
    component sees the checkpointed time; the engine last, because body
    restore assumes app/bus state is already in place. ``hooks`` must be
    the same hooks the original stack was assembled with — a hook that
    registers timers changes the timer numbering, and the engine restore
    verifies timers by registration sequence.
    """
    from repro.stack.builder import NodeStack

    if cp.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {cp.version} is not supported "
            f"(this build writes version {CHECKPOINT_VERSION})"
        )
    stack = NodeStack(cp.spec, hooks=hooks)
    if cp.state["launched"]:
        stack.launch()
    state = cp.state
    stack.node.restore(state["node"])
    stack.firmware.restore(state["firmware"])
    stack.libmsr.restore(state["libmsr"])
    stack.bus.restore(state["bus"])
    recorded = state["monitors"]
    if set(recorded) != set(stack.monitors):
        raise CheckpointError(
            f"monitored topics changed: snapshot {sorted(recorded)} vs "
            f"rebuild {sorted(stack.monitors)}"
        )
    for topic, mon_state in recorded.items():
        stack.monitors[topic].restore(mon_state)
    stack.controller.restore(state["controller"])
    stack.app.restore(state["app"])
    stack.power_series.restore(state["taps"]["power"])
    stack.freq_series.restore(state["taps"]["freq"])
    stack.duty_series.restore(state["taps"]["duty"])
    stack.uncore_series.restore(state["taps"]["uncore"])
    stack.engine.restore(state["engine"])
    return stack
