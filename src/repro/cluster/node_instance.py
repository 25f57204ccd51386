"""One cluster node's complete software/hardware stack.

A :class:`NodeInstance` is a thin, epoch-advanceable wrapper around a
:class:`~repro.stack.builder.NodeStack` whose cap controller follows
delivered budgets — everything the single-node Testbed wires, but
advanceable in *epochs* so many nodes can run in lockstep under a
cluster-level power policy (see :mod:`repro.cluster.sharding`).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, check_snapshot_version
from repro.stack import NodeStack, StackSpec

__all__ = ["NodeInstance", "ProgressReadouts"]


class ProgressReadouts:
    """Progress readouts from ``monitor.series``, ``monitor.interval``
    and ``now``, shared by NodeInstance and the vector slot views."""

    def recent_rate(self, window: float = 5.0) -> float:
        """Mean progress rate over the trailing ``window`` seconds
        (zeros included). A node whose monitor has not closed its first
        window yet (every node in the first epoch) reports 0.0 rather
        than poisoning the allocation with NaNs."""
        series = self.monitor.series
        if series.is_empty():
            return 0.0
        recent = series.window(self.now - window, self.now + 1e-9)
        if recent.is_empty():
            return 0.0
        return float(recent.values.mean())

    def cumulative_progress(self) -> float:
        """Total progress units published so far (the 1 Hz monitor's
        rate samples integrated over their collection windows)."""
        series = self.monitor.series
        if series.is_empty():
            return 0.0
        return float(series.values.sum()) * self.monitor.interval


class NodeInstance(ProgressReadouts):
    """A self-contained node running one application under a budget."""

    def __init__(self, node_id: int, spec: StackSpec) -> None:
        """Build node ``node_id`` from a picklable stack spec.

        The spec must carry no cap schedule (cluster nodes are driven
        by budgets, not schedules).
        """
        if spec.schedule is not None:
            raise ConfigurationError(
                "cluster nodes are driven by budgets, not a cap schedule")
        self.node_id = node_id
        self.stack = NodeStack(spec).launch()
        self._energy_mark = 0.0

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable node state: the stack checkpoint plus the epoch
        energy mark. The mark MUST travel with the checkpoint — restoring
        a node with a zero mark would double-count every joule consumed
        before the checkpoint in the next :meth:`epoch_energy` call."""
        return {"version": 1, "node_id": self.node_id,
                "energy_mark": self._energy_mark,
                "stack": self.stack.snapshot()}

    @classmethod
    def from_checkpoint(cls, state: dict) -> "NodeInstance":
        """Rebuild a node mid-run from a :meth:`snapshot` dict."""
        check_snapshot_version(state, 1, "NodeInstance")
        inst = cls.__new__(cls)
        inst.node_id = state["node_id"]
        inst.stack = NodeStack.from_checkpoint(state["stack"])
        inst._energy_mark = state["energy_mark"]
        return inst

    # -- stack accessors (the public surface predates repro.stack) ---------

    @property
    def node(self):
        return self.stack.node

    @property
    def engine(self):
        return self.stack.engine

    @property
    def firmware(self):
        return self.stack.firmware

    @property
    def libmsr(self):
        return self.stack.libmsr

    @property
    def controller(self):
        return self.stack.controller

    @property
    def app(self):
        return self.stack.app

    @property
    def monitor(self):
        return self.stack.main_monitor

    # ------------------------------------------------------------------

    def receive_budget(self, watts: float | None) -> None:
        """Deliver a node power budget (applied on the controller's next
        tick)."""
        self.stack.controller.receive_budget(watts)

    def advance(self, until: float) -> None:
        """Run this node's engine to absolute simulated time ``until``."""
        if until < self.now:
            raise ConfigurationError(
                f"node {self.node_id}: cannot rewind to {until} from {self.now}"
            )
        self.stack.engine.run(until=until)

    # -- telemetry ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.stack.now

    def epoch_energy(self) -> float:
        """Package energy consumed since the previous call (joules)."""
        delta = self.node.pkg_energy - self._energy_mark
        self._energy_mark = self.node.pkg_energy
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NodeInstance(id={self.node_id}, t={self.now:.1f}s, "
                f"f={self.node.frequency / 1e9:.1f}GHz)")
