"""Host-side seam between the cluster layers and the vector engine.

:class:`VectorEngine` owns a set of nodes the way a shard worker (or the
serial :class:`~repro.cluster.sharding.ShardedLockstep`) does, but routes
every eligible :class:`~repro.stack.spec.StackSpec` and importable
mid-run checkpoint into one long-lived
:class:`~repro.vector.engine.VectorGroup` per profile key, kept for as
long as the key has a live node across every build, and advances each
group with ONE batched call per epoch. Ineligible specs and refused
checkpoints fall back to ordinary object
:class:`~repro.cluster.node_instance.NodeInstance`\\ s inside the same
host, so callers never need to know which nodes took which path.

:class:`VectorNodeView` exposes one vectorized slot through the
NodeInstance surface (``now``, ``receive_budget``, ``advance``,
``monitor.series``, ``node.pkg_energy`` ...) so telemetry helpers, tests
and the serial ``local_nodes()`` accessor keep working unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.node_instance import ProgressReadouts
from repro.cluster.sharding import (
    StepRequest,
    StepResult,
    _build_node,
    _ObjectHost,
    step_node,
    step_result,
)
from repro.exceptions import CheckpointError, ConfigurationError
from repro.stack.spec import StackSpec
from repro.vector.checkpoint import (
    checkpoint_spec,
    export_checkpoint,
    read_slot,
)
from repro.vector.engine import VectorGroup
from repro.vector.gate import build_profile, profile_key, supports_fast_path

__all__ = ["VectorEngine", "VectorNodeView"]


class _RetiredGroup:
    """The group of a removed view: its row may hold another node now,
    so every read refuses instead of aliasing it."""

    def __getattr__(self, name: str):
        raise ConfigurationError(
            "this vector node was removed from its host; its row may "
            "hold another node")


_RETIRED = _RetiredGroup()


class _NodeShim:
    """The slice of SimulatedNode telemetry the cluster layers read."""

    __slots__ = ("_group", "_slot")

    def __init__(self, group: VectorGroup, slot: int) -> None:
        self._group = group
        self._slot = slot

    @property
    def pkg_energy(self) -> float:
        return float(self._group.pkg_energy[self._slot])

    @property
    def dram_energy(self) -> float:
        return float(self._group.dram_energy[self._slot])

    @property
    def frequency(self) -> float:
        g = self._group
        return float(g.cfg.freq_ladder[int(g.freq_idx[self._slot])])

    @property
    def uncore_scale(self) -> float:
        return float(self._group.uncore_scale[self._slot])


class _MonitorShim:
    """The slice of ProgressMonitor the cluster layers read."""

    __slots__ = ("_group", "_slot")

    def __init__(self, group: VectorGroup, slot: int) -> None:
        self._group = group
        self._slot = slot

    @property
    def series(self):
        return self._group.mon_series[self._slot]

    @property
    def interval(self) -> float:
        return self._group.interval

    @property
    def events_seen(self) -> int:
        return int(self._group.mon_events[self._slot])


class VectorNodeView(ProgressReadouts):
    """One vectorized node through the NodeInstance surface. Once its
    host removes it, every read raises :class:`ConfigurationError`."""

    def __init__(self, group: VectorGroup, slot: int, node_id: int,
                 spec: StackSpec) -> None:
        self.group = group
        self.slot = slot
        self.node_id = node_id
        self.spec = spec
        self.node = _NodeShim(group, slot)
        self.monitor = _MonitorShim(group, slot)

    @property
    def now(self) -> float:
        return float(self.group.now[self.slot])

    def receive_budget(self, watts: float | None) -> None:
        self.group.receive_budget(self.slot, watts)

    def advance(self, until: float) -> None:
        if until < self.now:
            raise ConfigurationError(
                f"node {self.node_id}: cannot rewind to {until} "
                f"from {self.now}")
        self.group.advance(np.asarray([self.slot]), np.asarray([until]))

    def epoch_energy(self) -> float:
        return self.group.epoch_energy(self.slot)

    def snapshot(self) -> dict:
        """A NodeInstance-format checkpoint (restorable by either
        engine); see :mod:`repro.vector.checkpoint`."""
        return export_checkpoint(self)

    def _retire(self) -> None:
        """Give the row back to the group and detach from it."""
        self.group.retire(self.slot)
        self.group = self.node._group = self.monitor._group = _RETIRED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VectorNodeView(id={self.node_id}, t={self.now:.1f}s, "
                f"f={self.node.frequency / 1e9:.1f}GHz)")


class VectorEngine(_ObjectHost):
    """A node host that batches eligible nodes into vector groups.

    The node table maps each id to a :class:`VectorNodeView` or an
    object fallback NodeInstance; both are NodeInstance-shaped, so
    membership, ``rate``, ``telemetry`` and ``checkpoint`` are the object
    host's. The per-epoch seam is :meth:`step`: budgets go in with the
    step requests, trailing rates and epoch energy come back — one
    batched array advance per group instead of one engine loop per node.

    Groups outlive builds: the host keeps one per profile key, every
    build admits its nodes into the key's group, and :meth:`remove`
    retires their rows for later builds to reuse. A group leaves the
    host when its last row retires.
    """

    def __init__(self) -> None:
        super().__init__()
        self._groups: dict[tuple, VectorGroup] = {}

    @property
    def vector_node_ids(self) -> list[int]:
        """Nodes on the fast path (the rest run as object fallbacks)."""
        return [node_id for node_id, node in self._nodes.items()
                if isinstance(node, VectorNodeView)]

    @property
    def fallback_node_ids(self) -> list[int]:
        return [node_id for node_id, node in self._nodes.items()
                if not isinstance(node, VectorNodeView)]

    def _adopt(self, items: list[tuple[int, object]]) -> None:
        """Adopt admitted ``(node_id, StackSpec | checkpoint)`` pairs
        (the body of the inherited all-or-nothing :meth:`build`).

        Eligible specs and importable checkpoints join the host's
        :class:`VectorGroup` of their profile key (this is the only
        place one is made, on a key's first node), a checkpoint's state
        written over its fresh row. Everything else becomes an object
        NodeInstance and takes no row.
        """
        staged: dict[tuple, list[tuple[int, StackSpec, object]]] = {}
        for node_id, item in items:
            spec = item if isinstance(item, StackSpec) \
                else checkpoint_spec(item)
            if spec is not None and supports_fast_path(spec) is None:
                staged.setdefault(profile_key(spec), []).append(
                    (node_id, spec, item))
            else:
                self._nodes[node_id] = _build_node(node_id, item)
        for key, members in staged.items():
            group = self._groups.get(key)
            profile = build_profile(members[0][1]) if group is None \
                else group.profile
            rows = []
            for node_id, spec, item in members:
                try:
                    values = {} if isinstance(item, StackSpec) \
                        else read_slot(profile, item)
                except CheckpointError:
                    self._nodes[node_id] = _build_node(node_id, item)
                    continue
                rows.append((node_id, spec, values))
            if not rows:
                continue
            if group is None:
                group = VectorGroup(profile)
            slots = group.admit([(nid, spec) for nid, spec, _ in rows])
            self._groups[key] = group
            for slot, (node_id, spec, values) in zip(slots, rows):
                for name, value in values.items():
                    getattr(group, name)[slot] = value
                self._nodes[node_id] = VectorNodeView(group, slot, node_id,
                                                      spec)

    def remove(self, node_ids: Sequence[int]) -> None:
        """Drop nodes; a vector node's row retires for reuse, and its
        group leaves the host with its last live row."""
        for node_id in node_ids:
            node = self._nodes.pop(node_id)
            if isinstance(node, VectorNodeView):
                group = node.group
                node._retire()
                if not group.n_live:
                    del self._groups[profile_key(node.spec)]

    def step(self, requests: Sequence[StepRequest]) -> list[StepResult]:
        """Advance every requested node one epoch (budgets applied
        first), batching all same-group nodes into one array advance.
        Results come back in request order."""
        batches: dict[int, tuple[VectorGroup, list[int], list[float]]] = {}
        nodes = [self._nodes[req.node_id] for req in requests]
        for req, view in zip(requests, nodes):
            if not isinstance(view, VectorNodeView):
                continue
            if req.set_budget:
                view.receive_budget(req.budget)
            group = view.group
            batch = batches.get(id(group))
            if batch is None:
                batch = batches[id(group)] = (group, [], [])
            batch[1].append(view.slot)
            batch[2].append(req.target)
        for group, slots, targets in batches.values():
            group.advance(np.asarray(slots, dtype=np.intp),
                          np.asarray(targets, dtype=float))
        return [step_result(node, req) if isinstance(node, VectorNodeView)
                else step_node(node, req)
                for req, node in zip(requests, nodes)]
