"""Checkpoint-powered elasticity: rebalancing, resumption, replay.

The paper's thesis is that a fixed allocation wastes what a dynamic one
recovers — power should flow to where progress stalls. This module
applies the same idea one level up, to *compute placement*: because PR 4
made every node's full mid-run state shippable
(:meth:`~repro.cluster.node_instance.NodeInstance.snapshot`) and the
lockstep parity contract guarantees bit-identical series for any
node-to-shard assignment, nodes can move while a run is in flight —
and whole runs can stop, resume, and replay. Three capabilities share
the machinery:

* **Dynamic shard rebalancing** — :class:`ShardBalancer` watches the
  per-shard epoch wall times :class:`~repro.cluster.sharding
  .ShardedLockstep` measures and migrates nodes from the slowest shard
  to the fastest (``checkpoint() → add_nodes()``, cross-engine safe:
  an object node lands in a vector host's fallback slot and vice
  versa). Purely a wall-clock lever; simulated results are invariant.
* **Crash-resumable runs** — the epoch loops
  (:meth:`~repro.cluster.simulation.ClusterSimulation.run`,
  :meth:`~repro.scheduler.scheduler.PowerAwareScheduler.run`, the
  daemon tick) periodically write atomic
  :class:`~repro.runtime.runfile.RunCheckpoint` files on one shared
  cadence (:func:`~repro.runtime.runfile.checkpoint_due`); a
  ``kill -9`` mid-run resumes from the last file and finishes
  bit-equal to the uninterrupted run.
* **Time-travel replay** — each loop's ``resume(source, epoch=N)``
  rebuilds a run at any checkpointed epoch, optionally under a
  *different* policy or configuration, answering "what would this run
  have done from epoch N under schedule B?".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "NodeMigration",
    "MigrationPlan",
    "ShardBalancer",
    "balancer_for",
]


@dataclass(frozen=True)
class NodeMigration:
    """One node's move from shard ``src`` to shard ``dst``."""

    node_id: int
    src: int
    dst: int


@dataclass(frozen=True)
class MigrationPlan:
    """A balancer decision: the moves to apply before the next epoch.

    ``observation`` is the balancer's observation count when the plan
    was issued (a wall-clock-free sequence number, useful in traces).
    """

    observation: int
    moves: tuple[NodeMigration, ...]


class ShardBalancer:
    """Move nodes off the slowest shard when the skew justifies it.

    After every sharded epoch step the lockstep offers the balancer the
    measured per-shard wall times (:meth:`observe`). When the slowest
    shard exceeds ``threshold`` times the fastest, the balancer plans to
    move the tail of the slow shard's node list to the fast shard —
    enough nodes to roughly equalise the shards' per-node costs, but
    never the slow shard's last node, and at most ``max_moves`` per
    plan when set.

    Wall times are host measurements and therefore nondeterministic;
    that is safe *only* because placement cannot affect simulated
    results (the lockstep parity contract — see
    :mod:`repro.obs.hostclock` for the audit reasoning). Two runs of
    the same seed may migrate differently and still produce
    bit-identical series.

    Parameters
    ----------
    threshold:
        Slowest/fastest wall-time ratio that triggers a plan (> 1).
    warmup:
        Observations to ignore before the first plan — early epochs are
        dominated by fork/import noise.
    cooldown:
        Observations to skip after each plan, letting the new placement
        produce fresh timings before judging it.
    max_moves:
        Cap on nodes moved per plan; 0 (default) means uncapped (the
        equalising estimate still applies).
    """

    def __init__(self, *, threshold: float = 1.4, warmup: int = 2,
                 cooldown: int = 3, max_moves: int = 0) -> None:
        if threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be > 1, got {threshold}")
        if warmup < 0 or cooldown < 0 or max_moves < 0:
            raise ConfigurationError(
                "warmup, cooldown and max_moves must be >= 0")
        self.threshold = threshold
        self.warmup = warmup
        self.cooldown = cooldown
        self.max_moves = max_moves
        self.observations = 0
        self.plans = 0
        self._cooling = 0

    def observe(self, shard_times: dict[int, float],
                shard_nodes: dict[int, list[int]]) -> MigrationPlan | None:
        """Judge one epoch's timings; return a plan or None.

        ``shard_times`` maps shard → wall seconds for the epoch just
        stepped; ``shard_nodes`` is the current placement. Timed shards
        must appear in both inputs; shards that hold no nodes (fresh
        capacity from :meth:`ShardedLockstep.grow`) step no work and so
        never get a timing — they join as receivers at an implicit
        0.0 s, which is what makes newly grown capacity reachable at
        all instead of invisible to the balancer.
        """
        self.observations += 1
        if self.observations <= self.warmup:
            return None
        if self._cooling > 0:
            self._cooling -= 1
            return None
        timed = [s for s in sorted(shard_times) if s in shard_nodes]
        empty = [s for s in sorted(shard_nodes)
                 if not shard_nodes[s] and s not in shard_times]
        if len(timed) + len(empty) < 2:
            return None
        donor_pool = [s for s in timed if shard_nodes[s]]
        if not donor_pool:
            return None
        slow = max(donor_pool, key=lambda s: (shard_times[s], s))
        t_of = lambda s: shard_times.get(s, 0.0)  # noqa: E731
        fast = min(timed + empty, key=lambda s: (t_of(s), -s))
        if fast == slow:
            return None
        t_slow, t_fast = shard_times[slow], t_of(fast)
        if shard_nodes[fast]:
            if t_fast <= 0.0 or t_slow <= self.threshold * t_fast:
                return None
        elif t_slow <= 0.0:
            return None  # empty receiver, but nothing measured to move
        donors = shard_nodes[slow]
        if len(donors) < 2:
            return None  # never empty a shard's last node
        # Move roughly enough nodes to close the gap at current
        # per-node costs; the cooldown absorbs estimate error.
        per_slow = t_slow / len(donors)
        receivers = shard_nodes.get(fast, [])
        per_fast = t_fast / len(receivers) if receivers else per_slow
        denom = per_slow + per_fast
        k = int((t_slow - t_fast) / denom) if denom > 0 else 1
        k = max(1, min(k, len(donors) - 1))
        if self.max_moves:
            k = min(k, self.max_moves)
        moves = tuple(NodeMigration(node_id=nid, src=slow, dst=fast)
                      for nid in donors[-k:])
        self._cooling = self.cooldown
        self.plans += 1
        return MigrationPlan(observation=self.observations, moves=moves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardBalancer(threshold={self.threshold}, "
                f"observations={self.observations}, plans={self.plans})")


def balancer_for(balance: bool, shards: int) -> ShardBalancer | None:
    """The balancer an epoch loop installs: a default
    :class:`ShardBalancer` when ``balance`` is asked for and there are
    at least two shards to move nodes between, else None."""
    if not balance or shards < 2:
        return None
    return ShardBalancer()
