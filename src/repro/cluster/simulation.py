"""Lockstep cluster execution.

Nodes interact only through the epoch-granular budget policy, so the
cluster is simulated exactly by advancing each node's independent engine
one epoch at a time and re-running the allocation between epochs — no
cross-node event interleaving is needed.

The epoch loop runs on :class:`~repro.cluster.sharding.ShardedLockstep`:
with ``shards=1`` (the default) nodes live in-process exactly as before;
with ``shards>=2`` they are partitioned over long-lived worker processes
that advance concurrently, exchanging only budgets down and
``(rates, epoch_energy)`` up. Both paths execute the same step function,
so the produced series are bit-for-bit identical — ``tests/cluster``
pins this.

Job-level progress views follow the paper's discussion of combining
job-wide and node-local metrics:

* ``total`` — sum of node rates (total science per second),
* ``critical path`` — the slowest node's rate: for bulk-synchronous jobs
  this is the job's effective speed, and it is exactly the quantity the
  progress-aware policy raises under variability.
"""

from __future__ import annotations

import copy

import numpy as np

from repro import obs
from repro.cluster.node_instance import NodeInstance
from repro.cluster.sharding import ShardedLockstep, StepRequest
from repro.cluster.variability import node_configs
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    check_snapshot_version,
)
from repro.hardware.config import NodeConfig, skylake_config
from repro.runtime.runfile import (
    RUN_CHECKPOINT_VERSION,
    RunCheckpoint,
    checkpoint_due,
    resolve_checkpoint,
)
from repro.stack import StackSpec
from repro.telemetry.timeseries import TimeSeries

__all__ = ["ClusterSimulation"]


class ClusterSimulation:
    """A job of ``n_nodes`` identical application instances under a
    cluster power policy.

    Parameters
    ----------
    n_nodes:
        Nodes in the job.
    app_name, app_kwargs:
        Application each node runs (per-node seeds are derived).
    policy:
        Object with ``allocate(rates) -> list[budgets]`` (see
        :mod:`repro.cluster.policies`).
    cfg:
        Baseline node configuration.
    variability:
        ``(sigma_dynamic, sigma_static)`` manufacturing spread; ``None``
        for perfectly identical nodes.
    seed:
        Cluster seed (drives both variability and application noise).
    shards:
        Worker processes to shard the nodes over; 1 (default) runs
        serially in-process. Results are identical either way.
    engine:
        Node engine the lockstep layer runs: ``"object"`` (default, one
        live stack per node) or ``"vector"`` (numpy structure-of-arrays
        batches, see :mod:`repro.vector`). Results are bit-identical;
        the vector engine is simply faster at scale.
    balance:
        Must be false. The shard balancer that ``True`` once installed
        was removed: it moved nodes between shards on host wall time,
        which never changed a result and measured no faster. The
        keyword stays so callers passing ``balance=False`` keep
        working; a true value raises :class:`ConfigurationError`.
        Node placement is round-robin in node order.
    """

    def __init__(self, n_nodes: int, app_name: str, policy, *,
                 app_kwargs: dict | None = None,
                 cfg: NodeConfig | None = None,
                 variability: tuple[float, float] | None = (0.05, 0.08),
                 seed: int = 0, shards: int = 1,
                 engine: str = "object", balance: bool = False) -> None:
        if balance:
            raise ConfigurationError("the shard balancer was removed")
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        base_cfg = cfg if cfg is not None else skylake_config()
        specs = [(i, StackSpec(
            app_name=app_name,
            cfg=node_cfg,
            app_kwargs=app_kwargs,
            seed=seed + 1000 * i,
            name=f"node{i}",
        )) for i, node_cfg in enumerate(
            node_configs(base_cfg, n_nodes, seed, variability))]
        self._init_loop(policy, shards, engine)
        self._node_ids = list(range(n_nodes))
        self._lockstep.add_nodes(specs)

    def _init_loop(self, policy, shards: int, engine: str) -> None:
        """The node-free state of a fresh simulation: the lockstep
        substrate, a zero clock and empty series (shared by
        ``__init__`` and :meth:`resume`)."""
        self.policy = policy
        self._node_ids: list[int] = []
        self._lockstep = ShardedLockstep(shards=shards, engine=engine)
        self._now = 0.0
        self._epochs = 0  #: completed epochs (RunCheckpoint file index)
        # Rates the next allocation will use, keyed by window; empty
        # until the first epoch (recent_rate reports 0.0 at t=0).
        self._alloc_rates: dict[float, list[float]] = {}
        self.budget_history = TimeSeries("allocated-total")
        self.total_progress = TimeSeries("job-total-progress")
        self.critical_path = TimeSeries("job-critical-path")
        self.total_energy = 0.0  #: package energy integrated over run()

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def nodes(self) -> list[NodeInstance]:
        """The live nodes in node order (serial mode only); NodeInstances
        under the object engine, NodeInstance-shaped views under the
        vector engine."""
        local = self._lockstep.local_nodes()
        return [local[i] for i in self._node_ids]

    @property
    def shards(self) -> int:
        return self._lockstep.shards

    def close(self) -> None:
        """Close the lockstep and shut down its shard workers (with
        ``shards=1`` there are none); the simulation cannot step again."""
        self._lockstep.close()

    def _rates_for(self, window: float) -> list[float]:
        """Per-node trailing rates for the next allocation: cached from
        the previous epoch's step results (node state has not changed
        since), or pulled from the nodes when the window is new."""
        if window in self._alloc_rates:
            return self._alloc_rates[window]
        if self._now == 0.0:
            return [0.0] * len(self._node_ids)
        return self._lockstep.rates([(i, window) for i in self._node_ids])

    def run(self, duration: float | None = None, epoch: float = 1.0, *,
            until: float | None = None, checkpoint_store=None,
            checkpoint_every: int = 0) -> None:
        """Advance the whole cluster in ``epoch``-sized lockstep rounds;
        budgets are re-allocated from the trailing progress rates before
        every round.

        Exactly one of ``duration`` (relative) and ``until`` (an
        absolute end time) must be given. Resumed runs must use
        ``until`` with the *original* end time: ``now + (end - now)``
        re-associates the float arithmetic, so only sharing the exact
        ``end`` value keeps every epoch target — and therefore every
        series — bit-identical to the uninterrupted run.

        With ``checkpoint_every=N`` (and a
        :class:`~repro.runtime.runfile.CheckpointStore`), an atomic
        :class:`RunCheckpoint` is saved after every N-th completed
        epoch (:func:`~repro.runtime.runfile.checkpoint_due`) — the
        crash-resume and time-travel record.
        """
        if (duration is None) == (until is None):
            raise ConfigurationError(
                "pass exactly one of duration= or until=")
        if epoch <= 0:
            raise ConfigurationError("epoch must be positive")
        if duration is not None:
            if duration <= 0:
                raise ConfigurationError("duration must be positive")
            end = self.now + duration
        else:
            end = until
            if end <= self.now + 1e-9:
                raise ConfigurationError(
                    f"until={end} is not after now={self.now}")
        checkpoint_due(checkpoint_every, checkpoint_store)
        alloc_window = 3 * epoch
        tracer = obs.tracer()
        epochs = obs.metrics().counter("cluster.epochs")
        with tracer.span("cluster.run", n_nodes=len(self._node_ids),
                         duration=end - self.now, epoch=epoch,
                         shards=self.shards):
            while self.now < end - 1e-9:
                with tracer.span("cluster.epoch", now=self.now):
                    rates = self._rates_for(alloc_window)
                    budgets = [float(b) for b in self.policy.allocate(rates)]
                    target = min(self.now + epoch, end)
                    requests = [
                        StepRequest(node_id=i, target=target, budget=b,
                                    set_budget=True,
                                    windows=(alloc_window, epoch))
                        for i, b in zip(self._node_ids, budgets)
                    ]
                    results = self._lockstep.step(requests)
                    epoch_energy = 0.0
                    for res in results:
                        epoch_energy += res.energy
                    self.total_energy += epoch_energy
                    # Track node 0's clock, not the computed target: the
                    # engine advances by deltas, so the node clock can
                    # differ from the target by an ULP — and the serial
                    # code's `now` was the node clock.
                    self._now = results[0].now
                    self._alloc_rates = {
                        alloc_window: [res.rates[alloc_window]
                                       for res in results],
                        epoch: [res.rates[epoch] for res in results],
                    }
                    current = self._alloc_rates[epoch]
                    self.total_progress.append(target, float(np.sum(current)))
                    self.critical_path.append(target, float(np.min(current)))
                    self.budget_history.append(target, float(np.sum(budgets)))
                epochs.inc()
                self._epochs += 1
                if checkpoint_due(checkpoint_every, checkpoint_store,
                                  self._epochs):
                    checkpoint_store.save(self.run_checkpoint())

    # -- checkpointing (see repro.runtime.runfile) ---------------------------

    @property
    def epochs_done(self) -> int:
        """Completed epochs over this simulation's whole life (resumes
        continue the count)."""
        return self._epochs

    def snapshot(self) -> dict:
        """Picklable mid-run state: the clock, the allocation caches,
        the published series, the policy, and — through the lockstep —
        a full :meth:`NodeInstance.snapshot` of every node. Restore
        onto a freshly constructed (node-free) simulation."""
        node_cps = self._lockstep.checkpoint(self._node_ids)
        return {
            "version": 1,
            "now": self._now,
            "epochs": self._epochs,
            "node_ids": list(self._node_ids),
            "alloc_rates": {w: list(r)
                            for w, r in self._alloc_rates.items()},
            "total_energy": self.total_energy,
            "policy": copy.deepcopy(self.policy),
            "budget_history": self.budget_history.snapshot(),
            "total_progress": self.total_progress.snapshot(),
            "critical_path": self.critical_path.snapshot(),
            "nodes": node_cps,
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot`, rebuilding every node from its
        checkpoint inside the lockstep layer (placement is fresh:
        round-robin over this simulation's shards — invisible to
        results by the parity contract)."""
        check_snapshot_version(state, 1, "ClusterSimulation")
        if self._lockstep.n_nodes:
            raise CheckpointError(
                "cluster restore target must be freshly constructed "
                "(it already holds nodes)")
        self._now = state["now"]
        self._epochs = state["epochs"]
        self._node_ids = list(state["node_ids"])
        self._alloc_rates = {w: list(r)
                             for w, r in state["alloc_rates"].items()}
        self.total_energy = state["total_energy"]
        self.policy = copy.deepcopy(state["policy"])
        self.budget_history.restore(state["budget_history"])
        self.total_progress.restore(state["total_progress"])
        self.critical_path.restore(state["critical_path"])
        self._lockstep.add_nodes(
            [(nid, state["nodes"][nid]) for nid in self._node_ids])

    def run_checkpoint(self) -> RunCheckpoint:
        """This instant of the run as a :class:`RunCheckpoint` (kind
        ``"cluster"``), ready for :func:`~repro.runtime.runfile
        .save_run_checkpoint` or a :class:`CheckpointStore`."""
        return RunCheckpoint(
            version=RUN_CHECKPOINT_VERSION,
            kind="cluster",
            epoch=self._epochs,
            now=self._now,
            config={"n_nodes": len(self._node_ids),
                    "shards": self.shards,
                    "engine": self._lockstep.engine},
            state=self.snapshot(),
        )

    @classmethod
    def resume(cls, source, *, epoch: int | None = None, policy=None,
               shards: int = 1,
               engine: str = "object") -> "ClusterSimulation":
        """Rebuild a simulation from a recorded :meth:`run_checkpoint`.

        ``source`` is anything :func:`~repro.runtime.runfile
        .resolve_checkpoint` accepts: a :class:`RunCheckpoint`, a
        checkpoint file, or a :class:`~repro.runtime.runfile
        .CheckpointStore` (or its directory), where ``epoch=None``
        picks the latest checkpoint and ``epoch=N`` the newest at or
        before N (time travel). ``shards``/``engine`` choose the
        execution substrate for the continuation — independent of what
        the recorded run used, and invisible to results. ``policy``
        (when given) replaces the checkpointed policy: replay the
        identical node state under a different schedule. Continue with
        ``run(until=...)`` (sharing the original end time) for
        bit-identical series.
        """
        checkpoint = resolve_checkpoint(source, kind="cluster", epoch=epoch)
        sim = cls.__new__(cls)
        sim._init_loop(policy, shards, engine)
        sim.restore(checkpoint.state)
        if policy is not None:
            sim.policy = policy
        return sim

    # -- summaries ------------------------------------------------------------

    def node_rates(self, window: float = 5.0) -> list[float]:
        """Latest per-node progress rates."""
        return self._lockstep.rates([(i, window) for i in self._node_ids])

    def node_frequencies(self) -> list[float]:
        """Current per-node package frequencies (Hz)."""
        telemetry = self._lockstep.telemetry(self._node_ids)
        return [telemetry[i].frequency for i in self._node_ids]

    def steady_critical_path(self, skip: float = 5.0) -> float:
        """Mean critical-path rate after the first ``skip`` seconds."""
        if self.critical_path.is_empty():
            raise ConfigurationError("run() has not produced samples yet")
        window = self.critical_path.window(skip, self.now + 1e-9)
        if window.is_empty():
            raise ConfigurationError("skip exceeds the simulated duration")
        return window.mean()
