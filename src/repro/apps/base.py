"""Base machinery for the synthetic applications.

A :class:`SyntheticApp` executes its spec's phases as an SPMD program:
every worker runs the same iteration loop (one pinned worker per core, as
in the paper's setup), iterations end in a barrier, and worker 0
publishes the phase's progress increment after each barrier — the
source-level instrumentation of Section IV-B.

The paper's progress definitions map onto the published values directly:
the 1 Hz monitor's rate series is "<metric> per second" (Definition 1
when ``progress_per_iteration`` is 1, Definition 2 when it carries work
units such as atoms or particles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.categories import Category, OnlineMetric
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    check_snapshot_version,
)
from repro.apps.body import SpmdBody
from repro.apps.kernels import PhaseSpec
from repro.runtime.engine import TaskState
from repro.runtime.mpi import SimMPI
from repro.runtime.openmp import OmpTeam

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

__all__ = ["AppSpec", "SyntheticApp"]


@dataclass(frozen=True)
class AppSpec:
    """Static description of an application (paper Tables II & V)."""

    name: str
    description: str
    category: Category
    metric: OnlineMetric | None          #: None for Category-3 codes
    parallelism: str                     #: "mpi" or "openmp"
    phases: tuple[PhaseSpec, ...]
    resource_bound: str = "compute"      #: Table IV Q8 answer
    has_fom: bool = False                #: Table IV Q1
    transport_drop_prob: float = 0.0     #: progress-report loss (OpenMC glitch)
    category_label: str = field(default="")

    def __post_init__(self) -> None:
        if self.parallelism not in ("mpi", "openmp"):
            raise ConfigurationError(
                f"parallelism must be 'mpi' or 'openmp', got {self.parallelism!r}"
            )
        if not self.phases:
            raise ConfigurationError(f"app {self.name!r} needs at least one phase")
        if not self.category_label:
            object.__setattr__(self, "category_label", str(int(self.category)))


class SyntheticApp:
    """A runnable instance of an :class:`AppSpec`.

    Parameters
    ----------
    spec:
        The application description.
    n_workers:
        Ranks/threads, one pinned per core (paper: 24).
    seed:
        Seed for the per-run noise processes; runs with the same seed are
        bit-identical.
    """

    #: Default worker count (the paper's 24).
    N_WORKERS = 24

    def __init__(self, spec: AppSpec, n_workers: int = N_WORKERS,
                 seed: int = 0) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.spec = spec
        self.n_workers = n_workers
        self.seed = seed
        #: When set (before launch), every worker additionally publishes
        #: its own share of each iteration's progress on
        #: ``{rank_topic_prefix}/rank{k}`` as soon as *it* finishes —
        #: i.e. before the barrier — enabling per-processing-element
        #: monitoring and imbalance detection (paper future work; see
        #: :class:`repro.telemetry.reduction.JobProgressReducer`).
        self.per_rank_progress = False
        #: Optional static per-worker work multiplier (worker id ->
        #: factor); models load imbalance from data decomposition. The
        #: largest factor defines the critical path.
        self.rank_work_scale: dict[int, float] | None = None
        #: Instrumentation intrusiveness (paper §VIII: "the resolution of
        #: these progress reports or the intrusiveness of the
        #: instrumentation might need to be changed"): compute cycles the
        #: publishing worker spends per report (serialization, socket
        #: I/O), and how many iterations are batched into one report.
        self.publish_overhead_cycles: float = 0.0
        self.report_every: int = 1

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def topic(self) -> str:
        """Topic the application publishes progress on."""
        return f"progress/{self.spec.name}"

    @property
    def rank_topic_prefix(self) -> str:
        """Prefix of the per-rank progress topics (kept disjoint from
        :attr:`topic` — subscriptions are ZeroMQ-style *prefix* filters,
        so nesting rank topics under the app topic would double-count in
        the app-level monitor)."""
        return f"rank-progress/{self.spec.name}"

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------

    def launch(self, engine: "Engine", core_offset: int = 0) -> list[TaskState]:
        """Spawn one worker per core starting at ``core_offset``; workers
        begin executing on the engine's next :meth:`~repro.runtime.engine.Engine.run`."""
        if self.spec.parallelism == "mpi":
            mpi = SimMPI(engine, self.n_workers)
            if core_offset:
                return [
                    engine.spawn(self._body(mpi.comm.barrier, rank),
                                 core_id=core_offset + rank,
                                 name=f"{self.name}:rank{rank}")
                    for rank in range(self.n_workers)
                ]
            return mpi.launch(lambda comm, rank: self._body(comm.barrier, rank),
                              name=self.name)
        team = OmpTeam(engine, self.n_workers)
        if core_offset:
            return [
                engine.spawn(self._body(team.region_barrier, tid),
                             core_id=core_offset + tid,
                             name=f"{self.name}:thr{tid}")
                for tid in range(self.n_workers)
            ]
        return team.launch(lambda tm, tid: self._body(tm.region_barrier, tid),
                           name=self.name)

    # ------------------------------------------------------------------
    # Worker body (subclasses with irregular structure override this)
    # ------------------------------------------------------------------

    def _worker_rng(self, wid: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, wid + 1])

    def _phase_rng(self, phase_idx: int) -> np.random.Generator:
        # Shared (iteration-wide) noise stream: identical for all workers.
        return np.random.default_rng([self.seed, 0, phase_idx])

    def _body(self, barrier, wid: int) -> Iterator:
        """One worker's directive stream. Bodies are resumable state
        machines (:mod:`repro.apps.body`) rather than generators, so a
        mid-run task can be checkpointed; the directive sequence matches
        the historical generator bit-for-bit."""
        return SpmdBody(self, barrier, wid)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable run-level state (the post-construction knobs; the
        per-task loop state lives in each body's snapshot)."""
        return {
            "version": 1,
            "name": self.name,
            "per_rank_progress": self.per_rank_progress,
            "rank_work_scale": None if self.rank_work_scale is None
            else dict(self.rank_work_scale),
            "publish_overhead_cycles": self.publish_overhead_cycles,
            "report_every": self.report_every,
        }

    def restore(self, state: dict) -> None:
        check_snapshot_version(state, 1, "SyntheticApp")
        if state["name"] != self.name:
            raise CheckpointError(
                f"app checkpoint is for {state['name']!r}, "
                f"restoring into {self.name!r}")
        self.per_rank_progress = state["per_rank_progress"]
        self.rank_work_scale = state["rank_work_scale"]
        self.publish_overhead_cycles = state["publish_overhead_cycles"]
        self.report_every = state["report_every"]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_iterations(self) -> int:
        """Iterations across all phases (per worker)."""
        return sum(p.iterations for p in self.spec.phases)

    def expected_duration(self, cfg) -> float:
        """Rough uncontended wall time at nominal frequency (seconds) —
        used by harnesses to size measurement windows."""
        total = 0.0
        for p in self.spec.phases:
            k = p.kernel
            t_iter = k.cycles / cfg.f_nominal + \
                k.cycles * k.bytes_per_cycle / cfg.core_link_bandwidth
            total += p.iterations * t_iter
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SyntheticApp({self.name!r}, workers={self.n_workers}, "
            f"category={self.spec.category_label})"
        )
