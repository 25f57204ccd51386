"""Power-aware multi-job cluster scheduler.

The missing layer between the paper's single-job cluster
(:mod:`repro.cluster.simulation`) and a resource manager: a
discrete-event scheduler that admits a queue of :class:`Job`\\ s onto a
shared pool of node slots while keeping the *cluster's* power draw
under a budget — by spending the progress model's predictions at
admission time.

Admission works like Eco-Mode (Angelelli et al., 2024): an eco job
declares the slowdown it tolerates; the scheduler asks the power book
for the cheapest per-node cap whose *predicted* slowdown (Eqs. 1-7,
fitted alpha) stays inside that tolerance, charges ``n_nodes * cap``
watts against the budget, and applies the cap through RAPL before the
job's first cycle. Jobs without a tolerance are charged their measured
uncapped draw. Two policies decide *who* starts:

* ``fcfs`` — strict queue order: the head waits for nodes *and* watts;
  nobody overtakes it.
* ``backfill`` — power-aware backfill: when the head does not fit,
  later jobs that fit the *current* node and power holes may start.
  Because eco jobs shrink their own power demand to fit, capping turns
  queue wait into (bounded) slowdown — the Eco-Mode trade.

While a job runs, its per-node budgets are re-allocated every epoch by
the paper-enabled :class:`~repro.cluster.policies.ProgressAwareRebalancer`
(slow nodes get more of the job's fixed power), so intra-job
variability is handled by the same machinery the single-job cluster
uses. The loop is deterministic: same seed, same workload -> identical
event trace, placements, caps, and completion times.

Node execution runs on :class:`~repro.cluster.sharding.ShardedLockstep`:
``SchedulerConfig.shards = 1`` (default) keeps every node in-process;
``shards >= 2`` spreads them over long-lived worker processes that
advance concurrently, each epoch exchanging only budgets down and
``(rates, energy, cumulative)`` up. Both paths run the same step
function, so reports are bit-for-bit identical either way.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.cluster.policies import ProgressAwareRebalancer
from repro.cluster.sharding import _ENGINES, ShardedLockstep, StepRequest
from repro.cluster.variability import node_configs
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
    check_snapshot_version,
)
from repro.hardware.config import NodeConfig, skylake_config
from repro.runtime.runfile import (
    RUN_CHECKPOINT_VERSION,
    RunCheckpoint,
    checkpoint_due,
    resolve_checkpoint,
)
from repro.scheduler.events import (
    BudgetViolation,
    CapSelected,
    EventLog,
    JobCompleted,
    JobKilled,
    JobStarted,
    JobSubmitted,
    SchedulerEvent,
)
from repro.scheduler.job import Job, JobRecord, JobState
from repro.scheduler.powerbook import AppPowerProfile, PowerBook
from repro.scheduler.queue import JobQueue
from repro.scheduler.report import SchedulerReport, build_report
from repro.stack import StackSpec
from repro.telemetry.timeseries import TimeSeries

__all__ = ["SchedulerConfig", "PowerAwareScheduler"]

_POLICIES = ("fcfs", "backfill")


@dataclass(frozen=True)
class SchedulerConfig:
    """Static parameters of one scheduler run.

    Attributes
    ----------
    n_slots:
        Node slots in the shared pool.
    power_budget:
        Cluster-wide package power budget (W).
    policy:
        ``"fcfs"`` or ``"backfill"``.
    epoch:
        Re-allocation/telemetry interval (s); 1 s matches the paper's
        monitor.
    min_cap:
        Lowest per-node cap the scheduler will ever select (W) — below
        this RAPL falls back to duty-cycling and the model is useless.
    cap_step:
        Candidate-cap grid spacing for eco admission (W).
    eco_margin:
        Fraction of a job's tolerance the *predicted* slowdown may use;
        the rest absorbs residual model error.
    n_workers:
        Workers per node-application instance.
    variability:
        ``(sigma_dynamic, sigma_static)`` per-slot manufacturing
        spread, or None for identical slots.
    seed:
        Master seed for slot variability and application noise.
    max_time:
        Hard wall on simulated time — exceeded means a job cannot
        finish (e.g. its application holds less work than
        ``work_units``), which raises instead of looping forever.
    stall_epochs:
        Consecutive epochs a running job may show zero progress on
        every node before the scheduler declares it wedged.
    shards:
        Worker processes node execution is sharded over; 1 (default)
        runs serially in-process. Reports are identical either way.
    engine:
        Node engine the lockstep layer runs: ``"object"`` (default) or
        ``"vector"`` (numpy structure-of-arrays batches, see
        :mod:`repro.vector`). Reports are bit-identical either way.
        Nodes are placed on shards round-robin in start order.
    """

    n_slots: int
    power_budget: float
    policy: str = "backfill"
    epoch: float = 1.0
    min_cap: float = 55.0
    cap_step: float = 5.0
    eco_margin: float = 0.8
    n_workers: int = 8
    variability: tuple[float, float] | None = None
    seed: int = 0
    max_time: float = 100_000.0
    stall_epochs: int = 30
    shards: int = 1
    engine: str = "object"

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ConfigurationError(
                f"n_slots must be >= 1, got {self.n_slots}")
        if self.power_budget <= 0:
            raise ConfigurationError("power_budget must be positive")
        if self.policy not in _POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.epoch <= 0:
            raise ConfigurationError("epoch must be positive")
        if self.min_cap <= 0 or self.cap_step <= 0:
            raise ConfigurationError("min_cap and cap_step must be positive")
        if not 0.0 < self.eco_margin <= 1.0:
            raise ConfigurationError("eco_margin must lie in (0, 1]")
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.max_time <= 0 or self.stall_epochs < 1:
            raise ConfigurationError("bad max_time/stall_epochs")
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}")
        if self.engine not in _ENGINES:
            raise ConfigurationError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}")


class _RunningJob:
    """Live state of a placed job (nodes advance on a local clock).

    The node stacks themselves live in the lockstep layer (possibly in
    shard workers); this record keeps only the per-epoch exchange state:
    the trailing rates the next rebalance allocates from, the budgets it
    decided, and the last step results (for completion/stall checks,
    which compare against :attr:`JobRecord.progress`).
    """

    __slots__ = ("record", "node_ids", "rebalancer", "start", "stalled",
                 "last_rates", "pending_budgets", "last_results")

    def __init__(self, record: JobRecord, node_ids: tuple[int, ...],
                 rebalancer: ProgressAwareRebalancer | None,
                 start: float) -> None:
        self.record = record
        self.node_ids = node_ids
        self.rebalancer = rebalancer
        self.start = start
        self.stalled = 0
        # Fresh monitors report rate 0.0 (recent_rate semantics).
        self.last_rates = [0.0] * len(node_ids)
        self.pending_budgets: dict[int, float] = {}
        self.last_results: dict = {}

    def local_time(self, now: float) -> float:
        return now - self.start

    def min_cumulative(self) -> float:
        return min(self.last_results[nid].cumulative
                   for nid in self.node_ids)


class PowerAwareScheduler:
    """Admit, place, cap, and run a queue of jobs under a power budget.

    Parameters
    ----------
    config:
        Run parameters.
    powerbook:
        Per-application power/progress profiles (characterized lazily
        for every distinct ``app_name`` submitted).
    cfg:
        Baseline slot hardware configuration.
    """

    def __init__(self, config: SchedulerConfig, powerbook: PowerBook,
                 cfg: NodeConfig | None = None) -> None:
        self.config = config
        self.book = powerbook
        base = cfg if cfg is not None else skylake_config()
        self._slot_cfgs = node_configs(base, config.n_slots, config.seed,
                                       config.variability)
        self._free_slots: list[int] = list(range(config.n_slots))
        self.queue = JobQueue()
        self.records: dict[str, JobRecord] = {}
        self.events = EventLog()
        self.power_series = TimeSeries("cluster-power")
        self.committed_series = TimeSeries("committed-power")
        self.utilisation = TimeSeries("slot-utilisation")
        self.now = 0.0
        self.violations = 0
        self.total_energy = 0.0
        self.epochs_done = 0  #: completed epochs (RunCheckpoint index)
        self._running: dict[str, _RunningJob] = {}
        self._started = 0  # submission-independent placement counter
        self._lockstep = ShardedLockstep(shards=config.shards,
                                         engine=config.engine)
        # Service hooks (repro.daemon): called synchronously, in
        # registration order, from inside the epoch loop. Listeners must
        # only *observe* — mutating the scheduler from one is undefined.
        self._listeners: list[Callable[[SchedulerEvent], None]] = []
        self._epoch_listeners: list[Callable[[float, dict], None]] = []

    # ------------------------------------------------------------------
    # Service hooks (see repro.daemon)
    # ------------------------------------------------------------------

    def add_listener(self, fn: Callable[[SchedulerEvent], None]) -> None:
        """Call ``fn`` with every :class:`SchedulerEvent` as it is
        logged (submissions, cap selections, starts, completions,
        kills, violations) — the daemon's lifecycle stream."""
        self._listeners.append(fn)

    def add_epoch_listener(self,
                           fn: Callable[[float, dict], None]) -> None:
        """Call ``fn(now, results)`` after every epoch advance, where
        ``results`` maps ``job_id -> {node_id: StepResult}`` for every
        job that ran the epoch (completion checks have not run yet, so
        a job's final epoch is included) — the daemon's progress
        stream."""
        self._epoch_listeners.append(fn)

    def _emit(self, event: SchedulerEvent) -> None:
        self.events.append(event)
        for fn in self._listeners:
            fn(event)

    @property
    def n_running(self) -> int:
        """Jobs currently placed on nodes."""
        return len(self._running)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue a job (before or during :meth:`run`)."""
        if job.n_nodes > self.config.n_slots:
            raise ConfigurationError(
                f"job {job.job_id!r} wants {job.n_nodes} nodes but the "
                f"cluster has {self.config.n_slots}")
        if job.submit_time < self.now:
            raise ConfigurationError(
                f"job {job.job_id!r} submitted in the past "
                f"({job.submit_time} < {self.now})")
        self.queue.submit(job)
        self.records[job.job_id] = JobRecord(job=job)
        # logged at the call time (the log is time-ordered and callers
        # may pre-submit future arrivals in any order); the arrival
        # itself is job.submit_time
        self._emit(JobSubmitted(
            time=self.now, job_id=job.job_id, app_name=job.app_name,
            n_nodes=job.n_nodes, max_slowdown=job.max_slowdown))
        obs.tracer().instant("scheduler.job_submitted", job_id=job.job_id,
                             app=job.app_name, n_nodes=job.n_nodes)

    def admissible(self, job: Job) -> tuple[bool, str]:
        """Static feasibility check: could ``job`` *ever* start on an
        otherwise-empty cluster?

        ``(True, "")`` when it can; ``(False, reason)`` when it cannot
        (too many nodes, or its planned power demand alone exceeds the
        cluster budget). The daemon rejects inadmissible jobs at the
        service boundary with a typed error instead of letting the
        batch loop raise :class:`SimulationError` mid-run. Calling this
        may trigger a (cached) power-book characterization of the
        job's application.
        """
        if job.n_nodes > self.config.n_slots:
            return False, (f"wants {job.n_nodes} nodes but the cluster "
                           f"has {self.config.n_slots}")
        _cap, node_power, _predicted = self._plan(job)
        demand = job.n_nodes * node_power
        if demand > self.config.power_budget + 1e-9:
            return False, (f"needs {demand:.1f} W even after eco capping "
                           f"but the budget is "
                           f"{self.config.power_budget:.1f} W")
        return True, ""

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a pending or running job (the daemon's ``kill``).

        Queued jobs are removed from the queue; running jobs have their
        nodes torn down and their slots freed. Either way the record
        moves to :attr:`JobState.KILLED` and a :class:`JobKilled` event
        is emitted. Cancelling a completed (or already killed) job
        raises :class:`ConfigurationError`.
        """
        record = self.records.get(job_id)
        if record is None:
            raise ConfigurationError(f"unknown job {job_id!r}")
        if record.state in (JobState.COMPLETED, JobState.KILLED):
            raise ConfigurationError(
                f"job {job_id!r} is already {record.state.value}")
        was_running = job_id in self._running
        if was_running:
            run = self._running.pop(job_id)
            self._lockstep.remove_nodes(list(run.node_ids))
            self._free_slots.extend(record.slots)
            self._free_slots.sort()
            record.end_time = self.now
        else:
            self.queue.remove(job_id)
        record.state = JobState.KILLED
        self._emit(JobKilled(time=self.now, job_id=job_id,
                             was_running=was_running))
        obs.tracer().instant("scheduler.job_killed", job_id=job_id,
                             was_running=was_running)
        return record

    # ------------------------------------------------------------------
    # Admission planning
    # ------------------------------------------------------------------

    def _plan(self, job: Job) -> tuple[float | None, float, float]:
        """(cap, per-node power demand, predicted slowdown) for a job.

        Eco jobs get the cheapest model-approved cap; rigid jobs are
        charged their measured uncapped package draw.
        """
        profile = self.book.profile(job.app_name)
        if job.max_slowdown is None:
            return None, profile.p_uncapped, 0.0
        ceiling = min(self._slot_cfgs[0].tdp, profile.p_uncapped)
        floor = min(self.config.min_cap, ceiling)
        cap, predicted = profile.cheapest_cap(
            job.max_slowdown, floor=floor, ceiling=ceiling,
            step=self.config.cap_step, margin=self.config.eco_margin)
        return cap, cap, predicted

    def _committed_power(self) -> float:
        return sum(run.record.demand for run in self._running.values())

    def _fits(self, job: Job, node_power: float) -> bool:
        if job.n_nodes > len(self._free_slots):
            return False
        demand = job.n_nodes * node_power
        return self._committed_power() + demand \
            <= self.config.power_budget + 1e-9

    def _try_start_jobs(self) -> None:
        blocked = False
        for job in self.queue.visible(self.now):
            cap, node_power, predicted = self._plan(job)
            if self._fits(job, node_power):
                # a start past a blocked earlier job is a backfill
                self._start(job, cap, node_power, predicted,
                            backfilled=blocked)
            elif self.config.policy == "fcfs":
                # strict queue order: nobody overtakes a blocked head
                break
            else:
                # backfill: leave the blocked job queued and keep
                # walking — later jobs may fit the node/power holes
                blocked = True

    def _start(self, job: Job, cap: float | None, node_power: float,
               predicted: float, *, backfilled: bool = False) -> None:
        record = self.records[job.job_id]
        self.queue.remove(job.job_id)
        slots = tuple(self._free_slots[:job.n_nodes])
        del self._free_slots[:job.n_nodes]
        tracer = obs.tracer()
        if cap is not None:
            self._emit(CapSelected(
                time=self.now, job_id=job.job_id, cap=cap,
                predicted_slowdown=predicted, tolerance=job.max_slowdown))
            tracer.instant("scheduler.cap_selected", job_id=job.job_id,
                           cap=cap, predicted_slowdown=predicted)

        self._lockstep.add_nodes(self._node_specs(job, slots, cap))
        self._started += 1

        rebalancer = None
        if cap is not None and job.n_nodes >= 2:
            # re-shuffle the job's fixed power between its nodes; bounds
            # keep every node inside RAPL's useful range around the cap
            rebalancer = ProgressAwareRebalancer(
                cap * job.n_nodes,
                min_node=cap * 0.7,
                max_node=min(self._slot_cfgs[0].tdp, cap * 1.5),
            )

        record.state = JobState.RUNNING
        record.slots = slots
        record.cap = cap
        record.node_power = node_power
        record.predicted_slowdown = predicted
        record.start_time = self.now
        self._running[job.job_id] = _RunningJob(
            record, slots, rebalancer, self.now)
        self._emit(JobStarted(
            time=self.now, job_id=job.job_id, slots=slots, cap=cap,
            demand=record.demand))
        tracer.instant("scheduler.job_started", job_id=job.job_id,
                       n_nodes=job.n_nodes, cap=cap, demand=record.demand,
                       backfilled=backfilled)

    # ------------------------------------------------------------------
    # Epoch loop
    # ------------------------------------------------------------------

    def run(self, *, checkpoint_store=None,
            checkpoint_every: int = 0) -> SchedulerReport:
        """Drive the cluster until every submitted job has completed.

        With ``checkpoint_every=N`` (and a
        :class:`~repro.runtime.runfile.CheckpointStore`), an atomic
        :class:`RunCheckpoint` is saved after every N-th completed
        epoch (:meth:`checkpointed_step`) — the crash-resume and
        time-travel record (see :meth:`resume`).
        """
        checkpoint_due(checkpoint_every, checkpoint_store)

        def save() -> None:
            checkpoint_store.save(self.run_checkpoint())

        tracer = obs.tracer()
        with tracer.span("scheduler.run", policy=self.config.policy,
                         n_slots=self.config.n_slots,
                         power_budget=self.config.power_budget,
                         shards=self.config.shards) as span:
            while self.checkpointed_step(checkpoint_every, save):
                pass
            span.set(makespan=self.now, violations=self.violations)
        return self._report()

    def checkpointed_step(self, every: int,
                          save: Callable[[], object]) -> bool:
        """:meth:`step`, then ``save()`` when the step completed an
        epoch on the ``every``-epoch cadence
        (:func:`~repro.runtime.runfile.checkpoint_due`; idle hops
        complete no epoch, the epoch that drains the cluster does).
        The one "step, then save if due" rule :meth:`run` and the
        daemon's tick share. Returns what :meth:`step` returned."""
        before = self.epochs_done
        more = self.step()
        if self.epochs_done != before and checkpoint_due(
                every, save, self.epochs_done):
            save()
        return more

    def step(self) -> bool:
        """Advance the simulation by one scheduling decision point.

        One call makes exactly one move: start whatever fits, then
        either advance one epoch (when anything is running) or idle-hop
        the clock to the next queued arrival. Returns True while
        submitted work remains, False once the cluster is drained —
        ``run()`` is ``while step(): pass`` plus checkpoints and a
        report. This is the seam :mod:`repro.daemon` drives: a service
        cannot call a run-to-completion loop, it interleaves epochs
        with admissions.
        """
        if not (self.queue or self._running):
            return False
        epoch = self.config.epoch
        tracer = obs.tracer()
        if self.now > self.config.max_time:
            raise SimulationError(
                f"scheduler exceeded max_time="
                f"{self.config.max_time}: "
                f"queued={[j.job_id for j in self.queue]} "
                f"running={sorted(self._running)}")
        self._try_start_jobs()
        if not self._running:
            # nothing runnable: idle-hop to the next arrival
            nxt = self.queue.next_arrival(self.now)
            if nxt is None:
                raise SimulationError(
                    "queued jobs can never start: "
                    f"{[j.job_id for j in self.queue]}")
            hops = max(1, math.ceil((nxt - self.now) / epoch - 1e-9))
            self.now += hops * epoch
            return bool(self.queue or self._running)
        with tracer.span("scheduler.epoch", now=self.now,
                         running=len(self._running),
                         queued=len(self.queue)):
            self._rebalance()
            self._advance_epoch()
        obs.metrics().counter("scheduler.epochs",
                              policy=self.config.policy).inc()
        return bool(self.queue or self._running)

    def close(self) -> None:
        """Close the lockstep and shut down its shard workers (with
        ``shards=1`` there are none). Further :meth:`submit`/:meth:`run`
        calls are invalid afterwards."""
        self._lockstep.close()

    def _node_specs(self, job: Job, slots: tuple[int, ...],
                    cap: float | None) -> list[tuple[int, StackSpec]]:
        """Picklable stack specs for a job's placement, one per slot."""
        specs = []
        for k, slot in enumerate(slots):
            kwargs = dict(job.app_kwargs or {})
            kwargs.setdefault("n_workers", self.config.n_workers)
            specs.append((slot, StackSpec(
                app_name=job.app_name,
                cfg=self._slot_cfgs[slot],
                app_kwargs=kwargs,
                seed=self.config.seed + 7919 * self._started + 131 * k,
                initial_budget=cap,
                name=f"node{slot}",
            )))
        return specs

    def _rebalance(self) -> None:
        """Allocate each rebalanced job's fixed power from its trailing
        rates (cached from the previous epoch's step results — node
        state has not changed since). The budgets ride down with the
        next epoch's step requests, which each node's cap controller
        applies on its next tick, exactly as the serial delivery did."""
        tracer = obs.tracer()
        for run in self._running.values():
            if run.rebalancer is None:
                continue
            budgets = [float(b)
                       for b in run.rebalancer.allocate(run.last_rates)]
            run.pending_budgets = dict(zip(run.node_ids, budgets))
            if tracer.enabled:
                tracer.instant("scheduler.rebalance",
                               job_id=run.record.job.job_id,
                               total_w=sum(budgets),
                               min_w=min(budgets), max_w=max(budgets))

    def _advance_epoch(self) -> None:
        epoch = self.config.epoch
        window = 3 * epoch
        self.now += epoch
        requests: list[StepRequest] = []
        for run in self._running.values():
            target = run.local_time(self.now)
            windows = (window,) if run.rebalancer is not None else ()
            for nid in run.node_ids:
                requests.append(StepRequest(
                    node_id=nid, target=target,
                    budget=run.pending_budgets.get(nid),
                    set_budget=nid in run.pending_budgets,
                    windows=windows))
        results = self._lockstep.step(requests)
        by_node = {res.node_id: res for res in results}
        # Sum energy per job first, then across jobs, replicating the
        # serial code's float-summation nesting exactly.
        epoch_energy = 0.0
        for run in self._running.values():
            job_energy = 0.0
            for nid in run.node_ids:
                job_energy += by_node[nid].energy
            epoch_energy += job_energy
            run.last_results = {nid: by_node[nid] for nid in run.node_ids}
            if run.rebalancer is not None:
                run.last_rates = [by_node[nid].rates[window]
                                  for nid in run.node_ids]
            run.pending_budgets = {}
        self.total_energy += epoch_energy
        power = epoch_energy / epoch
        busy = self.config.n_slots - len(self._free_slots)
        self.power_series.append(self.now, power)
        self.committed_series.append(self.now, self._committed_power())
        self.utilisation.append(self.now, busy / self.config.n_slots)
        if power > self.config.power_budget + 1e-6:
            self.violations += 1
            self._emit(BudgetViolation(
                time=self.now, power=power, budget=self.config.power_budget))
            obs.tracer().instant("scheduler.budget_violation", power=power,
                                 budget=self.config.power_budget)
        if self._epoch_listeners:
            samples = {job_id: dict(run.last_results)
                       for job_id, run in self._running.items()}
            for fn in self._epoch_listeners:
                fn(self.now, samples)
        self._complete_finished()
        self.epochs_done += 1

    def _complete_finished(self) -> None:
        for job_id in list(self._running):
            run = self._running[job_id]
            record = run.record
            job = record.job
            cumulative = run.min_cumulative()
            if cumulative <= record.progress + 1e-12:
                run.stalled += 1
                if run.stalled >= self.config.stall_epochs:
                    raise SimulationError(
                        f"job {job_id!r} made no progress for "
                        f"{run.stalled} epochs — its application likely "
                        f"holds less work than work_units={job.work_units}")
            else:
                run.stalled = 0
            record.progress = cumulative
            if cumulative < job.work_units:
                continue
            self._finish(job_id, run)

    def _finish(self, job_id: str, run: _RunningJob) -> None:
        record = run.record
        job = record.job
        telemetry = self._lockstep.telemetry(list(run.node_ids))
        # interpolate the actual crossing inside the last epoch, per
        # node; the *job* completes when its slowest node crosses
        crossing = max(
            _crossing_time(telemetry[nid].progress, job.work_units,
                           telemetry[nid].interval)
            for nid in run.node_ids
        )
        record.end_time = run.start + crossing
        record.state = JobState.COMPLETED
        record.energy += sum(telemetry[nid].pkg_energy
                             for nid in run.node_ids)
        skip = min(2.0, 0.25 * crossing)
        record.measured_rate = _steady_rate(
            [telemetry[nid].progress for nid in run.node_ids],
            skip, crossing)
        profile = self.book.profile(job.app_name)
        record.measured_slowdown = 1.0 - record.measured_rate / profile.r_max
        self._lockstep.remove_nodes(list(run.node_ids))
        self._free_slots.extend(record.slots)
        self._free_slots.sort()
        del self._running[job_id]
        self._emit(JobCompleted(
            time=self.now, job_id=job_id, run_time=record.run_time,
            measured_slowdown=record.measured_slowdown))
        obs.tracer().instant("scheduler.job_completed", job_id=job_id,
                             run_time=record.run_time,
                             measured_slowdown=record.measured_slowdown)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.runtime.runfile)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable mid-run state of the whole scheduler.

        Covers the queue, every job record, the event log, the power/
        utilisation series, the power book's ``n_workers``, ``seed``
        and measured profiles, and — through the lockstep layer — a
        full :meth:`NodeInstance.snapshot` checkpoint of every running
        node, so a restored scheduler continues *bit-for-bit* without
        characterizing an application again. Restore onto a freshly
        constructed scheduler with the same config. Job records are
        deep-copied so the snapshot does not alias the live run's
        mutable bookkeeping.
        """
        node_ids = [nid for run in self._running.values()
                    for nid in run.node_ids]
        node_cps = self._lockstep.checkpoint(node_ids)
        running = {}
        for job_id, run in self._running.items():
            running[job_id] = {
                "node_ids": list(run.node_ids),
                "rebalancer": run.rebalancer,
                "start": run.start,
                "stalled": run.stalled,
                "last_rates": list(run.last_rates),
                "pending_budgets": dict(run.pending_budgets),
                "last_results": dict(run.last_results),
            }
        return {
            "version": 4,
            "now": self.now,
            "epochs": self.epochs_done,
            "violations": self.violations,
            "total_energy": self.total_energy,
            "started": self._started,
            "free_slots": list(self._free_slots),
            "queue": self.queue.snapshot(),
            "records": {jid: copy.deepcopy(rec)
                        for jid, rec in self.records.items()},
            "events": self.events.snapshot(),
            "power": self.power_series.snapshot(),
            "committed": self.committed_series.snapshot(),
            "utilisation": self.utilisation.snapshot(),
            "running": running,
            "nodes": node_cps,
            "book_n_workers": self.book.n_workers,
            "book_seed": self.book.seed,
            "book_profiles": [self.book.profile(name)
                              for name in self.book.known()],
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` onto this (freshly constructed,
        never stepped) scheduler, rebuilding every running node from
        its checkpoint inside the lockstep layer. The power book is
        replaced by one on the same reference node holding the
        recorded ``n_workers``, ``seed`` and profiles."""
        check_snapshot_version(state, 4, "PowerAwareScheduler")
        if self.records or self._running or self._lockstep.n_nodes:
            raise CheckpointError(
                "scheduler restore target must be freshly constructed "
                "(it already holds jobs or nodes)")
        for profile in state["book_profiles"]:
            if not isinstance(profile, AppPowerProfile):
                raise CheckpointError(
                    f"checkpoint power book holds a "
                    f"{type(profile).__name__}, not an AppPowerProfile")
        self.book = PowerBook(self.book.cfg,
                              n_workers=state["book_n_workers"],
                              seed=state["book_seed"])
        for profile in state["book_profiles"]:
            self.book.preload(profile)
        self.now = state["now"]
        self.epochs_done = state["epochs"]
        self.violations = state["violations"]
        self.total_energy = state["total_energy"]
        self._started = state["started"]
        self._free_slots = list(state["free_slots"])
        self.queue.restore(state["queue"])
        self.records = {jid: copy.deepcopy(rec)
                        for jid, rec in state["records"].items()}
        self.events.restore(state["events"])
        self.power_series.restore(state["power"])
        self.committed_series.restore(state["committed"])
        self.utilisation.restore(state["utilisation"])
        items = []
        for job_id, rs in state["running"].items():
            run = _RunningJob(self.records[job_id], tuple(rs["node_ids"]),
                              rs["rebalancer"], rs["start"])
            run.stalled = rs["stalled"]
            run.last_rates = list(rs["last_rates"])
            run.pending_budgets = dict(rs["pending_budgets"])
            run.last_results = dict(rs["last_results"])
            self._running[job_id] = run
            for nid in run.node_ids:
                items.append((nid, state["nodes"][nid]))
        self._lockstep.add_nodes(items)

    def run_checkpoint(self) -> RunCheckpoint:
        """This instant of the run as a :class:`RunCheckpoint` (kind
        ``"scheduler"``), carrying the :class:`SchedulerConfig` and a
        full :meth:`snapshot` — the file both crash resumption and
        time-travel replay start from."""
        return RunCheckpoint(
            version=RUN_CHECKPOINT_VERSION,
            kind="scheduler",
            epoch=self.epochs_done,
            now=self.now,
            config=self.config,
            state=self.snapshot(),
        )

    @classmethod
    def resume(cls, source, cfg: NodeConfig | None = None, *,
               epoch: int | None = None,
               config: SchedulerConfig | None = None,
               ) -> "PowerAwareScheduler":
        """Rebuild a scheduler from a recorded :meth:`run_checkpoint`.

        ``source`` is anything :func:`~repro.runtime.runfile
        .resolve_checkpoint` accepts: a :class:`RunCheckpoint`, a
        checkpoint file, or a :class:`~repro.runtime.runfile
        .CheckpointStore` (or its directory), where ``epoch=None``
        picks the latest checkpoint and ``epoch=N`` the newest at or
        before N (time travel). ``cfg`` mirrors the constructor; the
        power book comes from the checkpoint (:meth:`restore`).
        ``config`` (when given) replaces the recorded
        :class:`SchedulerConfig` for the continuation — replay under a
        different ``power_budget``, policy, shards, engine, ...
        Structural fields (``n_slots``, ``seed``, ``variability``) must
        match the recorded run, since the restored node state was built
        under them; a mismatch raises :class:`CheckpointError`.
        """
        checkpoint = resolve_checkpoint(source, kind="scheduler",
                                        epoch=epoch)
        recorded = checkpoint.config
        if config is None:
            config = recorded
        changed = [name for name in ("n_slots", "seed", "variability")
                   if getattr(config, name) != getattr(recorded, name)]
        if changed:
            raise CheckpointError(
                f"replacement config changes {', '.join(changed)} of the "
                "recorded run; its node state was built under them")
        scheduler = cls(config, PowerBook(cfg), cfg)
        scheduler.restore(checkpoint.state)
        return scheduler

    # ------------------------------------------------------------------

    def _report(self) -> SchedulerReport:
        return build_report(
            policy=self.config.policy,
            n_slots=self.config.n_slots,
            power_budget=self.config.power_budget,
            records=list(self.records.values()),
            total_energy=self.total_energy,
            violations=self.violations,
            power=self.power_series,
            committed=self.committed_series,
            utilisation=self.utilisation,
            events=self.events,
        )


def _crossing_time(series: TimeSeries, target: float,
                   interval: float) -> float:
    """Time (on the node's local clock) when the integrated progress
    series first reached ``target``, linearly interpolated inside the
    crossing monitor window."""
    cumulative = 0.0
    for t, rate in series:
        gained = rate * interval
        if cumulative + gained >= target - 1e-12:
            if gained <= 0:
                return t
            frac = (target - cumulative) / gained
            return t - interval + frac * interval
        cumulative += gained
    raise SimulationError(
        f"series {series.name!r} never reached {target} "
        f"(got {cumulative})")


def _steady_rate(series_list: list[TimeSeries], skip: float,
                 end: float) -> float:
    """Mean per-node progress rate over [skip, end], averaging the
    job's nodes (startup transient excluded so the figure is comparable
    to the power book's steady uncapped rate)."""
    rates = []
    for series in series_list:
        window = series.window(skip, end + 1e-9)
        if not window.is_empty():
            rates.append(window.mean())
    if not rates:
        raise SimulationError("no steady-state samples to rate a job by")
    return float(np.mean(rates))
