"""Fluid discrete-event execution engine.

Application tasks are Python generators that yield *directives*:

* :class:`Work` — execute a quantum of interleaved compute/memory work,
* :class:`Sleep` — block without consuming the core (OS sleep),
* :class:`Barrier` — synchronize with the other members of a
  :class:`BarrierGroup`, busy-waiting (and burning instructions/power)
  until the last member arrives,
* :class:`Publish` — emit a progress event at the current simulated time
  (zero duration).

Work advances *fluidly*: within a segment where nothing changes (no
frequency/duty change, no task completing, no timer firing) every task
progresses at a constant rate determined by the core's effective clock and
its max-min-fair share of memory bandwidth. The engine computes the exact
time of the next state change, integrates all work, counters and energy
over the segment analytically, and repeats. Frequency changes made by
timers (the RAPL firmware, the cap controller) therefore take effect
with exact timing — there is no integration error to tune away.

For a task whose quantum needs ``C`` cycles and ``B`` bytes at effective
clock ``s`` and granted bandwidth ``a``::

    rate = 1 / (C/s + B/a_effective)   with   a <= min(link_bw * duty, ...)

which reproduces the paper's Eq. 1 exactly: iteration time is
``C/s + B/bw``, so ``T(f)/T(f_max) = beta * (f_max/f - 1) + 1`` with
``beta`` the compute fraction of iteration time at ``f_max``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
    check_snapshot_version,
)
from repro.hardware.cpu import CoreMode
from repro.hardware.kernels import (
    bandwidth_demand,
    compute_fraction,
    effective_clock,
    progress_rate,
    standalone_time,
)
from repro.hardware.memory import allocate_bandwidth

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.hardware.node import SimulatedNode

__all__ = [
    "Work",
    "Sleep",
    "Barrier",
    "Publish",
    "BarrierGroup",
    "TaskState",
    "Timer",
    "Engine",
]

#: Relative slack under which a task's work counts as complete.
COMPLETION_RTOL = 1e-12
#: Slack within which a timer, wake-up or message delivery is due.
TIMER_EPS = 1e-15


# ----------------------------------------------------------------------
# Directives
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Work:
    """Execute ``cycles`` of compute and ``bytes`` of memory traffic,
    uniformly interleaved, retiring ``instructions`` instructions.

    ``instructions`` defaults to ``cycles`` (IPC of 1); kernels that model
    superscalar or stall-heavy code pass it explicitly.

    ``l3_misses`` defaults to ``bytes / cache_line`` (streaming traffic);
    latency-bound kernels (OpenMC's unstructured accesses) pass it
    explicitly, because there ``bytes`` models the *bandwidth-time
    equivalent* of miss latency rather than actual line traffic.
    """

    cycles: float
    bytes: float = 0.0
    instructions: float | None = None
    l3_misses: float | None = None

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.bytes < 0:
            raise ConfigurationError("work sizes must be non-negative")
        if self.instructions is not None and self.instructions < 0:
            raise ConfigurationError("instructions must be non-negative")
        if self.l3_misses is not None and self.l3_misses < 0:
            raise ConfigurationError("l3_misses must be non-negative")

    @property
    def ins(self) -> float:
        return self.cycles if self.instructions is None else self.instructions

    def misses(self, cache_line: int) -> float:
        """L3 misses for the whole quantum."""
        if self.l3_misses is not None:
            return self.l3_misses
        return self.bytes / cache_line

    @property
    def empty(self) -> bool:
        return self.cycles <= 0.0 and self.bytes <= 0.0


@dataclass(frozen=True)
class Sleep:
    """Block the task for ``duration`` seconds without occupying the core
    (the core drops to its sleep activity level)."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError("sleep duration must be non-negative")


class BarrierGroup:
    """Synchronization group shared by ``n_members`` tasks.

    Reusable: once all members arrive the barrier resets for the next
    phase, exactly like ``MPI_Barrier`` on a communicator.
    """

    def __init__(self, n_members: int, name: str = "barrier") -> None:
        if n_members < 1:
            raise ConfigurationError(f"barrier needs >= 1 member, got {n_members}")
        self.n_members = n_members
        self.name = name
        self._waiting: list[TaskState] = []

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BarrierGroup({self.name!r}, {self.n_waiting}/{self.n_members})"


@dataclass(frozen=True)
class Barrier:
    """Directive: wait at ``group`` until all members arrive."""

    group: BarrierGroup


@dataclass(frozen=True)
class Publish:
    """Directive: emit ``value`` on ``topic`` at the current time
    (zero simulated duration)."""

    topic: str
    value: float


# ----------------------------------------------------------------------
# Task & timer bookkeeping
# ----------------------------------------------------------------------

_RUNNING = "running"
_SPINNING = "spinning"
_SLEEPING = "sleeping"
_READY = "ready"
_DONE = "done"


@dataclass
class TaskState:
    """Engine-internal record of one task (MPI rank / OpenMP thread)."""

    tid: int
    name: str
    core_id: int
    gen: Iterator[Any]
    status: str = _READY
    # current Work quantum
    work: Work | None = None
    frac_done: float = 0.0
    # per-segment cached rates
    rate: float = 0.0            # d(frac)/dt
    bytes_rate: float = 0.0      # B/s
    compute_frac: float = 0.0    # share of wall time retiring instructions
    clock: float = 0.0           # effective clock (Hz), running/spinning
    wake_time: float = 0.0       # for _SLEEPING

    @property
    def done(self) -> bool:
        return self.status == _DONE


@dataclass(order=True)
class Timer:
    """A scheduled callback; periodic if ``period`` is set."""

    time: float
    seq: int
    callback: Callable[[float], None] = field(compare=False)
    period: float | None = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent future firings (already-queued firing is skipped)."""
        self.cancelled = True


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class Engine:
    """Drives tasks, timers, counters and energy on a simulated node."""

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node
        self.clock = node.clock
        self._tasks: list[TaskState] = []
        self._timers: list[Timer] = []
        # Plain ints (not itertools.count) so the engine can checkpoint.
        self._next_tid = 0
        self._next_timer_seq = 0
        self._ready: list[TaskState] = []
        self._publish_hooks: list[Callable[[float, str, float], None]] = []
        self._free_cores = list(range(node.cfg.n_cores - 1, -1, -1))

    # -- task management ------------------------------------------------

    def spawn(self, gen: Iterator[Any], core_id: int | None = None,
              name: str | None = None) -> TaskState:
        """Register a task generator, pinned to ``core_id`` (or the next
        free core). The task starts when :meth:`run` is next called."""
        if core_id is None:
            if not self._free_cores:
                raise SimulationError("no free cores left to pin a task to")
            core_id = self._free_cores.pop()
        elif not 0 <= core_id < self.node.cfg.n_cores:
            raise SimulationError(
                f"core_id {core_id} out of range 0..{self.node.cfg.n_cores - 1}"
            )
        else:
            if core_id in self._free_cores:
                self._free_cores.remove(core_id)
        tid = self._next_tid
        self._next_tid += 1
        task = TaskState(
            tid=tid,
            name=name or f"task{core_id}",
            core_id=core_id,
            gen=gen,
        )
        self._tasks.append(task)
        self._ready.append(task)
        return task

    def add_timer(self, delay: float, callback: Callable[[float], None],
                  period: float | None = None) -> Timer:
        """Schedule ``callback(now)`` after ``delay`` seconds; with
        ``period`` it re-fires drift-free every ``period`` seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        if period is not None and period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        seq = self._next_timer_seq
        self._next_timer_seq += 1
        timer = Timer(self.clock.now + delay, seq, callback, period)
        heapq.heappush(self._timers, timer)
        return timer

    def on_publish(self, hook: Callable[[float, str, float], None]) -> None:
        """Register a hook invoked as ``hook(time, topic, value)`` for every
        :class:`Publish` directive (telemetry attaches here)."""
        self._publish_hooks.append(hook)

    # -- introspection ---------------------------------------------------

    @property
    def tasks(self) -> tuple[TaskState, ...]:
        return tuple(self._tasks)

    def all_done(self) -> bool:
        return all(t.done for t in self._tasks)

    # -- main loop ---------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until all tasks finish, or absolute time ``until`` is
        reached (whichever first). Returns the final simulated time."""
        if until is not None and until < self.clock.now:
            raise SchedulingError(
                f"until={until} is before now={self.clock.now}"
            )
        while True:
            self._dispatch_ready()
            now = self.clock.now
            if until is not None and now >= until:
                break
            running = [t for t in self._tasks if t.status == _RUNNING]
            spinning = [t for t in self._tasks if t.status == _SPINNING]
            sleeping = [t for t in self._tasks if t.status == _SLEEPING]
            next_timer = self._peek_timer()

            if not running and not sleeping:
                if spinning:
                    # Timers cannot release a barrier (only task arrivals
                    # can), so this cannot resolve.
                    raise SimulationError(
                        "deadlock: tasks are spinning at a barrier that can "
                        f"never complete: {[t.name for t in spinning]}"
                    )
                if until is None:
                    # All tasks finished; pending timers alone don't keep
                    # the simulation alive.
                    break
                # Idle-advance toward `until`, still firing timers and
                # accruing idle power.

            self._recompute_rates(running, spinning, sleeping)

            dt = np.inf
            for t in running:
                t_left = (1.0 - t.frac_done) / t.rate if t.rate > 0 else np.inf
                dt = min(dt, t_left)
            for t in sleeping:
                dt = min(dt, t.wake_time - now)
            if next_timer is not None:
                dt = min(dt, next_timer - now)
            if until is not None:
                dt = min(dt, until - now)
            if not np.isfinite(dt):
                raise SimulationError(
                    "no task can make progress and no timer is pending"
                )
            dt = max(dt, 0.0)

            self._integrate(running, spinning, dt)
            self.clock.advance(dt)
            now = self.clock.now

            # Completions.
            for t in running:
                if t.frac_done >= 1.0 - COMPLETION_RTOL:
                    t.frac_done = 1.0
                    t.work = None
                    t.status = _READY
                    self._ready.append(t)
            for t in sleeping:
                if t.wake_time <= now + TIMER_EPS:
                    t.status = _READY
                    self._ready.append(t)
            # Resume completed/woken tasks *before* firing timers due at
            # the same instant, so that zero-time follow-ups (progress
            # publishes) are visible to periodic collectors whose window
            # closes exactly now.
            self._dispatch_ready()
            self._fire_timers(now)
        return self.clock.now

    # -- internals ---------------------------------------------------------

    def _peek_timer(self) -> float | None:
        while self._timers and self._timers[0].cancelled:
            heapq.heappop(self._timers)
        return self._timers[0].time if self._timers else None

    def _fire_timers(self, now: float) -> None:
        while self._timers and self._timers[0].time <= now + TIMER_EPS:
            timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            timer.callback(now)
            if timer.period is not None and not timer.cancelled:
                timer.time += timer.period
                heapq.heappush(self._timers, timer)

    def _dispatch_ready(self) -> None:
        """Resume READY tasks until each blocks (zero simulated time)."""
        while self._ready:
            task = self._ready.pop()
            self._advance_task(task)

    def _advance_task(self, task: TaskState) -> None:
        while True:
            try:
                directive = next(task.gen)
            except StopIteration:
                task.status = _DONE
                task.work = None
                core = self.node.cores[task.core_id]
                core.mode = CoreMode.IDLE
                core.compute_frac = 0.0
                core.bytes_rate = 0.0
                return
            if isinstance(directive, Work):
                if directive.empty or (directive.cycles <= 0.0
                                       and self._traffic_underflows(
                                           task, directive)):
                    continue
                task.work = directive
                task.frac_done = 0.0
                task.status = _RUNNING
                return
            if isinstance(directive, Sleep):
                if directive.duration <= 0:
                    continue
                task.wake_time = self.clock.now + directive.duration
                task.status = _SLEEPING
                return
            if isinstance(directive, Barrier):
                group = directive.group
                group._waiting.append(task)
                if len(group._waiting) >= group.n_members:
                    waiters = group._waiting
                    group._waiting = []
                    for w in waiters:
                        if w is not task:
                            w.status = _READY
                            self._ready.append(w)
                    # the completing member keeps executing immediately
                    continue
                task.status = _SPINNING
                return
            if isinstance(directive, Publish):
                for hook in self._publish_hooks:
                    hook(self.clock.now, directive.topic, directive.value)
                continue
            raise SimulationError(
                f"task {task.name!r} yielded unknown directive {directive!r}"
            )

    def _traffic_underflows(self, task: TaskState, w: Work) -> bool:
        """Whether ``w``'s transfer time over the core's link is zero: a
        byte count so small (a subnormal) that it underflows. Such an
        item with no cycles takes no time, so it is as empty as
        :attr:`Work.empty` — its bandwidth demand would otherwise divide
        by that zero."""
        link = self.node.cfg.core_link_bandwidth * \
            self.node.cores[task.core_id].duty
        return w.bytes / link == 0.0

    def _recompute_rates(self, running: list[TaskState],
                         spinning: list[TaskState],
                         sleeping: list[TaskState]) -> None:
        """Set per-task rates and per-core power-model state for the
        upcoming constant-rate segment.

        Each running or spinning task's effective clock is computed here
        once and kept in ``TaskState.clock`` for :meth:`_integrate`: no
        timer fires between the two calls, so frequency and duty cannot
        change in between.
        """
        node = self.node
        cfg = node.cfg
        cores = node.cores
        busy, spin, sleep = CoreMode.BUSY, CoreMode.SPIN, CoreMode.SLEEP
        node.idle_all()

        # Unconstrained per-task bandwidth demand.
        mem_tasks: list[TaskState] = []
        demands: list[float] = []
        for t in running:
            w = t.work
            assert w is not None
            core = cores[t.core_id]
            s = t.clock = effective_clock(core.freq, core.duty)
            demand = 0.0
            if w.bytes > 0:
                link = cfg.core_link_bandwidth * core.duty
                standalone = standalone_time(w.cycles, w.bytes, s, link)
                demand = bandwidth_demand(w.bytes, standalone)
            if demand > 0:
                demands.append(demand)
                mem_tasks.append(t)
            else:
                # no traffic, or so little (a subnormal byte count) that
                # its demand underflows to zero and would grant a zero
                # rate forever: the item is compute-bound
                t.bytes_rate = 0.0
        grants = (allocate_bandwidth(demands,
                                     node.effective_mem_bandwidth).tolist()
                  if mem_tasks else [])

        gi = 0
        for t in running:
            w = t.work
            core = cores[t.core_id]
            s = t.clock
            if gi < len(mem_tasks) and mem_tasks[gi] is t:
                granted = grants[gi]
                gi += 1
                t.bytes_rate = granted
                t.rate = progress_rate(granted, w.bytes)
            else:
                t.rate = s / w.cycles
                t.bytes_rate = 0.0
            # Fraction of wall time retiring instructions.
            t.compute_frac = (min(compute_fraction(w.cycles, t.rate, s), 1.0)
                              if s > 0 else 0.0)
            core.mode = busy
            core.compute_frac = t.compute_frac
            core.bytes_rate = t.bytes_rate
        for t in spinning:
            core = cores[t.core_id]
            t.clock = effective_clock(core.freq, core.duty)
            core.mode = spin
            core.compute_frac = 1.0
            core.bytes_rate = 0.0
        for t in sleeping:
            core = cores[t.core_id]
            core.mode = sleep
            core.compute_frac = 0.0
            core.bytes_rate = 0.0

    def _integrate(self, running: list[TaskState], spinning: list[TaskState],
                   dt: float) -> None:
        """Accrue work, counters and energy over a segment of length ``dt``."""
        node = self.node
        cfg = node.cfg
        node.accrue(dt)
        if dt <= 0:
            return
        accrue = node.counters.accrue
        for t in running:
            w = t.work
            dx = min(t.rate * dt, 1.0 - t.frac_done)
            t.frac_done += dx
            accrue(t.core_id,
                   instructions=w.ins * dx,
                   cycles=t.clock * dt,
                   l3_misses=w.misses(cfg.cache_line) * dx)
        spin_ipc = cfg.spin_ipc
        for t in spinning:
            s = t.clock
            accrue(t.core_id, instructions=s * spin_ipc * dt, cycles=s * dt)

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable engine state: counters, task records (with resumable
        body snapshots), the ready queue and the timer wheel.

        Requires every task body to expose ``snapshot()``/``restore()``
        (see :class:`repro.apps.body.ResumableBody`); raw generators
        cannot be checkpointed and raise :class:`CheckpointError`.
        Per-segment rate caches are recomputed each segment and core
        power-model state lives in the node snapshot, so neither is
        captured here. ``_publish_hooks`` are wiring, re-created by the
        stack on rebuild.
        """
        tasks = []
        for t in self._tasks:
            body = getattr(t.gen, "snapshot", None)
            if body is None:
                raise CheckpointError(
                    f"task {t.name!r} body {type(t.gen).__name__} is not "
                    "resumable (no snapshot()); cannot checkpoint the engine"
                )
            barrier_pos = None
            if t.status == _SPINNING:
                group = t.gen.barrier_group
                barrier_pos = group._waiting.index(t)
            tasks.append({
                "tid": t.tid, "name": t.name, "core_id": t.core_id,
                "status": t.status, "work": t.work,
                "frac_done": t.frac_done, "wake_time": t.wake_time,
                "body": body(), "barrier_pos": barrier_pos,
            })
        timers = [
            {"seq": tm.seq, "time": tm.time, "period": tm.period,
             "cancelled": tm.cancelled}
            for tm in sorted(self._timers, key=lambda tm: tm.seq)
        ]
        return {
            "version": 1,
            "next_tid": self._next_tid,
            "next_timer_seq": self._next_timer_seq,
            "free_cores": list(self._free_cores),
            "tasks": tasks,
            "ready": [t.tid for t in self._ready],
            "timers": timers,
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` onto a freshly rebuilt engine.

        The rebuild (re-running the stack assembly) must have registered
        the same tasks and timers in the same order; restore overlays
        mutable state onto them, matching tasks by tid and timers by seq.
        Timers present in the rebuild but absent from the snapshot are
        cancelled (they had fired/been cancelled before the snapshot);
        timers in the snapshot but missing from the rebuild are an error.
        """
        check_snapshot_version(state, 1, "Engine")
        recorded = state["tasks"]
        if len(recorded) != len(self._tasks):
            raise CheckpointError(
                f"snapshot has {len(recorded)} tasks, rebuild has "
                f"{len(self._tasks)}"
            )
        spinning: list[tuple[int, TaskState]] = []
        for t, rec in zip(self._tasks, recorded):
            if (t.tid, t.name, t.core_id) != (
                    rec["tid"], rec["name"], rec["core_id"]):
                raise CheckpointError(
                    f"task mismatch: rebuilt ({t.tid}, {t.name!r}, "
                    f"{t.core_id}) vs snapshot ({rec['tid']}, "
                    f"{rec['name']!r}, {rec['core_id']})"
                )
            t.gen.restore(rec["body"])
            t.status = rec["status"]
            t.work = rec["work"]
            t.frac_done = rec["frac_done"]
            t.wake_time = rec["wake_time"]
            if t.status == _SPINNING:
                spinning.append((rec["barrier_pos"], t))
        # Rebuild each barrier group's arrival list in recorded order.
        groups: dict[int, BarrierGroup] = {}
        by_group: dict[int, list[tuple[int, TaskState]]] = {}
        for pos, t in spinning:
            group = t.gen.barrier_group
            groups[id(group)] = group
            by_group.setdefault(id(group), []).append((pos, t))
        for gid, members in by_group.items():
            groups[gid]._waiting = [t for _pos, t in sorted(members)]
        by_tid = {t.tid: t for t in self._tasks}
        self._ready = [by_tid[tid] for tid in state["ready"]]

        by_seq = {tm.seq: tm for tm in self._timers}
        extra = [rec["seq"] for rec in state["timers"] if rec["seq"] not in by_seq]
        if extra:
            raise CheckpointError(
                f"snapshot contains timers the rebuild did not register "
                f"(seqs {extra}); the stack spec no longer matches"
            )
        snap_seqs = {rec["seq"] for rec in state["timers"]}
        for tm in self._timers:
            if tm.seq not in snap_seqs:
                tm.cancelled = True
        for rec in state["timers"]:
            tm = by_seq[rec["seq"]]
            tm.time = rec["time"]
            tm.period = rec["period"]
            tm.cancelled = rec["cancelled"]
        heapq.heapify(self._timers)
        self._next_tid = state["next_tid"]
        self._next_timer_seq = state["next_timer_seq"]
        self._free_cores = list(state["free_cores"])
