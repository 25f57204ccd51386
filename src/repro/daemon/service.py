"""The daemon core: one shared cluster behind a request interface.

:class:`Daemon` is the transport-free heart of the service. It owns a
:class:`~repro.scheduler.scheduler.PowerAwareScheduler`, whose queue
and job records are the daemon's only job table, the outboxes of its
``watch`` subscriptions, and its checkpoint store. It has exactly one
owner and is not thread-safe: the
socket layer's single loop (:mod:`repro.daemon.server`) or a test
calls it, never several threads at once. Both drive it the same way:

* :meth:`handle` — serve one protocol request, return exactly one
  reply.
* :meth:`tick` — advance up to ``max_epochs`` simulated epochs.
  *Only* tick moves simulated time; requests between ticks see a
  frozen simulation.
* :meth:`drain_watch` — collect the telemetry frames owed to one
  ``watch`` subscription (its lifecycle events, then its stream
  frames).

Determinism: the daemon's observable behaviour is a pure function of
its config, the power book, and the *sequence* of admitted commands
between ticks. Wall time never enters — the server decides when ticks
happen, never what they compute — so a manual-tick replay of the same
command log reproduces the identical event trace and telemetry stream,
bit for bit (the e2e suite holds a daemon run to byte-equality with
the equivalent batch :meth:`PowerAwareScheduler.run`).

Admission is FIFO per priority: a ``run`` submits the job to the
scheduler at once, stamped with the current simulated time and the
request's priority, and the scheduler queue orders by
``(submit_time, -priority, seq)``. ``seq`` is the job's position in
:attr:`PowerAwareScheduler.records`, i.e. the order the owner serves
requests (over a socket: the server loop's service order). Only a tick
moves the clock, and every tick that leaves a job queued runs at least
one epoch, so the jobs sharing a submit time are exactly those admitted
between two ticks: each such group queues highest priority first, in
arrival order within a priority.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.daemon import protocol as proto
from repro.exceptions import ConfigurationError, ReproError
from repro.hardware.config import NodeConfig
from repro.scheduler.events import SchedulerEvent
from repro.scheduler.job import Job, JobState
from repro.scheduler.powerbook import PowerBook
from repro.scheduler.scheduler import PowerAwareScheduler, SchedulerConfig
from repro.runtime.runfile import (
    CheckpointStore,
    checkpoint_due,
    resolve_checkpoint,
)

__all__ = ["DaemonConfig", "Daemon"]

#: Reliable event outboxes are bounded too (a detached watcher must not
#: grow without limit); beyond this the oldest events are discarded.
_EVENT_OUTBOX_CAP = 10_000


@dataclass(frozen=True)
class DaemonConfig:
    """Static parameters of one daemon instance.

    Attributes
    ----------
    scheduler:
        The shared cluster's :class:`SchedulerConfig`.
    queue_capacity:
        Jobs that may wait in the scheduler queue before new
        submissions are rejected with a ``queue-full`` error.
    checkpoint_interval:
        Simulated epochs between epoch-stamped
        :class:`~repro.runtime.runfile.RunCheckpoint` saves into
        ``checkpoint_dir``; 0 disables.
    checkpoint_dir:
        Directory for the epoch-stamped checkpoint store
        (:class:`~repro.runtime.runfile.CheckpointStore`) that periodic
        and shutdown checkpoints are written to. The store keeps
        *every* epoch, enabling time-travel resume
        (``--resume-epoch``).
    """

    scheduler: SchedulerConfig
    queue_capacity: int = 64
    checkpoint_interval: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        checkpoint_due(self.checkpoint_interval,
                       self.checkpoint_dir or None)


class _Watcher:
    """One named ``watch`` subscription (outlives its connection).

    Two outboxes: ``events``, the reliable lifecycle events, and
    ``frames``, the stream frames whose topic starts with ``topic``.
    ``frames`` holds at most ``hwm``; at the bound a new frame is
    dropped and counted in ``overflowed`` (ZeroMQ's slow-consumer
    policy), so the frames kept are the oldest undrained ones. A
    detach clears ``frames``: a re-attach starts fresh.
    """

    __slots__ = ("watch_id", "topic", "hwm", "frames", "overflowed",
                 "want_events", "events", "events_lost", "attached")

    def __init__(self, watch_id: str, topic: str, hwm: int,
                 want_events: bool) -> None:
        self.watch_id = watch_id
        self.topic = topic
        self.hwm = hwm
        self.frames: deque = deque()
        self.overflowed = 0
        self.want_events = want_events
        self.events: deque = deque()
        self.events_lost = 0
        self.attached = True


class Daemon:
    """Service front of one power-aware simulated cluster.

    Single-owner and not thread-safe: one caller (the server loop, or
    a test) drives every method.

    Parameters
    ----------
    config:
        Daemon parameters (wrapping the scheduler's).
    powerbook:
        Shared application profiles; preload
        (:func:`repro.daemon.profiles.demo_book`) to skip live
        characterization on first submission.
    cfg:
        Baseline slot hardware configuration.
    """

    def __init__(self, config: DaemonConfig, powerbook: PowerBook,
                 cfg: NodeConfig | None = None) -> None:
        self.config = config
        self.scheduler = PowerAwareScheduler(config.scheduler, powerbook,
                                             cfg)
        self._watchers: dict[str, _Watcher] = {}
        self._shutdown = False
        self._run_store: CheckpointStore | None = None
        if config.checkpoint_dir:
            self._run_store = CheckpointStore(config.checkpoint_dir,
                                              kind="daemon")
        self.scheduler.add_listener(self._on_event)
        self.scheduler.add_epoch_listener(self._on_epoch)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(self, request: object) -> object:
        """Serve one protocol request; always returns one reply
        (failures become typed :class:`~repro.daemon.protocol.
        ErrorReply`\\ s, never exceptions — the transport must stay
        up)."""
        try:
            if isinstance(request, proto.RunRequest):
                return self._handle_run(request)
            if isinstance(request, proto.StatusRequest):
                return self._handle_status(request)
            if isinstance(request, proto.ListRequest):
                return self._handle_list()
            if isinstance(request, proto.KillRequest):
                return self._handle_kill(request)
            if isinstance(request, proto.WatchRequest):
                return self._handle_watch(request)
            if isinstance(request, proto.TickRequest):
                return self._handle_tick(request)
            if isinstance(request, proto.InfoRequest):
                return self._handle_info()
            if isinstance(request, proto.ShutdownRequest):
                return self._handle_shutdown()
            return proto.ErrorReply(
                code="bad-request",
                message=f"{type(request).__name__} is not a request")
        except ReproError as exc:
            return proto.ErrorReply(code="internal", message=str(exc))

    def _reject(self, code: str, message: str) -> proto.ErrorReply:
        obs.metrics().counter("daemon.rejected", code=code).inc()
        return proto.ErrorReply(code=code, message=message)

    def _handle_run(self, req: proto.RunRequest) -> object:
        if self._shutdown:
            return self._reject("bad-request", "daemon is shutting down")
        records = self.scheduler.records
        if req.job_id in records:
            return self._reject(
                "duplicate-job", f"job {req.job_id!r} was already "
                "submitted to this daemon")
        waiting = len(self.scheduler.queue)
        if waiting >= self.config.queue_capacity:
            return self._reject(
                "queue-full",
                f"{waiting} jobs already waiting "
                f"(capacity {self.config.queue_capacity})")
        try:
            job = Job(
                job_id=req.job_id,
                app_name=req.app_name,
                n_nodes=req.n_nodes,
                work_units=req.work_units,
                submit_time=self.scheduler.now,
                max_slowdown=req.max_slowdown,
                app_kwargs=dict(req.app_kwargs) if req.app_kwargs else None,
                priority=req.priority,
            )
        except (ConfigurationError, TypeError) as exc:
            return self._reject("bad-request", str(exc))
        try:
            ok, reason = self.scheduler.admissible(job)
        except ReproError as exc:
            return self._reject(
                "unknown-app",
                f"cannot characterize {req.app_name!r}: {exc}")
        if not ok:
            return self._reject("inadmissible", reason)
        self.scheduler.submit(job)
        seq = len(records) - 1
        metrics = obs.metrics()
        metrics.counter("daemon.admitted").inc()
        metrics.gauge("daemon.queue_depth").set(len(self.scheduler.queue))
        obs.tracer().instant("daemon.admit", job_id=req.job_id,
                             seq=seq, priority=req.priority)
        return proto.RunReply(job_id=req.job_id, seq=seq,
                              state=JobState.PENDING.value)

    def _handle_status(self, req: proto.StatusRequest) -> object:
        record = self.scheduler.records.get(req.job_id)
        if record is None:
            return self._reject("unknown-job",
                                f"unknown job {req.job_id!r}")
        job = record.job
        if record.state is JobState.COMPLETED:
            progress = job.work_units
        else:
            progress = record.progress
        return proto.StatusReply(
            job_id=job.job_id, state=record.state.value,
            n_nodes=job.n_nodes, work_units=job.work_units,
            progress=progress, submit_time=job.submit_time,
            start_time=_finite(record.start_time),
            end_time=_finite(record.end_time),
            cap=record.cap,
            measured_slowdown=_finite(record.measured_slowdown))

    def _handle_list(self) -> proto.ListReply:
        jobs = [{
            "job_id": job_id,
            "state": record.state.value,
            "app_name": record.job.app_name,
            "n_nodes": record.job.n_nodes,
            "priority": record.job.priority,
            "seq": seq,
        } for seq, (job_id, record)
            in enumerate(self.scheduler.records.items())]
        return proto.ListReply(now=self.scheduler.now, jobs=jobs)

    def _handle_kill(self, req: proto.KillRequest) -> object:
        record = self.scheduler.records.get(req.job_id)
        if record is None:
            return self._reject("unknown-job",
                                f"unknown job {req.job_id!r}")
        if record.state in (JobState.COMPLETED, JobState.KILLED):
            return self._reject(
                "not-active",
                f"job {req.job_id!r} is already {record.state.value}")
        was_running = record.state is JobState.RUNNING
        self.scheduler.cancel(req.job_id)
        obs.metrics().gauge("daemon.queue_depth").set(
            len(self.scheduler.queue))
        return proto.KillReply(job_id=req.job_id, was_running=was_running)

    def _handle_watch(self, req: proto.WatchRequest) -> object:
        watcher = self._watchers.get(req.watch_id)
        if watcher is not None:
            if watcher.attached:
                return self._reject(
                    "bad-request",
                    f"watch id {req.watch_id!r} is already attached")
            # Reconnect: ZeroMQ slow-joiner semantics — the stream
            # restarts fresh (detach cleared it), only the reliable
            # event backlog survives.
            watcher.attached = True
            return proto.WatchReply(watch_id=req.watch_id, resumed=True)
        # hwm=0 means the protocol default (the field's own default)
        hwm = req.hwm or proto.WatchRequest.hwm
        if hwm < 1:
            return self._reject("bad-request",
                                f"hwm must be >= 1, got {req.hwm}")
        watcher = _Watcher(req.watch_id, req.topic, hwm, req.events)
        self._watchers[req.watch_id] = watcher
        return proto.WatchReply(watch_id=req.watch_id, resumed=False)

    def _handle_tick(self, req: proto.TickRequest) -> object:
        if req.epochs < 1:
            return self._reject("bad-request",
                                f"epochs must be >= 1, got {req.epochs}")
        epochs = self.tick(req.epochs)
        return proto.TickReply(
            now=self.scheduler.now, epochs=epochs,
            running=self.scheduler.n_running,
            queued=len(self.scheduler.queue))

    def _handle_info(self) -> proto.InfoReply:
        states = [JobState.COMPLETED, JobState.KILLED]
        counts = {state: 0 for state in states}
        for record in self.scheduler.records.values():
            if record.state in counts:
                counts[record.state] += 1
        return proto.InfoReply(
            protocol=proto.PROTOCOL_VERSION,
            now=self.scheduler.now,
            epochs=self.scheduler.epochs_done,
            n_slots=self.config.scheduler.n_slots,
            power_budget=self.config.scheduler.power_budget,
            policy=self.config.scheduler.policy,
            queued=len(self.scheduler.queue),
            running=self.scheduler.n_running,
            completed=counts[JobState.COMPLETED],
            killed=counts[JobState.KILLED])

    def _handle_shutdown(self) -> proto.ShutdownReply:
        self._shutdown = True
        checkpointed = self._run_store is not None
        if checkpointed:
            self.checkpoint()
        return proto.ShutdownReply(checkpointed=checkpointed)

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    def tick(self, max_epochs: int = 1) -> int:
        """Run up to ``max_epochs`` scheduler steps, saving periodic
        checkpoints as :meth:`PowerAwareScheduler.run` does. Returns
        the epochs the tick completed, the one that drains the cluster
        included (0 when the cluster is idle — an idle daemon's
        simulated time stands still). This is the only method that
        moves simulated time."""
        scheduler = self.scheduler
        before = scheduler.epochs_done
        with obs.tracer().span("daemon.tick", queued=len(scheduler.queue),
                               max_epochs=max_epochs):
            for _ in range(max_epochs):
                if not scheduler.checkpointed_step(
                        self.config.checkpoint_interval, self.checkpoint):
                    break
        metrics = obs.metrics()
        metrics.gauge("daemon.queue_depth").set(len(scheduler.queue))
        metrics.gauge("daemon.telemetry_dropped").set(
            sum(w.overflowed for w in self._watchers.values()))
        return scheduler.epochs_done - before

    # ------------------------------------------------------------------
    # Scheduler listeners (called inside tick)
    # ------------------------------------------------------------------

    def _on_event(self, event: SchedulerEvent) -> None:
        kind = type(event).__name__
        if kind == "JobStarted":
            record = self.scheduler.records[event.job_id]
            obs.metrics().histogram("daemon.admit_wait_s").observe(
                record.wait_time)
        frame = proto.EventTelemetry(
            time=event.time, kind=kind, data=_event_data(event))
        for watcher in self._watchers.values():
            if not watcher.want_events:
                continue
            if len(watcher.events) >= _EVENT_OUTBOX_CAP:
                watcher.events.popleft()
                watcher.events_lost += 1
            watcher.events.append(frame)

    def _on_epoch(self, now: float, results: dict) -> None:
        """Fan out one progress frame per (job, node) for the epoch —
        the daemon's equivalent of the paper's per-node progress
        reports — plus the cluster's epoch power draw, to every
        attached watcher whose topic prefix matches."""
        frames = []
        epoch_energy = 0.0
        for job_id, by_node in results.items():
            for node_id, res in by_node.items():
                frames.append(proto.StreamTelemetry(
                    time=now, topic=f"progress/{job_id}/{node_id}",
                    value=float(res.cumulative)))
                epoch_energy += res.energy
        frames.append(proto.StreamTelemetry(
            time=now, topic="cluster/power",
            value=float(epoch_energy / self.config.scheduler.epoch)))
        for watcher in self._watchers.values():
            if not watcher.attached:
                continue
            for frame in frames:
                if not frame.topic.startswith(watcher.topic):
                    continue
                if len(watcher.frames) >= watcher.hwm:
                    watcher.overflowed += 1
                else:
                    watcher.frames.append(frame)

    # ------------------------------------------------------------------
    # Watch plumbing (server-facing)
    # ------------------------------------------------------------------

    def drain_watch(self, watch_id: str) -> list:
        """Frames owed to one subscription: the reliable event backlog
        first, then the queued stream frames. Called by the server at
        the end of each loop pass."""
        watcher = self._watchers.get(watch_id)
        if watcher is None:
            return []
        frames = [*watcher.events, *watcher.frames]
        watcher.events.clear()
        watcher.frames.clear()
        return frames

    def detach_watch(self, watch_id: str) -> None:
        """The connection owning ``watch_id`` went away: drop its queued
        stream frames (frames fanned out while detached are lost too —
        slow joiner on reconnect) but keep the watcher resumable."""
        watcher = self._watchers.get(watch_id)
        if watcher is None or not watcher.attached:
            return
        watcher.attached = False
        watcher.frames.clear()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> str:
        """Write an epoch-stamped checkpoint into the configured store
        (``checkpoint_dir``); returns the file path. Earlier epochs
        stay on disk, so the run can later be rewound (time travel).

        The file is the scheduler's own :meth:`~repro.scheduler
        .scheduler.PowerAwareScheduler.run_checkpoint` (queue, job
        records, power book and every running node), of kind
        ``"daemon"`` and carrying the :class:`DaemonConfig`. Watch
        subscriptions are connection-scoped and not saved; they only
        observe, so they cannot change a simulated result."""
        if self._run_store is None:
            raise ConfigurationError(
                "daemon has no checkpoint_dir configured")
        path = self._run_store.save(dataclasses.replace(
            self.scheduler.run_checkpoint(), kind="daemon",
            config=self.config))
        obs.tracer().instant("daemon.checkpoint", path=path,
                             epochs=self.scheduler.epochs_done)
        return path

    @classmethod
    def resume(cls, source: object, cfg: NodeConfig | None = None, *,
               epoch: int | None = None) -> "Daemon":
        """Rebuild a live daemon from a :meth:`checkpoint`.

        ``source`` and ``epoch`` work as for
        :meth:`PowerAwareScheduler.resume`: a checkpoint file, a store
        (or its directory) where ``epoch=N`` rewinds to the newest
        checkpoint at or before N, or a loaded ``RunCheckpoint``. The
        resumed daemon continues bit-for-bit: running nodes come back
        from their node checkpoints, queued jobs keep their order and
        the power book keeps its measured profiles.

        The daemon runs under the recorded :class:`DaemonConfig`, but
        one resumed from a store (or a store directory) saves into that
        store, wherever it has moved since it was recorded."""
        checkpoint = resolve_checkpoint(source, kind="daemon", epoch=epoch)
        config = checkpoint.config
        if isinstance(source, CheckpointStore):
            config = dataclasses.replace(config, checkpoint_dir=source.root)
        elif isinstance(source, str) and os.path.isdir(source):
            config = dataclasses.replace(config, checkpoint_dir=source)
        daemon = cls(config, PowerBook(cfg), cfg)
        daemon.scheduler.restore(checkpoint.state)
        return daemon

    def close(self) -> None:
        """Tear down the scheduler's shard workers."""
        self.scheduler.close()


def _finite(value: float | None) -> float | None:
    """NaN-free wire value (JSON has no NaN; absent means absent)."""
    if value is None or math.isnan(value):
        return None
    return float(value)


def _event_data(event: SchedulerEvent) -> dict:
    """A scheduler event's payload as JSON-safe primitives."""
    data = dataclasses.asdict(event)
    data.pop("time", None)
    for key, value in data.items():
        if isinstance(value, float) and math.isnan(value):
            data[key] = None
        elif isinstance(value, tuple):
            data[key] = list(value)
    return data
