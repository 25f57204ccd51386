"""Crash-resumable persistence for the daemon.

A long-running service must survive its host: the daemon periodically
(every ``checkpoint_interval`` epochs, and on clean shutdown) writes a
:class:`~repro.runtime.runfile.RunCheckpoint` of kind ``"daemon"``
into its epoch-stamped ``checkpoint_dir`` store —
its config, epoch and tick counters, the power book's measured
profiles, and a full mid-run
:meth:`~repro.scheduler.scheduler.PowerAwareScheduler.snapshot`
(which carries the job queue, every job record, and a
:class:`~repro.stack.checkpoint.NodeCheckpoint` for every running
node; the scheduler is the daemon's only job table).
:func:`resume_daemon` rebuilds the whole service from the store and
continues *bit-for-bit*: same placements, same caps, same telemetry
values. The store keeps every epoch, which also enables time travel —
resume from epoch N rather than the latest file (``--resume-epoch``).

The envelope is the repo-wide one (:mod:`repro.runtime.runfile`), so
the same tooling reads cluster, scheduler, and daemon checkpoints, and
a daemon resume can never silently install a cluster file. The daemon's
own payload lives in ``state`` behind its own
:data:`DAEMON_STATE_VERSION`.

What is deliberately **not** persisted:

* watch subscriptions — they are connection-scoped; clients reconnect
  and re-enter as slow joiners, exactly as after any disconnect;
* the telemetry bus's loss-process state — a resumed daemon restarts
  the drop RNG from its seed. Simulation results never depend on the
  bus (it is observe-only), so this cannot affect parity.

Writes are atomic (temp file + ``os.replace``), so a crash mid-write
leaves the previous checkpoint intact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.daemon import protocol as proto
from repro.exceptions import CheckpointError, check_snapshot_version
from repro.hardware.config import NodeConfig
from repro.runtime.runfile import (
    RUN_CHECKPOINT_VERSION,
    RunCheckpoint,
    resolve_checkpoint,
)
from repro.scheduler.powerbook import AppPowerProfile, PowerBook

if TYPE_CHECKING:  # runtime import would be circular
    from repro.daemon.service import Daemon

__all__ = ["DAEMON_STATE_VERSION", "build_run_checkpoint",
           "resume_daemon"]

#: Schema version of the daemon's ``state`` payload inside the
#: :class:`RunCheckpoint` envelope; bump on layout change.
DAEMON_STATE_VERSION = 3


def build_run_checkpoint(daemon: "Daemon") -> RunCheckpoint:
    """The daemon's full mid-run state as a ``"daemon"`` checkpoint."""
    state = {
        "version": DAEMON_STATE_VERSION,
        "protocol": proto.PROTOCOL_VERSION,
        "epochs": daemon.epochs,
        "ticks": daemon.ticks,
        "book_profiles": dict(daemon.book._profiles),
        "book_n_workers": daemon.book.n_workers,
        "book_seed": daemon.book.seed,
        "scheduler": daemon.scheduler.snapshot(),
    }
    return RunCheckpoint(
        version=RUN_CHECKPOINT_VERSION,
        kind="daemon",
        epoch=daemon.epochs,
        now=daemon.scheduler.now,
        config=daemon.config,
        state=state,
    )


def resume_daemon(source: object, cfg: NodeConfig | None = None, *,
                  epoch: int | None = None) -> "Daemon":
    """Rebuild a live :class:`~repro.daemon.service.Daemon` from a
    checkpoint.

    ``source`` is anything :func:`~repro.runtime.runfile
    .resolve_checkpoint` accepts: a checkpoint file path, a store
    directory (or :class:`~repro.runtime.runfile.CheckpointStore`), or
    a loaded :class:`RunCheckpoint`. With a store, ``epoch`` rewinds to
    the newest checkpoint at-or-before that epoch (time travel);
    ``None`` resumes the latest.

    The resumed daemon continues exactly where the checkpointed one
    stopped: running nodes are reinstalled from their node checkpoints,
    queued jobs keep their queue order, and the power book keeps its
    measured profiles (no re-characterization).
    """
    from repro.daemon.service import Daemon

    checkpoint = resolve_checkpoint(source, kind="daemon", epoch=epoch)
    state = checkpoint.state
    check_snapshot_version(state, DAEMON_STATE_VERSION, "Daemon")
    book = PowerBook(cfg, n_workers=state["book_n_workers"],
                     seed=state["book_seed"])
    for profile in state["book_profiles"].values():
        if not isinstance(profile, AppPowerProfile):
            raise CheckpointError(
                f"checkpoint power book holds a "
                f"{type(profile).__name__}, not an AppPowerProfile")
        book.preload(profile)
    daemon = Daemon(checkpoint.config, book, cfg)
    daemon.scheduler.restore(state["scheduler"])
    daemon.clock.advance_to(daemon.scheduler.now)
    daemon.epochs = state["epochs"]
    daemon.ticks = state["ticks"]
    return daemon
