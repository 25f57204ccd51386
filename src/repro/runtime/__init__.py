"""Deterministic discrete-event execution runtime.

This subpackage provides the substrate on which the synthetic applications
run: a simulation clock (:mod:`repro.runtime.clock`), a fluid work-integration
engine (:mod:`repro.runtime.engine`) that advances compute/memory work at
rates determined by the node's current frequency, duty cycle, and memory
contention, plus MPI-like (:mod:`repro.runtime.mpi`) and OpenMP-like
(:mod:`repro.runtime.openmp`) programming surfaces, and a process-pool
run executor (:mod:`repro.runtime.executor`) that fans independent runs
out across workers which rebuild their stacks from picklable specs, and
the pure wall-to-simulated-time epoch budgeter
(:mod:`repro.runtime.pacing`) the daemon paces its service loop with.
Crash resumption and time travel live in :mod:`repro.runtime.runfile`:
one :class:`~repro.runtime.runfile.RunCheckpoint` envelope for every
epoch loop, and the epoch-stamped
:class:`~repro.runtime.runfile.CheckpointStore` directory format, and
the one checkpoint cadence rule (:func:`~repro.runtime.runfile
.checkpoint_due`) the loops share.
:mod:`repro.obs.hostclock` is the audited wall-clock the daemon's
pacing reads (it decides when an epoch runs; results invariant).
"""

from repro.runtime.clock import SimClock
from repro.runtime.runfile import (
    CheckpointStore,
    RunCheckpoint,
    checkpoint_due,
    load_run_checkpoint,
    resolve_checkpoint,
    save_run_checkpoint,
)
from repro.runtime.engine import (
    Barrier,
    Engine,
    Publish,
    Sleep,
    TaskState,
    Work,
)
from repro.runtime.executor import RunExecutor, derive_seed
from repro.runtime.pacing import EpochPacer

__all__ = [
    "SimClock",
    "Engine",
    "Work",
    "Sleep",
    "Barrier",
    "Publish",
    "TaskState",
    "EpochPacer",
    "RunExecutor",
    "derive_seed",
    "RunCheckpoint",
    "CheckpointStore",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "resolve_checkpoint",
    "checkpoint_due",
]
