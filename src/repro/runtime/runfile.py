"""One checkpoint-file format for every epoch loop.

A :class:`RunCheckpoint` is the single on-disk envelope every epoch
loop — :class:`~repro.cluster.simulation.ClusterSimulation`,
:class:`~repro.scheduler.scheduler.PowerAwareScheduler`, and the
:class:`~repro.daemon.service.Daemon` — writes and resumes from. The
envelope is deliberately thin:

* ``kind`` names the producing loop (``"cluster"`` / ``"scheduler"`` /
  ``"daemon"``), so a resume cannot silently install the wrong state
  (a daemon file holds a scheduler payload under its own kind);
* ``epoch`` / ``now`` locate the checkpoint on the run's timeline
  (``epoch`` also names the file inside a :class:`CheckpointStore`);
* ``config`` carries the producing loop's picklable configuration;
* ``state`` is the loop's own versioned ``snapshot()`` payload — the
  envelope never interprets it, so each layer evolves its schema
  independently behind its own ``version`` key.

Writes are atomic (temp file + ``os.replace``): a crash mid-write
leaves the previous file intact, which is the whole point of periodic
checkpointing — there is always a consistent file to resume from.

:class:`CheckpointStore` manages a *directory* of epoch-stamped
checkpoints. Keeping more than the latest file is what turns crash
resumption into time travel: :meth:`CheckpointStore.rewind` returns the
newest checkpoint at-or-before a requested epoch, and each loop's
``resume(source, epoch=N)`` replays from it under the same — or a
different — policy. :func:`checkpoint_due` is the one cadence rule the
loops save on.
"""

from __future__ import annotations

import os
import pickle
import re
from dataclasses import dataclass

from repro.exceptions import CheckpointError, ConfigurationError

__all__ = [
    "RUN_CHECKPOINT_VERSION",
    "RUN_KINDS",
    "RunCheckpoint",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "resolve_checkpoint",
    "checkpoint_due",
    "CheckpointStore",
]

#: Schema version of the :class:`RunCheckpoint` envelope itself; the
#: per-layer ``state`` payloads carry their own ``version`` keys and
#: evolve independently.
RUN_CHECKPOINT_VERSION = 1

#: The epoch loops that write checkpoints.
RUN_KINDS = ("cluster", "scheduler", "daemon")

_STORE_FILE_RE = re.compile(r"^epoch-(\d{8})\.ckpt$")


@dataclass(frozen=True)
class RunCheckpoint:
    """One resumable point of one epoch loop.

    Attributes
    ----------
    version:
        Envelope schema version (:data:`RUN_CHECKPOINT_VERSION`).
    kind:
        The producing loop: ``"cluster"``, ``"scheduler"`` or
        ``"daemon"``.
    epoch:
        Epochs the loop had completed when the checkpoint was taken
        (names the file inside a :class:`CheckpointStore`).
    now:
        Simulated time at the checkpoint.
    config:
        The loop's picklable configuration (a frozen dataclass or a
        plain dict of provenance values, layer-dependent).
    state:
        The loop's own ``snapshot()`` payload, opaque to the envelope.
    """

    version: int
    kind: str
    epoch: int
    now: float
    config: object
    state: dict


def save_run_checkpoint(checkpoint: RunCheckpoint, path: str) -> str:
    """Atomically pickle ``checkpoint`` to ``path``; returns ``path``."""
    if checkpoint.kind not in RUN_KINDS:
        raise ConfigurationError(
            f"checkpoint kind must be one of {RUN_KINDS}, "
            f"got {checkpoint.kind!r}")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_run_checkpoint(path: str, *,
                        kind: str | None = None) -> RunCheckpoint:
    """Read and validate one checkpoint file.

    ``kind`` (when given) pins the expected producing loop — resuming a
    cluster run from a daemon checkpoint fails loudly instead of
    mis-restoring.
    """
    try:
        with open(path, "rb") as fh:
            checkpoint = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise CheckpointError(
            f"cannot read run checkpoint {path!r}: {exc}") from exc
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path!r} does not hold a RunCheckpoint "
            f"(got {type(checkpoint).__name__})")
    if checkpoint.version != RUN_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"run checkpoint {path!r} has envelope version "
            f"{checkpoint.version}; this build reads "
            f"{RUN_CHECKPOINT_VERSION}")
    if kind is not None and checkpoint.kind != kind:
        raise CheckpointError(
            f"run checkpoint {path!r} was written by a "
            f"{checkpoint.kind!r} loop, expected {kind!r}")
    return checkpoint


class CheckpointStore:
    """A directory of epoch-stamped :class:`RunCheckpoint` files.

    Files are named ``epoch-<NNNNNNNN>.ckpt``; one file per distinct
    epoch (re-saving an epoch atomically replaces it). The store is the
    unit both crash resumption (:meth:`latest`) and time travel
    (:meth:`rewind`) operate on. The store holds one timeline: saving
    epoch N drops every stored epoch after N, so a run resumed from an
    earlier checkpoint replaces the future it abandoned.

    Parameters
    ----------
    root:
        Directory path; created if missing.
    kind:
        When set, every save and load is pinned to this checkpoint
        kind.
    """

    def __init__(self, root: str, *, kind: str | None = None) -> None:
        if kind is not None and kind not in RUN_KINDS:
            raise ConfigurationError(
                f"kind must be one of {RUN_KINDS}, got {kind!r}")
        self.root = root
        self.kind = kind
        os.makedirs(root, exist_ok=True)

    def path_for(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch-{epoch:08d}.ckpt")

    def save(self, checkpoint: RunCheckpoint) -> str:
        """Write ``checkpoint`` under its epoch; returns the path.

        Afterwards the returned file exists and :meth:`latest` is this
        checkpoint: stored epochs newer than it belong to an abandoned
        timeline and are dropped.
        """
        if self.kind is not None and checkpoint.kind != self.kind:
            raise CheckpointError(
                f"store {self.root!r} holds {self.kind!r} checkpoints; "
                f"refusing a {checkpoint.kind!r} one")
        path = save_run_checkpoint(checkpoint, self.path_for(checkpoint.epoch))
        for epoch in self.epochs():
            if epoch > checkpoint.epoch:
                os.remove(self.path_for(epoch))
        return path

    def epochs(self) -> list[int]:
        """Stored epochs, ascending."""
        out = []
        for name in os.listdir(self.root):
            match = _STORE_FILE_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def load(self, epoch: int) -> RunCheckpoint:
        return load_run_checkpoint(self.path_for(epoch), kind=self.kind)

    def latest(self) -> RunCheckpoint | None:
        """The newest stored checkpoint, or None on an empty store."""
        epochs = self.epochs()
        if not epochs:
            return None
        return self.load(epochs[-1])

    def rewind(self, epoch: int) -> RunCheckpoint:
        """The newest checkpoint at-or-before ``epoch`` (time travel).

        Raises :class:`CheckpointError` when nothing that early exists.
        """
        candidates = [e for e in self.epochs() if e <= epoch]
        if not candidates:
            raise CheckpointError(
                f"store {self.root!r} holds no checkpoint at or before "
                f"epoch {epoch} (stored: {self.epochs()})")
        return self.load(max(candidates))

    def __len__(self) -> int:
        return len(self.epochs())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CheckpointStore({self.root!r}, kind={self.kind!r}, "
                f"n={len(self)})")


def resolve_checkpoint(source, *, kind: str,
                       epoch: int | None = None) -> RunCheckpoint:
    """Turn any checkpoint source into one validated RunCheckpoint.

    ``source`` may be a :class:`RunCheckpoint`, a
    :class:`CheckpointStore`, a store *directory* path, or a single
    checkpoint *file* path. For stores, ``epoch=None`` selects the
    latest checkpoint and ``epoch=N`` the newest at-or-before N
    (time travel); for single checkpoints a non-None ``epoch`` must
    match exactly. Every resume path — cluster, scheduler, daemon —
    funnels through here, so they all accept the same sources.
    """
    store = None
    if isinstance(source, CheckpointStore):
        store = source
    elif isinstance(source, str) and not os.path.isfile(source):
        if not os.path.isdir(source):
            raise CheckpointError(
                f"no checkpoints at {source!r}: no such file or directory")
        store = CheckpointStore(source, kind=kind)
    if store is not None:
        if epoch is None:
            checkpoint = store.latest()
            if checkpoint is None:
                raise CheckpointError(
                    f"store {store.root!r} holds no checkpoints")
        else:
            checkpoint = store.rewind(epoch)
    elif isinstance(source, str):
        checkpoint = load_run_checkpoint(source, kind=kind)
    elif isinstance(source, RunCheckpoint):
        checkpoint = source
    else:
        raise ConfigurationError(
            f"cannot resolve a checkpoint from {type(source).__name__}")
    if checkpoint.kind != kind:
        raise CheckpointError(
            f"expected a {kind!r} checkpoint, got {checkpoint.kind!r}")
    if store is None and epoch is not None and checkpoint.epoch != epoch:
        raise CheckpointError(
            f"checkpoint is from epoch {checkpoint.epoch}, not {epoch}")
    return checkpoint


def checkpoint_due(every: int, store, epochs: int | None = None) -> bool:
    """The checkpoint cadence every epoch loop shares.

    ``every`` is the number of completed epochs between periodic saves
    (0 = none) and must be >= 0; a positive ``every`` needs a ``store``
    to save into (anything but None). Called right after an epoch
    completes, with the loop's completed-epoch count as ``epochs``, it
    answers whether to save now: after each ``every``-th epoch. Called
    without ``epochs`` it only validates, so a loop can reject a bad
    cadence before its first epoch.
    """
    if every < 0:
        raise ConfigurationError(
            f"checkpoint cadence must be >= 0 epochs, got {every}")
    if every and store is None:
        raise ConfigurationError(
            f"checkpointing every {every} epochs needs a checkpoint store")
    return epochs is not None and every > 0 and epochs % every == 0
