"""The run-checkpoint file layer: envelope validation, atomic writes,
the epoch-stamped store, source resolution (file / dir / store /
in-memory checkpoint), and the checkpoint cadence every loop shares."""

import dataclasses
import os
import pickle

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.runfile import (
    RUN_CHECKPOINT_VERSION,
    CheckpointStore,
    RunCheckpoint,
    checkpoint_due,
    load_run_checkpoint,
    resolve_checkpoint,
    save_run_checkpoint,
)


def ckpt(epoch=0, kind="cluster", now=None):
    return RunCheckpoint(
        version=RUN_CHECKPOINT_VERSION, kind=kind, epoch=epoch,
        now=float(epoch) if now is None else now,
        config={"n_nodes": 2}, state={"version": 1, "payload": epoch})


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        assert save_run_checkpoint(ckpt(3), path) == path
        loaded = load_run_checkpoint(path)
        assert loaded == ckpt(3)

    def test_rejects_unknown_kind_on_save(self, tmp_path):
        with pytest.raises(ConfigurationError, match="kind"):
            save_run_checkpoint(ckpt(kind="banana"),
                                str(tmp_path / "x.ckpt"))

    def test_atomic_no_temp_left(self, tmp_path):
        save_run_checkpoint(ckpt(), str(tmp_path / "run.ckpt"))
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_run_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_not_a_run_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="RunCheckpoint"):
            load_run_checkpoint(str(path))

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError):
            load_run_checkpoint(str(path))

    def test_envelope_version_mismatch(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps(
            dataclasses.replace(ckpt(), version=99)))
        with pytest.raises(CheckpointError, match="99"):
            load_run_checkpoint(str(path))

    def test_kind_pinning(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_run_checkpoint(ckpt(kind="scheduler"), path)
        assert load_run_checkpoint(path, kind="scheduler").kind == \
            "scheduler"
        with pytest.raises(CheckpointError, match="scheduler"):
            load_run_checkpoint(path, kind="cluster")


class TestCheckpointStore:
    def test_file_naming(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "s"))
        assert store.path_for(7).endswith("epoch-00000007.ckpt")

    def test_creates_root(self, tmp_path):
        root = tmp_path / "deep" / "store"
        CheckpointStore(str(root))
        assert root.is_dir()

    def test_save_and_epochs_sorted(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        # written out of order behind the store's back (save() would
        # drop the epochs after 2), so epochs() must do the sorting
        for epoch in (4, 2, 8):
            save_run_checkpoint(ckpt(epoch), store.path_for(epoch))
        assert store.epochs() == [2, 4, 8]
        assert len(store) == 3

    def test_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "epoch-junk.ckpt").write_text("hi")
        store = CheckpointStore(str(tmp_path))
        store.save(ckpt(1))
        assert store.epochs() == [1]

    def test_latest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.latest() is None
        store.save(ckpt(2))
        store.save(ckpt(5))
        assert store.latest().epoch == 5

    def test_rewind_picks_newest_at_or_before(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for epoch in (2, 4, 6):
            store.save(ckpt(epoch))
        assert store.rewind(5).epoch == 4
        assert store.rewind(4).epoch == 4
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.rewind(1)

    def test_save_after_rewind_drops_abandoned_timeline(self, tmp_path):
        """A run resumed from epoch 2 saves epoch 3 into a store that
        still holds 4 and 6: the saved file must survive the pruning,
        and latest() must be the new timeline, not the old epoch 6."""
        store = CheckpointStore(str(tmp_path))
        for epoch in (2, 4, 6):
            store.save(ckpt(epoch))
        path = store.save(ckpt(3))
        assert os.path.exists(path)
        assert store.latest().epoch == 3
        assert store.epochs() == [2, 3]

    def test_kind_pinned_store_refuses_other_kind(self, tmp_path):
        store = CheckpointStore(str(tmp_path), kind="cluster")
        with pytest.raises(CheckpointError, match="daemon"):
            store.save(ckpt(kind="daemon"))
        with pytest.raises(ConfigurationError):
            CheckpointStore(str(tmp_path), kind="banana")

    def test_resave_same_epoch_replaces(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(ckpt(3, now=3.0))
        store.save(ckpt(3, now=30.0))
        assert store.epochs() == [3]
        assert store.load(3).now == 30.0


class TestResolveCheckpoint:
    def test_passthrough(self):
        c = ckpt(2)
        assert resolve_checkpoint(c, kind="cluster") is c

    def test_passthrough_wrong_kind(self):
        with pytest.raises(CheckpointError, match="cluster"):
            resolve_checkpoint(ckpt(kind="daemon"), kind="cluster")

    def test_file_path(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_run_checkpoint(ckpt(4), path)
        assert resolve_checkpoint(path, kind="cluster").epoch == 4
        with pytest.raises(CheckpointError, match="epoch 4"):
            resolve_checkpoint(path, kind="cluster", epoch=3)

    def test_store_object_and_dir_path(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for epoch in (2, 4):
            store.save(ckpt(epoch))
        assert resolve_checkpoint(store, kind="cluster").epoch == 4
        assert resolve_checkpoint(str(tmp_path),
                                  kind="cluster").epoch == 4
        assert resolve_checkpoint(str(tmp_path), kind="cluster",
                                  epoch=3).epoch == 2

    def test_empty_store(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            resolve_checkpoint(str(tmp_path / "empty"), kind="cluster")

    def test_missing_path_is_not_created(self, tmp_path):
        missing = tmp_path / "typo.ckpt"
        with pytest.raises(CheckpointError, match="no such file"):
            resolve_checkpoint(str(missing), kind="cluster")
        assert not missing.exists()

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            resolve_checkpoint(42, kind="cluster")


class TestCheckpointDue:
    def test_due_after_each_nth_epoch(self):
        store = object()
        due = [n for n in range(1, 10) if checkpoint_due(3, store, n)]
        assert due == [3, 6, 9]

    def test_zero_is_never_due(self):
        assert not any(checkpoint_due(0, None, n) for n in range(1, 5))

    def test_validation_only_call(self):
        assert checkpoint_due(2, object()) is False


def _cluster_run(every):
    from repro.cluster import ClusterSimulation, UniformPowerPolicy

    sim = ClusterSimulation(1, "lammps", UniformPowerPolicy(100.0),
                            app_kwargs={"n_workers": 2})
    try:
        sim.run(2.0, checkpoint_every=every)
    finally:
        sim.close()


def _scheduler_config():
    from repro.scheduler import SchedulerConfig

    return SchedulerConfig(n_slots=1, power_budget=100.0)


def _scheduler_run(every):
    from repro.scheduler import PowerAwareScheduler, PowerBook

    sched = PowerAwareScheduler(_scheduler_config(), PowerBook())
    try:
        sched.run(checkpoint_every=every)
    finally:
        sched.close()


def _daemon_config(every):
    from repro.daemon import DaemonConfig

    DaemonConfig(scheduler=_scheduler_config(), checkpoint_interval=every)


@pytest.mark.parametrize("start", [_cluster_run, _scheduler_run,
                                   _daemon_config],
                         ids=["cluster", "scheduler", "daemon"])
def test_every_loop_needs_a_store_to_checkpoint(start):
    """All three epoch loops reject a positive cadence without a store,
    and a negative one, through the one shared rule."""
    with pytest.raises(ConfigurationError, match="needs a checkpoint store"):
        start(2)
    with pytest.raises(ConfigurationError, match=">= 0"):
        start(-1)
