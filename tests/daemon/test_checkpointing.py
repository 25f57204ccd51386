"""Daemon persistence: periodic checkpoints into the epoch-stamped
store, crash resume, parity."""

import dataclasses
import os
import pickle

import pytest

from repro.daemon import protocol as proto
from repro.daemon.service import Daemon
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.runfile import CheckpointStore, load_run_checkpoint

from tests.daemon.conftest import drain, make_daemon, run_request

pytestmark = pytest.mark.slow

JOBS = [
    dict(job_id="eco2", n_nodes=2, seconds=3.0, tol=0.3),
    dict(job_id="rigid", n_nodes=1, seconds=2.0),
    dict(job_id="eco1", n_nodes=2, seconds=2.5, tol=0.25),
]


def submit_all(daemon):
    for spec in JOBS:
        spec = dict(spec)
        reply = daemon.handle(run_request(spec.pop("job_id"), **spec))
        assert isinstance(reply, proto.RunReply), reply


def final_statuses(daemon):
    return [daemon.handle(proto.StatusRequest(job_id=s["job_id"]))
            for s in JOBS]


def stored_checkpoint(tmp_path):
    """A fresh daemon's checkpoint in a store: (store dir, file path,
    loaded checkpoint) — for corrupting the file behind the store."""
    root = str(tmp_path / "store")
    daemon = make_daemon(checkpoint_dir=root)
    try:
        path = daemon.checkpoint()
    finally:
        daemon.close()
    return root, path, load_run_checkpoint(path, kind="daemon")


class TestPeriodicCheckpoint:
    def test_written_at_cadence(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=root)
        try:
            store = CheckpointStore(root, kind="daemon")
            submit_all(daemon)
            assert store.epochs() == []
            daemon.tick(1)
            assert store.epochs() == []
            daemon.tick(1)
            assert store.epochs() == [2]
            daemon.tick(2)
            assert store.epochs() == [2, 4]
        finally:
            daemon.close()

    def test_tick_counts_the_draining_epoch(self, daemon):
        daemon.handle(run_request("only", seconds=2.5))
        assert daemon.tick(40) == 3
        info = daemon.handle(proto.InfoRequest())
        assert info.epochs == daemon.scheduler.epochs_done == 3
        assert daemon.tick(40) == 0

    def test_draining_epoch_is_checkpointed(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=1, checkpoint_dir=root)
        try:
            daemon.handle(run_request("only", seconds=2.5))
            daemon.tick(40)
            assert CheckpointStore(root, kind="daemon").epochs() == \
                [1, 2, 3]
        finally:
            daemon.close()

    def test_stamps_match_the_scheduler_across_drains(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=root)
        try:
            for k in range(3):
                daemon.handle(run_request(f"round-{k}", seconds=2.5))
                drain(daemon)
            store = CheckpointStore(root, kind="daemon")
            assert store.epochs() == [2, 4, 6, 8]
            for epoch in store.epochs():
                checkpoint = store.load(epoch)
                assert checkpoint.epoch == checkpoint.state["epochs"]
        finally:
            daemon.close()

    def test_explicit_checkpoint_without_path_raises(self, daemon):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            daemon.checkpoint()


class TestResume:
    def test_crash_resume_matches_uninterrupted_run(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=root)
        submit_all(daemon)
        daemon.tick(3)  # periodic checkpoint fired at epoch 2
        daemon.close()  # "crash": epoch 3 is lost with the process

        resumed = Daemon.resume(root)
        try:
            assert resumed.scheduler.now == 2.0
            assert resumed.scheduler.epochs_done == 2
            drain(resumed)
            resumed_statuses = final_statuses(resumed)
        finally:
            resumed.close()

        control = make_daemon()
        try:
            submit_all(control)
            drain(control)
            control_statuses = final_statuses(control)
        finally:
            control.close()

        # bit-identical outcomes: same completion times, slowdowns,
        # progress — the resumed run is indistinguishable
        assert resumed_statuses == control_statuses

    def test_buffered_submissions_survive(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_dir=root)
        submit_all(daemon)  # never ticked: all three still buffered
        daemon.handle(proto.ShutdownRequest())
        daemon.close()

        resumed = Daemon.resume(root)
        try:
            assert len(resumed.handle(proto.ListRequest()).jobs) == 3
            drain(resumed)
            assert all(s.state == "completed"
                       for s in final_statuses(resumed))
        finally:
            resumed.close()

    def test_admission_sequence_continues(self, tmp_path):
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_dir=root)
        submit_all(daemon)
        daemon.checkpoint()
        daemon.close()
        resumed = Daemon.resume(root)
        try:
            reply = resumed.handle(run_request("late"))
            assert reply.seq == len(JOBS)  # no seq reuse after resume
            dup = resumed.handle(run_request("rigid"))
            assert dup.code == "duplicate-job"
        finally:
            resumed.close()

    def test_mixed_priority_queue_survives_resume(self, tmp_path):
        mixed = [("lo-a", 0), ("hi-a", 5), ("lo-b", 0), ("mid", 2),
                 ("hi-b", 5)]

        def start(daemon):
            # a 4-node job holds every slot, so the rest stay queued
            daemon.handle(run_request("blocker", n_nodes=4,
                                      seconds=2.5))
            daemon.tick(1)
            for job_id, priority in mixed:
                reply = daemon.handle(run_request(
                    job_id, n_nodes=2, seconds=1.5, priority=priority))
                assert isinstance(reply, proto.RunReply), reply

        def statuses(daemon):
            return [daemon.handle(proto.StatusRequest(job_id=job_id))
                    for job_id in ["blocker"] + [j for j, _ in mixed]]

        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_dir=root)
        start(daemon)
        order = [j.job_id for j in daemon.scheduler.queue]
        assert order == ["hi-a", "hi-b", "mid", "lo-a", "lo-b"]
        daemon.checkpoint()
        daemon.close()

        resumed = Daemon.resume(root)
        try:
            assert [j.job_id for j in resumed.scheduler.queue] == order
            drain(resumed)
            resumed_statuses = statuses(resumed)
        finally:
            resumed.close()

        control = make_daemon()
        try:
            start(control)
            drain(control)
            assert resumed_statuses == statuses(control)
        finally:
            control.close()
        assert all(s.state == "completed" for s in resumed_statuses)

    def test_shutdown_checkpoints_when_configured(self, tmp_path):
        # off the interval cadence: shutdown still saves the epoch the
        # daemon stopped at
        root = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=root)
        try:
            submit_all(daemon)
            daemon.tick(3)
            reply = daemon.handle(proto.ShutdownRequest())
            assert reply == proto.ShutdownReply(checkpointed=True)
            store = CheckpointStore(root, kind="daemon")
            assert store.epochs() == [2, 3]
            assert store.latest().epoch == 3
        finally:
            daemon.close()

    def test_shutdown_without_path(self, daemon):
        assert daemon.handle(proto.ShutdownRequest()) == \
            proto.ShutdownReply(checkpointed=False)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            Daemon.resume(str(tmp_path / "nope"))

    def test_not_a_checkpoint(self, tmp_path):
        root, path, _ = stored_checkpoint(tmp_path)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError):
            Daemon.resume(root)

    def test_envelope_version_mismatch(self, tmp_path):
        root, path, checkpoint = stored_checkpoint(tmp_path)
        stale = dataclasses.replace(checkpoint, version=99)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(stale))
        with pytest.raises(CheckpointError, match="99"):
            Daemon.resume(root)

    def test_state_version_mismatch(self, tmp_path):
        root, path, checkpoint = stored_checkpoint(tmp_path)
        stale = dataclasses.replace(
            checkpoint,
            state={**checkpoint.state,
                   "version": checkpoint.state["version"] + 1})
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(stale))
        with pytest.raises(CheckpointError):
            Daemon.resume(root)

    def test_buffered_admission_state_refused(self, tmp_path):
        # version 2 kept the daemon's own admission buffer and job table
        root, path, checkpoint = stored_checkpoint(tmp_path)
        stale = dataclasses.replace(
            checkpoint,
            state={**checkpoint.state, "version": 2, "seq": 0,
                   "meta": [], "progress": {}})
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(stale))
        with pytest.raises(CheckpointError, match="version 2"):
            Daemon.resume(root)

    def test_wrapped_scheduler_state_refused(self, tmp_path):
        # version 3 wrapped a version-2 scheduler snapshot in a daemon
        # payload of its own, beside the daemon's counters and book
        root, path, checkpoint = stored_checkpoint(tmp_path)
        inner = {key: value for key, value in checkpoint.state.items()
                 if not key.startswith("book_")}
        stale = dataclasses.replace(checkpoint, state={
            "version": 3, "protocol": proto.PROTOCOL_VERSION,
            "epochs": 0, "ticks": 0, "book_profiles": {},
            "book_n_workers": 4, "book_seed": 1,
            "scheduler": {**inner, "version": 2}})
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(stale))
        with pytest.raises(CheckpointError, match="version 3"):
            Daemon.resume(root)

    def test_wrong_kind_rejected(self, tmp_path):
        root, path, checkpoint = stored_checkpoint(tmp_path)
        wrong = dataclasses.replace(checkpoint, kind="cluster")
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(wrong))
        with pytest.raises(CheckpointError, match="cluster"):
            Daemon.resume(root)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        root, path, _ = stored_checkpoint(tmp_path)
        assert os.listdir(root) == [os.path.basename(path)]


class TestRunStore:
    """The epoch-stamped ``checkpoint_dir`` store: periodic saves,
    latest-resume, and time travel (``--resume-epoch``)."""

    def test_epoch_stamped_files_accumulate(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        try:
            submit_all(daemon)
            daemon.tick(5)
            store = CheckpointStore(str(root), kind="daemon")
            assert store.epochs() == [2, 4]
        finally:
            daemon.close()

    def test_resume_latest_matches_uninterrupted(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.tick(5)  # checkpoints at 2 and 4; epoch 5 is lost
        daemon.close()

        resumed = Daemon.resume(str(root))
        try:
            assert resumed.scheduler.epochs_done == 4
            drain(resumed)
            resumed_statuses = final_statuses(resumed)
        finally:
            resumed.close()

        control = make_daemon()
        try:
            submit_all(control)
            drain(control)
            assert resumed_statuses == final_statuses(control)
        finally:
            control.close()

    def test_rewind_to_earlier_epoch(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(root))
        submit_all(daemon)
        daemon.tick(6)
        daemon.close()

        rewound = Daemon.resume(str(root), epoch=3)
        try:
            # newest checkpoint at-or-before 3 is epoch 2
            assert rewound.scheduler.epochs_done == 2
            drain(rewound)
            rewound_statuses = final_statuses(rewound)
        finally:
            rewound.close()

        control = make_daemon()
        try:
            submit_all(control)
            drain(control)
            assert rewound_statuses == final_statuses(control)
        finally:
            control.close()

    @pytest.mark.parametrize("as_store", [False, True],
                             ids=["directory", "store"])
    def test_resume_saves_into_the_moved_store(self, tmp_path, as_store):
        """A store moved after it was written keeps the run's later
        epochs: the resumed daemon saves where it resumed from, not
        into the recorded directory."""
        old, new = tmp_path / "a", tmp_path / "b"
        daemon = make_daemon(checkpoint_interval=2,
                             checkpoint_dir=str(old))
        submit_all(daemon)
        daemon.tick(2)  # checkpoint at epoch 2
        daemon.close()
        os.rename(old, new)

        source = CheckpointStore(str(new), kind="daemon") if as_store \
            else str(new)
        resumed = Daemon.resume(source)
        try:
            resumed.tick(2)  # epoch 4 is due
        finally:
            resumed.close()
        assert CheckpointStore(str(new), kind="daemon").epochs() == [2, 4]
        assert not old.exists()

    def test_shutdown_writes_to_store(self, tmp_path):
        root = tmp_path / "store"
        daemon = make_daemon(checkpoint_dir=str(root))
        try:
            reply = daemon.handle(proto.ShutdownRequest())
            assert reply == proto.ShutdownReply(checkpointed=True)
            assert len(CheckpointStore(str(root), kind="daemon")) == 1
        finally:
            daemon.close()
