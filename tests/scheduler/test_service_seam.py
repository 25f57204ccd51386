"""Tests for the scheduler's service seam (added for repro.daemon):
incremental stepping, cancellation, listeners, and mid-run
snapshot/restore."""

import pickle

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.scheduler import (
    JobKilled,
    JobState,
    PowerAwareScheduler,
    PowerBook,
)

from tests.scheduler.test_scheduler import make_book, make_config, make_job

pytestmark = pytest.mark.slow


def make_sched(**kwargs):
    return PowerAwareScheduler(make_config(**kwargs), make_book())


class TestStep:
    def test_step_loop_equals_run(self):
        jobs = [make_job("a", n_nodes=2, tol=0.3),
                make_job("b", seconds=2.0),
                make_job("c", tol=0.25, submit=3.0)]
        ref = make_sched()
        for job in jobs:
            ref.submit(job)
        ref_report = ref.run()

        stepped = make_sched()
        for job in jobs:
            stepped.submit(job)
        while stepped.step():
            pass
        report = stepped._report()
        assert report.makespan == ref_report.makespan
        assert report.total_energy == ref_report.total_energy
        assert [(type(e).__name__, e.time) for e in stepped.events] == \
            [(type(e).__name__, e.time) for e in ref.events]

    def test_step_on_drained_cluster_is_false_and_free(self):
        sched = make_sched()
        assert sched.step() is False
        assert sched.now == 0.0

    def test_n_running_property(self):
        sched = make_sched()
        sched.submit(make_job("a", seconds=3.0))
        assert sched.n_running == 0
        sched.step()
        assert sched.n_running == 1


class TestListeners:
    def test_event_listener_sees_every_logged_event(self):
        sched = make_sched()
        seen = []
        sched.add_listener(seen.append)
        sched.submit(make_job("a", n_nodes=2, tol=0.3))
        sched.run()
        assert seen == list(sched.events)

    def test_epoch_listener_includes_final_epoch(self):
        sched = make_sched()
        samples = []
        sched.add_epoch_listener(
            lambda now, results: samples.append((now, {
                j: {n: r.cumulative for n, r in by_node.items()}
                for j, by_node in results.items()})))
        sched.submit(make_job("a", seconds=2.5))
        sched.run()
        # one sample per epoch, including the job's completion epoch
        assert len(samples) == 3
        assert "a" in samples[-1][1]
        final = max(samples[-1][1]["a"].values())
        assert final >= make_job("a", seconds=2.5).work_units

    def test_record_progress_is_slowest_node(self):
        sched = make_sched()
        floors = []
        sched.add_epoch_listener(lambda now, results: floors.append(
            min(r.cumulative for r in results["a"].values())))
        sched.submit(make_job("a", n_nodes=2, seconds=3.5))
        assert sched.records["a"].progress == 0.0
        sched.step()
        sched.step()
        assert sched.records["a"].progress == floors[-1] > floors[0]


class TestCancel:
    def test_cancel_queued_job(self):
        sched = make_sched(n_slots=1)
        sched.submit(make_job("runs", seconds=5.0))
        sched.submit(make_job("waits", seconds=5.0))
        sched.step()
        record = sched.cancel("waits")
        assert record.state is JobState.KILLED
        kills = [e for e in sched.events if isinstance(e, JobKilled)]
        assert kills == [JobKilled(time=sched.now, job_id="waits",
                                   was_running=False)]
        sched.run()
        assert sched.records["runs"].state is JobState.COMPLETED

    def test_cancel_running_job_frees_capacity(self):
        sched = make_sched(n_slots=2)
        sched.submit(make_job("hog", n_nodes=2, seconds=60.0))
        sched.submit(make_job("next", n_nodes=2, seconds=2.5))
        sched.step()
        sched.step()
        record = sched.cancel("hog")
        assert record.state is JobState.KILLED
        assert record.end_time == sched.now
        sched.run()
        assert sched.records["next"].state is JobState.COMPLETED

    def test_cancel_unknown_or_finished_raises(self):
        sched = make_sched()
        with pytest.raises(ConfigurationError):
            sched.cancel("ghost")
        sched.submit(make_job("a"))
        sched.run()
        with pytest.raises(ConfigurationError):
            sched.cancel("a")


class TestSnapshotRestore:
    def test_midrun_snapshot_restores_bit_identically(self):
        jobs = [make_job("a", n_nodes=2, tol=0.3),
                make_job("b", seconds=2.0)]
        ref = make_sched()
        for job in jobs:
            ref.submit(job)
        ref.run()

        source = make_sched()
        for job in jobs:
            source.submit(job)
        source.step()
        source.step()
        blob = pickle.dumps(source.snapshot())
        source.close()

        target = make_sched()
        target.restore(pickle.loads(blob))
        while target.step():
            pass
        for job_id in ("a", "b"):
            got, want = target.records[job_id], ref.records[job_id]
            assert got.end_time == want.end_time
            assert got.measured_rate == want.measured_rate
            assert got.energy == want.energy
        assert target.now == ref.now
        assert list(target.power_series.values) == \
            list(ref.power_series.values)

    def test_restore_requires_fresh_scheduler(self):
        source = make_sched()
        source.submit(make_job("a"))
        source.step()
        state = source.snapshot()
        dirty = make_sched()
        dirty.submit(make_job("other"))
        with pytest.raises(CheckpointError):
            dirty.restore(state)

    def test_snapshot_does_not_alias_live_records(self):
        sched = make_sched()
        sched.submit(make_job("a"))
        sched.step()
        state = sched.snapshot()
        sched.run()
        assert state["records"]["a"].state is JobState.RUNNING

    def test_snapshot_carries_the_power_book(self):
        source = make_sched()
        source.submit(make_job("a"))
        source.step()
        state = source.snapshot()
        target = PowerAwareScheduler(make_config(), PowerBook(seed=9))
        target.restore(state)
        assert target.book.known() == ["lammps"]
        assert (target.book.n_workers, target.book.seed) == (4, 0)
        assert target.book.profile("lammps") == \
            source.book.profile("lammps")

    def test_foreign_profile_refused(self):
        state = make_sched().snapshot()
        state["book_profiles"] = [("lammps", 1.0)]
        with pytest.raises(CheckpointError, match="AppPowerProfile"):
            make_sched().restore(state)

    def test_version_2_snapshot_refused(self):
        # version 2 carried no power book: a KeyError here would mean
        # the layout check came too late
        state = make_sched().snapshot()
        for key in ("book_n_workers", "book_seed", "book_profiles"):
            del state[key]
        state["version"] = 2
        with pytest.raises(CheckpointError, match="version 2"):
            make_sched().restore(state)

    def test_snapshot_version_checked(self):
        sched = make_sched()
        state = sched.snapshot()
        state["version"] = 99
        with pytest.raises(CheckpointError):
            make_sched().restore(state)
