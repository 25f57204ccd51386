"""Tests for the scheduler's job model and submission queue."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.scheduler import Job, JobQueue, JobRecord


def _job(job_id="j0", **kwargs):
    defaults = dict(app_name="lammps", n_nodes=2, work_units=100.0)
    defaults.update(kwargs)
    return Job(job_id=job_id, **defaults)


class TestJob:
    def test_valid_job(self):
        job = _job(max_slowdown=0.2, submit_time=5.0)
        assert job.eco
        assert job.n_nodes == 2

    def test_rigid_job_is_not_eco(self):
        assert not _job().eco

    @pytest.mark.parametrize("kwargs", [
        {"job_id": ""},
        {"n_nodes": 0},
        {"work_units": 0.0},
        {"work_units": -5.0},
        {"submit_time": -1.0},
        {"max_slowdown": 0.0},
        {"max_slowdown": 1.0},
        {"max_slowdown": -0.2},
        {"priority": 1.5},
        {"priority": True},
        {"priority": None},
    ])
    def test_rejects_bad_fields(self, kwargs):
        base = dict(job_id="j0", app_name="lammps", n_nodes=1,
                    work_units=10.0)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            Job(**base)


class TestJobRecord:
    def test_derived_times(self):
        rec = JobRecord(job=_job(submit_time=2.0))
        rec.start_time = 5.0
        rec.end_time = 15.0
        rec.node_power = 60.0
        assert rec.wait_time == pytest.approx(3.0)
        assert rec.run_time == pytest.approx(10.0)
        assert rec.demand == pytest.approx(120.0)

    def test_within_tolerance_semantics(self):
        rigid = JobRecord(job=_job())
        assert rigid.within_tolerance  # no tolerance declared

        eco = JobRecord(job=_job(max_slowdown=0.2))
        assert not eco.within_tolerance  # not measured yet
        eco.measured_slowdown = 0.19
        assert eco.within_tolerance
        eco.measured_slowdown = 0.21
        assert not eco.within_tolerance

    def test_prediction_error_is_absolute(self):
        rec = JobRecord(job=_job(max_slowdown=0.2))
        rec.predicted_slowdown = 0.10
        rec.measured_slowdown = 0.14
        assert rec.prediction_error == pytest.approx(0.04)
        assert math.isnan(JobRecord(job=_job()).measured_rate)


class TestJobQueue:
    def test_fifo_order_within_same_submit_time(self):
        q = JobQueue()
        for i in range(3):
            q.submit(_job(f"j{i}"))
        assert [j.job_id for j in q.visible(0.0)] == ["j0", "j1", "j2"]

    def test_ordered_by_submit_time_first(self):
        q = JobQueue()
        q.submit(_job("late", submit_time=10.0))
        q.submit(_job("early", submit_time=1.0))
        assert [j.job_id for j in q] == ["early", "late"]

    def test_priority_orders_equal_submit_times(self):
        q = JobQueue()
        q.submit(_job("late-high", submit_time=2.0, priority=9))
        q.submit(_job("low0", submit_time=1.0))
        q.submit(_job("high0", submit_time=1.0, priority=5))
        q.submit(_job("low1", submit_time=1.0))
        q.submit(_job("high1", submit_time=1.0, priority=5))
        q.submit(_job("first", submit_time=0.0, priority=-3))
        # earlier submit times first; then priority, FIFO within it
        assert [j.job_id for j in q] == [
            "first", "high0", "high1", "low0", "low1", "late-high"]

    def test_restored_queue_keeps_order_and_sequence(self):
        q = JobQueue()
        q.submit(_job("low"))
        q.submit(_job("high", priority=1))
        restored = JobQueue()
        restored.restore(q.snapshot())
        restored.submit(_job("high-later", priority=1))
        assert [j.job_id for j in restored] == ["high", "high-later", "low"]

    def test_visibility_follows_clock(self):
        q = JobQueue()
        q.submit(_job("now", submit_time=0.0))
        q.submit(_job("later", submit_time=7.5))
        assert [j.job_id for j in q.visible(5.0)] == ["now"]
        assert [j.job_id for j in q.visible(7.5)] == ["now", "later"]
        assert q.next_arrival(5.0) == pytest.approx(7.5)
        assert q.next_arrival(8.0) is None

    def test_remove_and_duplicates(self):
        q = JobQueue()
        q.submit(_job("a"))
        with pytest.raises(ConfigurationError):
            q.submit(_job("a"))
        removed = q.remove("a")
        assert removed.job_id == "a"
        assert not q
        with pytest.raises(ConfigurationError):
            q.remove("a")
