"""Submission queue for the cluster scheduler.

A deterministic queue keyed by ``(submit_time, -priority, submission
order)``: jobs with the same arrival time queue highest priority first,
FIFO within a priority (all batch jobs have priority 0, so a batch
queue is plain FIFO by arrival). Jobs become *visible* to the scheduler
once the simulated clock reaches their ``submit_time``, and within the
visible set the scheduling policy (FCFS or backfill, see
:mod:`repro.scheduler.scheduler`) decides who starts. The queue itself
never reorders — backfill walks the visible list but leaves queue order
untouched, so waiting-time accounting stays honest.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.scheduler.job import Job

__all__ = ["JobQueue"]


class JobQueue:
    """Submitted-but-not-started jobs, in queue order."""

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._seq: dict[str, int] = {}
        self._next_seq = 0

    def submit(self, job: Job) -> None:
        """Enqueue a job; order is (submit_time, -priority, submission
        sequence)."""
        if job.job_id in self._seq:
            raise ConfigurationError(f"job {job.job_id!r} already submitted")
        self._seq[job.job_id] = self._next_seq
        self._next_seq += 1
        self._jobs.append(job)
        self._jobs.sort(key=lambda j: (j.submit_time, -j.priority,
                                       self._seq[j.job_id]))

    def visible(self, now: float) -> list[Job]:
        """Jobs whose submit_time has arrived, in queue order (a copy)."""
        return [j for j in self._jobs if j.submit_time <= now + 1e-12]

    def next_arrival(self, now: float) -> float | None:
        """Earliest future submit_time, or None if nothing is pending."""
        future = [j.submit_time for j in self._jobs
                  if j.submit_time > now + 1e-12]
        return min(future) if future else None

    def remove(self, job_id: str) -> Job:
        """Remove a queued job (when the scheduler starts it)."""
        for i, job in enumerate(self._jobs):
            if job.job_id == job_id:
                return self._jobs.pop(i)
        raise ConfigurationError(f"job {job_id!r} is not queued")

    def snapshot(self) -> dict:
        """Picklable queue state: the queued jobs (frozen dataclasses,
        by reference) plus the submission-sequence bookkeeping that
        keeps the queue order stable across a restore."""
        return {"version": 1, "jobs": list(self._jobs),
                "seq": dict(self._seq), "next_seq": self._next_seq}

    def restore(self, state: dict) -> None:
        from repro.exceptions import check_snapshot_version

        check_snapshot_version(state, 1, "JobQueue")
        self._jobs = list(state["jobs"])
        self._seq = dict(state["seq"])
        self._next_seq = state["next_seq"]

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self):
        return iter(list(self._jobs))
