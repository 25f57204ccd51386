"""Daemon core tests: admission (including many concurrent clients
over a socket), lifecycle, telemetry fan-out, and determinism."""

import dataclasses
import threading

import pytest

from repro import obs
from repro.daemon import protocol as proto
from repro.daemon.client import DaemonClient
from repro.scheduler import JobState

from tests.daemon.conftest import (
    drain,
    make_daemon,
    run_request,
    serving,
)

pytestmark = pytest.mark.slow


class TestAdmission:
    def test_run_reply_carries_sequence(self, daemon):
        r1 = daemon.handle(run_request("a"))
        r2 = daemon.handle(run_request("b"))
        assert isinstance(r1, proto.RunReply) and r1.seq == 0
        assert r2.seq == 1
        assert r1.state == "pending"

    def test_duplicate_job_rejected(self, daemon):
        daemon.handle(run_request("a"))
        reply = daemon.handle(run_request("a"))
        assert isinstance(reply, proto.ErrorReply)
        assert reply.code == "duplicate-job"

    def test_queue_full_typed_rejection(self):
        daemon = make_daemon(queue_capacity=2)
        try:
            assert isinstance(daemon.handle(run_request("a")),
                              proto.RunReply)
            assert isinstance(daemon.handle(run_request("b")),
                              proto.RunReply)
            reply = daemon.handle(run_request("c"))
            assert isinstance(reply, proto.ErrorReply)
            assert reply.code == "queue-full"
        finally:
            daemon.close()

    def test_inadmissible_job_rejected_at_boundary(self, daemon):
        reply = daemon.handle(run_request("big", n_nodes=99))
        assert isinstance(reply, proto.ErrorReply)
        assert reply.code == "inadmissible"
        # the rejection left no trace: the id is reusable
        assert isinstance(daemon.handle(run_request("big")),
                          proto.RunReply)

    def test_impossible_power_demand_rejected(self):
        daemon = make_daemon(
            scheduler_kwargs=dict(power_budget=50.0, min_cap=55.0))
        try:
            reply = daemon.handle(run_request("hungry", tol=0.3))
            assert isinstance(reply, proto.ErrorReply)
            assert reply.code == "inadmissible"
        finally:
            daemon.close()

    def test_malformed_job_is_bad_request(self, daemon):
        reply = daemon.handle(proto.RunRequest(
            job_id="x", app_name="lammps", n_nodes=0, work_units=1e5))
        assert isinstance(reply, proto.ErrorReply)
        assert reply.code == "bad-request"

    def test_pending_status_reports_submit_time(self, daemon):
        daemon.handle(run_request("first", n_nodes=4, seconds=4.5))
        daemon.tick(2)
        daemon.handle(run_request("second"))
        status = daemon.handle(proto.StatusRequest(job_id="second"))
        assert (status.state, status.submit_time, status.progress,
                status.start_time) == ("pending", 2.0, 0.0, None)

    def test_non_integer_priority_is_bad_request(self, daemon):
        reply = daemon.handle(dataclasses.replace(run_request("x"),
                                                  priority=1.5))
        assert reply.code == "bad-request"
        assert len(daemon.scheduler.queue) == 0

    def test_non_request_object_is_bad_request(self, daemon):
        reply = daemon.handle(proto.RunReply(job_id="x", seq=0,
                                             state="pending"))
        assert isinstance(reply, proto.ErrorReply)
        assert reply.code == "bad-request"


class TestConcurrentAdmission:
    """The concurrency contract over a real socket: N clients
    submitting at once to one server lose nothing, duplicate nothing,
    and drain FIFO per priority."""

    N_CLIENTS = 8
    PER_CLIENT = 4

    def _submit_storm(self, path, priority_of):
        barrier = threading.Barrier(self.N_CLIENTS)
        replies = {}

        def worker(t):
            with DaemonClient(socket_path=path, timeout=30.0) as client:
                barrier.wait()
                for i in range(self.PER_CLIENT):
                    job_id = f"t{t}-{i}"
                    replies[job_id] = client.request(
                        run_request(job_id, seconds=2.5,
                                    priority=priority_of(t, i)))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return replies

    def test_no_lost_or_duplicated_submissions(self, tmp_path):
        with serving(tmp_path, queue_capacity=64) as (_d, path):
            replies = self._submit_storm(path, lambda t, i: 0)
            with DaemonClient(socket_path=path, timeout=30.0) as client:
                listed = client.list()
        assert all(isinstance(r, proto.RunReply)
                   for r in replies.values())
        seqs = sorted(r.seq for r in replies.values())
        assert seqs == list(range(self.N_CLIENTS * self.PER_CLIENT))
        assert len(listed.jobs) == self.N_CLIENTS * self.PER_CLIENT
        assert len({j["job_id"] for j in listed.jobs}) == len(listed.jobs)

    def test_fifo_within_priority_across_threads(self, tmp_path):
        with serving(tmp_path, queue_capacity=64) as (daemon, path):
            # clients 0-3 submit priority 0, clients 4-7 priority 5
            replies = self._submit_storm(
                path, lambda t, i: 5 if t >= 4 else 0)
        # never ticked: every job is still queued
        queued = [j.job_id for j in daemon.scheduler.queue]
        by_seq = {jid: replies[jid].seq for jid in queued}
        high = [jid for jid in queued
                if jid.startswith(("t4", "t5", "t6", "t7"))]
        low = [jid for jid in queued if jid not in set(high)]
        assert len(queued) == self.N_CLIENTS * self.PER_CLIENT
        # all high-priority jobs queue first ...
        assert queued[:len(high)] == high
        # ... and each band is FIFO in admission-sequence order
        assert [by_seq[j] for j in high] == sorted(by_seq[j] for j in high)
        assert [by_seq[j] for j in low] == sorted(by_seq[j] for j in low)

    def test_capacity_enforced_under_contention(self, tmp_path):
        capacity = 10
        with serving(tmp_path, queue_capacity=capacity) as (_d, path):
            replies = self._submit_storm(path, lambda t, i: 0)
            # the accepted set still runs to completion
            with DaemonClient(socket_path=path, timeout=30.0) as client:
                while client.tick(50).epochs:
                    pass
                info = client.info()
        accepted = [r for r in replies.values()
                    if isinstance(r, proto.RunReply)]
        rejected = [r for r in replies.values()
                    if isinstance(r, proto.ErrorReply)]
        assert len(accepted) == capacity
        assert len(rejected) == \
            self.N_CLIENTS * self.PER_CLIENT - capacity
        assert {r.code for r in rejected} == {"queue-full"}
        assert info.completed == capacity


class TestLifecycle:
    def test_jobs_complete_and_report(self, daemon):
        daemon.handle(run_request("eco", n_nodes=2, tol=0.3))
        daemon.handle(run_request("rigid", n_nodes=1))
        drain(daemon)
        for job_id in ("eco", "rigid"):
            status = daemon.handle(proto.StatusRequest(job_id=job_id))
            assert status.state == "completed"
            assert status.progress == status.work_units
            assert status.end_time > 0.0
        eco = daemon.handle(proto.StatusRequest(job_id="eco"))
        assert eco.cap is not None and eco.measured_slowdown <= 0.3

    def test_status_of_unknown_job(self, daemon):
        reply = daemon.handle(proto.StatusRequest(job_id="ghost"))
        assert reply.code == "unknown-job"

    def test_kill_buffered_job(self, daemon):
        # killed before its first tick: a scheduler cancel, with a
        # record and both lifecycle events
        daemon.handle(proto.WatchRequest(watch_id="w", events=True))
        daemon.handle(run_request("doomed"))
        reply = daemon.handle(proto.KillRequest(job_id="doomed"))
        assert reply == proto.KillReply(job_id="doomed",
                                        was_running=False)
        status = daemon.handle(proto.StatusRequest(job_id="doomed"))
        assert status.state == JobState.KILLED.value
        assert daemon.handle(proto.InfoRequest()).killed == 1
        events = [(f.kind, f.data["job_id"])
                  for f in daemon.drain_watch("w")
                  if isinstance(f, proto.EventTelemetry)]
        assert events == [("JobSubmitted", "doomed"),
                          ("JobKilled", "doomed")]
        assert daemon.handle(
            proto.KillRequest(job_id="doomed")).code == "not-active"
        assert daemon.tick(5) == 0  # the queue is empty

    def test_kill_running_job_frees_slots(self, daemon):
        daemon.handle(run_request("victim", n_nodes=4, seconds=50.0))
        daemon.handle(run_request("heir", n_nodes=4, seconds=2.5))
        daemon.tick(2)
        reply = daemon.handle(proto.KillRequest(job_id="victim"))
        assert reply.was_running
        drain(daemon)
        assert daemon.handle(
            proto.StatusRequest(job_id="heir")).state == "completed"

    def test_kill_completed_job_is_not_active(self, daemon):
        daemon.handle(run_request("done"))
        drain(daemon)
        reply = daemon.handle(proto.KillRequest(job_id="done"))
        assert reply.code == "not-active"

    def test_kill_unknown_job(self, daemon):
        assert daemon.handle(
            proto.KillRequest(job_id="ghost")).code == "unknown-job"

    def test_info_counts(self, daemon):
        daemon.handle(run_request("a"))
        daemon.handle(run_request("b"))
        daemon.handle(proto.KillRequest(job_id="b"))
        drain(daemon)
        info = daemon.handle(proto.InfoRequest())
        assert (info.completed, info.killed, info.queued,
                info.running) == (1, 1, 0, 0)
        assert info.protocol == proto.PROTOCOL_VERSION

    def test_idle_daemon_time_stands_still(self, daemon):
        assert daemon.tick(10) == 0
        assert daemon.scheduler.now == 0.0


class TestWatch:
    def test_progress_frames_per_node_per_epoch(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w", topic="progress",
                                         events=False))
        daemon.handle(run_request("j", n_nodes=2, seconds=3.5))
        taken = daemon.tick(2)
        frames = daemon.drain_watch("w")
        assert len(frames) == 2 * taken  # two nodes, one frame each
        topics = {f.topic for f in frames}
        assert topics == {"progress/j/0", "progress/j/1"}
        assert all(isinstance(f, proto.StreamTelemetry) for f in frames)
        # cumulative progress is non-decreasing per node
        per_node = [f.value for f in frames if f.topic.endswith("/0")]
        assert per_node == sorted(per_node)

    def test_event_side_channel(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w", events=True))
        daemon.handle(run_request("j", seconds=2.5))
        drain(daemon)
        kinds = [f.kind for f in daemon.drain_watch("w")
                 if isinstance(f, proto.EventTelemetry)]
        assert kinds[0] == "JobSubmitted"
        assert "JobStarted" in kinds and "JobCompleted" in kinds

    def test_late_watcher_is_slow_joiner(self, daemon):
        daemon.handle(run_request("j", seconds=4.5))
        daemon.tick(2)
        daemon.handle(proto.WatchRequest(watch_id="late",
                                         events=False))
        daemon.tick(1)
        frames = daemon.drain_watch("late")
        # only the epoch after joining is seen
        assert {f.time for f in frames} == {3.0}

    def test_hwm_bounds_undrained_watcher(self):
        """At the hwm a new frame is dropped and counted, so an
        undrained watch keeps the first frames, not the latest."""
        session = obs.enable(obs.ObsSession())
        daemon = make_daemon()
        try:
            daemon.handle(proto.WatchRequest(watch_id="w", hwm=2,
                                             events=False))
            daemon.handle(run_request("j", seconds=6.5))
            assert daemon.tick(5) == 5  # 5 frames, the queue holds 2
            frames = daemon.drain_watch("w")
            assert [f.time for f in frames] == [1.0, 2.0]
            dropped = session.metrics.gauge("daemon.telemetry_dropped")
            assert dropped.value == 3
        finally:
            obs.disable()
            daemon.close()

    def test_detach_then_reconnect_loses_interim(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w", events=False))
        daemon.handle(run_request("j", seconds=6.5))
        daemon.tick(1)
        daemon.detach_watch("w")
        daemon.tick(2)  # published into the void
        reply = daemon.handle(proto.WatchRequest(watch_id="w"))
        assert reply == proto.WatchReply(watch_id="w", resumed=True)
        daemon.tick(1)
        frames = daemon.drain_watch("w")
        assert {f.time for f in frames} == {4.0}

    def test_attached_watch_id_is_busy(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w"))
        reply = daemon.handle(proto.WatchRequest(watch_id="w"))
        assert reply.code == "bad-request"

    def test_zero_hwm_gets_protocol_default(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w", hwm=0,
                                         topic="cluster", events=False))
        daemon.handle(run_request("j", seconds=50.0))
        daemon.tick(5)
        assert len(daemon.drain_watch("w")) == 5

    def test_negative_hwm_is_bad_request(self, daemon):
        reply = daemon.handle(proto.WatchRequest(watch_id="w", hwm=-1))
        assert reply.code == "bad-request"
        # the refused watch left nothing behind: the id is free
        assert isinstance(daemon.handle(proto.WatchRequest(watch_id="w")),
                          proto.WatchReply)

    def test_reattach_drops_stale_backlog(self, daemon):
        """Frames queued but never drained before a detach are not
        replayed to the re-attached watch."""
        daemon.handle(proto.WatchRequest(watch_id="w", events=False))
        daemon.handle(run_request("j", seconds=6.5))
        daemon.tick(2)  # two frames queued, never drained
        daemon.detach_watch("w")
        daemon.handle(proto.WatchRequest(watch_id="w"))
        assert daemon.drain_watch("w") == []

    def test_reattach_keeps_overflow_count(self):
        """The overflow count describes the watch's lifetime, not one
        connection."""
        session = obs.enable(obs.ObsSession())
        daemon = make_daemon()
        try:
            daemon.handle(proto.WatchRequest(watch_id="w", hwm=1,
                                             events=False))
            daemon.handle(run_request("j", seconds=6.5))
            daemon.tick(3)  # one frame kept, two dropped
            daemon.detach_watch("w")
            daemon.handle(proto.WatchRequest(watch_id="w"))
            daemon.tick(1)  # fits the fresh queue
            dropped = session.metrics.gauge("daemon.telemetry_dropped")
            assert dropped.value == 2
        finally:
            obs.disable()
            daemon.close()

    def test_reattach_does_not_duplicate_delivery(self, daemon):
        daemon.handle(proto.WatchRequest(watch_id="w", events=False))
        daemon.handle(run_request("j", n_nodes=2, seconds=6.5))
        daemon.detach_watch("w")
        daemon.handle(proto.WatchRequest(watch_id="w"))
        daemon.tick(1)
        frames = daemon.drain_watch("w")
        assert sorted(f.topic for f in frames) == \
            ["progress/j/0", "progress/j/1"]


class TestDeterminism:
    def test_same_command_log_same_stream(self):
        def run_once():
            daemon = make_daemon()
            try:
                daemon.handle(proto.WatchRequest(watch_id="w"))
                daemon.handle(run_request("a", n_nodes=2, tol=0.3,
                                          seconds=3.5))
                daemon.handle(run_request("b", seconds=2.5))
                frames = []
                while daemon.tick(3):
                    frames.extend(daemon.drain_watch("w"))
                frames.extend(daemon.drain_watch("w"))
                events = [(type(e).__name__, e.time)
                          for e in daemon.scheduler.events]
                return frames, events
            finally:
                daemon.close()

        first, second = run_once(), run_once()
        assert first == second
