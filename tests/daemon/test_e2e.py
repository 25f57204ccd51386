"""End-to-end acceptance tests over a real Unix-domain socket.

The ISSUE's bar: a daemon serving >= 4 concurrent clients against one
shared simulated cluster must (a) complete every job, (b) stream
progress that matches the equivalent batch
:class:`PowerAwareScheduler` run *bit-identically* (loss and latency
disabled), and (c) survive a kill + ``--resume`` from the last
periodic checkpoint with the remaining jobs finishing correctly.
"""

import threading

import pytest

from repro.daemon import protocol as proto
from repro.daemon.client import DaemonClient
from repro.daemon.profiles import DEMO_LAMMPS_RATE, demo_book
from repro.daemon.service import Daemon
from repro.scheduler import Job, PowerAwareScheduler

from tests.daemon.conftest import make_daemon, start_server

pytestmark = pytest.mark.slow

#: (job_id, n_nodes, seconds-of-uncapped-progress, tolerance)
WORKLOAD = [
    ("alpha", 2, 3.0, 0.30),
    ("bravo", 1, 2.0, None),
    ("charlie", 2, 2.5, 0.25),
    ("delta", 1, 3.5, None),
]


def submit_concurrently(path, workload):
    """One client thread per job, all submitting simultaneously.
    Returns {job_id: RunReply}."""
    barrier = threading.Barrier(len(workload))
    replies = {}

    def submit(job_id, n_nodes, seconds, tol):
        with DaemonClient(socket_path=path, timeout=30.0) as client:
            barrier.wait()
            replies[job_id] = client.run(
                job_id, "lammps", n_nodes=n_nodes,
                work_units=seconds * DEMO_LAMMPS_RATE,
                max_slowdown=tol,
                app_kwargs={"n_steps": 1_000_000})

    threads = [threading.Thread(target=submit, args=spec)
               for spec in workload]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(isinstance(r, proto.RunReply) for r in replies.values()), \
        replies
    return replies


def batch_equivalent(replies, workload):
    """The same workload on a plain batch scheduler, submitted in the
    daemon's admission order, capturing the identical per-epoch
    progress samples through the epoch listener."""
    order = sorted(workload, key=lambda spec: replies[spec[0]].seq)
    sched = PowerAwareScheduler(make_daemon().config.scheduler,
                                demo_book())
    samples = []
    sched.add_epoch_listener(
        lambda now, results: samples.extend(
            (now, f"progress/{job_id}/{node_id}", res.cumulative)
            for job_id, by_node in results.items()
            for node_id, res in by_node.items()))
    for job_id, n_nodes, seconds, tol in order:
        sched.submit(Job(
            job_id=job_id, app_name="lammps", n_nodes=n_nodes,
            work_units=seconds * DEMO_LAMMPS_RATE, submit_time=0.0,
            max_slowdown=tol, app_kwargs={"n_steps": 1_000_000}))
    sched.run()
    records = {job_id: sched.records[job_id]
               for job_id, *_ in workload}
    sched.close()
    return samples, records


class TestConcurrentClientsMatchBatch:
    def test_four_clients_one_cluster_bit_identical_stream(
            self, tmp_path):
        daemon = make_daemon()  # loss/latency disabled by default
        server, thread, path = start_server(daemon, tmp_path)
        try:
            with DaemonClient(socket_path=path, timeout=30.0) as watcher:
                watcher.watch("w", topic="progress", hwm=100_000,
                              events=False)
                replies = submit_concurrently(path, WORKLOAD)
                with DaemonClient(socket_path=path,
                                  timeout=30.0) as driver:
                    while True:
                        info = driver.info()
                        if info.queued == 0 and info.running == 0 and \
                                info.completed + info.killed == \
                                len(WORKLOAD):
                            break
                        driver.tick(5)
                    streamed = [
                        (f.time, f.topic, f.value)
                        for f in watcher.frames(wall_budget=30.0,
                                                idle=1.0)
                        if isinstance(f, proto.StreamTelemetry)
                    ]
                    statuses = {jid: driver.status(jid)
                                for jid, *_ in WORKLOAD}
                    driver.shutdown()
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            daemon.close()

        assert all(s.state == "completed" for s in statuses.values())

        expected_samples, expected_records = batch_equivalent(
            replies, WORKLOAD)
        # every (epoch, node) progress value, in publish order,
        # bit-identical to the batch run
        assert streamed == expected_samples
        for job_id, record in expected_records.items():
            status = statuses[job_id]
            assert status.end_time == record.end_time
            assert status.measured_slowdown == record.measured_slowdown
            assert status.cap == record.cap


class TestKillAndResume:
    def test_resume_from_periodic_checkpoint_finishes_workload(
            self, tmp_path):
        store = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_interval=2, checkpoint_dir=store)
        server, thread, path = start_server(daemon, tmp_path)
        try:
            replies = submit_concurrently(path, WORKLOAD)
            with DaemonClient(socket_path=path, timeout=30.0) as driver:
                driver.tick(3)  # checkpoint fired at epoch 2
        finally:
            # hard kill: no shutdown request, no final checkpoint —
            # everything after epoch 2 dies with the server
            server.shutdown()
            thread.join(timeout=5.0)
            daemon.close()

        resumed = Daemon.resume(store)
        server2, thread2, path2 = start_server(resumed, tmp_path,
                                               name="resumed.sock")
        try:
            with DaemonClient(socket_path=path2, timeout=30.0) as c:
                assert c.info().now == 2.0
                while True:
                    info = c.info()
                    if info.queued == 0 and info.running == 0:
                        break
                    c.tick(10)
                statuses = {jid: c.status(jid) for jid, *_ in WORKLOAD}
                c.shutdown()
        finally:
            server2.shutdown()
            thread2.join(timeout=5.0)
            resumed.close()

        assert all(s.state == "completed" for s in statuses.values())
        # and the interrupted run's outcomes equal the batch run's
        _, expected_records = batch_equivalent(replies, WORKLOAD)
        for job_id, record in expected_records.items():
            assert statuses[job_id].end_time == record.end_time
            assert statuses[job_id].measured_slowdown == \
                record.measured_slowdown
