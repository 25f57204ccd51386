"""Shared helpers for the daemon test suite.

All daemon tests use the offline-measured demo power book
(:func:`repro.daemon.profiles.demo_book`) so no characterization runs
are paid; the simulated node pool underneath is real. Jobs are sized
in seconds of uncapped lammps progress, exactly like the scheduler
suite's fixtures.
"""

import contextlib
import threading

import pytest

from repro.daemon import protocol as proto
from repro.daemon.profiles import DEMO_LAMMPS_RATE, demo_book
from repro.daemon.server import DaemonServer
from repro.daemon.service import Daemon, DaemonConfig
from repro.scheduler import SchedulerConfig


def make_daemon_config(**kwargs):
    sched_kwargs = dict(n_slots=4, power_budget=300.0, policy="backfill",
                        min_cap=45.0, cap_step=5.0, eco_margin=0.8,
                        n_workers=4, seed=1)
    sched_kwargs.update(kwargs.pop("scheduler_kwargs", {}))
    defaults = dict(scheduler=SchedulerConfig(**sched_kwargs))
    defaults.update(kwargs)
    return DaemonConfig(**defaults)


def make_daemon(**kwargs):
    return Daemon(make_daemon_config(**kwargs), demo_book())


def run_request(job_id, *, n_nodes=1, seconds=2.5, tol=None, priority=0):
    return proto.RunRequest(
        job_id=job_id, app_name="lammps", n_nodes=n_nodes,
        work_units=seconds * DEMO_LAMMPS_RATE, max_slowdown=tol,
        priority=priority, app_kwargs={"n_steps": 1_000_000})


def start_server(daemon, tmp_path, name="repro.sock", pacer=None):
    """Server on a fresh UDS, its loop on a background thread (manual
    mode unless a pacer is given); returns (server, thread, path)."""
    path = str(tmp_path / name)
    server = DaemonServer(daemon, socket_path=path, pacer=pacer)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, path


@contextlib.contextmanager
def serving(tmp_path, pacer=None, **daemon_kwargs):
    """A fresh daemon behind :func:`start_server`; yields
    (daemon, path), then stops the loop and the daemon."""
    daemon = make_daemon(**daemon_kwargs)
    server, thread, path = start_server(daemon, tmp_path, pacer=pacer)
    try:
        yield daemon, path
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        daemon.close()
    assert not thread.is_alive()


def drain(daemon, max_epochs=500):
    """Tick until the cluster is idle; returns epochs taken."""
    total = 0
    while True:
        taken = daemon.tick(50)
        total += taken
        if taken == 0:
            return total
        assert total <= max_epochs, "daemon did not drain"


@pytest.fixture()
def daemon():
    d = make_daemon()
    yield d
    d.close()
