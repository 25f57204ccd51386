"""The daemon stack under an active lock sanitizer.

These are the runtime half of the concurrency audit: the daemon and
server declare their lock discipline through :mod:`repro.sanitize`
(``Daemon._lock`` guards the admission/telemetry state,
``_ClientConn.wlock`` guards each connection's socket and watch set),
and these tests run real flows with a tracker active so any access
that escapes its lock fails the test. Removing a real guard — e.g. the
``with conn.wlock:`` around ``watch_ids.add`` in
``DaemonServer._serve_line`` — makes the end-to-end test below fail.
"""

import threading

import pytest

from repro import sanitize
from repro.daemon import protocol as proto
from repro.daemon.checkpointing import resume_daemon
from repro.daemon.client import DaemonClient
from repro.daemon.server import DaemonServer, _ClientConn
from repro.sanitize import GuardViolationError, LockTracker

from tests.daemon.conftest import drain, make_daemon, run_request

pytestmark = [pytest.mark.slow, pytest.mark.own_tracker]


@pytest.fixture()
def tracker():
    """A strict tracker active for the duration of one test."""
    with sanitize.active(LockTracker(strict=True)) as t:
        yield t


@pytest.fixture()
def lax_tracker():
    """A recording (non-raising) tracker for end-to-end flows."""
    with sanitize.active(LockTracker(strict=False)) as t:
        yield t


class TestDaemonGuards:
    def test_seq_write_requires_the_daemon_lock(self, tracker):
        daemon = make_daemon()
        try:
            with pytest.raises(GuardViolationError, match="_seq"):
                daemon._seq = 99
            with daemon._lock:
                daemon._seq = 99
            assert daemon._seq == 99
        finally:
            daemon.close()

    def test_buffer_mutation_requires_the_daemon_lock(self, tracker):
        daemon = make_daemon()
        try:
            with pytest.raises(GuardViolationError, match="_buffer"):
                daemon._buffer.append(object())
        finally:
            daemon.close()

    def test_handle_and_tick_hold_their_own_lock(self, tracker):
        # the public API is self-guarding: no caller-side locking
        daemon = make_daemon()
        try:
            reply = daemon.handle(run_request("alpha"))
            assert isinstance(reply, proto.RunReply)
            drain(daemon)
            assert tracker.violations == []
        finally:
            daemon.close()

    def test_checkpoint_resume_under_tracker(self, tracker, tmp_path):
        store = str(tmp_path / "store")
        daemon = make_daemon(checkpoint_dir=store)
        try:
            daemon.handle(run_request("alpha"))
            daemon.tick(2)
            daemon.checkpoint()
        finally:
            daemon.close()
        resumed = resume_daemon(store)
        try:
            drain(resumed)
            status = resumed.handle(proto.StatusRequest(job_id="alpha"))
            assert status.state == "completed"
            assert tracker.violations == []
        finally:
            resumed.close()


class TestConnGuards:
    def test_watch_ids_requires_wlock(self, tracker):
        conn = _ClientConn("client-0", sock=None)
        with pytest.raises(GuardViolationError, match="watch_ids"):
            conn.watch_ids.add("w1")
        with conn.wlock:
            conn.watch_ids.add("w1")
            assert "w1" in conn.watch_ids


class TestEndToEndClean:
    def test_tcp_run_watch_tick_shutdown_has_no_violations(
            self, lax_tracker):
        """The full client flow — connect, watch, submit, tick to
        completion, shutdown — recorded by a tracker. Every lock guard
        the audit added is load-bearing here: drop one (say the
        ``conn.wlock`` around ``watch_ids.add``) and the recorded
        guard violation fails this test."""
        daemon = make_daemon()
        server = DaemonServer(daemon, tcp=("127.0.0.1", 0), pacer=None,
                              tick_wall=0.01)
        address = server.bind()
        host, port = address.rsplit(":", 1)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with DaemonClient(tcp=(host, int(port)),
                              timeout=30.0) as client:
                client.watch("w", topic="progress", hwm=100_000,
                             events=False)
                reply = client.run(
                    "alpha", "lammps", n_nodes=1,
                    work_units=run_request("alpha").work_units,
                    app_kwargs={"n_steps": 1_000_000})
                assert isinstance(reply, proto.RunReply)
                while True:
                    info = client.info()
                    if info.queued == 0 and info.running == 0:
                        break
                    client.tick(5)
                frames = client.frames(wall_budget=10.0, idle=0.5)
                assert any(isinstance(f, proto.StreamTelemetry)
                           for f in frames)
                client.shutdown()
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
        assert lax_tracker.violations == [], \
            lax_tracker.render_violations()
