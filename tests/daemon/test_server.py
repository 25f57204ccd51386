"""The single-loop socket server: malformed and oversized input, the
TCP endpoint, watch fan-out, paced mode, and both ways to stop it."""

import contextlib
import socket
import threading
import time

import pytest

from repro.daemon import protocol as proto
from repro.daemon.client import DaemonClient
from repro.daemon.server import DaemonServer
from repro.runtime.pacing import EpochPacer

from tests.daemon.conftest import make_daemon, run_request, serving
from tests.daemon.test_protocol import BAD_FIELD_LINES

pytestmark = pytest.mark.slow


@pytest.fixture()
def served(tmp_path):
    with serving(tmp_path) as daemon_and_path:
        yield daemon_and_path


def raw_connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    return sock, sock.makefile("rb")


class TestMalformedInput:
    @pytest.mark.parametrize("line", BAD_FIELD_LINES.values(),
                             ids=BAD_FIELD_LINES.keys())
    def test_bad_field_is_a_protocol_error_and_conn_survives(
            self, served, line):
        _daemon, path = served
        sock, reader = raw_connect(path)
        with sock, reader:
            sock.sendall(line + b"\n")
            reply = proto.decode(reader.readline())
            assert isinstance(reply, proto.ErrorReply)
            assert reply.code == "protocol"
            sock.sendall(proto.encode(proto.InfoRequest()))
            info = proto.decode(reader.readline())
        assert isinstance(info, proto.InfoReply)
        assert info.queued == 0

    def test_oversized_line_closes_only_that_connection(self, served):
        _daemon, path = served
        with DaemonClient(socket_path=path, timeout=10.0) as other:
            assert isinstance(other.info(), proto.InfoReply)
            sock, reader = raw_connect(path)
            with sock, reader:
                sock.sendall(b"x" * (proto.MAX_LINE_BYTES + 1))
                reply = proto.decode(reader.readline())
                assert isinstance(reply, proto.ErrorReply)
                assert reply.code == "protocol"
                assert reader.readline() == b""  # closed by the server
            assert isinstance(other.request(run_request("after")),
                              proto.RunReply)
            assert isinstance(other.info(), proto.InfoReply)


class TestWatchFanOut:
    def test_every_watcher_sees_the_same_full_stream(self, served):
        """Telemetry fans out per subscription: each of several
        watchers gets every progress frame, none is shared or lost."""
        _daemon, path = served
        with contextlib.ExitStack() as stack:
            watchers = [stack.enter_context(
                DaemonClient(socket_path=path, timeout=30.0))
                for _ in range(3)]
            for w, client in enumerate(watchers):
                client.watch(f"w{w}", topic="progress", hwm=100_000,
                             events=False)
            with DaemonClient(socket_path=path, timeout=30.0) as driver:
                for job_id in ("alpha", "bravo"):
                    assert isinstance(driver.request(run_request(job_id)),
                                      proto.RunReply)
                while True:
                    info = driver.info()
                    if info.queued == 0 and info.running == 0:
                        break
                    driver.tick(5)
            streams = [
                [(f.time, f.topic, f.value)
                 for f in client.frames(wall_budget=30.0, idle=1.0)
                 if isinstance(f, proto.StreamTelemetry)]
                for client in watchers]
        assert info.completed == 2
        assert streams[0]
        assert streams[1] == streams[0] and streams[2] == streams[0]


class TestTcpEndpoint:
    def test_run_watch_tick_then_shutdown_request_stops_the_loop(self):
        daemon = make_daemon()
        server = DaemonServer(daemon, tcp=("127.0.0.1", 0))
        host, port = server.bind().rsplit(":", 1)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with DaemonClient(tcp=(host, int(port)),
                              timeout=30.0) as client:
                client.watch("w", topic="progress", hwm=100_000,
                             events=False)
                assert isinstance(client.request(run_request("alpha")),
                                  proto.RunReply)
                while True:
                    info = client.info()
                    if info.queued == 0 and info.running == 0:
                        break
                    client.tick(5)
                frames = client.frames(wall_budget=10.0, idle=0.5)
                assert any(isinstance(f, proto.StreamTelemetry)
                           for f in frames)
                assert isinstance(client.shutdown(), proto.ShutdownReply)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            daemon.close()
        assert info.completed == 1


class TestPacedMode:
    def test_paced_loop_ticks_without_requests(self, tmp_path):
        with serving(tmp_path, pacer=EpochPacer(50.0, 1.0)) as (_d, path):
            with DaemonClient(socket_path=path, timeout=10.0) as client:
                assert isinstance(client.request(run_request("j")),
                                  proto.RunReply)
                deadline = time.monotonic() + 30.0
                while client.info().completed == 0:
                    assert time.monotonic() < deadline, "never ticked"
                    time.sleep(0.02)
                assert client.status("j").state == "completed"
