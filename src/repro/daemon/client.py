"""``upctl``-style client: library and CLI for a running daemon.

:class:`DaemonClient` is a small synchronous client over one socket
connection. Requests are strictly request/reply; pushed telemetry
frames (for ``watch`` subscriptions) arriving between replies are
buffered and handed out through :meth:`recv_frame`/:meth:`frames`.

The CLI mirrors the library::

    python -m repro.daemon.client --socket /tmp/repro.sock run j1 lammps \\
        --nodes 2 --work-units 8.9e5 --max-slowdown 0.3
    python -m repro.daemon.client --socket /tmp/repro.sock status j1
    python -m repro.daemon.client --socket /tmp/repro.sock list
    python -m repro.daemon.client --socket /tmp/repro.sock watch w1 \\
        --max-frames 20
    python -m repro.daemon.client --socket /tmp/repro.sock kill j1

Every command prints its reply as one JSON object on stdout (telemetry
frames as one JSON object per line), so shell pipelines can ``jq``
them; an :class:`~repro.daemon.protocol.ErrorReply` exits non-zero
with the message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import socket
import sys

from repro.daemon import protocol as proto
from repro.exceptions import ConfigurationError, DaemonError
from repro.obs import hostclock

__all__ = ["DaemonClient", "main"]

_TELEMETRY_TYPES = (proto.StreamTelemetry, proto.EventTelemetry)


class DaemonClient:
    """One connection to a daemon; safe for a single thread.

    Parameters
    ----------
    socket_path:
        Unix-domain socket path; mutually exclusive with ``tcp``.
    tcp:
        ``(host, port)`` of a TCP daemon.
    timeout:
        Wall-clock socket timeout per read (seconds).
    """

    def __init__(self, *, socket_path: str | None = None,
                 tcp: tuple[str, int] | None = None,
                 timeout: float = 30.0) -> None:
        if (socket_path is None) == (tcp is None):
            raise ConfigurationError(
                "exactly one of socket_path/tcp must be given")
        self.socket_path = socket_path
        self.tcp = tcp
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = bytearray()   # partial wire line across reads
        self._frames: list = []   # pushed telemetry seen out of band

    # -- connection ----------------------------------------------------

    def connect(self) -> "DaemonClient":
        if self._sock is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection(self.tcp,
                                            timeout=self.timeout)
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()

    def __enter__(self) -> "DaemonClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request/reply -------------------------------------------------

    def request(self, message: object) -> object:
        """Send one request and return its reply; telemetry frames
        arriving first are buffered for :meth:`recv_frame`."""
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        self._sock.sendall(proto.encode(message))
        while True:
            reply = self._read_message()
            if isinstance(reply, _TELEMETRY_TYPES):
                self._frames.append(reply)
                continue
            return reply

    def _read_message(self) -> object:
        # Hand-rolled line buffering (not sock.makefile): a read that
        # times out must leave partial data intact so the next read
        # resumes cleanly — file objects over sockets cannot do that.
        assert self._sock is not None
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line = bytes(self._buf[:i + 1])
                del self._buf[:i + 1]
                return proto.decode(line)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise DaemonError("daemon closed the connection")
            self._buf += chunk

    # -- telemetry -----------------------------------------------------

    def recv_frame(self, timeout: float | None = None) -> object | None:
        """Next pushed telemetry frame, or None when ``timeout`` wall
        seconds pass without one."""
        if self._frames:
            return self._frames.pop(0)
        assert self._sock is not None, "not connected"
        old = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            message = self._read_message()
        except socket.timeout:
            return None
        finally:
            self._sock.settimeout(old)
        if not isinstance(message, _TELEMETRY_TYPES):
            raise DaemonError(
                f"expected a telemetry frame, got "
                f"{type(message).__name__}")
        return message

    def frames(self, *, max_frames: int | None = None,
               wall_budget: float = 30.0, idle: float | None = None):
        """Yield pushed frames until ``max_frames`` arrive,
        ``wall_budget`` wall seconds elapse, or (with ``idle``) no
        frame arrives for ``idle`` wall seconds — the usual way to
        drain "everything the daemon has pushed so far"."""
        start = hostclock.monotonic_s()
        quiet = start
        seen = 0
        while max_frames is None or seen < max_frames:
            now = hostclock.monotonic_s()
            left = wall_budget - (now - start)
            if left <= 0:
                return
            if idle is not None and now - quiet >= idle:
                return
            frame = self.recv_frame(timeout=min(left, 0.25))
            if frame is None:
                continue
            quiet = hostclock.monotonic_s()
            seen += 1
            yield frame

    # -- one method per command ----------------------------------------

    def run(self, job_id: str, app_name: str, *, n_nodes: int,
            work_units: float, max_slowdown: float | None = None,
            priority: int = 0, app_kwargs: dict | None = None) -> object:
        return self.request(proto.RunRequest(
            job_id=job_id, app_name=app_name, n_nodes=n_nodes,
            work_units=work_units, max_slowdown=max_slowdown,
            priority=priority, app_kwargs=app_kwargs))

    def status(self, job_id: str) -> object:
        return self.request(proto.StatusRequest(job_id=job_id))

    def list(self) -> object:
        return self.request(proto.ListRequest())

    def kill(self, job_id: str) -> object:
        return self.request(proto.KillRequest(job_id=job_id))

    def watch(self, watch_id: str, *, topic: str = "progress",
              hwm: int = 1000, events: bool = True) -> object:
        return self.request(proto.WatchRequest(
            watch_id=watch_id, topic=topic, hwm=hwm, events=events))

    def tick(self, epochs: int = 1) -> object:
        return self.request(proto.TickRequest(epochs=epochs))

    def info(self) -> object:
        return self.request(proto.InfoRequest())

    def shutdown(self) -> object:
        return self.request(proto.ShutdownRequest())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _parse_endpoint(args) -> dict:
    if bool(args.socket) == bool(args.tcp):
        raise SystemExit("exactly one of --socket/--tcp is required")
    if args.socket:
        return {"socket_path": args.socket}
    host, _, port = args.tcp.rpartition(":")
    return {"tcp": (host or "127.0.0.1", int(port))}


def _emit(message: object) -> int:
    """Print a reply as JSON; error replies exit non-zero."""
    body = dataclasses.asdict(message)
    body["type"] = proto.wire_type(type(message))
    # unbuffered so watchers stream frames even when stdout is a pipe
    print(json.dumps(body), flush=True)
    if isinstance(message, proto.ErrorReply):
        print(f"error [{message.code}]: {message.message}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.daemon.client",
        description="Talk to a running repro daemon.")
    parser.add_argument("--socket", help="Unix-domain socket path")
    parser.add_argument("--tcp", help="daemon TCP endpoint HOST:PORT")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in wall seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="submit a job")
    run.add_argument("job_id")
    run.add_argument("app_name")
    run.add_argument("--nodes", type=int, default=1)
    run.add_argument("--work-units", type=float, required=True,
                     help="progress units per node to produce")
    run.add_argument("--max-slowdown", type=float, default=None,
                     help="eco-mode tolerance in (0, 1); omit = uncapped")
    run.add_argument("--priority", type=int, default=0)
    run.add_argument("--app-kwargs", default=None,
                     help="application sizing as a JSON object")

    status = sub.add_parser("status", help="one job's state")
    status.add_argument("job_id")

    sub.add_parser("list", help="all jobs this daemon has seen")

    kill = sub.add_parser("kill", help="cancel a pending/running job")
    kill.add_argument("job_id")

    watch = sub.add_parser("watch",
                           help="stream telemetry frames to stdout")
    watch.add_argument("watch_id")
    watch.add_argument("--topic", default="progress")
    watch.add_argument("--hwm", type=int, default=1000)
    watch.add_argument("--no-events", action="store_true")
    watch.add_argument("--max-frames", type=int, default=None)
    watch.add_argument("--wall-budget", type=float, default=30.0)
    watch.add_argument("--idle", type=float, default=None,
                       help="stop after this many wall seconds "
                            "without a frame")

    tick = sub.add_parser("tick", help="advance a manual-mode daemon")
    tick.add_argument("epochs", type=int, nargs="?", default=1)

    sub.add_parser("info", help="daemon-wide counters")
    sub.add_parser("shutdown", help="stop the daemon (checkpoints "
                                    "first when configured)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    endpoint = _parse_endpoint(args)
    with DaemonClient(timeout=args.timeout, **endpoint) as client:
        if args.command == "run":
            app_kwargs = json.loads(args.app_kwargs) \
                if args.app_kwargs else None
            return _emit(client.run(
                args.job_id, args.app_name, n_nodes=args.nodes,
                work_units=args.work_units,
                max_slowdown=args.max_slowdown, priority=args.priority,
                app_kwargs=app_kwargs))
        if args.command == "status":
            return _emit(client.status(args.job_id))
        if args.command == "list":
            return _emit(client.list())
        if args.command == "kill":
            return _emit(client.kill(args.job_id))
        if args.command == "tick":
            return _emit(client.tick(args.epochs))
        if args.command == "info":
            return _emit(client.info())
        if args.command == "shutdown":
            return _emit(client.shutdown())
        # watch: print the reply, then stream frames as JSON lines
        reply = client.watch(args.watch_id, topic=args.topic,
                             hwm=args.hwm, events=not args.no_events)
        code = _emit(reply)
        if code:
            return code
        for frame in client.frames(max_frames=args.max_frames,
                                   wall_budget=args.wall_budget,
                                   idle=args.idle):
            _emit(frame)
        return 0


if __name__ == "__main__":
    sys.exit(main())
