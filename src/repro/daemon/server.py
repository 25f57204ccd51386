"""Socket front-end: the daemon on a Unix-domain or TCP endpoint.

:class:`DaemonServer` puts a :class:`~repro.daemon.service.Daemon` on
a real socket. One :mod:`selectors` loop, on the thread that calls
:meth:`DaemonServer.serve_forever`, owns everything: the listener,
every client connection and the :class:`Daemon` itself, which nothing
else calls. Requests are decoded off the line-delimited JSON wire
(:mod:`repro.daemon.protocol`), served through :meth:`Daemon.handle`
in the order the loop reads them, and answered on the same connection.
``watch`` subscriptions additionally receive pushed telemetry frames at
the end of every loop pass, after the ``tick`` reply that produced
them.

Sockets are non-blocking. Output is sent at once; only bytes the
kernel would not take wait in a connection's write buffer, and only
then does the loop select the connection for writing. A connection
with unsent output is neither read from nor given new frames: its
frames wait in its watch's queue, where the watch's ``hwm`` drops new
frames beyond the bound (ZeroMQ's slow-consumer policy). A request
line longer than :data:`~repro.daemon.protocol.MAX_LINE_BYTES` gets a
``protocol`` error and the connection is closed.

Two driving modes:

* **paced** — the loop owns an
  :class:`~repro.runtime.pacing.EpochPacer` and converts elapsed wall
  time (read through the audited :mod:`repro.obs.hostclock` module)
  into simulated epochs; the ``select`` timeout is the wall time until
  the next whole epoch is due, so the simulation advances in real time
  while clients come and go;
* **manual** (``pacer=None``) — simulated time moves only when a
  client sends ``tick``, and the loop blocks until a socket is ready.
  This is the deterministic mode the e2e tests replay command logs
  under.

Either way, *what* an epoch computes never depends on wall time — the
pacer only decides how many epochs to run (see
:mod:`repro.runtime.pacing`).
"""

from __future__ import annotations

import os
import selectors
import socket

from repro import obs
from repro.daemon import protocol as proto
from repro.daemon.service import Daemon
from repro.exceptions import ConfigurationError, ProtocolError
from repro.obs import hostclock
from repro.runtime.pacing import EpochPacer

__all__ = ["DaemonServer"]

_RECV_BYTES = 65536


class _ClientConn:
    """One accepted connection: its socket, its unparsed input, its
    unsent output, and the watch subscriptions it owns."""

    __slots__ = ("name", "sock", "rbuf", "wbuf", "watch_ids", "closing")

    def __init__(self, name: str, sock: socket.socket) -> None:
        self.name = name
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.watch_ids: set[str] = set()
        self.closing = False      #: close once wbuf has drained


class DaemonServer:
    """Serve one :class:`Daemon` over a socket until shutdown.

    Parameters
    ----------
    daemon:
        The service core to expose. The server's loop becomes its only
        caller.
    socket_path:
        Unix-domain socket path; mutually exclusive with ``tcp``.
    tcp:
        ``(host, port)``; port 0 binds an ephemeral port (read the
        result from :attr:`address`).
    pacer:
        Wall-clock pacing, or None for manual (tick-by-request) mode.
    """

    def __init__(self, daemon: Daemon, *, socket_path: str | None = None,
                 tcp: tuple[str, int] | None = None,
                 pacer: EpochPacer | None = None) -> None:
        if (socket_path is None) == (tcp is None):
            raise ConfigurationError(
                "exactly one of socket_path/tcp must be given")
        self.daemon = daemon
        self.socket_path = socket_path
        self.tcp = tcp
        self.pacer = pacer
        self.address: str = ""
        self._listener: socket.socket | None = None
        self._sel = selectors.DefaultSelector()
        self._conns: dict[socket.socket, _ClientConn] = {}
        self._next_client = 0
        self._stopping = False
        # shutdown() from another thread wakes the loop through this pair
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self) -> str:
        """Create and bind the listening socket; returns the address."""
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(self.socket_path)
            except OSError:
                # a previous daemon's stale socket file: claim the path
                # if nobody is listening, else re-raise
                if self._path_is_live():
                    listener.close()
                    raise
                os.unlink(self.socket_path)
                listener.bind(self.socket_path)
            self.address = self.socket_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.tcp)
            host, port = listener.getsockname()[:2]
            self.address = f"{host}:{port}"
        listener.listen()
        listener.setblocking(False)
        self._listener = listener
        return self.address

    def _path_is_live(self) -> bool:
        """Is some daemon actually listening on ``socket_path``?"""
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(self.socket_path)
        except OSError:
            return False
        finally:
            probe.close()
        return True

    def serve_forever(self) -> None:
        """Bind (if needed) and run the loop until a ``shutdown``
        request arrives or :meth:`shutdown` is called. Blocks the
        calling thread, which becomes the daemon's only caller."""
        if self._listener is None:
            self.bind()
        assert self._listener is not None
        self._sel.register(self._listener, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        try:
            self._loop()
        finally:
            self._teardown()

    def shutdown(self) -> None:
        """Stop the server from another thread."""
        self._stopping = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # already woken, or already torn down

    def _loop(self) -> None:
        last = hostclock.monotonic_s()
        while not self._stopping:
            timeout = None
            if self.pacer is not None:
                now = hostclock.monotonic_s()
                due = self.pacer.epochs_due(now - last)
                last = now
                if due:
                    self.daemon.tick(due)
                timeout = max(0.0, last + self.pacer.wall_until_due()
                              - hostclock.monotonic_s())
            # a readable wake socket needs no handling: shutdown() set
            # _stopping before writing to it
            for key, events in self._sel.select(timeout):
                if key.fileobj is self._listener:
                    self._accept()
                elif key.fileobj in self._conns:
                    conn = self._conns[key.fileobj]
                    if events & selectors.EVENT_WRITE:
                        self._write(conn)
                    else:
                        self._read(conn)
                if self._stopping:
                    break
            self._flush_watchers()

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._drop(conn)
        self._sel.close()
        if self._listener is not None:
            self._listener.close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._wake_r.close()
        self._wake_w.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # none pending, or out of descriptors
                return
            sock.setblocking(False)
            conn = _ClientConn(f"client-{self._next_client}", sock)
            self._next_client += 1
            self._conns[sock] = conn
            self._sel.register(sock, selectors.EVENT_READ)

    def _drop(self, conn: _ClientConn) -> None:
        for watch_id in conn.watch_ids:
            self.daemon.detach_watch(watch_id)
        conn.watch_ids.clear()
        if self._conns.pop(conn.sock, None) is not None:
            self._sel.unregister(conn.sock)
        conn.sock.close()

    def _read(self, conn: _ClientConn) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._drop(conn)
            return
        buf = conn.rbuf
        buf += chunk
        start = 0
        while not self._stopping:
            end = buf.find(b"\n", start)
            if end < 0:
                break
            line = bytes(buf[start:end + 1])
            start = end + 1
            if line.strip():
                self._serve_line(conn, line)
        del buf[:start]
        if len(buf) > proto.MAX_LINE_BYTES:
            self._send(conn, proto.ErrorReply(
                code="protocol",
                message=f"request line exceeds "
                        f"{proto.MAX_LINE_BYTES} bytes"))
            conn.closing = True
            if not conn.wbuf:
                self._drop(conn)

    def _serve_line(self, conn: _ClientConn, line: bytes) -> None:
        try:
            request = proto.decode(line)
        except ProtocolError as exc:
            self._send(conn, proto.ErrorReply(code="protocol",
                                              message=str(exc)))
            return
        reply = self.daemon.handle(request)
        if isinstance(request, proto.WatchRequest) and \
                isinstance(reply, proto.WatchReply):
            conn.watch_ids.add(reply.watch_id)
        self._send(conn, reply)
        if isinstance(request, proto.ShutdownRequest):
            self._stopping = True

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _flush_watchers(self) -> None:
        """Push every attached watch's due frames to connections that
        are keeping up; a backed-up connection's frames stay queued in
        its watch (bounded by the watch's hwm)."""
        for conn in self._conns.values():
            if conn.wbuf or not conn.watch_ids:
                continue
            frames = [frame for watch_id in sorted(conn.watch_ids)
                      for frame in self.daemon.drain_watch(watch_id)]
            if frames:
                self._queue(conn, b"".join(self._encode(f)
                                           for f in frames))

    def _send(self, conn: _ClientConn, message: object) -> None:
        self._queue(conn, self._encode(message))

    @staticmethod
    def _encode(message: object) -> bytes:
        try:
            return proto.encode(message)
        except ProtocolError as exc:
            return proto.encode(proto.ErrorReply(code="internal",
                                                 message=str(exc)))

    def _queue(self, conn: _ClientConn, data: bytes) -> None:
        """Send ``data`` now; keep what the kernel would not take and
        select the connection for writing until it drains."""
        obs.metrics().counter("daemon.client_bytes_out",
                              client=conn.name).inc(len(data))
        if conn.wbuf:
            conn.wbuf += data
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            return  # peer gone; the next read observes the close
        if sent < len(data):
            conn.wbuf += data[sent:]
            self._sel.modify(conn.sock, selectors.EVENT_WRITE)

    def _write(self, conn: _ClientConn) -> None:
        try:
            sent = conn.sock.send(conn.wbuf)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        del conn.wbuf[:sent]
        if conn.wbuf:
            return
        if conn.closing:
            self._drop(conn)
        else:
            self._sel.modify(conn.sock, selectors.EVENT_READ)
