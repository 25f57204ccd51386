"""repro.daemon — the simulation as a long-running service.

The paper's Node Resource Manager is not a batch library: it is a
long-lived daemon that applications connect to over ZeroMQ, submitting
work and streaming progress reports the power-capping logic consumes
asynchronously (Ramesh et al., IPDPS 2019). This package is that
batch-to-service transition for the reproduction: a :class:`Daemon`
owns one shared simulated cluster
(:class:`~repro.scheduler.scheduler.PowerAwareScheduler` over
:mod:`repro.cluster`), admits and queues submissions from many
concurrent clients, and fans progress telemetry out to subscribers.
Like the paper's NRM controller, one loop owns that state and serves
messages in the order they arrive: the server's single
:mod:`selectors` loop is the daemon's only caller, so there are no
reader threads and no locks.

Layering — each module owns one concern:

* :mod:`repro.daemon.protocol` — the versioned, line-delimited JSON
  wire format: ``*Request`` / ``*Reply`` / ``*Telemetry`` dataclasses
  and their codec;
* :mod:`repro.daemon.service` — the single-owner :class:`Daemon`
  core: admission straight into the scheduler queue (bounded, FIFO
  per priority; the scheduler's records are the daemon's only job
  table), the deterministic tick
  loop, telemetry fan-out straight into each watch's bounded queue
  (topic-prefix filter, new frames dropped at the watch's HWM,
  slow-joiner loss — ZeroMQ's PUB/SUB semantics), and
  crash-resumable checkpoints on the
  repo-wide :class:`~repro.runtime.runfile.RunCheckpoint` format
  (``--resume`` picks a run up from the latest checkpoint in the
  epoch-stamped ``--checkpoint-dir`` store; ``--resume-epoch`` rewinds
  — time travel);
* :mod:`repro.daemon.server` — real sockets (Unix-domain or TCP): one
  non-blocking ``selectors`` loop that serves every client, pushes
  telemetry and, in paced mode, runs simulated epochs against wall
  time;
* :mod:`repro.daemon.client` — the ``upctl``-style client library and
  CLI (``python -m repro.daemon.client run/status/list/kill/watch``);
* :mod:`repro.daemon.profiles` — the offline-measured demo power book
  for socket smoke tests that cannot afford live characterization.

Determinism: everything under :class:`Daemon` is keyed off the
simulation clock and the seeds — replaying the same sequence of
admitted commands per tick reproduces the identical event trace and
telemetry stream, bit for bit. Wall time exists only *outside* the
core: the server decides when ticks happen, never what they compute,
and reads it only through the audited :mod:`repro.obs.hostclock`.

Start a daemon with ``python -m repro.daemon --socket /tmp/repro.sock``
and talk to it with ``python -m repro.daemon.client --socket
/tmp/repro.sock run lammps --nodes 2 --seconds 3``.
"""

from repro.daemon.protocol import decode, encode
from repro.daemon.server import DaemonServer
from repro.daemon.service import Daemon, DaemonConfig

__all__ = [
    "Daemon",
    "DaemonConfig",
    "DaemonServer",
    "DaemonClient",
    "encode",
    "decode",
]


def __getattr__(name: str):
    # Lazy re-export: importing the package must not import the client
    # module, or ``python -m repro.daemon.client`` finds it already in
    # sys.modules and runs a second copy of it as __main__.
    if name == "DaemonClient":
        from repro.daemon.client import DaemonClient

        return DaemonClient
    raise AttributeError(f"module 'repro.daemon' has no attribute {name!r}")
