"""Progress-reporting infrastructure.

The paper instruments each application to publish its online-performance
metric over ZeroMQ PUB/SUB sockets, and a monitor collects and averages
the values once every second (Section IV-B). This subpackage reproduces
that stack in-process:

* :mod:`repro.telemetry.timeseries` — timestamped sample container with
  resampling and summary statistics,
* :mod:`repro.telemetry.pubsub` — PUB/SUB message bus with ZeroMQ's
  prefix filtering, slow-joiner and high-water-mark semantics plus
  seeded message loss (the design flaw behind OpenMC's spurious zero
  progress reports in the paper's Fig. 3),
* :mod:`repro.telemetry.monitor` — the 1 Hz progress monitor that turns
  raw progress events into a per-second rate series,
* :mod:`repro.telemetry.reduction` — job-level aggregation of per-rank
  progress (mean / critical-path / imbalance views).
"""

from repro.telemetry.monitor import ProgressMonitor
from repro.telemetry.pubsub import MessageBus, PubSocket, SubSocket
from repro.telemetry.reduction import JobProgressReducer
from repro.telemetry.timeseries import TimeSeries

__all__ = [
    "TimeSeries",
    "MessageBus",
    "PubSocket",
    "SubSocket",
    "ProgressMonitor",
    "JobProgressReducer",
]
