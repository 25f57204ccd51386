"""The package's *only* host-clock source.

Everything in the simulator runs on simulated time
(:class:`repro.runtime.clock.SimClock`), and the determinism lint
(:mod:`repro.lint.rules.determinism`) bans host-clock reads precisely so
simulation results stay a pure function of the seed. Every host-clock
read in ``repro`` is confined to this module, which the determinism
rules recognize by path as the single audited allowance (see
``AUDITED_CLOCK_MODULES`` in :mod:`repro.lint.rules.determinism`).

Readings come in two tiers:

* **describe-only** — trace timestamps, span durations, manifest
  wall-time (:func:`perf_ns`, :func:`wall_s`) and the sharded
  lockstep's per-shard epoch wall times (:func:`perf_s`, read into
  ``ShardedLockstep.shard_times`` for the obs imbalance metrics). A
  trace of *where wall time goes* is by definition a host-clock
  measurement; these readings never reach anything but the trace,
  metric or manifest they describe;
* **wall-clock steering** — the daemon's epoch pacing and client
  timeouts (:func:`monotonic_s`), the only readings that decide
  anything: *when* an epoch runs. That is provably invisible to
  simulated results: a paced epoch computes what a manual ``tick``
  computes. Node placement reads no clock at all (it is round-robin
  in insertion order).

In both tiers no simulated value, seed, RNG stream, budget, cap or
schedule may ever derive from a reading, and no other host state
(environment, entropy, PIDs of semantic import) is read here — the
allowance covers clocks only.
"""

from __future__ import annotations

import time

__all__ = ["perf_ns", "wall_s", "monotonic_s", "perf_s"]


def perf_ns() -> int:
    """Monotonic high-resolution timestamp (ns) for span durations."""
    return time.perf_counter_ns()


def wall_s() -> float:
    """Wall-clock seconds since the epoch, for manifest timestamps."""
    return time.time()


def monotonic_s() -> float:
    """Monotonic host clock in seconds (daemon pacing and timeouts)."""
    return time.monotonic()


def perf_s() -> float:
    """Monotonic high-resolution timestamp (s) for shard step timing."""
    return time.perf_counter()
