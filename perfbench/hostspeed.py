"""Host-speed probe: report host times at a reference host speed.

A shared host runs the benchmark at speeds that differ by up to about
1.5x for stretches of seconds to minutes, for reasons outside the
program. Runs of one program taken minutes apart then disagree by more
than any change worth measuring. To take most of that out, a fixed
kernel (plain Python, no code of the program) is timed before each of
the workload's timed units. A probe's time over ``REFERENCE_MS``, the
probe's time on a reference host, is a *speed index*; each unit's host
time is divided by the index of the probe taken just before it. A
program change does not move the probe, so it moves the reported times
as it moves the raw ones.

The probe runs where the workload's timed work runs: in the benchmark
process for a workload that computes in it, or in helper processes for
one whose timed work runs in other processes. With several helpers all
probe at once and the slowest counts, as the slowest of several busy
workers sets a lockstep's pace. (On a host whose CPUs share one core,
two probes at once each take about twice as long as one alone, so each
number of CPUs probed at once has its own reference time.)

Run as a script, this module is such a helper: it times the kernel once
per line read from standard input and writes the milliseconds back,
until standard input closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: A probe's typical time in ms on the reference host (a 2-CPU shared
#: x86-64 host, Python 3.11), by the number of CPUs probed at once.
REFERENCE_MS = {1: 4.5, 2: 6.5}
#: Timings per probe; a probe reads their median.
REPS = 3
#: At most one probe per this many host seconds.
INTERVAL_S = 0.25


def kernel() -> int:
    """A fixed interpreter-bound loop: arithmetic and small-dict stores,
    like the simulator's per-event Python."""
    s = 0
    table: dict[int, int] = {}
    for i in range(40_000):
        s += i * i % 7
        table[i & 255] = s
    return s


def probe_ms() -> float:
    """One probe in this process: the median of ``REPS`` kernel times."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


class HostSpeed:
    """Probe samples of one run. With no ``helpers`` the probe runs in
    this process; otherwise in that many helper processes at once."""

    def __init__(self, helpers: int = 0) -> None:
        self.cpus = max(1, helpers)
        if self.cpus not in REFERENCE_MS:
            raise ValueError(f"no reference time for {helpers} helpers")
        self.samples: list[float] = []
        self.busy_s = 0.0   #: host seconds spent probing
        self._last = -float("inf")
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(helpers):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                    bufsize=1))
            self._probe()  # warm the helpers, unrecorded
        except BaseException:
            self.close()
            raise

    def _probe(self) -> float:
        if not self._helpers:
            return probe_ms()
        for helper in self._helpers:
            helper.stdin.write("\n")
        return max(float(helper.stdout.readline())
                   for helper in self._helpers)

    def sample(self) -> None:
        """Take a probe, unless one was taken less than ``INTERVAL_S``
        ago."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(self._probe())
            self._last = time.perf_counter()
            self.busy_s += self._last - now

    def pids(self) -> set[int]:
        """The helper processes' ids."""
        return {helper.pid for helper in self._helpers}

    def current(self) -> float:
        """The speed index of the latest probe: how much slower than the
        reference host it read (1.0 when it matched it)."""
        return self.samples[-1] / REFERENCE_MS[self.cpus]

    def index(self) -> float:
        """The run's speed index: the median probe's."""
        return statistics.median(self.samples) / REFERENCE_MS[self.cpus]

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []


def _serve() -> None:
    for _ in sys.stdin:
        print(f"{probe_ms():.6f}", flush=True)


if __name__ == "__main__":
    _serve()
