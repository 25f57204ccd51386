"""RAPL firmware emulation: a feedback power-capping controller.

Real RAPL is a proprietary on-package controller; the paper explicitly
notes that "no published work accurately describes or models RAPL's
internal behavior" and instead characterizes it empirically. This
emulation reproduces the empirically observed behaviour the paper relies
on:

* **Feedback enforcement** — every ``control_interval`` the firmware
  compares the average package power over the last interval (from the
  energy counter, exactly like software measures RAPL) against the limit
  and steps the package frequency down/up the DVFS ladder.
* **Application-aware budgeting** (paper Fig. 2) — emergent: memory-bound
  workloads push traffic-proportional uncore power, leaving less of the
  package budget for the cores, so the controller settles at a lower core
  frequency than for compute-bound workloads under the *same* cap.
* **Beyond-DVFS throttling** (paper Figs. 4d, 5) — two mechanisms the
  paper explicitly names as unmodeled (Section VI-B3: "DDCM and
  uncore-DVFS"):

  - *uncore DVFS*: while a cap is actively enforced the firmware scales
    the uncore clock with the core ratio, shrinking achievable node
    memory bandwidth — userspace core DVFS does not do this, which is
    why DVFS beats RAPL for STREAM in the paper's Fig. 5;
  - *DDCM*: when the ladder bottoms out and power still exceeds the
    limit, duty-cycle modulation engages, which also gates the memory
    issue rate.

  A DVFS-only analytic model therefore *underestimates* the impact on
  memory-bound codes, which is precisely the model failure the paper
  reports for STREAM.
* **Turbo** — with headroom under the limit the controller opportunistically
  raises frequency into turbo bins (Turbo-Boost was enabled on the paper's
  testbed), never above the userspace DVFS ceiling
  (:meth:`~repro.hardware.node.SimulatedNode.set_freq_limit`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, check_snapshot_version
from repro.hardware.kernels import (
    average_power,
    ewma_alpha,
    ewma_update,
    throttle_steps,
    uncore_dvfs_scale,
    uncore_power,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode
    from repro.runtime.engine import Engine

__all__ = ["RaplFirmware"]


class RaplFirmware:
    """Package-domain power-cap enforcement loop.

    Parameters
    ----------
    node:
        The node whose frequency/duty the firmware controls.
    engine:
        Engine used to schedule the periodic control tick.
    control_interval:
        Firmware loop period in (simulated) seconds. Real RAPL enforces
        over a configurable time window of similar magnitude.
    headroom:
        Fractional band under the limit within which the controller holds
        steady instead of hunting (damps limit-cycle oscillation).
    max_steps:
        Largest number of ladder steps taken in one tick when power is far
        above the limit (proportional control).
    min_uncore_scale:
        Floor of the uncore-DVFS scale (the uncore never clocks below
        this fraction of full speed).
    """

    #: Stock parameters (the keyword defaults).
    CONTROL_INTERVAL = 0.01
    HEADROOM = 0.03
    MAX_STEPS = 5
    MIN_UNCORE_SCALE = 0.4

    def __init__(self, node: "SimulatedNode", engine: "Engine", *,
                 control_interval: float = CONTROL_INTERVAL,
                 headroom: float = HEADROOM, max_steps: int = MAX_STEPS,
                 min_uncore_scale: float = MIN_UNCORE_SCALE) -> None:
        if control_interval <= 0:
            raise ConfigurationError("control_interval must be positive")
        if not 0.0 < headroom < 1.0:
            raise ConfigurationError("headroom must lie in (0, 1)")
        if max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        if not 0.0 < min_uncore_scale <= 1.0:
            raise ConfigurationError("min_uncore_scale must lie in (0, 1]")
        self.min_uncore_scale = min_uncore_scale
        self.node = node
        self.engine = engine
        self.control_interval = control_interval
        self.headroom = headroom
        self.max_steps = max_steps

        self.limit = node.cfg.tdp
        self.enabled = True
        # True while the duty reduction is the firmware's own doing; a
        # userspace DDCM pin (duty lowered by software) is never undone
        # by the step-up path.
        self._ddcm_engaged = False
        #: DRAM-domain limit in watts (None = uncapped).
        self.dram_limit: float | None = None
        self.window = control_interval
        # PL2: the short-term limit. Real packages allow brief excursions
        # above PL1 up to PL2; defaults to 1.2x TDP like stock firmware.
        self.limit2 = 1.2 * node.cfg.tdp
        self._avg_windowed: float | None = None  # EWMA over `window`
        self._last_energy = node.pkg_energy
        self._last_time = engine.clock.now
        self._timer = engine.add_timer(control_interval, self._tick,
                                       period=control_interval)

    # ------------------------------------------------------------------
    # Software-visible interface (wired to MSR_PKG_POWER_LIMIT)
    # ------------------------------------------------------------------

    def set_limit(self, watts: float, window: float | None = None) -> None:
        """Apply a package power cap (PL1)."""
        if watts <= 0:
            raise ConfigurationError(f"power limit must be positive, got {watts}")
        self.limit = float(watts)
        self.enabled = True
        if window is not None:
            if window <= 0:
                raise ConfigurationError("window must be positive")
            self.window = float(window)

    def set_limit2(self, watts: float) -> None:
        """Program the short-term (PL2) package limit."""
        if watts <= 0:
            raise ConfigurationError(f"PL2 must be positive, got {watts}")
        self.limit2 = float(watts)

    def set_dram_limit(self, watts: float | None) -> None:
        """Program (or clear, with None) the DRAM-domain power limit.

        DRAM RAPL enforces by throttling achievable traffic: with
        ``P_dram = dram_base + dram_per_bw * traffic`` the admissible
        bandwidth is ``(limit - dram_base) / dram_per_bw`` — applied
        directly (the relation is algebraic, no feedback needed).
        """
        cfg = self.node.cfg
        if watts is None:
            self.dram_limit = None
            self.node.set_dram_bw_cap(None)
            return
        if watts <= cfg.dram_base:
            raise ConfigurationError(
                f"DRAM limit {watts} W is not above the DRAM base draw "
                f"({cfg.dram_base} W)"
            )
        self.dram_limit = float(watts)
        self.node.set_dram_bw_cap((watts - cfg.dram_base) / cfg.dram_per_bw)

    def disable(self) -> None:
        """Stop enforcing a cap (the TDP remains the implicit ceiling)."""
        self.enabled = False
        self.node.set_uncore_scale(1.0)

    @property
    def effective_limit(self) -> float:
        """The limit actually enforced: the programmed cap, or TDP when
        capping is disabled (thermal ceiling)."""
        return min(self.limit, self.node.cfg.tdp) if self.enabled else self.node.cfg.tdp

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def measure_average_power(self, now: float) -> float | None:
        """Average package power since the previous tick (watts), or None
        when no time has elapsed. Also maintains the EWMA over the
        PL1 enforcement window."""
        dt = now - self._last_time
        if dt <= 0:
            return None
        avg = average_power(self.node.pkg_energy, self._last_energy, dt)
        self._last_energy = self.node.pkg_energy
        self._last_time = now
        if self._avg_windowed is None:
            self._avg_windowed = avg
        else:
            alpha = ewma_alpha(dt, self.window)
            self._avg_windowed = ewma_update(self._avg_windowed, avg, alpha)
        return avg

    @property
    def windowed_power(self) -> float | None:
        """EWMA of package power over the PL1 window (None before the
        first measurement)."""
        return self._avg_windowed

    def _predicted_power(self, freq: float, duty: float) -> float:
        """Package power if the node ran at (freq, duty) with the current
        activity pattern (an approximation: activity shifts slightly as
        rates change; the feedback loop corrects any residual error)."""
        node = self.node
        cfg = node.cfg
        core_total, traffic = node.power_model.fold(node.cores, freq, duty)
        return core_total + uncore_power(traffic, cfg.uncore_base,
                                         cfg.uncore_per_bw)

    def _apply_uncore_dvfs(self) -> None:
        """Scale the uncore clock with the core ratio while a real cap is
        being enforced; full speed otherwise (userspace DVFS pins do not
        touch the uncore)."""
        node = self.node
        capping = self.enabled and self.limit < node.cfg.tdp
        if capping:
            node.set_uncore_scale(uncore_dvfs_scale(
                node.frequency, node.cfg.f_nominal, self.min_uncore_scale))
        else:
            node.set_uncore_scale(1.0)

    def _tick(self, now: float) -> None:
        avg = self.measure_average_power(now)
        if avg is None:
            return
        node = self.node
        cfg = node.cfg
        cap = self.effective_limit
        self._apply_uncore_dvfs()

        # PL2: the instantaneous interval average may briefly exceed PL1
        # (the EWMA is what PL1 constrains), but never the short-term
        # limit. Violating PL2 throttles immediately and hard.
        if self.enabled and avg > self.limit2:
            idx = cfg.ladder_index(node.frequency)
            node.set_frequency(cfg.freq_ladder[max(0, idx - self.max_steps)])
            return

        avg = self._avg_windowed if self._avg_windowed is not None else avg
        if avg > cap:
            # Over budget: proportional step down the ladder, then DDCM.
            steps = throttle_steps(avg, cap, self.max_steps)
            idx = cfg.ladder_index(node.frequency)
            if idx > 0:
                node.set_frequency(cfg.freq_ladder[max(0, idx - steps)])
            else:
                duties = cfg.duty_levels
                cur = duties.index(node.duty) if node.duty in duties else len(duties) - 1
                if cur > 0:
                    node.set_duty(duties[cur - 1])
                    self._ddcm_engaged = True
            return

        if avg < cap * (1.0 - self.headroom):
            # Headroom: undo DDCM first, then climb the ladder (turbo
            # included), but only when the predicted power stays under
            # the cap.
            duties = cfg.duty_levels
            if node.duty < 1.0:
                if not self._ddcm_engaged:
                    # software pinned the duty; leave it alone
                    return
                cur = duties.index(node.duty)
                candidate = duties[cur + 1]
                if self._predicted_power(node.frequency, candidate) <= cap:
                    node.set_duty(candidate)
                    if candidate >= 1.0:
                        self._ddcm_engaged = False
                return
            idx = cfg.ladder_index(node.frequency)
            if idx + 1 < len(cfg.freq_ladder):
                candidate = cfg.freq_ladder[idx + 1]
                if candidate <= node.freq_limit and \
                        self._predicted_power(candidate, node.duty) <= cap:
                    node.set_frequency(candidate)

    def stop(self) -> None:
        """Cancel the firmware's periodic tick (used when tearing down a
        testbed between experiment runs)."""
        self._timer.cancel()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable controller state (the node-side effects — frequency,
        duty, uncore scale, DRAM throttle — live in the node snapshot)."""
        return {
            "version": 1,
            "limit": self.limit,
            "limit2": self.limit2,
            "enabled": self.enabled,
            "ddcm_engaged": self._ddcm_engaged,
            "dram_limit": self.dram_limit,
            "window": self.window,
            "avg_windowed": self._avg_windowed,
            "last_energy": self._last_energy,
            "last_time": self._last_time,
        }

    def restore(self, state: dict) -> None:
        check_snapshot_version(state, 1, "RaplFirmware")
        self.limit = state["limit"]
        self.limit2 = state["limit2"]
        self.enabled = state["enabled"]
        self._ddcm_engaged = state["ddcm_engaged"]
        self.dram_limit = state["dram_limit"]
        self.window = state["window"]
        self._avg_windowed = state["avg_windowed"]
        self._last_energy = state["last_energy"]
        self._last_time = state["last_time"]
