"""The simulated node: cores + memory + power + counters + energy.

:class:`SimulatedNode` is the single authority for hardware state. Control
software (the RAPL firmware emulation, the DVFS/DDCM knobs) mutates
frequency/duty through it; the execution engine reads per-core state to
compute work rates and calls :meth:`SimulatedNode.accrue` to integrate
energy over each constant-rate segment.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, check_snapshot_version
from repro.hardware.config import NodeConfig
from repro.hardware.counters import CounterBank
from repro.hardware.cpu import CoreMode, CoreState
from repro.hardware.power import PowerModel, PowerSample
from repro.runtime.clock import SimClock

__all__ = ["SimulatedNode"]


class SimulatedNode:
    """A power-manageable 24-core node (see module docstring).

    Parameters
    ----------
    cfg:
        Physical description; defaults to :func:`~repro.hardware.config.skylake_config`.
    clock:
        Shared simulation clock; a fresh one is created if omitted.
    """

    def __init__(self, cfg: NodeConfig | None = None,
                 clock: SimClock | None = None) -> None:
        self.cfg = cfg if cfg is not None else NodeConfig()
        self.clock = clock if clock is not None else SimClock()
        self.cores = [
            CoreState(core_id=i, freq=self.cfg.f_nominal)
            for i in range(self.cfg.n_cores)
        ]
        self.counters = CounterBank(self.cfg.n_cores)
        self.power_model = PowerModel(self.cfg)
        # Monotonic energy accumulators (joules); RAPL energy-status MSRs
        # are derived from these.
        self.pkg_energy = 0.0
        self.dram_energy = 0.0
        # Userspace DVFS ceiling: RAPL never raises the clock above this.
        self._freq_limit = self.cfg.f_turbo
        self._last_sample: PowerSample | None = None
        # Uncore frequency scale in (0, 1]: multiplies the node's
        # achievable memory bandwidth. Software cannot set this directly —
        # only the RAPL firmware's uncore-DVFS does (the hardware feature
        # the paper lists as unmodeled in Section VI-B3).
        self.uncore_scale = 1.0
        # DRAM-domain bandwidth throttle (bytes/s), set by the firmware
        # when a DRAM power limit is programmed; None = unthrottled.
        self.dram_bw_cap: float | None = None

    # ------------------------------------------------------------------
    # Frequency / duty control
    # ------------------------------------------------------------------

    @property
    def frequency(self) -> float:
        """Current package-wide core frequency (Hz)."""
        return self.cores[0].freq

    @property
    def duty(self) -> float:
        """Current package-wide clock-modulation duty cycle."""
        return self.cores[0].duty

    @property
    def freq_limit(self) -> float:
        """Userspace DVFS ceiling (Hz)."""
        return self._freq_limit

    def set_frequency(self, freq: float) -> float:
        """Set the package frequency, snapping down to a ladder step and
        clipping to the userspace ceiling. Returns the applied frequency.
        """
        target = min(freq, self._freq_limit)
        idx = self.cfg.ladder_index(target)
        applied = self.cfg.freq_ladder[idx]
        for core in self.cores:
            core.freq = applied
        return applied

    def set_freq_limit(self, freq: float) -> float:
        """Set the userspace DVFS ceiling (snapped down to a ladder step);
        lowers the current frequency if it now exceeds the ceiling."""
        idx = self.cfg.ladder_index(freq)
        self._freq_limit = self.cfg.freq_ladder[idx]
        if self.frequency > self._freq_limit:
            self.set_frequency(self._freq_limit)
        return self._freq_limit

    def set_uncore_scale(self, scale: float) -> float:
        """Scale the uncore clock (firmware-internal; see
        :class:`~repro.hardware.rapl.RaplFirmware`). The achievable node
        memory bandwidth is ``cfg.mem_bandwidth * uncore_scale``."""
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"uncore scale must lie in (0, 1], got {scale}")
        self.uncore_scale = float(scale)
        return self.uncore_scale

    def set_dram_bw_cap(self, cap: float | None) -> None:
        """Throttle DRAM bandwidth (firmware-internal: DRAM-domain RAPL
        enforces its power limit by limiting achievable traffic)."""
        if cap is not None and cap <= 0:
            raise ConfigurationError(f"bandwidth cap must be positive, got {cap}")
        self.dram_bw_cap = cap

    @property
    def effective_mem_bandwidth(self) -> float:
        """Node memory bandwidth at the current uncore clock and DRAM
        throttle (bytes/s)."""
        bw = self.cfg.mem_bandwidth * self.uncore_scale
        if self.dram_bw_cap is not None:
            bw = min(bw, self.dram_bw_cap)
        return bw

    def _snap_duty(self, duty: float) -> float:
        levels = self.cfg.duty_levels
        if not duty > 0:
            raise ConfigurationError(f"duty must be positive, got {duty}")
        applied = levels[0]
        for level in levels:
            if level <= duty + 1e-12:
                applied = level
            else:
                break
        return applied

    def set_duty(self, duty: float) -> float:
        """Set the package-wide clock-modulation duty cycle, snapping
        down to the nearest available level (but never below the lowest
        level). Overwrites any per-core settings."""
        applied = self._snap_duty(duty)
        for core in self.cores:
            core.duty = applied
        return applied

    def set_core_duty(self, core_id: int, duty: float) -> float:
        """Set one core's duty cycle (IA32_CLOCK_MODULATION is per
        logical processor on real hardware). Note the RAPL firmware's
        DDCM fallback acts package-wide and overwrites per-core settings
        while it is engaged."""
        if not 0 <= core_id < self.cfg.n_cores:
            raise ConfigurationError(
                f"core_id {core_id} out of range 0..{self.cfg.n_cores - 1}"
            )
        applied = self._snap_duty(duty)
        self.cores[core_id].duty = applied
        return applied

    # ------------------------------------------------------------------
    # Power / energy
    # ------------------------------------------------------------------

    def power(self) -> PowerSample:
        """Instantaneous power breakdown at the current state."""
        return self.power_model.sample(self.cores)

    def accrue(self, dt: float) -> PowerSample:
        """Integrate energy over a constant-rate segment of length ``dt``.

        Called by the engine *before* advancing the clock, while per-core
        state still describes the segment.
        """
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt}")
        sample = self.power_model.sample(self.cores)
        self.pkg_energy += sample.package * dt
        self.dram_energy += sample.dram * dt
        self._last_sample = sample
        return sample

    @property
    def last_power(self) -> PowerSample:
        """Most recent power sample (computed at the last accrual), or the
        current instantaneous sample if nothing has been accrued yet."""
        return self._last_sample if self._last_sample is not None else self.power()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def idle_all(self) -> None:
        """Mark every core idle (no task, no traffic)."""
        idle = CoreMode.IDLE  # one enum lookup, not one per core
        for core in self.cores:
            core.mode = idle
            core.compute_frac = 0.0
            core.bytes_rate = 0.0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable hardware state: clock, per-core state, counters,
        energy accumulators, and the frequency/uncore/DRAM limits."""
        return {
            "version": 1,
            "now": self.clock.now,
            "cores": [{
                "freq": c.freq, "duty": c.duty, "mode": c.mode.value,
                "compute_frac": c.compute_frac, "bytes_rate": c.bytes_rate,
            } for c in self.cores],
            "counters": self.counters.dump_state(),
            "pkg_energy": self.pkg_energy,
            "dram_energy": self.dram_energy,
            "freq_limit": self._freq_limit,
            "last_sample": self._last_sample,
            "uncore_scale": self.uncore_scale,
            "dram_bw_cap": self.dram_bw_cap,
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` (the clock advances to the
        checkpointed time — it cannot rewind)."""
        check_snapshot_version(state, 1, "SimulatedNode")
        self.clock.advance_to(state["now"])
        for core, core_state in zip(self.cores, state["cores"]):
            core.freq = core_state["freq"]
            core.duty = core_state["duty"]
            core.mode = CoreMode(core_state["mode"])
            core.compute_frac = core_state["compute_frac"]
            core.bytes_rate = core_state["bytes_rate"]
        self.counters.load_state(state["counters"])
        self.pkg_energy = state["pkg_energy"]
        self.dram_energy = state["dram_energy"]
        self._freq_limit = state["freq_limit"]
        self._last_sample = state["last_sample"]
        self.uncore_scale = state["uncore_scale"]
        self.dram_bw_cap = state["dram_bw_cap"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedNode(cores={self.cfg.n_cores}, "
            f"f={self.frequency / 1e9:.1f}GHz, duty={self.duty:.3f}, "
            f"E_pkg={self.pkg_energy:.1f}J)"
        )
