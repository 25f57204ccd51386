"""libmsr-style API.

LLNL's libmsr (which the paper uses, together with msr-safe, to implement
its power-policy tool) exposes convenience calls over the raw RAPL MSRs:
reading the unit register, getting/setting package power limits, and
polling energy to derive average power. :class:`LibMSR` reproduces that
surface on top of :class:`~repro.hardware.msr_safe.MSRSafe`, including the
energy-counter wraparound handling any real RAPL consumer must implement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import MSRError, check_snapshot_version
from repro.hardware.msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_INFO,
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    PowerLimit,
    RaplUnits,
    decode_power_limit,
    decode_units,
    encode_power_limit,
)
from repro.hardware.msr_safe import MSRSafe

__all__ = ["LibMSR", "PowerPoll"]

_WRAP = 1 << 32


@dataclass(frozen=True)
class PowerPoll:
    """Result of one energy-poll interval."""

    seconds: float        #: interval length
    pkg_joules: float     #: package energy consumed over the interval
    dram_joules: float    #: DRAM energy consumed over the interval

    @property
    def pkg_watts(self) -> float:
        """Average package power over the interval."""
        if self.seconds <= 0:
            raise MSRError("poll interval must be positive to derive power")
        return self.pkg_joules / self.seconds

    @property
    def dram_watts(self) -> float:
        """Average DRAM power over the interval."""
        if self.seconds <= 0:
            raise MSRError("poll interval must be positive to derive power")
        return self.dram_joules / self.seconds


class LibMSR:
    """High-level RAPL access, one instance per node.

    Parameters
    ----------
    msr:
        Whitelisted MSR access (an :class:`~repro.hardware.msr_safe.MSRSafe`).
    clock:
        Time source used to stamp energy polls.
    """

    #: Default PL1 averaging window (seconds).
    PL1_WINDOW = 0.01

    def __init__(self, msr: MSRSafe, clock) -> None:
        self.msr = msr
        self.clock = clock
        self._units: RaplUnits | None = None
        self._last: tuple[float, int, int] | None = None  # (t, pkg_raw, dram_raw)

    @property
    def units(self) -> RaplUnits:
        """RAPL units, read once from ``MSR_RAPL_POWER_UNIT`` and cached."""
        if self._units is None:
            # Deterministic derived cache: re-read from the MSR on
            # demand after a restore, never snapshotted.
            self._units = decode_units(self.msr.read(MSR_RAPL_POWER_UNIT))  # repro-lint: disable=ckpt-attr-coverage
        return self._units

    # -- power limits ------------------------------------------------------

    def get_pkg_power_limit(self) -> PowerLimit:
        """Currently programmed PL1 package limit."""
        pl1, _pl2, _locked = decode_power_limit(
            self.msr.read(MSR_PKG_POWER_LIMIT), self.units
        )
        return pl1

    def set_pkg_power_limit(self, watts: float, window: float = PL1_WINDOW,
                            clamp: bool = True) -> None:
        """Program and enable a PL1 package power cap."""
        if watts <= 0:
            raise MSRError(f"power limit must be positive, got {watts}")
        limit = PowerLimit(watts=watts, enabled=True, clamped=clamp,
                           window=window)
        self.msr.write(MSR_PKG_POWER_LIMIT,
                       encode_power_limit(limit, units=self.units))

    def remove_pkg_power_limit(self) -> None:
        """Disable package capping (uncapped execution)."""
        limit = PowerLimit(watts=self.get_tdp(), enabled=False, clamped=False,
                           window=self.PL1_WINDOW)
        self.msr.write(MSR_PKG_POWER_LIMIT,
                       encode_power_limit(limit, units=self.units))

    def get_tdp(self) -> float:
        """Thermal design power from ``MSR_PKG_POWER_INFO`` (watts)."""
        return (self.msr.read(MSR_PKG_POWER_INFO) & 0x7FFF) * self.units.power

    # -- energy / power monitoring -----------------------------------------

    def read_pkg_energy_raw(self) -> int:
        """Raw 32-bit package energy counter."""
        return self.msr.read(MSR_PKG_ENERGY_STATUS)

    def poll_power(self) -> PowerPoll | None:
        """Sample the energy counters; return consumption since the last
        poll, handling 32-bit wraparound. The first call primes the
        baseline and returns None."""
        now = self.clock.now
        pkg_raw = self.msr.read(MSR_PKG_ENERGY_STATUS)
        dram_raw = self.msr.read(MSR_DRAM_ENERGY_STATUS)
        if self._last is None:
            self._last = (now, pkg_raw, dram_raw)
            return None
        t0, pkg0, dram0 = self._last
        self._last = (now, pkg_raw, dram_raw)
        d_pkg = (pkg_raw - pkg0) % _WRAP
        d_dram = (dram_raw - dram0) % _WRAP
        return PowerPoll(
            seconds=now - t0,
            pkg_joules=d_pkg * self.units.energy,
            dram_joules=d_dram * self.units.energy,
        )

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable API state: the poll baseline (the units cache is
        deterministic and re-read on demand)."""
        return {"version": 1, "last": self._last,
                "msr": self.msr.snapshot()}

    def restore(self, state: dict) -> None:
        check_snapshot_version(state, 1, "LibMSR")
        self._last = state["last"]
        self.msr.restore(state["msr"])
