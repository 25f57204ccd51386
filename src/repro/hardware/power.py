"""Physically-motivated package power model.

Per-core power combines leakage (proportional to supply voltage) and
dynamic switching power ``c_dyn * V(f)^2 * f * duty * activity``. Because
the voltage curve has a floor below the knee frequency and rises linearly
above it (see :class:`~repro.hardware.config.NodeConfig`), the *effective*
exponent alpha in ``P_core ~ f^alpha`` drifts from ~1 near the bottom of
the ladder to ~3 near the top. The paper's analytic model fixes alpha = 2;
this drift is one of the physical sources of its prediction error
(Section VI-B3 reports alpha varying "between 1 and 4").

Uncore (and DRAM-domain) power scales with memory traffic, so memory-bound
workloads spend a larger share of any package budget outside the cores —
which is why RAPL runs them at lower core frequencies for the same cap
(paper Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.config import NodeConfig
from repro.hardware.cpu import CoreMode, CoreState
from repro.hardware.kernels import (
    busy_activity,
    core_power,
    dram_power,
    uncore_power,
)

__all__ = ["PowerSample", "PowerModel"]


@dataclass(frozen=True)
class PowerSample:
    """Instantaneous power breakdown in watts."""

    package: float   #: total package-domain power (cores + uncore)
    cores: float     #: sum of per-core static + dynamic power
    uncore: float    #: traffic-dependent uncore power
    dram: float      #: DRAM-domain power (separate RAPL domain)

    @property
    def total(self) -> float:
        """Package + DRAM power (the whole node as RAPL sees it)."""
        return self.package + self.dram


class PowerModel:
    """Maps node state to instantaneous power draw.

    V(f) is memoized per frequency (the DVFS ladder is short and the
    config frozen), and :meth:`fold` is the one loop that sums core
    power and traffic; :meth:`sample` and the RAPL firmware's what-if
    prediction both go through it.
    """

    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self._volts: dict[float, float] = {}

    def core_power(self, core: CoreState) -> float:
        """Static + dynamic power of one core (watts)."""
        cfg = self.cfg
        volt = cfg.voltage(core.freq)
        return core_power(volt, core.freq, core.duty, core.activity(cfg),
                          cfg.c_dyn, cfg.leak_per_volt)

    def fold(self, cores: list[CoreState], freq: float | None = None,
             duty: float | None = None) -> tuple[float, float]:
        """Sum per-core power and traffic sequentially in core order.

        ``freq``/``duty`` override every core's own clock for a what-if
        (the firmware's prediction); the activity pattern is the cores'
        current one either way. The left fold in core order is the
        reduction the vector engine replays, so it is bit-relevant.
        """
        cfg = self.cfg
        volts = self._volts
        c_dyn = cfg.c_dyn
        leak = cfg.leak_per_volt
        stall = cfg.stall_activity
        spin_act = cfg.spin_activity
        sleep_act = cfg.sleep_activity
        # enum member lookups are slow enough to hoist out of the loop
        busy = CoreMode.BUSY
        spin = CoreMode.SPIN
        core_total = 0.0
        traffic = 0.0
        for core in cores:
            f = core.freq if freq is None else freq
            d = core.duty if duty is None else duty
            volt = volts.get(f)
            if volt is None:
                # a float, so the result's type follows ``f`` as before
                volt = volts[f] = float(cfg.voltage(f))
            mode = core.mode
            if mode is busy:
                act = busy_activity(core.compute_frac, stall)
            else:
                act = spin_act if mode is spin else sleep_act
            core_total = core_total + core_power(volt, f, d, act, c_dyn, leak)
            traffic = traffic + core.bytes_rate
        return core_total, traffic

    def sample(self, cores: list[CoreState]) -> PowerSample:
        """Power breakdown for the whole node given per-core states."""
        cfg = self.cfg
        core_total, traffic = self.fold(cores)
        uncore = uncore_power(traffic, cfg.uncore_base, cfg.uncore_per_bw)
        dram = dram_power(traffic, cfg.dram_base, cfg.dram_per_bw)
        return PowerSample(
            package=core_total + uncore,
            cores=core_total,
            uncore=uncore,
            dram=dram,
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def core_power_at(self, freq: float, activity: float = 1.0,
                      duty: float = 1.0) -> float:
        """Power of a single hypothetical core at ``freq`` (watts).

        Useful for plotting the P(f) curve and for deriving the effective
        alpha exponent without running a simulation.
        """
        cfg = self.cfg
        volt = cfg.voltage(freq)
        return core_power(volt, freq, duty, activity,
                          cfg.c_dyn, cfg.leak_per_volt)

    def effective_alpha(self, f_low: float, f_high: float,
                        activity: float = 1.0) -> float:
        """Local exponent alpha such that ``P ~ f^alpha`` between two
        frequencies, using only the *dynamic* component (the paper's Eq. 2
        concerns dynamic power).
        """
        import math

        cfg = self.cfg
        p_low = cfg.c_dyn * cfg.voltage(f_low) ** 2 * f_low * activity
        p_high = cfg.c_dyn * cfg.voltage(f_high) ** 2 * f_high * activity
        return math.log(p_high / p_low) / math.log(f_high / f_low)
