"""Physical description of the simulated node.

All units are SI: frequencies in Hz, power in watts, bandwidth in bytes per
second, time in seconds. The default values (:func:`skylake_config`) are
calibrated so that a 24-core compute-bound workload draws roughly 155 W of
package power uncapped and a bandwidth-saturating workload roughly 115 W —
in the same regime as the paper's dual-socket Xeon Gold 6126 testbed (the
two sockets are folded into a single symmetric 24-core package; the paper
applies identical caps to both sockets, so the fold preserves behaviour).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hardware.kernels import voltage_curve

__all__ = ["NodeConfig", "skylake_config"]


def _default_ladder() -> tuple[float, ...]:
    # 1.2 GHz .. 3.3 GHz in 100 MHz steps (P-states), then turbo bins up
    # to 3.7 GHz. The paper's "nominal maximum" is 3.3 GHz.
    # float(): numpy's rounding, but plain floats (numpy scalars would
    # make every frequency-derived quantity a numpy scalar)
    base = [float(round(f, 1) * 1e9) for f in np.arange(1.2, 3.3001, 0.1)]
    turbo = [3.4e9, 3.5e9, 3.6e9, 3.7e9]
    return tuple(base + turbo)


def _default_duty_levels() -> tuple[float, ...]:
    # Intel clock-modulation steps: 12.5 % .. 100 % in 1/8 increments,
    # ordered from most throttled to unthrottled.
    return tuple(i / 8.0 for i in range(1, 9))


@dataclass(frozen=True)
class NodeConfig:
    """Immutable physical parameters of a simulated node.

    Attributes
    ----------
    n_cores:
        Number of physical cores (hyperthreading is not modelled, matching
        the paper's setup where it was disabled).
    freq_ladder:
        Available core frequencies in Hz, ascending. Frequencies above
        ``f_nominal`` are turbo bins (opportunistic, power permitting).
    f_nominal:
        Nominal maximum (non-turbo) frequency — the paper's ``f_max``.
    f_beta_low:
        The low frequency used by the paper to measure the beta metric
        (1600 MHz).
    v_min, v_knee_freq, v_nominal, v_slope_linear:
        Voltage/frequency curve: V = ``v_min`` below ``v_knee_freq``,
        then ``v_min + a1*x + a2*x**2`` with ``x = f - v_knee_freq``,
        ``a1 = v_slope_linear`` and ``a2`` chosen so V(f_nominal) =
        ``v_nominal``; the curve extrapolates smoothly into the turbo
        range. The floor and the convexity make the effective alpha
        (P proportional to f**alpha) drift from ~1 at the bottom of the
        ladder through ~2.3 midrange to ~3.5 near turbo — the paper fixes
        alpha = 2 and reports the real value varying between 1 and 4;
        this drift is a root cause of its model error.
    c_dyn:
        Per-core dynamic power coefficient: P_dyn = c_dyn * V^2 * f *
        activity (watts).
    leak_per_volt:
        Per-core static/leakage power per volt: P_static = leak_per_volt * V.
    stall_activity:
        Fraction of full dynamic activity a core burns while stalled on
        memory. Deliberately high (0.9): memory-bound codes keep the
        pipeline, prefetchers and load/store machinery busy, so their
        per-core power is only slightly below a compute-bound code's —
        while their traffic additionally loads the uncore. Under an
        identical package cap the uncore share leaves less for the cores,
        so RAPL settles memory-bound workloads at a *lower* frequency:
        the paper's Fig. 2 "application-aware" behaviour, emergent.
    spin_activity, spin_ipc:
        Activity factor and instructions-per-cycle of a busy-wait spin loop
        (MPI barrier polling).
    sleep_activity:
        Activity factor of a core sleeping in an OS idle state (usleep).
    mem_bandwidth:
        Node-level sustainable memory bandwidth (bytes/s).
    core_link_bandwidth:
        Maximum bandwidth a single core can draw (bytes/s).
    uncore_base:
        Traffic-independent uncore power (watts).
    uncore_per_bw:
        Uncore power per unit memory traffic (watts per byte/s).
    dram_base, dram_per_bw:
        DRAM-domain power model (reported via RAPL's DRAM domain; not
        included in the package domain, as on real Skylake).
    cache_line:
        Bytes per last-level-cache line (used to derive L3 miss counts).
    duty_levels:
        Available clock-modulation duty cycles, ascending (most throttled
        first). Duty gates the core clock, which throttles *both* compute
        and the core's ability to issue memory requests — the mechanism by
        which RAPL hurts memory-bound codes more than a pure-DVFS model
        predicts (paper Fig. 4d / Fig. 5).
    tdp:
        Package thermal design power — the default (uncapped) RAPL limit.
    energy_unit:
        RAPL energy counter granularity in joules (2^-14 J on real
        hardware, exposed via MSR_RAPL_POWER_UNIT).
    power_unit:
        RAPL power-limit granularity in watts (2^-3 W = 0.125 W).
    time_unit:
        RAPL time-window granularity in seconds (2^-10 s).
    """

    n_cores: int = 24
    freq_ladder: tuple[float, ...] = field(default_factory=_default_ladder)
    f_nominal: float = 3.3e9
    f_beta_low: float = 1.6e9
    v_min: float = 0.70
    v_knee_freq: float = 1.7e9
    v_nominal: float = 1.15
    v_slope_linear: float = 1.2e-10
    c_dyn: float = 1.1e-9
    leak_per_volt: float = 0.78
    stall_activity: float = 0.90
    spin_activity: float = 0.70
    spin_ipc: float = 2.0
    sleep_activity: float = 0.02
    mem_bandwidth: float = 200e9
    core_link_bandwidth: float = 12e9
    uncore_base: float = 8.0
    uncore_per_bw: float = 1.0e-10
    dram_base: float = 3.0
    dram_per_bw: float = 2.0e-10
    cache_line: int = 64
    duty_levels: tuple[float, ...] = field(default_factory=_default_duty_levels)
    tdp: float = 165.0
    energy_unit: float = 2.0**-14
    power_unit: float = 2.0**-3
    time_unit: float = 2.0**-10

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {self.n_cores}")
        if len(self.freq_ladder) < 2:
            raise ConfigurationError("freq_ladder needs at least two steps")
        if list(self.freq_ladder) != sorted(self.freq_ladder):
            raise ConfigurationError("freq_ladder must be ascending")
        if any(f <= 0 for f in self.freq_ladder):
            raise ConfigurationError("frequencies must be positive")
        if self.f_nominal not in self.freq_ladder:
            raise ConfigurationError(
                f"f_nominal {self.f_nominal} must be a ladder step"
            )
        if not self.freq_ladder[0] <= self.f_beta_low <= self.f_nominal:
            raise ConfigurationError("f_beta_low must lie within the ladder")
        for name in ("v_min", "v_nominal", "c_dyn", "leak_per_volt",
                     "mem_bandwidth", "core_link_bandwidth", "tdp",
                     "energy_unit", "power_unit", "time_unit"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.v_nominal < self.v_min:
            raise ConfigurationError("v_nominal must be >= v_min")
        for name in ("stall_activity", "spin_activity", "sleep_activity"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {val}")
        if not self.duty_levels or list(self.duty_levels) != sorted(self.duty_levels):
            raise ConfigurationError("duty_levels must be non-empty ascending")
        if not 0.0 < self.duty_levels[0] <= 1.0 or self.duty_levels[-1] != 1.0:
            raise ConfigurationError("duty_levels must lie in (0, 1] and end at 1.0")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def f_min(self) -> float:
        """Lowest available core frequency (Hz)."""
        return self.freq_ladder[0]

    @property
    def f_turbo(self) -> float:
        """Highest available core frequency (Hz), including turbo."""
        return self.freq_ladder[-1]

    @property
    def nominal_index(self) -> int:
        """Index of ``f_nominal`` within the ladder."""
        return self.freq_ladder.index(self.f_nominal)

    def voltage(self, freq: float) -> float:
        """Core supply voltage at frequency ``freq``.

        Flat at ``v_min`` below the knee, then quadratic in
        ``f - v_knee_freq`` with linear coefficient ``v_slope_linear`` and
        the quadratic coefficient pinned so that V(``f_nominal``) equals
        ``v_nominal``; turbo frequencies extrapolate the same curve.
        """
        if freq <= 0:
            raise ConfigurationError(f"frequency must be positive, got {freq}")
        if freq <= self.v_knee_freq:
            return self.v_min
        return voltage_curve(freq, self.v_min, self.v_knee_freq,
                             self.f_nominal, self.v_nominal,
                             self.v_slope_linear)

    def ladder_index(self, freq: float) -> int:
        """Index of the highest ladder step <= ``freq``.

        Raises :class:`ConfigurationError` when ``freq`` is below the
        bottom of the ladder.
        """
        if freq < self.freq_ladder[0]:
            raise ConfigurationError(
                f"{freq} Hz is below the minimum ladder frequency "
                f"{self.freq_ladder[0]} Hz"
            )
        return bisect_right(self.freq_ladder, freq) - 1


def skylake_config(**overrides) -> NodeConfig:
    """Default node configuration mirroring the paper's testbed.

    Keyword overrides are forwarded to :class:`NodeConfig`, e.g.
    ``skylake_config(n_cores=12)`` for a single-socket variant.
    """
    return NodeConfig(**overrides)
