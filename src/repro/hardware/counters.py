"""PAPI-like hardware event counters.

The execution engine accrues three events per core while integrating work:

* ``PAPI_TOT_INS`` — instructions retired,
* ``PAPI_TOT_CYC`` — core clock cycles elapsed while the core was active,
* ``PAPI_L3_TCM`` — last-level cache misses (one per ``cfg.cache_line``
  bytes of memory traffic).

These are exactly the events the paper uses: MPO = L3_TCM / TOT_INS
(Section IV-A) and MIPS (Table I) derive from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["EVENTS", "CounterSnapshot", "CounterBank"]

EVENTS: tuple[str, ...] = ("PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L3_TCM")


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable per-core counter values at a point in simulated time."""

    time: float
    tot_ins: np.ndarray
    tot_cyc: np.ndarray
    l3_tcm: np.ndarray

    def total(self, event: str) -> float:
        """Node-wide sum for a PAPI event name."""
        return float(self._array(event).sum())

    def _array(self, event: str) -> np.ndarray:
        try:
            return {
                "PAPI_TOT_INS": self.tot_ins,
                "PAPI_TOT_CYC": self.tot_cyc,
                "PAPI_L3_TCM": self.l3_tcm,
            }[event]
        except KeyError:
            raise ConfigurationError(
                f"unknown event {event!r}; available: {EVENTS}"
            ) from None

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Counter increments between ``earlier`` and this snapshot."""
        return CounterSnapshot(
            time=self.time - earlier.time,
            tot_ins=self.tot_ins - earlier.tot_ins,
            tot_cyc=self.tot_cyc - earlier.tot_cyc,
            l3_tcm=self.l3_tcm - earlier.l3_tcm,
        )

    def mips(self) -> float:
        """Million instructions per second over the snapshot's time span
        (meaningful on a delta snapshot, where ``time`` is the interval)."""
        if self.time <= 0:
            raise ConfigurationError("MIPS requires a delta with positive time")
        return self.total("PAPI_TOT_INS") / self.time / 1e6

    def mpo(self) -> float:
        """Misses per operation: L3_TCM / TOT_INS (the paper's MPO)."""
        ins = self.total("PAPI_TOT_INS")
        if ins <= 0:
            return 0.0
        return self.total("PAPI_L3_TCM") / ins


class CounterBank:
    """Mutable per-core counters, accrued by the engine.

    Values live in plain Python lists (a scalar ``+=`` on a list is far
    cheaper than a numpy item write); :meth:`snapshot` hands out arrays.
    """

    def __init__(self, n_cores: int) -> None:
        if n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {n_cores}")
        self.n_cores = n_cores
        self.reset()

    def accrue(self, core_id: int, instructions: float = 0.0,
               cycles: float = 0.0, l3_misses: float = 0.0) -> None:
        """Add event counts to one core (engine-internal; the engine
        passes them positionally, once per task and segment)."""
        if instructions < 0 or cycles < 0 or l3_misses < 0:
            raise ConfigurationError("counter increments must be non-negative")
        self._ins[core_id] += instructions
        self._cyc[core_id] += cycles
        self._l3[core_id] += l3_misses

    def snapshot(self, time: float) -> CounterSnapshot:
        """Immutable copy of the current values, stamped with ``time``."""
        return CounterSnapshot(
            time=time,
            tot_ins=np.array(self._ins, dtype=float),
            tot_cyc=np.array(self._cyc, dtype=float),
            l3_tcm=np.array(self._l3, dtype=float),
        )

    def reset(self) -> None:
        """Zero all counters (e.g. between measurement windows)."""
        self._ins = [0.0] * self.n_cores
        self._cyc = [0.0] * self.n_cores
        self._l3 = [0.0] * self.n_cores

    # ``snapshot(time)`` above predates the checkpoint layer and returns
    # a CounterSnapshot, so the checkpoint protocol uses dump/load names.

    def dump_state(self) -> dict:
        """Picklable counter values (plain lists of floats)."""
        return {"ins": [float(x) for x in self._ins],
                "cyc": [float(x) for x in self._cyc],
                "l3": [float(x) for x in self._l3]}

    def load_state(self, state: dict) -> None:
        """Reinstall :meth:`dump_state` output.

        Each list must hold exactly one value per core; anything else
        (including a one-element list, which an array assignment would
        broadcast to every core) raises :class:`ConfigurationError`.
        """
        columns = []
        for key in ("ins", "cyc", "l3"):
            try:
                column = [float(x) for x in state[key]]
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"counter state {key!r} is not a list of numbers"
                ) from None
            if len(column) != self.n_cores:
                raise ConfigurationError(
                    f"counter state {key!r} has {len(column)} values for "
                    f"{self.n_cores} cores")
            columns.append(column)
        self._ins, self._cyc, self._l3 = columns
