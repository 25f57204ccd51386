"""The node's one package-cap loop (paper Section V-B).

"The power-policy tool runs as a background daemon on the node. It
monitors power usage and applies the selected dynamic power-capping
scheme on the package domain once every second."

:class:`CapController` is that loop: once per ``interval`` it applies
a package cap through the libmsr-style API (which goes through
msr-safe's whitelist to the RAPL MSRs) if the cap changed, then logs
it. The cap comes from one of two sources:

* a :class:`~repro.nrm.schemes.CapSchedule`, indexed by the time since
  the controller started (the single-node experiments). The t=0 cap is
  applied at construction;
* the last :meth:`~CapController.receive_budget` from above (cluster
  nodes and scheduler jobs), applied on the next tick.

The package-power poll is not part of the loop: the stack's node-state
tap records it (:attr:`repro.stack.builder.NodeStack.power_series`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    check_snapshot_version,
)
from repro.libmsr import LibMSR
from repro.nrm.schemes import CapSchedule
from repro.telemetry.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

__all__ = ["CapController", "check_budget"]

#: Sentinel distinguishing "nothing applied yet" from "uncapped" (None).
_UNSET = object()


def check_budget(watts: float | None,
                 error: type[ReproError] = ConfigurationError) -> float | None:
    """Return ``watts`` if it is a valid node budget (None = unconstrained,
    else positive and finite); raise ``error`` otherwise. Both engines
    check every budget they receive or restore with this rule."""
    if watts is not None and not (math.isfinite(watts) and watts > 0):
        raise error(f"budget must be positive and finite, got {watts}")
    return watts


class CapController:
    """Apply a package cap once per ``interval`` and log it.

    Parameters
    ----------
    engine:
        Engine providing the clock and the periodic timer.
    libmsr:
        Hardware access (power-limit programming).
    schedule:
        The capping schedule, indexed by the time since construction;
        ``None`` follows the budgets delivered by :meth:`receive_budget`
        instead (uncapped until the first one).
    interval:
        Control period in seconds (the paper's tool uses 1 s).
    """

    #: Stock control period (seconds).
    INTERVAL = 1.0

    def __init__(self, engine: "Engine", libmsr: LibMSR,
                 schedule: CapSchedule | None = None, *,
                 interval: float = INTERVAL) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self.libmsr = libmsr
        self.schedule = schedule
        self.cap_series = TimeSeries("package-cap")
        self._start = engine.clock.now
        self._budget: float | None = None
        self._applied: object = _UNSET
        self._tdp = libmsr.get_tdp()
        if schedule is not None:
            self._tick(self._start)
        self._timer = engine.add_timer(interval, self._tick, period=interval)

    def receive_budget(self, watts: float | None) -> None:
        """Deliver a new node budget (None = unconstrained), enforced on
        the next tick. A schedule-driven controller takes no budgets."""
        if self.schedule is not None:
            raise ConfigurationError(
                "this controller follows a cap schedule; it takes no budgets")
        self._budget = check_budget(watts)

    def _tick(self, now: float) -> None:
        cap = (self._budget if self.schedule is None
               else self.schedule.cap_at(now - self._start))
        if cap != self._applied:
            if cap is None:
                self.libmsr.remove_pkg_power_limit()
            else:
                self.libmsr.set_pkg_power_limit(cap)
            self._applied = cap
        self.cap_series.append(now, self._tdp if cap is None else cap)

    def stop(self) -> None:
        """Stop the periodic tick."""
        self._timer.cancel()

    # -- checkpointing ---------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable controller state. ``_applied`` is a module-level
        sentinel until the first apply, which would not survive
        pickling, so it travels as a tri-state."""
        if self._applied is _UNSET:
            applied = ("unset", None)
        else:
            applied = ("set", self._applied)
        return {"version": 2, "start": self._start, "budget": self._budget,
                "applied": applied, "cap_series": self.cap_series.snapshot()}

    def restore(self, state: dict) -> None:
        check_snapshot_version(state, 2, "CapController")
        budget = check_budget(state["budget"], CheckpointError)
        if budget is not None and self.schedule is not None:
            raise CheckpointError(
                "a schedule-driven controller cannot hold a budget")
        self._start = state["start"]
        self._budget = budget
        kind, value = state["applied"]
        self._applied = _UNSET if kind == "unset" else value
        self.cap_series.restore(state["cap_series"])
