"""Dynamic node-level power policies (paper Section II's motivation).

Two of the policies the paper says online progress enables:

* :class:`BudgetTrackingPolicy` — "in response to an increasing system
  load, the NRM receives gradually decreasing power budgets" and must
  follow them; budget updates arrive asynchronously (from the
  :mod:`repro.nrm.hierarchy` layer) and are enforced on the next tick.
* :class:`ProgressFloorPolicy` — given the application's progress model,
  hold a target progress rate with the least power: the cap starts at
  the model's inverse prediction
  (:meth:`~repro.core.model.PowerCapModel.package_cap_for_progress`) and
  is trimmed online from the monitored progress — the feedback use-case
  the paper's model is "the first step" toward.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.model import PowerCapModel
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    check_snapshot_version,
)
from repro.libmsr import LibMSR
from repro.telemetry.monitor import ProgressMonitor
from repro.telemetry.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine

__all__ = ["BudgetTrackingPolicy", "ProgressFloorPolicy", "check_budget"]

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


class BudgetTrackingPolicy:
    """Enforce the most recent budget received from above."""

    #: Stock enforcement period (seconds).
    INTERVAL = 1.0

    def __init__(self, engine: "Engine", libmsr: LibMSR, *,
                 interval: float = INTERVAL) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self.libmsr = libmsr
        self._budget: float | None = None
        self._applied: object = _UNSET
        self.cap_series = TimeSeries("budget-cap")
        self._tdp = libmsr.get_tdp()
        self._timer = engine.add_timer(interval, self._tick, period=interval)

    def receive_budget(self, watts: float | None) -> None:
        """Deliver a new node budget (None = unconstrained). Called by
        the hierarchy layer at any time; enforced on the next tick."""
        self._budget = check_budget(watts)

    def _tick(self, now: float) -> None:
        if self._budget != self._applied:
            if self._budget is None:
                self.libmsr.remove_pkg_power_limit()
            else:
                self.libmsr.set_pkg_power_limit(self._budget)
            self._applied = self._budget
        self.cap_series.append(
            now, self._tdp if self._budget is None else self._budget
        )

    def stop(self) -> None:
        self._timer.cancel()

    # -- checkpointing ---------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable policy state. ``_applied`` is a module-level
        sentinel when nothing has been applied yet, which would not
        survive pickling — encode it as a tri-state."""
        if self._applied is _UNSET:
            applied = ("unset", None)
        else:
            applied = ("set", self._applied)
        return {"version": 1, "budget": self._budget, "applied": applied,
                "cap_series": self.cap_series.snapshot()}

    def restore(self, state: dict) -> None:
        check_snapshot_version(state, 1, "BudgetTrackingPolicy")
        self._budget = check_budget(state["budget"], CheckpointError)
        kind, value = state["applied"]
        self._applied = _UNSET if kind == "unset" else value
        self.cap_series.restore(state["cap_series"])


class ProgressFloorPolicy:
    """Hold a progress floor with minimal power.

    The initial cap comes from the model inverse; afterwards a simple
    integral controller nudges the cap so the monitored progress stays
    inside ``[target, target*(1+slack)]``.
    """

    def __init__(self, engine: "Engine", libmsr: LibMSR,
                 monitor: ProgressMonitor, model: PowerCapModel,
                 target_rate: float, *, slack: float = 0.08,
                 step: float = 2.0, interval: float = 2.0,
                 min_cap: float = 40.0) -> None:
        if target_rate <= 0:
            raise ConfigurationError("target_rate must be positive")
        if not 0.0 < slack < 1.0:
            raise ConfigurationError("slack must lie in (0, 1)")
        if step <= 0 or min_cap <= 0:
            raise ConfigurationError("step and min_cap must be positive")
        self.libmsr = libmsr
        self.monitor = monitor
        self.model = model
        self.target_rate = target_rate
        self.slack = slack
        self.step = step
        self.min_cap = min_cap
        self.cap_series = TimeSeries("floor-cap")
        self._tdp = libmsr.get_tdp()
        try:
            cap = model.package_cap_for_progress(target_rate)
        except Exception:
            cap = self._tdp
        self.cap = min(max(cap, min_cap), self._tdp)
        libmsr.set_pkg_power_limit(self.cap)
        self._timer = engine.add_timer(interval, self._tick, period=interval)

    def _tick(self, now: float) -> None:
        series = self.monitor.series
        if len(series) >= 1:
            rate = series.values[-1]
            if rate > 0:
                if rate < self.target_rate:
                    self.cap = min(self.cap + self.step, self._tdp)
                elif rate > self.target_rate * (1.0 + self.slack):
                    self.cap = max(self.cap - self.step, self.min_cap)
                self.libmsr.set_pkg_power_limit(self.cap)
        self.cap_series.append(now, self.cap)

    def stop(self) -> None:
        self._timer.cancel()
