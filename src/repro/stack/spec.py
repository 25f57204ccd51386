"""Picklable description of one node's complete software/hardware stack.

The paper's testbed is a single fixed assembly — simulated node, RAPL
firmware, the MSR device behind msr-safe, the libmsr-style API, the
ZeroMQ-style bus, 1 Hz progress monitors, and the cap controller.
:class:`StackSpec` captures every degree of freedom of that assembly in
one frozen dataclass built from plain data (the node config, the
application *name* and kwargs, schedules, seeds), so a spec can be

* handed to :class:`~repro.stack.builder.NodeStack` to wire the whole
  component graph exactly once, and
* pickled across a process boundary, where a worker reconstructs the
  stack from scratch — live stacks hold generators and cannot be
  pickled, but their specs can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.hardware.config import NodeConfig
from repro.nrm.controller import check_budget
from repro.nrm.schemes import CapSchedule

__all__ = ["StackSpec"]


@dataclass(frozen=True)
class StackSpec:
    """Everything needed to assemble one node stack, as plain data.

    Attributes
    ----------
    app_name:
        Application to build through the registry (``app_kwargs`` are
        forwarded; ``seed`` and ``cfg`` are filled in unless given).
    cfg:
        Node hardware configuration; ``None`` selects the default
        Skylake testbed configuration at build time.
    app_kwargs:
        Keyword arguments for the application factory.
    seed:
        Master seed. The application receives it directly; the message
        bus loss process is seeded with ``seed + 1`` (matching the
        paper harness).
    schedule:
        Capping schedule the :class:`~repro.nrm.controller.CapController`
        follows (the single-node experiments). ``None`` makes the
        controller follow the budgets delivered from above instead
        (cluster nodes and scheduler jobs), uncapped until the first.
    initial_budget:
        Budget-driven stacks only: a cap applied *before* the first
        cycle runs (admission-time capping; the controller alone would
        leave the node uncapped until its first tick).
    monitor_interval:
        Progress-monitor aggregation window (the paper uses 1 s).
    topics:
        Topics to monitor; ``None`` selects the application's paper
        default (component topics for URBAN, both progress definitions
        for the imbalance example, the main topic otherwise).
    dvfs_freq, duty:
        Optional userspace frequency / duty-cycle pins applied through
        the DVFS and DDCM knobs before the run.
    firmware_kwargs:
        Overrides for the RAPL firmware (ablations).
    name:
        Stack identity used to prefix monitor/series names
        (``"node3"`` gives ``"node3:progress/..."``); ``None`` keeps
        bare topic names.
    sample_node_state:
        When True the stack installs a periodic tap recording package
        power, frequency, duty cycle and instantaneous uncore power (the
        Testbed's extra telemetry).
    """

    app_name: str
    cfg: NodeConfig | None = None
    app_kwargs: Mapping[str, Any] | None = None
    seed: int = 0
    schedule: CapSchedule | None = None
    initial_budget: float | None = None
    monitor_interval: float = 1.0
    topics: tuple[str, ...] | None = None
    dvfs_freq: float | None = None
    duty: float | None = None
    firmware_kwargs: Mapping[str, Any] | None = None
    name: str | None = None
    sample_node_state: bool = False

    def __post_init__(self) -> None:
        if not self.app_name:
            raise ConfigurationError("app_name must be a non-empty string")
        if self.monitor_interval <= 0:
            raise ConfigurationError(
                f"monitor_interval must be positive, got "
                f"{self.monitor_interval}")
        check_budget(self.initial_budget)
        if self.initial_budget is not None and self.schedule is not None:
            raise ConfigurationError(
                "schedule and initial_budget are mutually exclusive")
        if self.topics is not None and not self.topics:
            raise ConfigurationError("topics must be None or non-empty")

    def replace(self, **changes: Any) -> "StackSpec":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def resolved_app_kwargs(self, cfg: NodeConfig) -> dict[str, Any]:
        """Application factory kwargs with seed/cfg defaults filled in."""
        kwargs = dict(self.app_kwargs or {})
        kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("cfg", cfg)
        return kwargs
