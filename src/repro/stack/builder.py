"""Single assembly point for the paper's node stack.

Every consumer in the repo — the single-node :class:`Testbed`, the
cluster's :class:`NodeInstance`, and the power-aware scheduler — runs
the *same* component graph: simulated node, RAPL firmware, MSR device
behind msr-safe, libmsr API, pub/sub bus, 1 Hz progress monitors, and the
cap controller. :class:`NodeStack` wires that graph exactly once,
from a :class:`~repro.stack.spec.StackSpec`, in a fixed canonical
order:

1. hardware: node → engine → firmware → msr-safe → libmsr,
2. userspace frequency/duty pins,
3. the application (prebuilt, or built from the registry),
4. telemetry transport: bus, publisher hook, per-topic monitors,
5. the cap controller (fed by a schedule or by budgets),
6. optional node-state sampling tap (package power among it),
7. caller-supplied lifecycle hooks.

The order is part of the contract: engine timers fire in registration
order at tie times, and the golden parity fixtures in
``tests/stack`` pin the resulting series bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.apps import build as build_app
from repro.apps.base import SyntheticApp
from repro.hardware.config import NodeConfig, skylake_config
from repro.hardware.ddcm import DDCMController
from repro.hardware.dvfs import DVFSController
from repro.hardware.msr import MSRDevice
from repro.hardware.msr_safe import MSRSafe
from repro.hardware.node import SimulatedNode
from repro.hardware.rapl import RaplFirmware
from repro.libmsr import LibMSR
from repro.nrm.controller import CapController
from repro.stack.spec import StackSpec
from repro.telemetry.monitor import ProgressMonitor
from repro.telemetry.pubsub import MessageBus
from repro.telemetry.timeseries import TimeSeries

from repro.runtime.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Timer
    from repro.stack.checkpoint import NodeCheckpoint

__all__ = ["NodeStack", "default_topics"]

#: A lifecycle hook: called with the fully assembled stack before launch.
StackHook = Callable[["NodeStack"], None]


def default_topics(app: SyntheticApp) -> tuple[str, ...]:
    """The paper's default monitoring set for an application.

    The imbalance example is watched under both progress definitions,
    URBAN per coupled component, everything else on its main topic.
    """
    if app.name == "imbalance":
        return ("progress/imbalance/iterations",
                "progress/imbalance/work_units")
    if app.name == "urban":
        return tuple(f"progress/{c.name}" for c in app.components)  # type: ignore[attr-defined]
    return (app.topic,)


class NodeStack:
    """One fully wired node stack, assembled from a :class:`StackSpec`.

    Parameters
    ----------
    spec:
        The picklable stack description.
    app:
        Optional pre-built application instance; overrides
        ``spec.app_name``/``spec.app_kwargs`` (used by callers that
        construct bespoke apps — such stacks cannot be rebuilt from the
        spec alone).
    hooks:
        Callables invoked with the assembled stack (telemetry taps,
        extra timers) after wiring, before :meth:`launch`.

    Attributes
    ----------
    node, engine, firmware, libmsr, bus, app:
        The assembled components.
    monitors:
        ``topic -> ProgressMonitor`` for every monitored topic.
    topics:
        Monitored topics in order; ``topics[0]`` is the main topic.
    controller:
        The :class:`~repro.nrm.controller.CapController`, driven by
        ``spec.schedule`` or, without one, by delivered budgets.
    power_series, freq_series, duty_series, uncore_series:
        Node-state tap series (empty unless ``spec.sample_node_state``).
    """

    def __init__(self, spec: StackSpec, *,
                 app: SyntheticApp | None = None,
                 hooks: Iterable[StackHook] = ()) -> None:
        self.spec = spec
        self.cfg: NodeConfig = spec.cfg if spec.cfg is not None \
            else skylake_config()

        # 1. Hardware: the only place in the tree that assembles the
        #    RAPL/msr-safe/libmsr access path.
        self.node = SimulatedNode(self.cfg)
        self.engine = Engine(self.node)
        self.firmware = RaplFirmware(self.node, self.engine,
                                     **dict(spec.firmware_kwargs or {}))
        self.libmsr = LibMSR(MSRSafe(MSRDevice(self.node, self.firmware)),
                             self.node.clock)

        # 2. Userspace pins.
        if spec.dvfs_freq is not None:
            DVFSController(self.node).set_frequency(spec.dvfs_freq)
        if spec.duty is not None:
            DDCMController(self.node).set_duty(spec.duty)

        # 3. Application.
        if app is not None:
            self.app = app
        else:
            self.app = build_app(spec.app_name,
                                 **spec.resolved_app_kwargs(self.cfg))

        # 4. Telemetry transport and monitors.
        self.bus = MessageBus(self.node.clock,
                              drop_prob=self.app.spec.transport_drop_prob,
                              seed=spec.seed + 1)
        pub = self.bus.pub_socket()
        self.engine.on_publish(lambda t, topic, v: pub.send(topic, v))
        self.topics: tuple[str, ...] = (
            spec.topics if spec.topics is not None
            else default_topics(self.app))
        self.monitors: dict[str, ProgressMonitor] = {
            topic: ProgressMonitor(
                self.engine, self.bus.sub_socket(topic),
                interval=spec.monitor_interval,
                name=self._series_name(topic))
            for topic in self.topics
        }

        # 5. Cap controller.
        self.controller = CapController(self.engine, self.libmsr,
                                        spec.schedule)
        if spec.initial_budget is not None:
            # Apply the admission-time cap *before* the first cycle
            # runs: a budget is only enforced on the controller's next
            # tick, which would leave a capped job uncapped for its
            # first second — enough to blow a cluster power budget at
            # scale.
            self.libmsr.set_pkg_power_limit(spec.initial_budget)
            self.controller.receive_budget(spec.initial_budget)

        # 6. Node-state tap.
        self.power_series = TimeSeries(self._series_name("package-power"))
        self.freq_series = TimeSeries(self._series_name("frequency"))
        self.duty_series = TimeSeries(self._series_name("duty"))
        self.uncore_series = TimeSeries(self._series_name("uncore-power"))
        if spec.sample_node_state:
            self.libmsr.poll_power()  # prime the energy baseline
            self.add_tap(spec.monitor_interval, self._sample_node_state)

        # 7. Caller hooks.
        for hook in hooks:
            hook(self)

        self._launched = False
        self._prebuilt = app is not None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def launch(self) -> "NodeStack":
        """Spawn the application's tasks on the engine (idempotent)."""
        if not self._launched:
            self.app.launch(self.engine)
            self._launched = True
        return self

    def run(self, until: float | None = None) -> float:
        """Launch (if needed) and drive the engine; returns final time."""
        self.launch()
        return self.engine.run(until=until)

    def add_tap(self, interval: float,
                callback: Callable[[float], None]) -> "Timer":
        """Register a periodic telemetry tap ``callback(now)``."""
        return self.engine.add_timer(interval, callback, period=interval)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> "NodeCheckpoint":
        """Capture the stack's full mutable state as a picklable
        :class:`~repro.stack.checkpoint.NodeCheckpoint`.

        Raises :class:`~repro.exceptions.CheckpointError` for stacks
        assembled around a prebuilt app instance — those cannot be
        rebuilt from the spec alone.
        """
        from repro.stack.checkpoint import take_checkpoint

        return take_checkpoint(self)

    @classmethod
    def from_checkpoint(cls, cp: "NodeCheckpoint",
                        hooks: Iterable[StackHook] = ()) -> "NodeStack":
        """Rebuild a stack from a checkpoint; it continues bit-for-bit
        where the snapshotted stack left off. ``hooks`` must match the
        hooks of the original assembly (timer registration order is
        verified on restore)."""
        from repro.stack.checkpoint import install_checkpoint

        return install_checkpoint(cp, hooks=hooks)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.node.clock.now

    @property
    def main_topic(self) -> str:
        return self.topics[0]

    @property
    def main_monitor(self) -> ProgressMonitor:
        return self.monitors[self.main_topic]

    @property
    def progress_series(self) -> TimeSeries:
        return self.main_monitor.series

    def topic_series(self) -> dict[str, TimeSeries]:
        return {t: m.series for t, m in self.monitors.items()}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _series_name(self, base: str) -> str:
        return f"{self.spec.name}:{base}" if self.spec.name else base

    def _sample_node_state(self, now: float) -> None:
        poll = self.libmsr.poll_power()
        if poll is not None and poll.seconds > 0:
            self.power_series.append(now, poll.pkg_watts)
        self.freq_series.append(now, self.node.frequency)
        self.duty_series.append(now, self.node.duty)
        self.uncore_series.append(now, self.node.last_power.uncore)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeStack({self.spec.app_name!r}, t={self.now:.1f}s)"
