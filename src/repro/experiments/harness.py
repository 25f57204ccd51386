"""Measurement machinery shared by all experiments.

:class:`Testbed` runs measurement protocols over the unified node stack
(:mod:`repro.stack`): each run assembles the full testbed assembly — the
simulated node, RAPL firmware, MSR device behind msr-safe, the
libmsr-style API, the ZeroMQ-style bus, 1 Hz progress monitors, and the
schedule-driven cap controller — through
:class:`~repro.stack.builder.NodeStack`, executes one application under
a capping schedule, and returns every series the paper's figures need.

The module also implements the paper's measurement protocols:

* :meth:`Testbed.characterize` — Section IV-A: execution time at
  3300 MHz and 1600 MHz for beta, PAPI counters for MPO;
* :meth:`Testbed.measure_delta_progress` — Section VI-B: the
  step-function protocol ("the change in progress is measured when a
  power cap is applied from an uncapped state"), averaged over five
  repeats per cap. The repeats are independent runs described by plain
  data, so they fan out over a
  :class:`~repro.runtime.executor.RunExecutor` process pool when one is
  supplied — with results identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis import mean_confidence_interval
from repro.apps.base import SyntheticApp
from repro.core.beta import beta_from_times, mpo_from_delta
from repro.exceptions import ConfigurationError
from repro.hardware.config import NodeConfig, skylake_config
from repro.hardware.counters import CounterSnapshot
from repro.nrm.schemes import CapSchedule, FixedCapSchedule, UncappedSchedule
from repro.runtime.executor import RunExecutor
from repro.stack import NodeStack, StackSpec
from repro.telemetry.timeseries import TimeSeries

__all__ = ["Testbed", "RunResult", "DeltaMeasurement",
           "CharacterizationResult"]


@dataclass
class RunResult:
    """Everything measured in one application run."""

    app_name: str
    seed: int
    duration: float
    progress: TimeSeries                 #: main-topic rate series (1 Hz)
    topics: dict[str, TimeSeries]        #: all monitored topic series
    power: TimeSeries                    #: package power (1 Hz averages)
    frequency: TimeSeries                #: package frequency samples
    duty: TimeSeries                     #: duty-cycle samples
    uncore_power: TimeSeries             #: instantaneous uncore power samples
    cap: TimeSeries                      #: applied cap (TDP when uncapped)
    counters: CounterSnapshot            #: counter deltas over the run
    pkg_energy: float                    #: total package energy (J)
    app: SyntheticApp = field(repr=False)

    def steady_progress(self, t_start: float, t_end: float, *,
                        ignore_zeros: bool = True) -> float:
        """Mean progress rate over an absolute-time window."""
        window = self.progress.window(t_start, t_end)
        values = window.values
        if ignore_zeros:
            values = values[values > 0.0]
        if values.size == 0:
            raise ConfigurationError(
                f"no progress samples in [{t_start}, {t_end})"
            )
        return float(values.mean())

    def mips(self) -> float:
        """Node-wide MIPS over the whole run (Table I's metric)."""
        return self.counters.mips()

    def mpo(self) -> float:
        """Misses per operation over the whole run."""
        return mpo_from_delta(self.counters)


@dataclass(frozen=True)
class DeltaMeasurement:
    """Averaged change-in-progress measurement at one power cap."""

    p_cap: float                 #: package cap applied (W)
    p_corecap: float             #: model-estimated core cap (beta * p_cap)
    delta_mean: float            #: mean measured change in progress
    delta_std: float
    r_uncapped: float            #: mean uncapped rate across repeats
    repeats: int
    ci_low: float = float("nan")   #: 95% t-interval on the mean delta
    ci_high: float = float("nan")

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the 95 % confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class CharacterizationResult:
    """Section IV-A characterization of one application."""

    app_name: str
    beta: float
    mpo: float
    t_high: float                #: execution time at f_nominal
    t_low: float                 #: execution time at f_beta_low


class Testbed:
    """Factory for fully wired single-run experiments."""

    __test__ = False  # the name starts with "Test"; keep pytest away

    def __init__(self, cfg: NodeConfig | None = None, seed: int = 0) -> None:
        self.cfg = cfg if cfg is not None else skylake_config()
        self.seed = seed

    # ------------------------------------------------------------------
    # Single run
    # ------------------------------------------------------------------

    def run(self, app: str | SyntheticApp = "lammps", *,
            duration: float | None = None,
            schedule: CapSchedule | None = None,
            dvfs_freq: float | None = None,
            duty: float | None = None,
            topics: tuple[str, ...] | None = None,
            monitor_interval: float = 1.0,
            seed: int | None = None,
            app_kwargs: dict | None = None,
            firmware_kwargs: dict | None = None) -> RunResult:
        """Execute one application run and collect all telemetry.

        Parameters
        ----------
        app:
            Application name (built via the registry with ``app_kwargs``)
            or a pre-built :class:`~repro.apps.base.SyntheticApp`.
        duration:
            Stop after this many simulated seconds; None runs the
            application to completion.
        schedule:
            Capping schedule applied by the cap controller
            (default: uncapped).
        dvfs_freq:
            Pin the package frequency through the userspace DVFS knob.
        duty:
            Pin the duty cycle through the userspace DDCM knob (the
            firmware never undoes a software duty pin).
        firmware_kwargs:
            Overrides for the RAPL firmware (ablations: e.g.
            ``{"min_uncore_scale": 1.0}`` disables uncore DVFS).
        topics:
            Topics to monitor; defaults to the application's main topic
            (component topics for URBAN, both definitions for the
            imbalance example).
        """
        seed = self.seed if seed is None else seed
        prebuilt = None if isinstance(app, str) else app
        app_name = app if prebuilt is None else prebuilt.name
        with obs.tracer().span("harness.run", app=app_name,
                               duration=duration, seed=seed):
            return self._run(app_name, prebuilt, duration, schedule,
                             dvfs_freq, duty, topics, monitor_interval,
                             seed, app_kwargs, firmware_kwargs)

    def _run(self, app_name, prebuilt, duration, schedule, dvfs_freq,
             duty, topics, monitor_interval, seed, app_kwargs,
             firmware_kwargs) -> RunResult:
        spec = StackSpec(
            app_name=app_name,
            cfg=self.cfg,
            app_kwargs=app_kwargs,
            seed=seed,
            schedule=schedule if schedule is not None else UncappedSchedule(),
            monitor_interval=monitor_interval,
            topics=topics,
            dvfs_freq=dvfs_freq,
            duty=duty,
            firmware_kwargs=firmware_kwargs,
            sample_node_state=True,
        )
        stack = NodeStack(spec, app=prebuilt)
        counters_before = stack.node.counters.snapshot(stack.now)
        end = stack.run(until=duration)
        counters_after = stack.node.counters.snapshot(stack.now)

        return RunResult(
            app_name=stack.app.name,
            seed=seed,
            duration=end,
            progress=stack.progress_series,
            topics=stack.topic_series(),
            power=stack.power_series,
            frequency=stack.freq_series,
            duty=stack.duty_series,
            uncore_power=stack.uncore_series,
            cap=stack.controller.cap_series,
            counters=counters_after.delta(counters_before),
            pkg_energy=stack.node.pkg_energy,
            app=stack.app,
        )

    # ------------------------------------------------------------------
    # Section IV-A: beta / MPO characterization
    # ------------------------------------------------------------------

    def characterize(self, app_name: str,
                     app_kwargs: dict | None = None) -> CharacterizationResult:
        """Measure beta (times at 3300 vs 1600 MHz) and MPO (counters)."""
        high = self.run(app_name, dvfs_freq=self.cfg.f_nominal,
                        app_kwargs=app_kwargs)
        low = self.run(app_name, dvfs_freq=self.cfg.f_beta_low,
                       app_kwargs=app_kwargs)
        beta = beta_from_times(low.duration, high.duration,
                               self.cfg.f_beta_low, self.cfg.f_nominal)
        return CharacterizationResult(
            app_name=app_name,
            beta=beta,
            mpo=high.mpo(),
            t_high=high.duration,
            t_low=low.duration,
        )

    # ------------------------------------------------------------------
    # Section VI-B: change-in-progress under a step cap
    # ------------------------------------------------------------------

    def measure_delta_progress(self, app_name: str, p_cap: float, *,
                               beta: float,
                               repeats: int = 5,
                               uncapped_window: float = 12.0,
                               capped_window: float = 16.0,
                               warmup: float = 3.0,
                               app_kwargs: dict | None = None,
                               firmware_kwargs: dict | None = None,
                               executor: RunExecutor | None = None
                               ) -> DeltaMeasurement:
        """The paper's protocol: run uncapped, step down to ``p_cap``,
        measure the change in the progress rate; repeat and average.

        The repeats are independent runs (per-repeat seeds are fixed up
        front), so an ``executor`` with ``workers > 1`` runs them on a
        process pool with numerically identical results — the serial
        path executes the very same worker function in-process.
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        total = uncapped_window + capped_window
        span = obs.tracer().span("harness.delta", app=app_name,
                                 p_cap=p_cap, repeats=repeats)
        tasks = [
            _DeltaRepeatTask(
                cfg=self.cfg,
                seed=self.seed + 101 * rep,
                app_name=app_name,
                p_cap=p_cap,
                uncapped_window=uncapped_window,
                capped_window=capped_window,
                warmup=warmup,
                app_kwargs=app_kwargs,
                firmware_kwargs=firmware_kwargs,
            )
            for rep in range(repeats)
        ]
        with span:
            pairs = (executor or RunExecutor(1)).map(_delta_repeat, tasks)
        uncapped_rates = [r_un for r_un, _ in pairs]
        deltas = [r_un - r_cap for r_un, r_cap in pairs]
        ci_low, ci_high = mean_confidence_interval(deltas)
        return DeltaMeasurement(
            p_cap=p_cap,
            p_corecap=beta * p_cap,
            delta_mean=float(np.mean(deltas)),
            delta_std=float(np.std(deltas)),
            r_uncapped=float(np.mean(uncapped_rates)),
            repeats=repeats,
            ci_low=ci_low,
            ci_high=ci_high,
        )


@dataclass(frozen=True)
class _DeltaRepeatTask:
    """Picklable description of one Section VI-B repeat."""

    cfg: NodeConfig
    seed: int
    app_name: str
    p_cap: float
    uncapped_window: float
    capped_window: float
    warmup: float
    app_kwargs: dict | None
    firmware_kwargs: dict | None


def _delta_repeat(task: _DeltaRepeatTask) -> tuple[float, float]:
    """Execute one repeat; module-level so a process pool can import it.

    Returns ``(uncapped rate, capped rate)``. Workers rebuild the whole
    stack from the task's plain data, so this function is the unit of
    work for both the serial path and the process pool.
    """
    total = task.uncapped_window + task.capped_window
    tb = Testbed(cfg=task.cfg, seed=task.seed)
    result = tb.run(
        task.app_name,
        duration=total,
        schedule=FixedCapSchedule(task.p_cap, start=task.uncapped_window),
        app_kwargs=task.app_kwargs,
        firmware_kwargs=task.firmware_kwargs,
    )
    # Zeros are averaged in: for coarse reporters (OpenMC's ~1 batch/s)
    # empty 1 Hz buckets are how a sub-1/s rate shows up, and dropping
    # them would bias the mean to exactly one batch per bucket. The
    # protocol therefore runs the app with a lossless transport.
    r_un = result.steady_progress(task.warmup, task.uncapped_window,
                                  ignore_zeros=False)
    r_cap = result.steady_progress(task.uncapped_window + task.warmup,
                                   total + 1e-9, ignore_zeros=False)
    return r_un, r_cap
