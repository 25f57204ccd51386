"""Job model for the power-aware cluster scheduler.

A :class:`Job` is what a user submits: an application, a node count, a
fixed amount of science to produce per node, and — optionally — an
*eco-mode tolerance*: the maximum fractional progress slowdown the user
accepts in exchange for running under a power cap (the Eco-Mode
contract: the scheduler may throttle the job, but only within the
declared tolerance, and it uses the paper's progress model to predict
where that line is *before* starting the job).

:class:`JobRecord` is the scheduler's mutable bookkeeping for one job:
queue state, placement, the chosen cap and its predicted slowdown, and
the measured outcome once the job completes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ConfigurationError

__all__ = ["Job", "JobRecord", "JobState"]


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    #: cancelled by the operator (daemon ``kill``) before completion
    KILLED = "killed"


@dataclass(frozen=True)
class Job:
    """A user-submitted unit of work.

    Parameters
    ----------
    job_id:
        Unique identifier.
    app_name:
        Application to run (one instance per node, from the registry).
    n_nodes:
        Nodes requested.
    work_units:
        Progress units *per node* the job must produce to complete (in
        the application's own progress metric — atom-timesteps,
        iterations, ...). The job finishes when its slowest node has
        produced this much.
    submit_time:
        Simulated time the job enters the queue.
    max_slowdown:
        Eco-mode tolerance in (0, 1): the largest fractional progress
        slowdown the user accepts under a power cap. ``None`` means the
        job must run uncapped.
    app_kwargs:
        Extra sizing keywords for the application builder. The
        application must hold at least ``work_units`` of iterations —
        the scheduler tracks completion by published progress, not by
        application exit.
    priority:
        Queue tie-break among jobs with the same ``submit_time``:
        higher priorities queue first, equal priorities in submission
        order. The daemon sets it from ``RunRequest.priority``.
    """

    job_id: str
    app_name: str
    n_nodes: int
    work_units: float
    submit_time: float = 0.0
    max_slowdown: float | None = None
    app_kwargs: Mapping | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if self.n_nodes < 1:
            raise ConfigurationError(
                f"n_nodes must be >= 1, got {self.n_nodes}")
        if not self.work_units > 0:
            raise ConfigurationError(
                f"work_units must be positive, got {self.work_units}")
        if self.submit_time < 0:
            raise ConfigurationError(
                f"submit_time must be >= 0, got {self.submit_time}")
        if self.max_slowdown is not None and not 0.0 < self.max_slowdown < 1.0:
            raise ConfigurationError(
                f"max_slowdown must lie in (0, 1), got {self.max_slowdown}")
        if type(self.priority) is not int:
            raise ConfigurationError(
                f"priority must be an int, got {self.priority!r}")

    @property
    def eco(self) -> bool:
        """Whether the job accepts an eco-mode power cap."""
        return self.max_slowdown is not None


@dataclass
class JobRecord:
    """Scheduler-side bookkeeping for one job."""

    job: Job
    state: JobState = JobState.PENDING
    #: node slots occupied while running (empty when pending)
    slots: tuple[int, ...] = ()
    #: per-node package cap chosen at admission (None = uncapped)
    cap: float | None = None
    #: model-predicted fractional slowdown at ``cap``
    predicted_slowdown: float = 0.0
    #: per-node power the scheduler charges against the cluster budget
    node_power: float = 0.0
    start_time: float = math.nan
    #: interpolated completion time (when the work target was crossed)
    end_time: float = math.nan
    #: measured steady per-node progress rate over the run
    measured_rate: float = math.nan
    #: measured fractional slowdown vs the power book's uncapped rate
    measured_slowdown: float = math.nan
    #: per-node package energy over the run (J), summed over nodes
    energy: float = 0.0
    #: slowest node's cumulative progress after the last epoch run
    progress: float = 0.0

    @property
    def demand(self) -> float:
        """Cluster-budget demand while running (W)."""
        return self.job.n_nodes * self.node_power

    @property
    def wait_time(self) -> float:
        """Queue wait: submission to start."""
        return self.start_time - self.job.submit_time

    @property
    def run_time(self) -> float:
        """Start to (interpolated) completion."""
        return self.end_time - self.start_time

    @property
    def prediction_error(self) -> float:
        """|predicted - measured| slowdown (absolute, in fractions)."""
        return abs(self.predicted_slowdown - self.measured_slowdown)

    @property
    def within_tolerance(self) -> bool:
        """Did the measured slowdown honour the declared tolerance?

        Uncapped jobs (no tolerance) trivially comply. A small epsilon
        absorbs floating-point jitter at the boundary.
        """
        if self.job.max_slowdown is None:
            return True
        if math.isnan(self.measured_slowdown):
            return False
        return self.measured_slowdown <= self.job.max_slowdown + 1e-9
