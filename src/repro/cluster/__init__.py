"""Multi-node cluster simulation (extension).

The paper notes its single-node study "directly maps to a multi node
study without any change" and motivates the work with hierarchical,
job-level power management; its related work (Rountree et al.) observes
that *manufacturing variability* between nodes becomes a first-order
performance problem once power is capped. This subpackage provides that
scale-up:

* :mod:`repro.cluster.variability` — per-node perturbation of the power
  model (leakage / dynamic coefficient spread),
* :mod:`repro.cluster.node_instance` — one node's full stack (hardware,
  firmware, telemetry, budget policy, application) advanced in epochs,
* :mod:`repro.cluster.sharding` — the epoch-lockstep loop shared by
  the cluster simulation and the power-aware scheduler, in-process or
  over long-lived shard worker processes; serial and sharded paths run
  the identical step function, so results are bit-for-bit equal,
* :mod:`repro.cluster.simulation` — lockstep cluster execution with a
  pluggable cluster-level power policy,
* :mod:`repro.cluster.policies` — uniform budgets vs a progress-aware
  rebalancer that shifts power toward the critical-path nodes (the use
  case the paper's online-progress metric enables).

Recorded runs resume or time-travel replay from
:class:`~repro.runtime.runfile.RunCheckpoint` files through
:meth:`ClusterSimulation.resume` and
:meth:`~repro.scheduler.scheduler.PowerAwareScheduler.resume`.
"""

from repro.cluster.node_instance import NodeInstance
from repro.cluster.policies import ProgressAwareRebalancer, UniformPowerPolicy
from repro.cluster.sharding import (
    NodeTelemetry,
    ShardedLockstep,
    StepRequest,
    StepResult,
    step_node,
)
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.variability import perturb_config

__all__ = [
    "NodeInstance",
    "ClusterSimulation",
    "UniformPowerPolicy",
    "ProgressAwareRebalancer",
    "perturb_config",
    "ShardedLockstep",
    "StepRequest",
    "StepResult",
    "NodeTelemetry",
    "step_node",
]
