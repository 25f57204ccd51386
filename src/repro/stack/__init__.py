"""Unified node-stack assembly.

One layer owns the wiring of the paper's testbed stack — node, RAPL
firmware, msr-safe, libmsr, pub/sub bus, 1 Hz monitors, cap
controller — so the single-node Testbed, the cluster NodeInstance and
the power-aware scheduler all run the *same* component graph:

* :class:`~repro.stack.spec.StackSpec` — a picklable description of
  one stack (workers rebuild stacks from specs across process
  boundaries);
* :class:`~repro.stack.builder.NodeStack` — assembles the component
  graph from a spec, with lifecycle hooks for telemetry taps;
* :class:`~repro.stack.checkpoint.NodeCheckpoint` — a versioned,
  picklable snapshot of a stack's full mutable state; restoring
  rebuilds from the spec and overlays the state, continuing
  bit-for-bit (``NodeStack.snapshot()`` / ``NodeStack.from_checkpoint``).
"""

from repro.stack.builder import NodeStack, default_topics
from repro.stack.checkpoint import CHECKPOINT_VERSION, NodeCheckpoint
from repro.stack.spec import StackSpec

__all__ = [
    "StackSpec",
    "NodeStack",
    "NodeCheckpoint",
    "CHECKPOINT_VERSION",
    "default_topics",
]
