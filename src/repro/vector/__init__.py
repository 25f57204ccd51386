"""Vectorized node engine: numpy structure-of-arrays fast path.

Thousands of lockstep cluster nodes share the same stack shape — one
SPMD application under a budget-driven cap controller on stock RAPL
firmware. :mod:`repro.vector` advances all of them at once: per-node
state lives in parallel numpy arrays (:class:`VectorGroup`), one batched
micro-step loop replaces thousands of per-node engine loops, and the
result is bit-for-bit identical to the object engine (the parity suite
in ``tests/vector`` pins every fast-path application).

Entry points:

* :func:`~repro.vector.gate.supports_fast_path` — eligibility gate
  (``None`` = vectorizable, else the human-readable refusal reason);
* :class:`~repro.vector.host.VectorEngine` — the node host the cluster
  layers select with ``engine="vector"``;
* :class:`~repro.vector.engine.VectorGroup` — the SoA state and the
  batched step itself.
"""

from repro.vector.engine import VectorGroup
from repro.vector.gate import (
    FAST_APPS,
    GroupProfile,
    profile_key,
    supports_fast_path,
)
from repro.vector.host import VectorEngine, VectorNodeView

__all__ = [
    "FAST_APPS",
    "GroupProfile",
    "VectorEngine",
    "VectorGroup",
    "VectorNodeView",
    "profile_key",
    "supports_fast_path",
]
