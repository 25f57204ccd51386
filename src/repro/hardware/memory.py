"""Shared-bandwidth memory subsystem with fair contention.

The node has a finite sustainable bandwidth (``cfg.mem_bandwidth``); each
core can draw at most ``cfg.core_link_bandwidth`` — further reduced by the
core's duty cycle, because clock modulation gates the core's ability to
*issue* memory requests (this is the mechanism by which RAPL's DDCM
fallback hurts memory-bound codes more than a DVFS-only model predicts;
see paper Fig. 4d and Fig. 5).

Allocation uses max-min fairness (progressive filling): demands below the
fair share are fully granted, the remaining capacity is split evenly among
the still-unsatisfied cores. For this fluid model the allocation is exact,
not iterative.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hardware.kernels import fair_share_fill

__all__ = ["allocate_bandwidth"]


def allocate_bandwidth(demands, capacity: float):
    """Max-min fair allocation of ``capacity`` among ``demands``.

    Parameters
    ----------
    demands:
        1-D sequence of non-negative per-core bandwidth demands (bytes/s).
        A demand is what the core *would* consume if memory were
        uncontended (already clipped to its link bandwidth by the caller).
    capacity:
        Total node bandwidth (bytes/s), > 0.

    Returns
    -------
    numpy.ndarray
        Per-core grants, same order as ``demands``; ``grant <= demand``
        element-wise and ``sum(grant) <= capacity`` (within floating-point
        tolerance), with equality when demand exceeds capacity.

    The demand total is a left fold in index order, the reduction the
    vector engine performs; ``numpy.sum`` would sum pairwise and could
    disagree with it on whether the demands fit. The allocation runs on
    plain floats: per-core lists are short, and numpy's per-call
    overhead would dominate.
    """
    if getattr(demands, "ndim", 1) != 1:
        raise ConfigurationError("demands must be one-dimensional")
    try:
        d = [float(x) for x in demands]
    except TypeError:
        raise ConfigurationError("demands must be one-dimensional") from None
    total = 0.0
    for x in d:
        if not 0.0 <= x < math.inf:
            raise ConfigurationError("demands must be finite and non-negative")
        total = total + x
    if not capacity > 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")

    if total <= capacity:
        return np.array(d, dtype=float)

    # Progressive filling: process demands in ascending order (a stable
    # sort); every demand below the running fair share is granted in
    # full, the rest share what remains equally.
    order = sorted(range(len(d)), key=d.__getitem__)
    grants = [0.0] * len(d)
    remaining = capacity
    n_left = len(d)
    for idx in order:
        fair = fair_share_fill(remaining, n_left)
        g = min(d[idx], fair)
        grants[idx] = g
        remaining -= g
        n_left -= 1
    return np.array(grants, dtype=float)
