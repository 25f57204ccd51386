"""Run provenance: a manifest describing how a result was produced.

A manifest is a small JSON document written next to a run's outputs
answering the questions a reader of those outputs asks first: what
experiment, which seed and knobs, which package versions, and how long
it took. It is pure *description* — nothing in the simulator reads a
manifest back, so emitting one can never change a result.

Wall-clock timestamps route through the audited host clock
(:mod:`repro.obs.hostclock`); package versions and interpreter details
are imported attributes, not environment reads, so the determinism lint
stays meaningful everywhere else.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from typing import Any

from repro.obs import hostclock

__all__ = ["build_manifest", "write_manifest"]

#: Manifest schema version; bump on layout changes.
SCHEMA = 1


def _package_versions() -> dict[str, str]:
    import numpy
    import scipy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
    }


def build_manifest(*, experiment: str, config: dict[str, Any],
                   wall_time_s: float | None = None,
                   trace: dict[str, Any] | None = None,
                   metrics: list[dict[str, Any]] | None = None
                   ) -> dict[str, Any]:
    """Assemble a manifest document for one experiment run.

    Parameters
    ----------
    experiment:
        Experiment name (e.g. ``"figure4"``).
    config:
        The run's knobs: seed, quick, workers, shards — any
        JSON-serializable mapping.
    wall_time_s:
        Host wall time the run took, if measured.
    trace:
        Summary of an emitted trace (path, format, event count), if one
        was written.
    metrics:
        A metrics snapshot (:meth:`MetricsRegistry.snapshot`), if taken.
    """
    created = datetime.fromtimestamp(hostclock.wall_s(), tz=timezone.utc)
    manifest: dict[str, Any] = {
        "schema": SCHEMA,
        "experiment": experiment,
        "created_at": created.isoformat(timespec="seconds"),
        "config": dict(config),
        "versions": _package_versions(),
        "platform": {
            "system": platform.system(),
            "machine": platform.machine(),
            "implementation": sys.implementation.name,
        },
    }
    if wall_time_s is not None:
        manifest["wall_time_s"] = round(float(wall_time_s), 6)
    if trace is not None:
        manifest["trace"] = trace
    if metrics is not None:
        manifest["metrics"] = metrics
    return manifest


def write_manifest(path: str | os.PathLike,
                   manifest: dict[str, Any]) -> None:
    """Write a manifest as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
