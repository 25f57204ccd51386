"""Node resource manager (NRM).

The Argo NRM (paper Section II) enforces a node power budget received
from higher levels of the machine hierarchy while watching application
performance. This subpackage provides:

* :mod:`repro.nrm.schemes` — the paper's dynamic power-capping schedules
  (linear decrease, step function, jagged edge; Section V-B),
* :mod:`repro.nrm.controller` — the one package-cap loop: once per
  second it applies the cap of a schedule (the paper's power-policy
  daemon) or the last budget received from above, and logs it,
* :mod:`repro.nrm.imbalance` — per-core duty-cycle modulation of the
  non-critical ranks of a load-imbalanced application (extension).
"""

from repro.nrm.controller import CapController
from repro.nrm.imbalance import ImbalanceEnergyPolicy
from repro.nrm.schemes import (
    FixedCapSchedule,
    JaggedEdgeSchedule,
    LinearDecreaseSchedule,
    StepSchedule,
    UncappedSchedule,
)

__all__ = [
    "CapController",
    "ImbalanceEnergyPolicy",
    "LinearDecreaseSchedule",
    "StepSchedule",
    "JaggedEdgeSchedule",
    "FixedCapSchedule",
    "UncappedSchedule",
]
