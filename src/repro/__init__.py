"""repro — reproduction of *Understanding the Impact of Dynamic Power
Capping on Application Progress* (Ramesh, Perarnau, Bhalachandra, Malony,
Beckman; IPDPS Workshops 2019).

The package provides:

* :mod:`repro.core` — the paper's contribution: application-specific
  *online progress* metrics, the application categorization, the beta/MPO
  characterization, and the analytic model of power capping's impact on
  progress (Eqs. 1-7) with fitting and error analysis;
* :mod:`repro.hardware` — a simulated RAPL-capable Skylake node (power
  model, MSRs, msr-safe, the RAPL firmware feedback controller, DVFS and
  DDCM knobs, PAPI-like counters);
* :mod:`repro.sysfs` / :mod:`repro.libmsr` — the Linux powercap sysfs tree
  and a libmsr-style wrapper API over the emulated MSRs;
* :mod:`repro.runtime` — a deterministic fluid discrete-event engine with
  MPI-like and OpenMP-like programming surfaces, and a process-pool
  executor for fanning out independent runs;
* :mod:`repro.stack` — the unified node-stack layer: a picklable
  :class:`~repro.stack.spec.StackSpec` and the
  :class:`~repro.stack.builder.NodeStack` assembly every consumer
  (Testbed, cluster, scheduler) builds nodes through;
* :mod:`repro.apps` — synthetic analogues of the paper's applications
  (LAMMPS, AMG, QMCPACK, STREAM, OpenMC, CANDLE, Category-3 codes and the
  Listing-1 load-imbalance example), calibrated to the paper's beta / MPO
  characterization;
* :mod:`repro.telemetry` — ZeroMQ-style progress pub/sub and the 1 Hz
  progress monitor;
* :mod:`repro.nrm` — the node resource manager: dynamic power-capping
  schemes (linear / step / jagged-edge) and the one cap controller that
  applies a schedule or a delivered budget once per second;
* :mod:`repro.experiments` — one harness per paper table and figure.

Quickstart::

    from repro import Testbed
    tb = Testbed(seed=1)
    result = tb.run("lammps", duration=30.0, cap_schedule=None)
    print(result.progress.mean())
"""

__version__ = "1.0.0"

__all__ = ["Testbed", "RunResult", "StackSpec", "NodeStack", "RunExecutor",
           "__version__"]


def __getattr__(name: str):
    # Lazy re-export: keeps `import repro.hardware` cheap and avoids import
    # cycles between the experiment harness and the substrates it drives.
    if name in ("Testbed", "RunResult"):
        from repro.experiments import harness

        return getattr(harness, name)
    if name in ("StackSpec", "NodeStack"):
        import repro.stack as stack

        return getattr(stack, name)
    if name == "RunExecutor":
        from repro.runtime.executor import RunExecutor

        return RunExecutor
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
