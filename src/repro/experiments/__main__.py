"""Command-line entry point: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.experiments table6
    python -m repro.experiments figure4 --quick --seed 3
    python -m repro.experiments all --quick

``--quick`` shrinks repeat counts and durations for a fast smoke pass;
the defaults match the benchmark suite.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.obs import hostclock

from repro.experiments import (
    extension_energy,
    extension_intrusiveness,
    extension_scheduler,
    extension_techniques,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)

#: name -> (run(seed, quick, workers, shards) -> result, render).
#: ``workers`` parallelizes experiments built from independent runs;
#: ``shards`` parallelizes *within* a lockstep run by sharding its nodes
#: over worker processes. Experiments that support neither ignore them.
_EXPERIMENTS = {
    "table1": (lambda seed, quick, workers, shards: table1.run(seed=seed),
               table1.render),
    "table2": (lambda seed, quick, workers, shards: table2.run(), table2.render),
    "table3": (lambda seed, quick, workers, shards: table3.run(), table3.render),
    "table4": (lambda seed, quick, workers, shards: table4.run(), table4.render),
    "table5": (lambda seed, quick, workers, shards: table5.run(), table5.render),
    "table6": (lambda seed, quick, workers, shards: table6.run(
        seed=seed, scale=0.5 if quick else 1.0), table6.render),
    "figure1": (lambda seed, quick, workers, shards: figure1.run(
        duration=25.0 if quick else 40.0, seed=seed, workers=workers),
        figure1.render),
    "figure2": (lambda seed, quick, workers, shards: figure2.run(
        duration=6.0 if quick else 10.0, seed=seed), figure2.render),
    "figure3": (lambda seed, quick, workers, shards: figure3.run(
        duration=40.0 if quick else 60.0, seed=seed), figure3.render),
    "figure4": (lambda seed, quick, workers, shards: figure4.run(
        repeats=1 if quick else 5, seed=seed, workers=workers),
        figure4.render),
    "figure5": (lambda seed, quick, workers, shards: figure5.run(
        duration=6.0 if quick else 10.0,
        warmup=2.5 if quick else 4.0, seed=seed), figure5.render),
    "ext-energy": (lambda seed, quick, workers, shards: extension_energy.run(
        seed=seed), extension_energy.render),
    "ext-intrusiveness": (
        lambda seed, quick, workers, shards: extension_intrusiveness.run(
            duration=18.0 if quick else 30.0, seed=seed),
        extension_intrusiveness.render),
    "ext-techniques": (lambda seed, quick, workers, shards: extension_techniques.run(
        duration=6.0 if quick else 10.0,
        warmup=2.5 if quick else 4.0, seed=seed),
        extension_techniques.render),
    "extension_scheduler": (
        lambda seed, quick, workers, shards: extension_scheduler.run(
            seed=seed, quick=quick, shards=shards),
        extension_scheduler.render),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure from the paper.",
    )
    parser.add_argument("name", nargs="?",
                        choices=sorted(_EXPERIMENTS) + ["all"],
                        help="experiment to run (or 'all')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced repeats/durations")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for experiments made of "
                             "independent runs (default: serial)")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard lockstep nodes over this many worker "
                             "processes (extension_scheduler; results are "
                             "identical to serial)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="enable tracing and write the trace here on "
                             "exit: Chrome trace-event JSON (open in "
                             "Perfetto), or JSONL if PATH ends in .jsonl")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="enable metrics and write the registry here "
                             "on exit (JSON if PATH ends in .json, else "
                             "prometheus-style text)")
    parser.add_argument("--manifest-out", default=None, metavar="PATH",
                        help="write a run-provenance manifest (config, "
                             "seeds, package versions, timings) here on "
                             "exit")
    parser.add_argument("--list", action="store_true",
                        help="print the registered experiment names and exit")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(sorted(_EXPERIMENTS)))
        return 0
    if args.name is None:
        parser.error("an experiment name is required (or use --list)")

    names = sorted(_EXPERIMENTS) if args.name == "all" else [args.name]
    if args.trace or args.metrics_out:
        obs.enable()
    total_wall = 0.0
    try:
        for name in names:
            run, render = _EXPERIMENTS[name]
            # Host wall time for the operator's progress line only; no
            # simulated quantity derives from it.
            start = hostclock.perf_ns()
            with obs.tracer().span(f"experiment.{name}", seed=args.seed,
                                   quick=args.quick):
                result = run(args.seed, args.quick, args.workers,
                             args.shards)
            elapsed = (hostclock.perf_ns() - start) / 1e9
            total_wall += elapsed
            print(render(result))
            print(f"\n[{name} regenerated in {elapsed:.1f} s wall time]\n")
        _write_outputs(args, names, total_wall)
    finally:
        obs.disable()
    return 0


def _write_outputs(args: argparse.Namespace, names: list[str],
                   total_wall: float) -> None:
    """Persist the trace / metrics / manifest the flags asked for."""
    session = obs.session()
    trace_info = None
    if session is not None and args.trace:
        trace_info = session.write_trace(args.trace)
        print(f"[trace: {trace_info['events']} events -> "
              f"{trace_info['path']} ({trace_info['format']})]")
    if session is not None and args.metrics_out:
        session.write_metrics(args.metrics_out)
        print(f"[metrics -> {args.metrics_out}]")
    if args.manifest_out:
        manifest = obs.build_manifest(
            experiment=",".join(names),
            config={
                "seed": args.seed,
                "quick": args.quick,
                "workers": args.workers,
                "shards": args.shards,
            },
            wall_time_s=round(total_wall, 3),
            trace=trace_info,
            metrics=args.metrics_out,
        )
        obs.write_manifest(args.manifest_out, manifest)
        print(f"[manifest -> {args.manifest_out}]")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
