"""The simulator's benchmark: one workload, one seed, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload daemon_mixed --seed 0 \\
        --seconds 12 --trace 0

``--trace 0`` measures the plain program and prints every end-to-end
metric; ``--trace 1`` also runs the workload with every layer wrapped
and prints the per-layer metrics, with the tracing overhead. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable summary. The full record, provenance included, is written to
``.perfbench/<run>/result.json`` (``perfbench/report.py`` turns a
traced one into a table).

Host times are reported at a reference host speed: each is divided by
the run's speed index, which ``hostspeed.py`` measures between the
workload's timed units; the raw times are in ``result.json``.

The registered workloads and metric names are in ``BENCHMARK.json``;
``perfbench/README.md`` explains them, and the figures printed beside
the registered metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: Set-ups per untraced run; setup_s is their median.
SETUP_TRIALS = 3
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: The seed whose known-good digests ``digests.json`` must hold.
DEFAULT_SEED = 0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten samples beyond it,
    and its label. Below twenty samples no percentile above the median
    has ten beyond it, so the tail is not resolved and is the median (a
    maximum of so few samples would measure the host, not the program)."""
    n = len(values)
    p = max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))
    return percentile(values, p), f"p{p}"


def digest(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb(exclude: set[int] = frozenset()) -> float:
    """Peak resident memory of this process plus the peaks of its live
    children (shard workers, the daemon) but ``exclude``, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) in exclude:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
    return kib / 1024.0


def import_seconds(modules: tuple[str, ...]) -> float:
    """Time to import the program's modules in a fresh interpreter (a
    process cannot import them a second time)."""
    code = ("import time; t = time.perf_counter(); import numpy, "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return float(proc.stdout)


def provenance(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    tree = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                tree.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    tree.update(f.read())
    return {"cpu_count": os.cpu_count(), "git_commit": commit,
            "src_sha256": tree.hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(m, setup_s: float, rss_mb: float,
               speed_index: float | None = None) -> dict:
    """The end-to-end metrics of one untraced measurement: raw host
    times, or given the run's ``speed_index`` at the reference host
    speed. Each operation is divided by the index of the probe taken
    just before it, the timed phase by its operations' time-weighted
    index, and set-up by the run's index."""
    op_ms, phase_index = m.op_ms, 1.0
    if speed_index is None:
        speed_index = 1.0
    else:
        op_ms = [ms / index for ms, index in zip(m.op_ms, m.op_index)]
        phase_index = sum(m.op_ms) / sum(op_ms)
    return {
        "setup_s": metric(setup_s / speed_index, "s"),
        "node_sim_s_per_s": metric(
            m.node_sim_s / m.timed_s * phase_index, "node-s/s"),
        "epoch_p50_ms": metric(statistics.median(op_ms), "ms"),
        "epoch_tail_ms": metric(tail(op_ms)[0], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def measure(wl, state, speed):
    """The workload's timed phase, less the time its probes took."""
    busy_s = speed.busy_s
    m = wl.measure(state, speed)
    m.timed_s -= speed.busy_s - busy_s
    return m


def sample_figures(m) -> dict:
    """Sample counts, tail percentiles and the daemon's request
    latencies: reported beside the end-to-end metrics, not gated."""
    figures = {"epoch_samples": len(m.op_ms), "epoch_tail": tail(m.op_ms)[1]}
    if "submit_ms" in m.extra:
        submit, query, late = (m.extra["submit_ms"], m.extra["query_ms"],
                               m.extra["lateness_ms"])
        submit_tail, submit_label = tail(submit)
        figures.update({
            "submit_p50_ms": statistics.median(submit),
            "submit_tail_ms": submit_tail, "submit_tail": submit_label,
            "submit_samples": len(submit),
            "query_p50_ms": statistics.median(query),
            "query_p99_ms": percentile(query, 99),
            "query_samples": len(query),
            "lateness_p50_ms": statistics.median(late),
            "lateness_p99_ms": percentile(late, 99),
            "ticks": m.extra["ticks"], "jobs": m.extra["jobs"],
        })
    return figures


def run_traced(wl, name: str, run_dir: str, speed,
               untraced_wall_s: float) -> tuple[dict, dict]:
    """Run the workload again with every layer wrapped; per-layer
    metrics and the raw reduction. The overhead is this run's set-up
    plus timed phase minus the same for the untraced run."""
    import instrument
    import tracing
    from repro import obs

    if name == "daemon_mixed":
        wl.traced = True  # the daemon child installs the wrappers
    else:
        instrument.install(worker_dir=run_dir)
    if name == "cluster_sharded":
        obs.enable()  # only to read the payload sizes it records
    t0 = time.perf_counter()
    state = wl.setup(run_dir)
    setup_s = time.perf_counter() - t0
    try:
        m = measure(wl, state, speed)
    finally:
        wl.close(state)
    dump_paths = []
    if name != "daemon_mixed":
        dump_paths.append(os.path.join(run_dir, "trace-main.json"))
        instrument.dump(dump_paths[0])
    dump_paths += sorted(
        os.path.join(run_dir, f) for f in os.listdir(run_dir)
        if f.startswith(("worker-", "daemon-trace")))
    reduced = tracing.reduce(tracing.load(dump_paths))
    bytes_down = bytes_up = 0.0
    if obs.enabled():
        registry = obs.metrics()
        bytes_down = registry.counter("shard.pickle_bytes",
                                      direction="down").snapshot()
        bytes_up = registry.counter("shard.pickle_bytes",
                                    direction="up").snapshot()
        obs.disable()
    transport_s = 0.0
    if name == "daemon_mixed":
        # the driver's tick round trips minus the daemon's time in them
        transport_s = sum(m.op_ms) / 1e3 - reduced["spans"].get(
            "daemon.handle.tick", {}).get("total_s", 0.0)
    layer = instrument.layer_metrics(reduced, bytes_down=bytes_down,
                                     bytes_up=bytes_up,
                                     transport_s=transport_s)
    wall_s = setup_s + m.timed_s
    layer["trace.wall_s"] = (wall_s, "s")
    layer["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    return layer, {"measurement": m, "reduced": reduced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        return fail(f"no simulator sources at {SRC}; run from a checkout")
    if os.environ.get("REPRO_SANITIZE"):
        return fail("REPRO_SANITIZE is set; the benchmark measures the "
                    "plain program only")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of "
                    f"{sorted(workloads.WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        registry = json.load(f)

    # the result cache must be off, in this process and in children
    os.environ.pop("REPRO_RESULT_CACHE", None)
    sys.path.insert(0, SRC)

    run_dir = os.path.join(
        OUT, f"{args.workload}-s{args.seed}-n{args.seconds}-t{args.trace}"
             f"-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    for module in wl.modules:
        importlib.import_module(module)
    from repro import obs
    from repro.runtime.executor import cache_stats

    if obs.enabled():
        return fail("repro.obs is enabled; untraced runs need it off")

    import hostspeed

    speed = hostspeed.HostSpeed(wl.probe_helpers)
    try:
        # each set-up trial: the imports in a fresh interpreter, then the
        # build and warm-up here; the last trial's system is measured
        trials = []
        n_trials = 1 if args.trace else SETUP_TRIALS
        for k in range(n_trials):
            import_s = import_seconds(wl.modules)
            t0 = time.perf_counter()
            state = wl.setup(run_dir)
            trials.append(import_s + time.perf_counter() - t0)
            if k < n_trials - 1:
                wl.close(state)
            speed.sample()
        setup_s = statistics.median(trials)
        try:
            m = measure(wl, state, speed)
            rss_mb = peak_rss_mb(exclude=speed.pids())
        finally:
            wl.close(state)
        speed_index, probes = speed.index(), list(speed.samples)
        if cache_stats()["hits"] != 0:
            return fail("the result cache served runs; measurement invalid")
        if obs.enabled():
            return fail("repro.obs was switched on during the run")

        result_digest = digest(m.outputs)
        with open(os.path.join(HERE, "digests.json"),
                  encoding="utf-8") as f:
            known = json.load(f).get(f"{args.workload}/seed={args.seed}")
        checks = dict(m.checks)
        if known is not None or args.seed == DEFAULT_SEED:
            checks["digest matches the known-good digest"] = \
                result_digest == known

        e2e = end_to_end(m, setup_s, rss_mb, speed_index)
        raw = end_to_end(m, setup_s, rss_mb)
        figures = sample_figures(m)
        layer = None
        if args.trace:
            layer, traced = run_traced(wl, args.workload, run_dir, speed,
                                       trials[-1] - import_s + m.timed_s)
            checks["traced run has the untraced digest"] = \
                digest(traced["measurement"].outputs) == result_digest
            if traced["measurement"].failed:
                checks["traced run had no failed operations"] = False
    finally:
        speed.close()

    failed_checks = [name for name, ok in checks.items() if not ok]
    attempted = m.attempted + len(checks)
    failed = m.failed + len(failed_checks)
    correct = failed == 0

    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "digest": result_digest, "known_digest": known,
        "checks": checks, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "setup_trials_s": trials,
        "end_to_end": e2e, "raw_end_to_end": raw,
        "speed_index": speed_index, "probe_samples_ms": probes,
        "epoch_speed_index": m.op_index,
        "figures": figures, "epoch_samples_ms": m.op_ms,
        "errors": m.extra.get("errors", []),
    }
    if layer is not None:
        record["per_layer"] = {k: metric(v, u) for k, (v, u) in layer.items()}
        record["spans"] = traced["reduced"]["spans"]
        record["counters"] = traced["reduced"]["counters"]
        record["layer_self_s"] = traced["reduced"]["layers"]
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  cpus {os.cpu_count()}")
    print(f"digest {result_digest} "
          + ("(matches known-good)" if known == result_digest else
             "(no stored digest for this seed)" if known is None
             else f"(MISMATCH, known-good {known})"))
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"speed index {speed_index:.4g} (median of "
          f"{len(probes)} probes on {speed.cpus} CPU(s) over "
          f"{hostspeed.REFERENCE_MS[speed.cpus]} ms; "
          f"host times below are divided by it)")
    for name, value in e2e.items():
        print(f"{name} {value['value']:.6g} {value['unit']}  "
              f"(raw {raw[name]['value']:.6g})")
    for name, value in figures.items():
        print(f"{name} {value:.6g}" if isinstance(value, float)
              else f"{name} {value}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    for error in m.extra.get("errors", []):
        print(f"  error: {error}")
    if layer is not None:
        print(f"per-layer metrics: python3 perfbench/report.py "
              f"{os.path.relpath(os.path.join(run_dir, 'result.json'), ROOT)}")

    wanted = registry["per_layer" if args.trace else "end_to_end"]
    source = record["per_layer"] if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: source[entry["name"]]
                    for entry in wanted},
    }))
    if "digest matches the known-good digest" in failed_checks:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
