"""Layer wrappers for traced runs, and the per-layer metrics they give.

:func:`install` wraps the public calls of every layer (named after the
modules under ``src/repro``) with :mod:`tracing` spans and counters.
:func:`layer_metrics` turns the reduced traces of one run into the
per-layer metrics, by name and unit.
"""

from __future__ import annotations

import os

from tracing import TRACER, _now, counted, span

LAYERS = ("vector", "cluster", "runtime", "hardware", "telemetry", "stack",
          "experiments", "scheduler", "daemon")


def install(worker_dir: str | None = None) -> None:
    """Wrap every layer. With ``worker_dir``, forked shard workers write
    their own trace there when they exit."""
    from repro.cluster import sharding
    from repro.cluster.policies import ProgressAwareRebalancer
    from repro.daemon import protocol
    from repro.daemon.service import Daemon
    from repro.experiments.harness import Testbed
    from repro.hardware.node import SimulatedNode
    from repro.hardware.rapl import RaplFirmware
    from repro.runtime.engine import Engine
    from repro.runtime.executor import RunExecutor
    from repro.scheduler.powerbook import PowerBook
    from repro.scheduler.scheduler import PowerAwareScheduler
    from repro.stack.builder import NodeStack
    from repro.telemetry.pubsub import PubSocket
    from repro.telemetry.timeseries import TimeSeries
    from repro.vector.engine import VectorGroup
    from repro.vector.host import VectorEngine

    # vector
    span(VectorEngine, "step", "vector.step")
    span(VectorGroup, "advance", "vector.advance",
         after=lambda _r, _self, slots, _targets:
         TRACER.count("vector.rows", len(slots)))

    def _built(_result, engine, items):
        fallback = set(engine.fallback_node_ids)
        TRACER.count("vector.nodes_built", len(items))
        TRACER.count("vector.fallback_nodes",
                     sum(1 for node_id, _ in items if node_id in fallback))

    span(VectorEngine, "build", "vector.build", after=_built)

    # cluster: the lockstep step, with the shard wire split out
    orig_step = sharding.ShardedLockstep.step

    def lockstep_step(self, requests):
        idx = TRACER.begin("cluster.step")
        try:
            return orig_step(self, requests)
        finally:
            TRACER.count("cluster.node_steps", len(requests))
            if self.shards > 1 and self.shard_times:
                elapsed = (_now() - TRACER.spans[idx][1]) / 1e9
                slowest = max(self.shard_times.values())
                fastest = min(self.shard_times.values())
                TRACER.count("cluster.shard_wall", slowest)
                TRACER.count("cluster.wire", elapsed - slowest)
                TRACER.count("cluster.imbalance",
                             slowest / fastest if fastest > 0 else 1.0)
            TRACER.end(idx)

    sharding.ShardedLockstep.step = lockstep_step
    span(ProgressAwareRebalancer, "allocate", "cluster.allocate")

    if worker_dir is not None:
        orig_worker = sharding._worker_main

        def worker_main(conn, engine="object"):
            TRACER.reset()
            try:
                orig_worker(conn, engine)
            finally:
                dump(os.path.join(worker_dir, f"worker-{os.getpid()}.json"))

        sharding._worker_main = worker_main

    # runtime
    span(Engine, "run", "runtime.engine_run")
    counted(Engine, "add_timer", "runtime.timers_added")
    span(RunExecutor, "map", "runtime.executor_map",
         after=lambda result, *_a, **_k:
         TRACER.count("runtime.executor_items", len(result)))

    # hardware
    counted(SimulatedNode, "accrue", "hardware.accrue", timed=True)
    for attr in ("set_frequency", "set_duty", "set_uncore_scale"):
        counted(SimulatedNode, attr, "hardware.actuations")
    counted(RaplFirmware, "set_limit", "hardware.rapl_limit_sets")

    # telemetry
    counted(PubSocket, "send", "telemetry.publishes", timed=True)
    counted(TimeSeries, "append", "telemetry.series_appends", timed=True)

    # stack and experiments
    span(NodeStack, "__init__", "stack.build")
    span(NodeStack, "run", "stack.run")
    span(Testbed, "run", "experiments.run")

    # scheduler
    span(PowerAwareScheduler, "step", "scheduler.step")
    span(PowerAwareScheduler, "admissible", "scheduler.admissible")
    span(PowerAwareScheduler, "submit", "scheduler.submit")

    def _listen(_result, scheduler, *_a, **_k):
        def on_event(event):
            kind = type(event).__name__
            if kind == "JobStarted":
                TRACER.count("scheduler.jobs_started")
            elif kind == "JobCompleted":
                TRACER.count("scheduler.jobs_completed")
        scheduler.add_listener(on_event)

    span(PowerAwareScheduler, "__init__", "scheduler.init", after=_listen)

    def _profile_attrs(book, app_name):
        if app_name not in book.known():
            TRACER.count("scheduler.profile_misses")
        return {"app": app_name}

    span(PowerBook, "profile", "scheduler.profile", attrs=_profile_attrs)

    # daemon: requests by kind (lock wait included), ticks, the codec
    orig_handle = Daemon.handle

    def handle(self, request):
        kind = protocol.wire_type(type(request)).removesuffix("_request")
        job_id = getattr(request, "job_id", None)
        idx = TRACER.begin(f"daemon.handle.{kind}",
                           {"job_id": job_id} if job_id else None)
        try:
            reply = orig_handle(self, request)
            if isinstance(reply, protocol.ErrorReply):
                TRACER.count(f"daemon.rejects.{reply.code}")
            return reply
        finally:
            TRACER.end(idx)

    Daemon.handle = handle
    span(Daemon, "tick", "daemon.tick")
    counted(protocol, "encode", "daemon.encode", timed=True,
            amount=lambda data, _message: len(data))
    counted(protocol, "decode", "daemon.decode", timed=True)
    counted(Daemon, "drain_watch", "daemon.frames",
            amount=lambda frames, *_a: len(frames))


def dump(path: str) -> None:
    """Write this process's trace, with its result-cache hit tally."""
    from repro.runtime.executor import cache_stats

    TRACER.count("runtime.cache_hits", cache_stats()["hits"])
    TRACER.dump(path)


def layer_metrics(reduced: dict, *, bytes_down: float = 0.0,
                  bytes_up: float = 0.0,
                  transport_s: float = 0.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from a
    :func:`tracing.reduce` result. Shard-wire bytes and the daemon's
    transport time come from outside the traces."""
    spans = reduced["spans"]
    counters = reduced["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def n(name):
        return spans.get(name, {}).get("count", 0)

    def calls(name):
        return counters.get(name, {}).get("calls", 0)

    def amount(name):
        return counters.get(name, {}).get("amount", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "vector.step_s": (total("vector.step"), "s"),
        "vector.advance_s": (total("vector.advance"), "s"),
        "vector.rows": (amount("vector.rows"), "count"),
        "vector.groups_stepped": (n("vector.advance"), "count"),
        "vector.build_s": (total("vector.build"), "s"),
        "vector.builds": (n("vector.build"), "count"),
        "vector.fallback_frac": (ratio(amount("vector.fallback_nodes"),
                                       amount("vector.nodes_built")),
                                 "fraction"),
        "cluster.step_s": (self_s("cluster.step"), "s"),
        "cluster.allocate_s": (total("cluster.allocate"), "s"),
        "cluster.node_steps": (amount("cluster.node_steps"), "count"),
        "cluster.shard_wall_s": (amount("cluster.shard_wall"), "s"),
        "cluster.wire_s": (amount("cluster.wire"), "s"),
        "cluster.bytes_down": (bytes_down, "B"),
        "cluster.bytes_up": (bytes_up, "B"),
        "cluster.imbalance": (ratio(amount("cluster.imbalance"),
                                    calls("cluster.imbalance")), "ratio"),
        "runtime.engine_run_s": (total("runtime.engine_run"), "s"),
        "runtime.engine_runs": (n("runtime.engine_run"), "count"),
        "runtime.timers_added": (calls("runtime.timers_added"), "count"),
        "runtime.executor_map_s": (total("runtime.executor_map"), "s"),
        "runtime.executor_items": (amount("runtime.executor_items"),
                                   "count"),
        "runtime.cache_hit_frac": (ratio(amount("runtime.cache_hits"),
                                         amount("runtime.executor_items")),
                                   "fraction"),
        "hardware.accrue_calls": (calls("hardware.accrue"), "count"),
        "hardware.accrue_s": (counters.get("hardware.accrue", {})
                              .get("time_s", 0.0), "s"),
        "hardware.actuations": (calls("hardware.actuations"), "count"),
        "hardware.rapl_limit_sets": (calls("hardware.rapl_limit_sets"),
                                     "count"),
        "telemetry.publishes": (calls("telemetry.publishes"), "count"),
        "telemetry.series_appends": (calls("telemetry.series_appends"),
                                     "count"),
        "stack.build_s": (total("stack.build"), "s"),
        "stack.builds": (n("stack.build"), "count"),
        "stack.run_s": (total("stack.run"), "s"),
        "experiments.run_s": (total("experiments.run"), "s"),
        "experiments.runs": (n("experiments.run"), "count"),
        "scheduler.step_s": (self_s("scheduler.step"), "s"),
        "scheduler.admissible_s": (total("scheduler.admissible"), "s"),
        "scheduler.submit_s": (total("scheduler.submit"), "s"),
        "scheduler.jobs_started": (calls("scheduler.jobs_started"), "count"),
        "scheduler.jobs_completed": (calls("scheduler.jobs_completed"),
                                     "count"),
        "scheduler.profile_s": (total("scheduler.profile"), "s"),
        "scheduler.profile_misses": (calls("scheduler.profile_misses"),
                                     "count"),
    }
    for kind in ("run", "status", "info", "tick"):
        out[f"daemon.handle_s.{kind}"] = (total(f"daemon.handle.{kind}"), "s")
    out.update({
        "daemon.tick_s": (total("daemon.tick"), "s"),
        "daemon.encode_s": (counters.get("daemon.encode", {})
                            .get("time_s", 0.0), "s"),
        "daemon.decode_s": (counters.get("daemon.decode", {})
                            .get("time_s", 0.0), "s"),
        "daemon.bytes_out": (amount("daemon.encode"), "B"),
        "daemon.frames": (amount("daemon.frames"), "count"),
        "daemon.rejects": (sum(entry["calls"]
                               for name, entry in counters.items()
                               if name.startswith("daemon.rejects.")),
                           "count"),
        "daemon.transport_s": (transport_s, "s"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (reduced["layers"].get(layer, 0.0), "s")
    return out
