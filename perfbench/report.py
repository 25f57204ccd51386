"""Per-layer report of a traced benchmark run.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [RESULT_JSON ...]

Each argument is the ``result.json`` a ``--trace 1`` run of
``perfbench/run.py`` wrote; with no argument the newest traced result
under ``.perfbench/`` is used. The table lists, per layer, every
per-layer metric with its unit, the base of each ratio, and the layer's
self time; the tracing overhead closes the report.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from instrument import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The denominator of every ratio metric.
BASES = {
    "vector.fallback_frac": "nodes built by VectorEngine.build",
    "cluster.imbalance": "slowest / fastest shard, mean over sharded epochs",
    "runtime.cache_hit_frac": "runtime.executor_items",
}


def render(record: dict) -> str:
    per_layer = record["per_layer"]
    self_s = record["layer_self_s"]
    rows = [("layer", "metric", "value", "unit", "base", "layer self s")]
    for layer in LAYERS + ("trace",):
        names = sorted(n for n in per_layer if n.split(".", 1)[0] == layer)
        for i, name in enumerate(names):
            value = per_layer[name]["value"]
            rows.append((
                layer if i == 0 else "", name, f"{value:.6g}",
                per_layer[name]["unit"], BASES.get(name, ""),
                f"{self_s.get(layer, 0.0):.6g}"
                if i == 0 and layer != "trace" else ""))
    rejects = {name: entry["calls"]
               for name, entry in record["counters"].items()
               if name.startswith("daemon.rejects.")}
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    lines = [f"{record['workload']}  seed {record['provenance']['seed']}  "
             f"seconds {record['seconds']}  cpus "
             f"{record['provenance']['cpu_count']}  digest "
             f"{record['digest'][:16]}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in
                               zip(row, widths)).rstrip())
    if rejects:
        lines.append("daemon rejects by code: " + ", ".join(
            f"{name.rsplit('.', 1)[1]}={count}"
            for name, count in sorted(rejects.items())))
    overhead = per_layer["trace.overhead_s"]["value"]
    wall = per_layer["trace.wall_s"]["value"]
    lines.append(f"tracing overhead {overhead:.6g} s over a traced wall "
                 f"time of {wall:.6g} s (set-up plus timed phase; shard "
                 "worker and daemon-side self times run in other "
                 "processes and overlap it)")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    paths = argv or sorted(
        glob.glob(os.path.join(ROOT, ".perfbench", "*-t1-*", "result.json")),
        key=os.path.getmtime)[-1:]
    if not paths:
        print("report: no traced result found; run perfbench/run.py "
              "--trace 1 first", file=sys.stderr)
        return 2
    for path in paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        if "per_layer" not in record:
            print(f"report: {path} is not a traced run", file=sys.stderr)
            return 2
        print(render(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
