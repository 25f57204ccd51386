"""Aggregate a recorded trace into the report the CLI prints.

``python -m repro.obs summarize <trace>`` answers the questions the
ROADMAP keeps asking of the harness: where did the wall time go (span
totals by name), and how many bytes does :class:`ShardedLockstep` pickle
per shard. Works on both trace formats via
:func:`repro.obs.export.load_trace`.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["span_totals", "payload_totals", "summarize"]


def span_totals(events: Iterable[dict[str, Any]]
                ) -> dict[str, dict[str, float]]:
    """Per-span-name aggregate: count, total/mean/max duration (ns)."""
    totals: dict[str, dict[str, float]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        agg = totals.setdefault(ev["name"], {
            "count": 0, "total_ns": 0, "max_ns": 0})
        agg["count"] += 1
        agg["total_ns"] += ev.get("dur", 0)
        agg["max_ns"] = max(agg["max_ns"], ev.get("dur", 0))
    for agg in totals.values():
        agg["mean_ns"] = agg["total_ns"] / agg["count"]
    return totals


def payload_totals(events: Iterable[dict[str, Any]]
                   ) -> dict[int, dict[str, int]]:
    """Per-shard pickled payload bytes (down/up) and message counts."""
    totals: dict[int, dict[str, int]] = {}
    for ev in events:
        if ev.get("name") != "shard.payload":
            continue
        args = ev.get("args", {})
        shard = int(args.get("shard", -1))
        agg = totals.setdefault(shard, {
            "bytes_down": 0, "bytes_up": 0, "messages": 0})
        agg["bytes_down"] += int(args.get("bytes_down", 0))
        agg["bytes_up"] += int(args.get("bytes_up", 0))
        agg["messages"] += 1
    return totals


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


def summarize(events: Iterable[dict[str, Any]],
              source: str | None = None) -> str:
    """Render the text report for a loaded trace."""
    events = list(events)
    spans = [ev for ev in events if ev.get("ph") == "X"]
    instants = [ev for ev in events if ev.get("ph") == "i"]
    lines = []
    title = "Trace summary"
    if source:
        title += f": {source}"
    lines.append(title)
    lines.append(f"  events: {len(events)} "
                 f"({len(spans)} spans, {len(instants)} instants)")
    lines.append("")

    totals = span_totals(events)
    if totals:
        name_w = max(len("span"), max(len(n) for n in totals))
        header = (f"{'span':<{name_w}}  {'count':>7}  {'total_ms':>12}  "
                  f"{'mean_ms':>10}  {'max_ms':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(totals,
                           key=lambda n: -totals[n]["total_ns"]):
            agg = totals[name]
            lines.append(
                f"{name:<{name_w}}  {int(agg['count']):>7}  "
                f"{_fmt_ms(agg['total_ns']):>12}  "
                f"{_fmt_ms(agg['mean_ns']):>10}  "
                f"{_fmt_ms(agg['max_ns']):>10}")
        lines.append("")

    payloads = payload_totals(events)
    if payloads:
        lines.append("shard pickle payloads:")
        for shard in sorted(payloads):
            agg = payloads[shard]
            lines.append(
                f"  shard {shard}: {agg['bytes_down']} B down / "
                f"{agg['bytes_up']} B up over {agg['messages']} dispatches")
        total_down = sum(a["bytes_down"] for a in payloads.values())
        total_up = sum(a["bytes_up"] for a in payloads.values())
        lines.append(f"  total: {total_down} B down / {total_up} B up")
    else:
        lines.append("shard pickle payloads: none recorded "
                     "(serial lockstep or payload measurement off)")
    return "\n".join(lines)
