"""Command-line entry point for trace analysis.

Usage::

    python -m repro.obs summarize run.json      # or run.jsonl

Prints span totals and per-shard pickled payload bytes for a trace
emitted with ``python -m repro.experiments <name> --trace <path>``.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import load_trace
from repro.obs.summarize import summarize


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze traces recorded by the repro.obs layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser(
        "summarize",
        help="span totals and per-shard pickle bytes")
    p_sum.add_argument("trace",
                       help="trace file (Chrome trace-event JSON or JSONL)")
    args = parser.parse_args(argv)

    if args.command == "summarize":
        try:
            events = load_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            print(summarize(events, source=args.trace))
        except BrokenPipeError:
            # Downstream pager/head closed the pipe; not an error.
            sys.stderr.close()
            return 0
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
