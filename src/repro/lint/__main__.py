"""CLI: ``python -m repro.lint [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.core import lint_paths
from repro.lint.rules import ALL_RULES, select_rules


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checks: determinism, checkpoint "
                    "coverage, shard-boundary picklability, physical "
                    "units. See docs/LINTING.md.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text); sarif emits "
                             "a SARIF 2.1.0 log for code-scanning uploads")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids or family names to "
                             "run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:22s} [{rule.family}] {rule.description}")
        return 0

    try:
        rules = select_rules(
            [t.strip() for t in args.rules.split(",") if t.strip()]
            if args.rules else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings, errors = lint_paths(args.paths, rules)

    if args.format == "json":
        print(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "errors": errors,
        }, indent=2))
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif
        print(json.dumps(to_sarif(findings, rules, errors), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if findings:
            print(f"\n{len(findings)} finding(s) in "
                  f"{len({f.path for f in findings})} file(s)")

    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
