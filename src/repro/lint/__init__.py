"""repro.lint — AST-based invariant checkers for the simulator.

The repo's correctness story (bit-identical golden parity across shard
counts, content-keyed result caching, checkpoint round-trips through
every stateful component) rests on invariants that ordinary linters
cannot see. This package enforces them statically, in four rule
families:

``determinism``
    No host clocks, stdlib/global RNGs, OS entropy, or environment
    reads inside simulation code.
``checkpoint``
    ``snapshot()``/``restore()`` pairs cover the same keys, cover every
    post-construction mutation, and carry a schema ``version`` field.
``picklable``
    Dataclasses that cross process boundaries declare only picklable
    fields.
``units``
    Watt-, joule-, hertz- and second-named quantities are never mixed
    additively.

Rules see the whole source tree through :mod:`repro.lint.project`, so
they can follow imports and base classes across files.

Run it with ``python -m repro.lint src/`` (see ``docs/LINTING.md``);
silence an individual line with ``# repro-lint: disable=<rule>``.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import (
    Finding,
    Module,
    Rule,
    lint_file,
    lint_paths,
    parse_module,
)
from repro.lint.rules import ALL_RULES, select_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "Module",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_module",
    "select_rules",
]


def lint_source(source: str, path: str = "<string>",
                rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint a source string (the unit-test entry point)."""
    return lint_file(parse_module(path, source),
                     ALL_RULES if rules is None else rules)
