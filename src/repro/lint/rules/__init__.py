"""Rule registry for :mod:`repro.lint`.

Adding a rule family is three steps (see ``docs/LINTING.md``): write a
:class:`~repro.lint.core.Rule` subclass in a module here, instantiate
it in :data:`ALL_RULES`, and give it fire/stay-quiet tests under
``tests/lint/``.
"""

from __future__ import annotations

from repro.lint.core import Rule
from repro.lint.rules.checkpoint import (
    SnapshotAttrCoverageRule,
    SnapshotKeyDriftRule,
    SnapshotVersionRule,
)
from repro.lint.rules.determinism import (
    DatetimeRule,
    EnvironReadRule,
    NumpyGlobalRngRule,
    StdlibRandomRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.lint.rules.picklable import BoundaryFieldRule
from repro.lint.rules.units import UnitMixRule, UnitSuffixRule

__all__ = ["ALL_RULES", "rules_by_id", "select_rules"]

#: Every registered rule, in reporting order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    DatetimeRule(),
    StdlibRandomRule(),
    UnseededRngRule(),
    NumpyGlobalRngRule(),
    EnvironReadRule(),
    SnapshotKeyDriftRule(),
    SnapshotAttrCoverageRule(),
    SnapshotVersionRule(),
    BoundaryFieldRule(),
    UnitMixRule(),
    UnitSuffixRule(),
)


def rules_by_id() -> dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}


def select_rules(tokens: list[str] | None) -> list[Rule]:
    """Resolve ``--rules`` tokens (rule ids or family names) to rules."""
    if not tokens:
        return list(ALL_RULES)
    wanted = set(tokens)
    known = {r.id for r in ALL_RULES} | {r.family for r in ALL_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule(s) {sorted(unknown)}; known ids: "
            f"{sorted(r.id for r in ALL_RULES)}, families: "
            f"{sorted({r.family for r in ALL_RULES})}")
    return [r for r in ALL_RULES if r.id in wanted or r.family in wanted]
