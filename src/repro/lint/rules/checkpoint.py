"""Checkpoint-coverage rules.

Every stateful component participates in whole-node checkpointing
through a ``snapshot() -> dict`` / ``restore(state: dict)`` pair (see
:mod:`repro.stack.checkpoint`). The guarantee that a restored stack
continues *bit-for-bit* rests on three invariants nothing else
enforces:

* the keys ``restore()`` reads are exactly the keys ``snapshot()``
  writes (drift either way means a restore that crashes or — worse —
  silently skips state);
* every attribute the class mutates after construction is covered by
  the pair (a forgotten attribute silently corrupts restores);
* the snapshot carries a ``version`` field so schema changes fail
  loudly instead of mis-restoring old state.

These rules check the three invariants per class, purely syntactically:
a class is *checkpointable* when it defines both ``snapshot(self)`` and
``restore(self, state)``. Key analysis is local to the class — keys a
``super().snapshot()`` contributes are invisible on both the write and
the read side, so inheritance stays symmetric.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, Module, Rule
from repro.lint.project import Project

__all__ = [
    "SnapshotKeyDriftRule",
    "SnapshotAttrCoverageRule",
    "SnapshotVersionRule",
    "checkpoint_classes",
]

FAMILY = "checkpoint"

#: Methods whose attribute writes do not count as "post-construction
#: mutation": construction itself and the checkpoint pair.
_LIFECYCLE = {"__init__", "snapshot", "restore"}


def checkpoint_classes(module: Module) -> Iterator[
        tuple[ast.ClassDef, ast.FunctionDef, ast.FunctionDef]]:
    """Yield ``(class, snapshot_def, restore_def)`` for every class
    defining the checkpoint pair (``snapshot(self)`` with no further
    arguments — point-in-time readers like ``CounterBank.snapshot(self,
    time)`` are a different protocol — and ``restore(self, state)``)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        snap = restore = None
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                if item.name == "snapshot" and len(item.args.args) == 1:
                    snap = item
                elif item.name == "restore" and len(item.args.args) == 2:
                    restore = item
        if snap is not None and restore is not None:
            yield node, snap, restore


def _dict_keys(fn: ast.FunctionDef) -> set[str]:
    """String keys written in ``fn``: dict-literal keys (nested dicts
    included — restore reads them through the same nesting) plus
    ``x["key"] = ...`` subscript stores."""
    keys: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str):
            keys.add(node.slice.value)
    return keys


def _read_keys(fn: ast.FunctionDef) -> set[str]:
    """String keys read in ``fn``: ``x["key"]`` subscript loads and
    ``x.get("key", ...)`` calls."""
    keys: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Load) and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("get", "pop") and node.args and \
                isinstance(node.args[0], ast.Constant) and \
                isinstance(node.args[0].value, str):
            keys.add(node.args[0].value)
    return keys


def _self_attrs_assigned(fn: ast.FunctionDef) -> dict[str, ast.AST]:
    """Attributes of ``self`` assigned (plain, annotated, augmented, or
    via subscript/attribute on the attribute) in ``fn``; maps name to
    the first assigning node."""
    self_name = fn.args.args[0].arg if fn.args.args else "self"
    out: dict[str, ast.AST] = {}

    def _record(target: ast.AST, node: ast.AST) -> None:
        # peel x[...] / x.y chains down to the self attribute they mutate
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == self_name:
                out.setdefault(target.attr, node)
                return
            target = target.value

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign,)):
            for target in node.targets:
                _record(target, node)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            _record(node.target, node)
    return out


def _self_attrs_mentioned(fn: ast.FunctionDef) -> set[str]:
    """Every ``self.<attr>`` appearing anywhere in ``fn``."""
    self_name = fn.args.args[0].arg if fn.args.args else "self"
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == self_name:
            out.add(node.attr)
    return out


class SnapshotKeyDriftRule(Rule):
    id = "ckpt-key-drift"
    family = FAMILY
    description = ("keys snapshot() writes and restore() reads must match "
                   "exactly")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for cls, snap, restore in checkpoint_classes(module):
            written = _dict_keys(snap)
            read = _read_keys(restore)
            if not written or not read:
                continue  # state built by helpers; out of syntactic reach
            for key in sorted(written - read - {"version"}):
                yield self.finding(
                    module, snap,
                    f"{cls.name}.snapshot() writes key {key!r} that "
                    f"restore() never reads; the restored object silently "
                    "drops that state")
            for key in sorted(read - written):
                yield self.finding(
                    module, restore,
                    f"{cls.name}.restore() reads key {key!r} that "
                    f"snapshot() never writes; restore will raise KeyError "
                    "(or read stale defaults) on a fresh snapshot")


class SnapshotAttrCoverageRule(Rule):
    id = "ckpt-attr-coverage"
    family = FAMILY
    description = ("attributes mutated after construction must appear in "
                   "snapshot() or restore()")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for cls, snap, restore in checkpoint_classes(module):
            init = None
            mutated: dict[str, ast.AST] = {}
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    init = item
                elif item.name not in _LIFECYCLE:
                    for name, node in _self_attrs_assigned(item).items():
                        mutated.setdefault(name, node)
            if init is None:
                continue
            covered = _self_attrs_mentioned(snap) | \
                _self_attrs_mentioned(restore)
            # Attributes an *inherited* snapshot()/restore() covers
            # count too — a subclass mutating state that the base's
            # checkpoint pair persists is fully covered.
            info = project.resolve_class(module, cls.name)
            if info is not None:
                for owner, name, fn in project.iter_methods(info):
                    if owner is not info and name in ("snapshot",
                                                      "restore"):
                        covered |= _self_attrs_mentioned(fn)
            init_attrs = _self_attrs_assigned(init)
            for name in sorted(set(init_attrs) & set(mutated) - covered):
                yield self.finding(
                    module, mutated[name],
                    f"{cls.name}.{name} is mutated after __init__ but "
                    "appears in neither snapshot() nor restore(); a "
                    "checkpoint round-trip silently resets it")


def _calls_super_snapshot(snap: ast.FunctionDef) -> bool:
    return any(
        isinstance(n, ast.Call) and
        isinstance(n.func, ast.Attribute) and
        n.func.attr == "snapshot" and
        isinstance(n.func.value, ast.Call) and
        isinstance(n.func.value.func, ast.Name) and
        n.func.value.func.id == "super"
        for n in ast.walk(snap))


def _inherited_version(project: Project, module: Module,
                       cls: ast.ClassDef) -> bool | None:
    """Does some resolvable ancestor's ``snapshot()`` write a
    ``version`` key? True/False when the chain resolves to an answer,
    None when no ancestor snapshot is in reach (unresolvable bases,
    helper-built state) — the caller must stay quiet then."""
    info = project.resolve_class(module, cls.name)
    if info is None:
        return None
    verdict: bool | None = None
    for owner, name, fn in project.iter_methods(info):
        if name != "snapshot" or owner is info:
            continue
        keys = _dict_keys(fn)
        if "version" in keys:
            return True
        if _calls_super_snapshot(fn):
            return None  # chain continues past resolvable bases
        if keys:
            verdict = False  # base builds the dict, without a version
        return verdict
    return None


class SnapshotVersionRule(Rule):
    id = "ckpt-missing-version"
    family = FAMILY
    description = "snapshot() dicts must carry a 'version' key"

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for cls, snap, _restore in checkpoint_classes(module):
            if _calls_super_snapshot(snap):
                # The subclass extends super().snapshot(): follow the
                # inheritance chain through the project. A base that
                # provably writes no version is the subclass's bug too;
                # an unresolvable chain stays quiet (old behaviour).
                if _inherited_version(project, module, cls) is False:
                    yield self.finding(
                        module, snap,
                        f"{cls.name}.snapshot() extends super().snapshot() "
                        "but no ancestor snapshot() writes a 'version' "
                        "key; schema changes will mis-restore old "
                        "checkpoints instead of failing loudly")
                continue
            written = _dict_keys(snap)
            if not written:
                continue  # built by helpers; out of syntactic reach
            if "version" not in written:
                yield self.finding(
                    module, snap,
                    f"{cls.name}.snapshot() has no 'version' key; schema "
                    "changes will mis-restore old checkpoints instead of "
                    "failing loudly")
