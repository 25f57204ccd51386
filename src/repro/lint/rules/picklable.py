"""Shard-boundary picklability rules.

Payloads that cross a process boundary — ``ShardedLockstep`` pipe
messages, ``RunExecutor`` pool work items/results, ``NodeCheckpoint``
blobs — are pickled. A field typed as a lambda, lock, open file, or a
live ``Generator`` turns into a runtime ``PicklingError`` deep inside a
worker, long after the type was defined. This rule moves that failure
to lint time.

Boundary types are identified by naming convention: any ``@dataclass``
whose name ends in ``Spec``, ``Request``, ``Reply``, ``Result``,
``Checkpoint``, ``Telemetry``, ``Message``, ``Payload``, ``Plan`` or
``Migration`` is wire format (the repo's existing wire types —
``StackSpec``, ``StepRequest``, ``StepResult``, ``NodeTelemetry``,
``NodeCheckpoint``, ``Message``, ``RunCheckpoint``, and the daemon
protocol's ``*Request``/``*Reply``/``*Telemetry`` dataclasses — all
follow it). Declared fields of such classes must stay picklable by
construction.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import Finding, Module, Rule
from repro.lint.project import Project

__all__ = ["BoundaryFieldRule", "BOUNDARY_NAME_RE"]

FAMILY = "picklable"

#: Class names treated as process-boundary wire types.
BOUNDARY_NAME_RE = re.compile(
    r"(Spec|Request|Reply|Result|Checkpoint|Telemetry|Message|Payload"
    r"|Plan|Migration)$")

#: Type names that cannot cross a pickle boundary (matched against every
#: identifier inside the field annotation, so ``Callable[[int], float]``,
#: ``np.random.Generator`` and ``threading.Lock`` are all caught).
_UNPICKLABLE = {
    "Callable": "callables (functions, lambdas, bound methods)",
    "Lock": "locks",
    "RLock": "locks",
    "Condition": "synchronization primitives",
    "Semaphore": "synchronization primitives",
    "BoundedSemaphore": "synchronization primitives",
    "Event": "synchronization primitives",
    "Thread": "threads",
    "Process": "processes",
    "Generator": "live generator objects",
    "Iterator": "live iterator objects",
    "IO": "open file objects",
    "TextIO": "open file objects",
    "BinaryIO": "open file objects",
    "socket": "sockets",
    "Connection": "pipe connections",
}

#: Fully-qualified spellings of the same types, matched after pushing
#: the annotation through the module's import aliases — so
#: ``from threading import Lock as L`` or ``import threading as t``
#: cannot smuggle a lock past the bare-name table.
_UNPICKLABLE_QUALIFIED = {
    "threading.Lock": "locks",
    "threading.RLock": "locks",
    "threading.Condition": "synchronization primitives",
    "threading.Event": "synchronization primitives",
    "threading.Semaphore": "synchronization primitives",
    "threading.Thread": "threads",
    "multiprocessing.Process": "processes",
    "multiprocessing.connection.Connection": "pipe connections",
    "socket.socket": "sockets",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name == "dataclass":
            return True
    return False


def _annotation_idents(annotation: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string ("forward reference") annotations: parse and recurse
            try:
                sub = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            yield from _annotation_idents(sub)


class BoundaryFieldRule(Rule):
    id = "pickle-boundary-field"
    family = FAMILY
    description = ("process-boundary dataclasses must not declare "
                   "unpicklable fields (lambdas, locks, files, live "
                   "generators)")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef) or \
                    not BOUNDARY_NAME_RE.search(cls.name) or \
                    not _is_dataclass(cls):
                continue
            for item in cls.body:
                if not isinstance(item, ast.AnnAssign) or \
                        not isinstance(item.target, ast.Name):
                    continue
                field_name = item.target.id
                for node, ident in _annotation_idents(item.annotation):
                    reason = _UNPICKLABLE.get(ident)
                    if reason is None and isinstance(
                            node, (ast.Name, ast.Attribute)):
                        # aliased spellings: resolve the chain through
                        # the module's imports and match qualified
                        qualified = project.resolve_name(
                            module, ident) if isinstance(node, ast.Name) \
                            else None
                        reason = _UNPICKLABLE_QUALIFIED.get(
                            qualified) if qualified else None
                    if reason is not None:
                        yield self.finding(
                            module, item,
                            f"{cls.name}.{field_name} is typed {ident}; "
                            f"{reason} cannot cross the "
                            "pickle boundary this class is shipped over")
                        break
                if isinstance(item.value, ast.Lambda):
                    yield self.finding(
                        module, item,
                        f"{cls.name}.{field_name} defaults to a lambda, "
                        "which cannot cross the pickle boundary this class "
                        "is shipped over")
