"""Cross-module project model for :mod:`repro.lint`.

The per-file :class:`~repro.lint.core.Module` sees one AST at a time,
which is enough for purely local invariants (a ``time.time()`` call, a
lock-typed dataclass field) but blind to anything that spans files: a
``snapshot()`` that extends a base class defined elsewhere, or a
boundary field whose type is imported under an alias.
:class:`Project` closes that gap.

A :class:`Project` is built once per lint run from every parsed module
and indexes:

* **modules by dotted name** — ``src/repro/daemon/service.py`` is
  addressable as ``repro.daemon.service`` regardless of checkout root;
* **classes by qualified name** — ``repro.daemon.service.Daemon`` maps
  to a :class:`ClassInfo` carrying the AST node and its methods;
* **import aliases per module** — extending the core import map with
  *relative* imports resolved against the module's package, so
  ``from .service import Daemon`` participates in resolution.

On top of the indices it resolves the references rules actually
follow: a dotted name through a module's import aliases
(:meth:`Project.resolve_name`), a name as written in a module to a
class (:meth:`Project.resolve_class`), and a class to its base classes
and inherited methods (:meth:`Project.bases_of`,
:meth:`Project.iter_methods`).

Resolution is deliberately conservative: an unresolvable reference is
``None``, never a guess — except for the *unique bare name* fallback
(an unqualified name defined by exactly one class in the project),
which keeps single-string fixtures in tests resolvable without import
plumbing.

Rules receive the project as the second argument to
``check(module, project)``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator

from repro.lint.core import Module

__all__ = ["ClassInfo", "Project", "module_name"]


def module_name(path: str) -> str:
    """Dotted module name of a source path.

    The name is taken relative to the innermost ``src`` directory
    (``src/repro/daemon/service.py`` -> ``repro.daemon.service``);
    failing that, from the first ``repro`` segment; failing that, the
    bare stem (so ad-hoc temp files in tests still get a usable name).
    Package ``__init__.py`` files name the package itself.
    """
    norm = path.replace(os.sep, "/")
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split("/") if p and p != "."]
    if len(parts) > 1 and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[cut + 1:]
        if tail:
            return ".".join(tail)
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return parts[-1] if parts else norm


class ClassInfo:
    """One class definition and the lookups rules need from it.

    Attributes
    ----------
    name:
        Bare class name (``Daemon``).
    qualname:
        ``<module dotted name>.<class name>``, nested classes included
        (``repro.daemon.service.Daemon``).
    module:
        The :class:`Module` defining the class.
    node:
        The :class:`ast.ClassDef`.
    methods:
        Name -> :class:`ast.FunctionDef` for methods defined *in this
        class body* (inherited methods come from
        :meth:`Project.iter_methods`).
    """

    __slots__ = ("name", "qualname", "module", "node", "methods")

    def __init__(self, name: str, qualname: str, module: Module,
                 node: ast.ClassDef) -> None:
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        self.methods: dict[str, ast.FunctionDef] = {
            item.name: item for item in node.body
            if isinstance(item, ast.FunctionDef)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qualname})"


def _dotted(node: ast.AST) -> str | None:
    """The textual ``a.b.c`` chain of a Name/Attribute expression."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Project:
    """Every parsed module of one lint run, cross-indexed."""

    def __init__(self, modules: Iterable[Module]) -> None:
        self.modules: list[Module] = list(modules)
        #: qualified class name -> ClassInfo.
        self.classes: dict[str, ClassInfo] = {}
        self._names: dict[str, str] = {}          # path -> dotted name
        self._bare: dict[str, list[ClassInfo]] = {}
        self._imports: dict[str, dict[str, str]] = {}
        for mod in self.modules:
            name = module_name(mod.path)
            self._names[mod.path] = name
            self._index_classes(mod, name)

    def _index_classes(self, mod: Module, mod_name: str) -> None:
        def visit(body: list[ast.stmt], prefix: str) -> None:
            for item in body:
                if isinstance(item, ast.ClassDef):
                    qualname = f"{prefix}.{item.name}"
                    info = ClassInfo(item.name, qualname, mod, item)
                    self.classes.setdefault(qualname, info)
                    self._bare.setdefault(item.name, []).append(info)
                    visit(item.body, qualname)
                elif isinstance(item, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    visit(item.body, prefix)

        visit(mod.tree.body, mod_name)

    # ------------------------------------------------------------------
    # Names and imports
    # ------------------------------------------------------------------

    def name_of(self, module: Module) -> str:
        """Dotted module name of a project module."""
        return self._names.get(module.path, module_name(module.path))

    def imports_of(self, module: Module) -> dict[str, str]:
        """The module's alias map, with relative imports resolved
        against its package (the core map skips them)."""
        cached = self._imports.get(module.path)
        if cached is not None:
            return cached
        out = dict(module.imports)
        name_parts = self.name_of(module).split(".")
        is_pkg = module.path.replace(os.sep, "/").endswith("/__init__.py")
        pkg = name_parts if is_pkg else name_parts[:-1]
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base = pkg[:len(pkg) - (node.level - 1)] if node.level > 1 \
                else list(pkg)
            if node.level - 1 > len(pkg):
                continue  # relative import escaping the known root
            prefix_parts = base + ([node.module] if node.module else [])
            prefix = ".".join(prefix_parts)
            for alias in node.names:
                if prefix:
                    out[alias.asname or alias.name] = \
                        f"{prefix}.{alias.name}"
        self._imports[module.path] = out
        return out

    def resolve_name(self, module: Module, dotted: str) -> str:
        """A dotted name as written in ``module``, pushed through the
        module's import aliases (``proto.RunRequest`` ->
        ``repro.daemon.protocol.RunRequest``). Always returns a string;
        unknown roots pass through unchanged."""
        parts = dotted.split(".")
        target = self.imports_of(module).get(parts[0])
        if target is None:
            return dotted
        return ".".join([target] + parts[1:])

    # ------------------------------------------------------------------
    # Class resolution
    # ------------------------------------------------------------------

    def resolve_class(self, module: Module,
                      ref: ast.AST | str) -> ClassInfo | None:
        """Resolve a class reference as written in ``module``.

        ``ref`` may be an AST expression (Name/Attribute chain) or its
        textual dotted form. Resolution order: same-module class,
        import-alias target, unique bare name anywhere in the project.
        """
        name = ref if isinstance(ref, str) else _dotted(ref)
        if not name:
            return None
        if "." not in name:
            local = self.classes.get(f"{self.name_of(module)}.{name}")
            if local is not None:
                return local
        info = self.classes.get(self.resolve_name(module, name))
        if info is not None:
            return info
        if "." not in name:
            bare = self._bare.get(name, [])
            if len(bare) == 1:
                return bare[0]
        return None

    # ------------------------------------------------------------------
    # Inheritance
    # ------------------------------------------------------------------

    def bases_of(self, info: ClassInfo) -> list[ClassInfo]:
        """The resolvable base classes of ``info``, in bases order.
        Unresolvable bases (stdlib, third-party) are silently absent."""
        out: list[ClassInfo] = []
        for base in info.node.bases:
            resolved = self.resolve_class(info.module, base)
            if resolved is not None and resolved is not info:
                out.append(resolved)
        return out

    def iter_methods(self, info: ClassInfo) -> Iterator[
            tuple[ClassInfo, str, ast.FunctionDef]]:
        """``(owner, name, def)`` for every method visible on ``info``
        — own methods first, then inherited ones depth-first through
        resolvable bases; an overridden name appears once."""
        seen: set[str] = set()
        stack: list[ClassInfo] = [info]
        visited: set[str] = set()
        while stack:
            cls = stack.pop(0)
            if cls.qualname in visited:
                continue
            visited.add(cls.qualname)
            for name, fn in cls.methods.items():
                if name not in seen:
                    seen.add(name)
                    yield cls, name, fn
            stack.extend(self.bases_of(cls))
