"""Core machinery for :mod:`repro.lint`.

A *rule* is an object with an ``id``, a ``family`` and a
``check(module, project)`` method yielding :class:`Finding`\\ s. Rules
operate on a parsed :class:`Module` (AST + source + import map) so each
source file is read and parsed exactly once per run, plus the
:class:`~repro.lint.project.Project` built from *every* module of the
run — rules may follow imports and base classes across files through
it.

Suppressions are per line: a trailing ``# repro-lint: disable=<rule>``
comment (comma-separated rule ids or family names) silences findings
reported *on that line*. The comment must carry a reason for a human
reader; the linter itself only parses the rule list.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # circular at runtime: project.py imports Module
    from repro.lint.project import Project

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "parse_module",
    "qualified_name",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line:col: rule message``."""

    rule: str
    family: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Module:
    """A parsed source file plus the per-rule lookups built from it.

    Attributes
    ----------
    path:
        File path as given on the command line.
    tree:
        The parsed :class:`ast.Module`.
    lines:
        Source split into lines (1-indexed access via ``lines[n - 1]``).
    imports:
        Alias -> fully-qualified module/object name, e.g. ``np`` ->
        ``numpy``, ``environ`` -> ``os.environ``.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.imports = _collect_imports(tree)
        self._suppressed = _collect_suppressions(self.lines)

    def suppressed(self, line: int) -> frozenset[str]:
        """Rule ids/families disabled on ``line`` (1-indexed)."""
        return self._suppressed.get(line, frozenset())


class Rule:
    """Base class: subclasses set ``id``/``family``/``description`` and
    implement :meth:`check`."""

    id: str = ""
    family: str = ""
    description: str = ""

    def check(self, module: Module, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            family=self.family,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def _collect_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    out: dict[int, frozenset[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            rules = {tok.strip() for tok in m.group(1).split(",") if tok.strip()}
            if rules:
                out[i] = frozenset(rules)
    return out


def qualified_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Dotted name of an attribute/name chain, resolved through the
    module's import aliases (``np.random.default_rng`` ->
    ``numpy.random.default_rng``); None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def parse_module(path: str, source: str | None = None) -> Module:
    if source is None:
        with open(path, "r", encoding="utf-8") as f:
            source = f.read()
    tree = ast.parse(source, filename=path)
    return Module(path, source, tree)


def lint_project(project: "Project",
                 rules: Iterable[Rule]) -> list[Finding]:
    """Run ``rules`` over every module of ``project``, honouring each
    module's suppressions. Findings are ordered by module (in project
    order), then ``(line, col, rule)``."""
    order = {m.path: i for i, m in enumerate(project.modules)}
    findings: list[Finding] = []
    for rule in rules:
        for mod in project.modules:
            for finding in rule.check(mod, project):
                disabled = mod.suppressed(finding.line)
                if finding.rule in disabled or finding.family in disabled:
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (order.get(f.path, 0), f.line, f.col, f.rule))
    return findings


def lint_file(module: Module, rules: Iterable[Rule],
              project: "Project | None" = None) -> list[Finding]:
    """Run ``rules`` over one parsed module, honouring suppressions.

    Without an explicit ``project`` the module is wrapped in a
    single-module project, so rules that follow imports or base
    classes still run (blind to anything outside the file — exactly
    the unit-test entry point's contract).
    """
    from repro.lint.project import Project

    if project is None:
        project = Project([module])
    return [f for f in lint_project(project, rules) if f.path == module.path]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: set[str] = set()
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif path not in seen:
            seen.add(path)
            out.append(path)
    return iter(out)


def lint_paths(paths: Iterable[str],
               rules: Iterable[Rule]) -> tuple[list[Finding], list[str]]:
    """Lint every python file under ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are human-readable
    messages for files that could not be read or parsed (a parse error
    is not a finding — it means the file never reached the rules).
    """
    from repro.lint.project import Project

    rules = list(rules)
    modules: list[Module] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            modules.append(parse_module(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{path}: {exc}")
    return lint_project(Project(modules), rules), errors
