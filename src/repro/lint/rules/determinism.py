"""Determinism rules.

The repo's headline guarantees — bit-identical golden parity across
``shards ∈ {1, 2, 4}`` and the content-keyed :class:`RunExecutor`
result cache — hold only if simulation results are a pure function of
the seed and the spec. Anything that samples the host (wall clock,
process environment, global RNG state) silently breaks both. These
rules flag every such source; the handful of legitimate uses (CLI
plumbing, cache-directory discovery) carry explicit
``# repro-lint: disable=...`` suppressions so each one is a reviewed
decision, not an accident.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator

from repro.lint.core import Finding, Module, Rule, qualified_name
from repro.lint.project import Project

__all__ = [
    "AUDITED_CLOCK_MODULES",
    "is_obs_clock_module",
    "WallClockRule",
    "DatetimeRule",
    "StdlibRandomRule",
    "UnseededRngRule",
    "NumpyGlobalRngRule",
    "EnvironReadRule",
]

FAMILY = "determinism"

#: The audited host-clock modules — the only places allowed to read
#: host clocks. There is one, :mod:`repro.obs.hostclock`; its docstring
#: sets out the two tiers of readings it serves: describe-only
#: (traces, metrics, manifests) and wall-clock steering (daemon pacing
#: alone), which may decide when an epoch runs but never a simulated
#: quantity, seed, or simulated control decision. Confining the reads
#: to one reviewed module keeps the clock rules protecting everything
#: else without blanket per-line suppressions. Matched by path suffix
#: so the rules work from any checkout root. Clock reads only: entropy,
#: environment and RNG rules still apply inside it.
AUDITED_CLOCK_MODULES: tuple[str, ...] = ("repro/obs/hostclock.py",)


def is_obs_clock_module(path: str) -> bool:
    """True when ``path`` is an audited host-clock module."""
    normalized = path.replace(os.sep, "/")
    return normalized.endswith(AUDITED_CLOCK_MODULES)

#: ``time`` module calls that read the host clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
}

#: ``datetime`` constructors that read the host clock.
_DATETIME_NOW = {
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: numpy calls that touch the *global* (unseedable-per-run) RNG.
_NUMPY_GLOBAL = {
    "numpy.random.seed", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.random", "numpy.random.randint", "numpy.random.choice",
    "numpy.random.normal", "numpy.random.uniform", "numpy.random.shuffle",
    "numpy.random.permutation",
}

#: Other host-entropy sources.
_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
            "secrets.token_hex", "secrets.randbelow", "secrets.choice"}


def _called_names(module: Module) -> Iterator[tuple[ast.Call, str]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, module.imports)
            if name is not None:
                yield node, name


class WallClockRule(Rule):
    id = "det-wallclock"
    family = FAMILY
    description = ("host wall-clock reads (time.time & friends) inside "
                   "simulation code; use the engine clock instead")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        clock_allowed = is_obs_clock_module(module.path)
        for node, name in _called_names(module):
            if name in _WALL_CLOCK:
                if clock_allowed:
                    continue  # the audited obs clock module
                yield self.finding(
                    module, node,
                    f"{name}() reads the host clock; simulated time comes "
                    "from the engine clock (repro.runtime.clock)")
            elif name in _ENTROPY:
                yield self.finding(
                    module, node,
                    f"{name}() draws host entropy; results must be a pure "
                    "function of the seed")


class DatetimeRule(Rule):
    id = "det-datetime"
    family = FAMILY
    description = "datetime.now()/today() reads inside simulation code"

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        if is_obs_clock_module(module.path):
            return  # the audited obs clock module (clock reads only)
        for node, name in _called_names(module):
            if name in _DATETIME_NOW or (
                    name.split(".")[-1] in ("now", "utcnow")
                    and name.startswith("datetime.")):
                yield self.finding(
                    module, node,
                    f"{name}() reads the host clock; stamp results outside "
                    "the simulation or derive times from the engine clock")


class StdlibRandomRule(Rule):
    id = "det-random"
    family = FAMILY
    description = ("stdlib random module use; all randomness must flow "
                   "through seeded numpy Generators")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for node, name in _called_names(module):
            if name == "random" or name.startswith("random."):
                yield self.finding(
                    module, node,
                    f"{name}() uses the process-global stdlib RNG; use a "
                    "seeded np.random.default_rng([...]) stream")


class UnseededRngRule(Rule):
    id = "det-unseeded-rng"
    family = FAMILY
    description = "np.random.default_rng() without an explicit seed"

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for node, name in _called_names(module):
            if name != "numpy.random.default_rng":
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "default_rng() without a seed draws OS entropy; pass a "
                    "seed sequence such as [base_seed, stream_index]")
            elif any(isinstance(a, ast.Constant) and a.value is None
                     for a in node.args):
                yield self.finding(
                    module, node,
                    "default_rng(None) draws OS entropy; pass an explicit "
                    "seed sequence")


class NumpyGlobalRngRule(Rule):
    id = "det-np-global"
    family = FAMILY
    description = "numpy global-state RNG calls (np.random.rand, .seed, ...)"

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for node, name in _called_names(module):
            if name in _NUMPY_GLOBAL:
                yield self.finding(
                    module, node,
                    f"{name}() mutates/reads numpy's global RNG, which is "
                    "shared across the process; use a per-run "
                    "default_rng([...]) stream")


class EnvironReadRule(Rule):
    id = "det-environ"
    family = FAMILY
    description = ("os.environ reads; simulation behaviour must not depend "
                   "on ambient process state")

    def check(self, module: Module,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, module.imports)
                if name in ("os.getenv", "os.environ.get", "os.environ.pop"):
                    yield self.finding(
                        module, node,
                        f"{name}() makes behaviour depend on the host "
                        "environment; plumb configuration explicitly")
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Load):
                name = qualified_name(node.value, module.imports)
                if name == "os.environ":
                    yield self.finding(
                        module, node,
                        "os.environ[...] read makes behaviour depend on the "
                        "host environment; plumb configuration explicitly")
