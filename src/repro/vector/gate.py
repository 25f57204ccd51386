"""Eligibility gate and uniform group profile for the vector engine.

The structure-of-arrays fast path (:class:`repro.vector.engine.VectorGroup`)
batches many nodes into one numpy step, which is only bit-identical to the
object engine when every batched node runs the *same* shape of stack: the
default budget-driven wiring (firmware + libmsr + bus + one 1 Hz
monitor + cap controller fed by budgets), one of the regular SPMD applications, and
no more workers than the node has cores.

:func:`supports_fast_path` answers "can this spec run vectorized?" with a
human-readable refusal reason (``None`` means eligible); ineligible specs
fall back to the object :class:`~repro.cluster.node_instance.NodeInstance`
transparently. :func:`profile_key` buckets eligible specs into groups that
may share one :class:`GroupProfile` — everything except the seed, the
stack name, the admission-time cap and the per-node process-variation
config fields must match.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.apps import build as build_app
from repro.apps.base import AppSpec, SyntheticApp
from repro.exceptions import ConfigurationError
from repro.hardware.config import NodeConfig
from repro.stack.spec import StackSpec

__all__ = [
    "FAST_APPS",
    "PER_NODE_CFG_FIELDS",
    "GroupProfile",
    "supports_fast_path",
    "profile_key",
    "build_profile",
    "member_seed",
]

#: Applications with the plain phase/iteration SPMD body the vector engine
#: replicates. The irregular codes (candle, hacc, imbalance, nek5000,
#: urban) use bespoke bodies/components and take the object fallback.
FAST_APPS = ("lammps", "amg", "qmcpack", "stream", "openmc")

#: NodeConfig fields allowed to differ between members of one group (the
#: cluster's process-variation perturbation touches exactly these).
PER_NODE_CFG_FIELDS = ("c_dyn", "leak_per_volt")


def _spec_cfg(spec: StackSpec) -> NodeConfig:
    return spec.cfg if spec.cfg is not None else NodeConfig()


def supports_fast_path(spec: object) -> str | None:
    """Why ``spec`` cannot run on the vector fast path (None = it can).

    The checks mirror exactly what :class:`repro.vector.engine.VectorGroup`
    models: a controller fed by budgets, not a schedule (an
    admission-time ``initial_budget`` included), no userspace pins, stock firmware, default topics, no
    node-state tap, a regular SPMD app, and at most one worker per core
    (the object runtimes refuse to pin more, so such a spec must fall
    back and raise the same error there).
    """
    if not isinstance(spec, StackSpec):
        return "not a StackSpec (mid-run checkpoints restore separately)"
    if spec.schedule is not None:
        return "cap schedules are not vectorized"
    if spec.dvfs_freq is not None or spec.duty is not None:
        return "userspace frequency/duty pins are not vectorized"
    if spec.firmware_kwargs:
        return "non-default firmware parameters are not vectorized"
    if spec.topics is not None:
        return "custom topic sets are not vectorized"
    if spec.sample_node_state:
        return "the node-state sampling tap is not vectorized"
    if spec.app_name not in FAST_APPS:
        return f"app {spec.app_name!r} has an irregular body"
    kwargs = dict(spec.app_kwargs or {})
    if "cfg" in kwargs:
        return "explicit cfg in app_kwargs shadows the node config"
    n_workers = kwargs.get("n_workers", SyntheticApp.N_WORKERS)
    n_cores = _spec_cfg(spec).n_cores
    if not isinstance(n_workers, int) or not 1 <= n_workers <= n_cores:
        return f"n_workers={n_workers!r} outside 1..{n_cores} cores"
    try:
        hash(tuple(sorted(kwargs.items())))
    except TypeError:
        return "app_kwargs contains unhashable values"
    return None


def profile_key(spec: StackSpec) -> tuple:
    """Grouping key: eligible specs with equal keys share one profile.

    Seed, stack name and ``initial_budget`` vary per node; the
    process-variation config fields (:data:`PER_NODE_CFG_FIELDS`) become
    per-node arrays.
    """
    kwargs = dict(spec.app_kwargs or {})
    kwargs.pop("seed", None)
    cfg = _spec_cfg(spec)
    cfg_items = tuple(
        (f.name, getattr(cfg, f.name))
        for f in fields(NodeConfig) if f.name not in PER_NODE_CFG_FIELDS
    )
    return (spec.app_name, tuple(sorted(kwargs.items())),
            spec.monitor_interval, cfg_items)


def member_seed(spec: StackSpec) -> int:
    """The app seed a stack built from ``spec`` would use (an explicit
    ``app_kwargs['seed']`` wins over the stack seed, exactly as
    :meth:`~repro.stack.spec.StackSpec.resolved_app_kwargs` resolves it)."""
    kwargs = dict(spec.app_kwargs or {})
    return kwargs.get("seed", spec.seed)


@dataclass(frozen=True)
class GroupProfile:
    """Everything shared by all members of one vector group.

    Phase parameters are plain tuples (one entry per phase of the app's
    spec); per-node quantities live in the group's arrays.
    """

    app_name: str
    app_spec: AppSpec          #: template AppSpec every member must equal
    parallelism: str           #: "mpi" or "openmp" (task naming)
    topic: str                 #: the single monitored progress topic
    drop_prob: float           #: bus transport loss probability
    n_workers: int
    monitor_interval: float
    cfg: NodeConfig            #: template config (per-node fields overridden)
    # Per-phase kernel/iteration parameters.
    ph_cycles: tuple[float, ...]
    ph_bpc: tuple[float, ...]
    ph_ipc: tuple[float, ...]
    ph_mpo: tuple[float | None, ...]
    ph_jitter: tuple[float, ...]
    ph_shared_jitter: tuple[float, ...]
    ph_iterations: tuple[int, ...]
    ph_ppi: tuple[float, ...]
    ph_publish: tuple[bool, ...]

    @property
    def n_phases(self) -> int:
        return len(self.ph_cycles)

    def task_name(self, wid: int) -> str:
        kind = "rank" if self.parallelism == "mpi" else "thr"
        return f"{self.app_name}:{kind}{wid}"


def build_profile(spec: StackSpec) -> GroupProfile:
    """Build the shared profile from one (eligible) member spec."""
    reason = supports_fast_path(spec)
    if reason is not None:
        raise ConfigurationError(f"spec is not vectorizable: {reason}")
    cfg = _spec_cfg(spec)
    app = build_app(spec.app_name, **spec.resolved_app_kwargs(cfg))
    phases = app.spec.phases
    return GroupProfile(
        app_name=app.name,
        app_spec=app.spec,
        parallelism=app.spec.parallelism,
        topic=app.topic,
        drop_prob=app.spec.transport_drop_prob,
        n_workers=app.n_workers,
        monitor_interval=spec.monitor_interval,
        cfg=cfg,
        ph_cycles=tuple(p.kernel.cycles for p in phases),
        ph_bpc=tuple(p.kernel.bytes_per_cycle for p in phases),
        ph_ipc=tuple(p.kernel.ipc for p in phases),
        ph_mpo=tuple(p.kernel.misses_per_instruction for p in phases),
        ph_jitter=tuple(p.kernel.jitter for p in phases),
        ph_shared_jitter=tuple(p.kernel.shared_jitter for p in phases),
        ph_iterations=tuple(p.iterations for p in phases),
        ph_ppi=tuple(p.progress_per_iteration for p in phases),
        ph_publish=tuple(p.publish for p in phases),
    )


def check_member(profile: GroupProfile, spec: StackSpec) -> SyntheticApp:
    """Verify ``spec`` builds the same application the profile describes
    (phases are cfg-calibrated, so this guards against a config drift the
    grouping key missed). Returns the freshly built app for inspection."""
    cfg = _spec_cfg(spec)
    app = build_app(spec.app_name, **spec.resolved_app_kwargs(cfg))
    if app.spec != profile.app_spec:
        raise ConfigurationError(
            f"node spec {spec.name!r} builds a different {spec.app_name!r} "
            "application than its group profile")
    if app.n_workers != profile.n_workers:
        raise ConfigurationError("worker count differs from group profile")
    return app
