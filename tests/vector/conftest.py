"""Shared helpers for the vector-engine parity suite.

Parity here means *bit* parity: every float is compared by its IEEE-754
bytes (:func:`bits`), never approximately. The drivers run one node
through the same budget schedule on the object engine
(:class:`NodeInstance`) and the vector engine
(:class:`~repro.vector.VectorEngine` host) and the tests require the
two trajectories — and the full mid-run checkpoints — to be identical.
"""

import dataclasses
import struct

import numpy as np

from repro.cluster.node_instance import NodeInstance
from repro.stack import StackSpec
from repro.vector import FAST_APPS, VectorEngine

#: The bespoke-body applications that must take the object fallback.
IRREGULAR_APPS = ("candle", "hacc", "imbalance", "nek5000", "urban")

#: All 10 application categories the repo models.
ALL_APPS = FAST_APPS + IRREGULAR_APPS

#: Budget schedule exercising the tracking policy: caps up, caps down,
#: uncapped interludes — one budget delivered before each 1 s epoch.
BUDGET_SCHEDULE = (None, 120.0, 80.0, 60.0, 95.0,
                   None, 70.0, 110.0, 55.0, None)


def app_kwargs(app_name: str) -> dict:
    kwargs = {"n_workers": 4}
    if app_name == "lammps":
        kwargs["n_steps"] = 10_000_000  # keep it busy for the whole run
    return kwargs


def make_spec(app_name: str, node_id: int = 0, seed: int = 7,
              cfg=None) -> StackSpec:
    return StackSpec(app_name=app_name, cfg=cfg,
                     app_kwargs=app_kwargs(app_name), seed=seed,
                     name=f"node{node_id}")


def bits(x):
    """Canonical bit-level form: floats become their IEEE bytes,
    containers and dataclasses recurse — ``==`` on two results means the
    states are bit-identical (0.0 vs -0.0 and NaN patterns included)."""
    if isinstance(x, (bool, int, str, bytes)) or x is None:
        return x
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, np.floating):
        return struct.pack("<d", float(x))
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return [bits(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: bits(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    return x


def surface(node) -> dict:
    """The cheap per-epoch fingerprint both node kinds expose through
    the NodeInstance surface. Calling :meth:`epoch_energy` consumes the
    energy mark, so take exactly one surface per node per epoch."""
    return {
        "now": node.now,
        "pkg_energy": node.node.pkg_energy,
        "dram_energy": node.node.dram_energy,
        "frequency": node.node.frequency,
        "uncore_scale": node.node.uncore_scale,
        "mon_times": list(node.monitor.series.times),
        "mon_values": list(node.monitor.series.values),
        "epoch_energy": node.epoch_energy(),
        "cumulative": node.cumulative_progress(),
        "recent_rate": node.recent_rate(3.0),
    }


def build_pair(app_name: str, seed: int = 7):
    """One object node and one vector-host node from the same spec."""
    spec = make_spec(app_name, seed=seed)
    obj = NodeInstance(0, spec)
    host = VectorEngine()
    host.build([(0, spec)])
    return obj, host


def queued_openmc_host(n: int) -> VectorEngine:
    """A vector host of ``n`` openmc nodes, run until node 1 has progress
    messages on its bus; every node then stands at node 1's clock."""
    host = VectorEngine()
    host.build([(nid, make_spec("openmc", node_id=nid, seed=7 + nid))
                for nid in range(n)])
    node = host.node(1)
    node.receive_budget(80.0)
    while not node.group.pending[node.slot]:
        node.advance(node.now + 0.05)
    for nid in range(n):
        host.node(nid).advance(node.now)
    return host


def checkpoint_fingerprint(snapshot: dict):
    """Bit-level form of a full NodeInstance checkpoint."""
    return bits(snapshot)
