"""Golden bit-parity: vector engine == object engine, all 10 apps.

``fixtures/golden_apps.json`` was recorded by the object engine
(:class:`NodeInstance`) running each application category through the
shared budget schedule. Every test compares with :func:`bits` — IEEE
bytes, not approximately — so a single reassociated float fails.
"""

import json
import pathlib

import pytest

pytestmark = pytest.mark.slow

from repro.cluster.node_instance import NodeInstance
from repro.cluster.variability import perturb_config
from repro.hardware.config import skylake_config
from repro.vector import FAST_APPS, VectorEngine
from tests.vector.conftest import (
    ALL_APPS,
    BUDGET_SCHEDULE,
    IRREGULAR_APPS,
    bits,
    build_pair,
    make_spec,
    surface,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_apps.json"


def _golden():
    with open(FIXTURE) as f:
        return json.load(f)


def _drive(node, budgets=BUDGET_SCHEDULE):
    """Run the schedule, returning per-epoch surfaces."""
    trajectory = []
    t = node.now
    for budget in budgets:
        node.receive_budget(budget)
        t += 1.0
        node.advance(t)
        trajectory.append(surface(node))
    return trajectory


def _golden_surface(node):
    """The fixture's view of a finished node (cap series + counters
    reach beyond the common NodeInstance surface, so pull them from the
    full checkpoint, which both engines export in the same format)."""
    snap = node.snapshot()
    state = snap["stack"].state
    cap = state["controller"]["cap_series"]
    return {
        "now": node.now,
        "pkg_energy": node.node.pkg_energy,
        "dram_energy": node.node.dram_energy,
        "frequency": node.node.frequency,
        "uncore_scale": node.node.uncore_scale,
        "mon_times": list(node.monitor.series.times),
        "mon_values": list(node.monitor.series.values),
        "cap_times": cap["times"],
        "cap_values": cap["values"],
        "cumulative": node.cumulative_progress(),
        "recent_rate": node.recent_rate(3.0),
        "counters": state["node"]["counters"],
    }


class TestGoldenParity:
    """Both engines must reproduce the recorded object trajectories."""

    @pytest.mark.parametrize("app_name", ALL_APPS)
    def test_engines_match_fixture(self, app_name):
        golden = _golden()[app_name]
        obj, host = build_pair(app_name)
        vec = host.node(0)

        obj_traj = _drive(obj)
        vec_traj = _drive(vec)

        # epoch-by-epoch, engine vs engine (full surface incl. energy)
        assert bits(vec_traj) == bits(obj_traj)

        # end-state vs the recorded fixture (guards both engines —
        # and the fixture itself — against drift)
        for node, engine in ((obj, "object"), (vec, "vector")):
            got = _golden_surface(node)
            epoch_energies = [s["epoch_energy"] for s in
                              (obj_traj if engine == "object" else vec_traj)]
            for key, expected in golden.items():
                if key == "epoch_energies":
                    assert bits(epoch_energies) == bits(expected), engine
                else:
                    assert bits(got[key]) == bits(expected), \
                        f"{engine}:{key}"

    @pytest.mark.parametrize("app_name", ALL_APPS)
    def test_full_checkpoint_parity(self, app_name):
        """The *entire* mid-run checkpoint — engine tasks, firmware,
        bus RNG, counters, everything — must be bit-identical."""
        obj, host = build_pair(app_name)
        vec = host.node(0)
        _drive(obj, BUDGET_SCHEDULE[:5])
        _drive(vec, BUDGET_SCHEDULE[:5])
        assert bits(vec.snapshot()) == bits(obj.snapshot())


class TestRouting:
    @pytest.mark.parametrize("app_name", FAST_APPS)
    def test_fast_apps_take_the_vector_path(self, app_name):
        host = VectorEngine()
        host.build([(0, make_spec(app_name))])
        assert host.vector_node_ids == [0]
        assert host.fallback_node_ids == []

    @pytest.mark.parametrize("app_name", IRREGULAR_APPS)
    def test_irregular_apps_fall_back_to_object(self, app_name):
        host = VectorEngine()
        host.build([(0, make_spec(app_name))])
        assert host.vector_node_ids == []
        assert host.fallback_node_ids == [0]
        assert isinstance(host.node(0), NodeInstance)


class TestGroupedParity:
    def test_perturbed_group_matches_object_nodes(self):
        """A multi-node group with per-node process variation (the
        cluster's perturbation touches exactly the per-node config
        fields) stays bit-identical to independent object nodes."""
        import numpy as np

        base = skylake_config()
        specs = []
        for i in range(4):
            cfg = perturb_config(base, np.random.default_rng([11, i]),
                                 sigma_dynamic=0.05, sigma_static=0.08)
            specs.append((i, make_spec("lammps", node_id=i,
                                       seed=7 + 1000 * i, cfg=cfg)))
        host = VectorEngine()
        host.build(specs)
        assert sorted(host.vector_node_ids) == [0, 1, 2, 3]
        objs = [NodeInstance.from_spec(i, spec) for i, spec in specs]

        for budget in BUDGET_SCHEDULE[:6]:
            per_node = [budget, 100.0, None, 125.0]
            for obj, (i, _), b in zip(objs, specs, per_node):
                obj.receive_budget(b)
                host.node(i).receive_budget(b)
                t = obj.now + 1.0
                obj.advance(t)
                host.node(i).advance(t)

        for obj, (i, _) in zip(objs, specs):
            assert bits(surface(host.node(i))) == bits(surface(obj)), i

    def test_run_to_completion_matches(self):
        """An app that exhausts its work (the DONE path: workers spin
        down, rate falls to zero) stays bit-identical."""
        import dataclasses

        spec = dataclasses.replace(
            make_spec("lammps"),
            app_kwargs={"n_steps": 40, "n_workers": 4})
        obj = NodeInstance.from_spec(0, spec)
        host = VectorEngine()
        host.build([(0, spec)])
        vec = host.node(0)
        for _ in range(8):
            t = obj.now + 1.0
            obj.advance(t)
            vec.advance(t)
            assert bits(surface(vec)) == bits(surface(obj))
        assert obj.recent_rate(1.0) == 0.0  # it actually finished


class TestWorkerCountParity:
    @pytest.mark.parametrize("n_workers", [8, 24])
    @pytest.mark.parametrize("app_name", FAST_APPS)
    def test_wide_nodes_match_object_nodes(self, app_name, n_workers):
        """Nodes with 8 and with 24 workers (the paper's node: one rank
        per core) take the vector path and stay bit-identical to object
        nodes: a perturbed 2-node group over the whole budget schedule,
        per-epoch surfaces and the final full checkpoint."""
        import dataclasses

        import numpy as np

        specs = []
        for i in range(2):
            cfg = perturb_config(skylake_config(),
                                 np.random.default_rng([13, i]),
                                 sigma_dynamic=0.05, sigma_static=0.08)
            spec = make_spec(app_name, node_id=i, seed=7 + 1000 * i,
                             cfg=cfg)
            specs.append((i, dataclasses.replace(
                spec, app_kwargs={**spec.app_kwargs,
                                  "n_workers": n_workers})))
        host = VectorEngine()
        host.build(specs)
        assert sorted(host.vector_node_ids) == [0, 1]
        objs = [NodeInstance.from_spec(i, spec) for i, spec in specs]

        for epoch, budget in enumerate(BUDGET_SCHEDULE):
            per_node = (budget, BUDGET_SCHEDULE[-1 - epoch])
            for obj, (i, _), b in zip(objs, specs, per_node):
                obj.receive_budget(b)
                host.node(i).receive_budget(b)
                obj.advance(epoch + 1.0)
                host.node(i).advance(epoch + 1.0)
                assert bits(surface(host.node(i))) == bits(surface(obj)), \
                    (epoch, i)

        for obj, (i, _) in zip(objs, specs):
            assert bits(host.node(i).snapshot()) == bits(obj.snapshot()), i


#: Short runs per app, so rows finish (and cross phases) mid-test. The
#: work count is part of the group key, so one group per app.
_SHORT_RUNS = {
    "lammps": {"n_steps": 150, "n_workers": 7},
    "amg": {"n_iterations": 17, "setup_iterations": 3, "n_workers": 4},
    "qmcpack": {"vmc1_blocks": 25, "vmc2_blocks": 25, "dmc_blocks": 95,
                "n_workers": 5},
    "stream": {"n_iterations": 131, "n_workers": 3},
    "openmc": {"inactive_batches": 2, "active_batches": 7, "n_workers": 6},
}
#: Per-slot budgets: uncapped rows finish first, capped ones keep going.
_SLOT_BUDGETS = (None, 62.0, 48.0, 85.0, None)


def _tasks(snapshot) -> list:
    return snapshot["stack"].state["engine"]["tasks"]


def _mid_barrier(snapshot) -> bool:
    return any(task["barrier_pos"] is not None for task in _tasks(snapshot))


def _finished(snapshot) -> bool:
    return all(task["status"] == "done" for task in _tasks(snapshot))


class TestGroupedMultiRowParity:
    def test_groups_stepped_together_match_object_nodes(self):
        """All slots of one group per app advance in a single
        VectorEngine.step per epoch, so one micro-step pass completes,
        releases and retires several rows at once: perturbed configs and
        budgets spread the rows, and the short runs make some reach
        their end while others still release (openmc's bus drops,
        amg's and qmcpack's phase changes included)."""
        import dataclasses

        import numpy as np

        from repro.cluster.sharding import StepRequest, step_node

        base = skylake_config()
        specs = []
        for a, app_name in enumerate(FAST_APPS):
            for k, budget in enumerate(_SLOT_BUDGETS):
                nid = 10 * a + k
                cfg = perturb_config(base, np.random.default_rng([5, nid]),
                                     sigma_dynamic=0.05, sigma_static=0.08)
                spec = dataclasses.replace(
                    make_spec(app_name, node_id=nid, seed=3 + 97 * nid,
                              cfg=cfg),
                    app_kwargs=dict(_SHORT_RUNS[app_name]))
                specs.append((nid, spec, budget))
        host = VectorEngine()
        host.build([(nid, spec) for nid, spec, _ in specs])
        assert sorted(host.vector_node_ids) == sorted(n for n, _, _ in specs)
        objs = {nid: NodeInstance.from_spec(nid, spec)
                for nid, spec, _ in specs}

        compared_mid_barrier = 0
        for epoch in range(8):
            requests = [StepRequest(node_id=nid, target=epoch + 1.0,
                                    budget=budget, set_budget=True,
                                    windows=(1.0, 3.0))
                        for nid, _, budget in specs]
            got = host.step(requests)
            want = [step_node(objs[req.node_id], req) for req in requests]
            assert bits(got) == bits(want), epoch
            for nid, _, _ in specs:
                assert bits(surface(host.node(nid))) == \
                    bits(surface(objs[nid])), (epoch, nid)
            if epoch in (2, 5):
                for nid, _, _ in specs:
                    vec_snap = host.checkpoint(nid)
                    assert bits(vec_snap) == bits(objs[nid].snapshot()), \
                        (epoch, nid)
                    compared_mid_barrier += _mid_barrier(vec_snap)

        assert compared_mid_barrier > 0
        for a in range(len(FAST_APPS)):
            done = [_finished(objs[10 * a + k].snapshot())
                    for k in range(len(_SLOT_BUDGETS))]
            assert any(done) and not all(done), FAST_APPS[a]


class TestClusterScaleParity:
    @pytest.mark.slow
    def test_thousand_node_cluster_matches_object_engine(self):
        """1,000 lammps nodes under progress-aware rebalancing, with
        per-node manufacturing variability, produce the same cluster
        series and energy on both engines, bit for bit, over 2 epochs
        (about 40 s on the object side)."""
        from repro.cluster.policies import ProgressAwareRebalancer
        from repro.cluster.simulation import ClusterSimulation

        def run(engine):
            sim = ClusterSimulation(
                1000, "lammps",
                ProgressAwareRebalancer(1000 * 95.0, min_node=60.0,
                                        max_node=130.0),
                app_kwargs={"n_steps": 10_000_000, "n_workers": 4},
                variability=(0.05, 0.08), seed=7, engine=engine)
            try:
                sim.run(2.0, epoch=1.0)
                return bits({
                    name: (list(series.times), list(series.values))
                    for name, series in (
                        ("total_progress", sim.total_progress),
                        ("critical_path", sim.critical_path),
                        ("budget_history", sim.budget_history))
                } | {"total_energy": sim.total_energy, "now": sim.now})
            finally:
                sim.close()

        assert run("vector") == run("object")


class TestPassPaths:
    @pytest.mark.parametrize("app_name", FAST_APPS)
    def test_slice_path_equals_gather_path(self, app_name):
        """One group advanced with its slots in order (all-active passes
        read slice views) and a twin advanced with the same slots
        reversed (every pass gathers by index) end bit-equal in every
        row array, series and bus queue. Staggered targets make rows
        drop out mid-advance, and the short runs finish some rows and
        cross phases."""
        import dataclasses

        import numpy as np

        from repro.vector.engine import W_DONE

        base = skylake_config()
        specs = []
        for k in range(len(_SLOT_BUDGETS)):
            cfg = perturb_config(base, np.random.default_rng([17, k]),
                                 sigma_dynamic=0.05, sigma_static=0.08)
            specs.append((k, dataclasses.replace(
                make_spec(app_name, node_id=k, seed=5 + 89 * k, cfg=cfg),
                app_kwargs=dict(_SHORT_RUNS[app_name]))))

        def build():
            host = VectorEngine()
            host.build(specs)
            views = [host.node(nid) for nid, _ in specs]
            assert all(view.group is views[0].group for view in views)
            return host, views[0].group, [view.slot for view in views]

        host_a, ordered, slots = build()
        host_b, reversed_, slots_b = build()
        assert slots == slots_b == list(range(len(specs)))
        fwd = np.asarray(slots, dtype=np.intp)
        back = fwd[::-1].copy()
        assert isinstance(ordered._selector(fwd), slice)
        assert isinstance(reversed_._selector(back), np.ndarray)

        def assert_same(epoch):
            for name in ordered._blank:
                assert bits(getattr(ordered, name)) == \
                    bits(getattr(reversed_, name)), (epoch, name)
            for slot in slots:
                for series in ("mon_series", "cap_series"):
                    assert bits(getattr(ordered, series)[slot].snapshot()) \
                        == bits(getattr(reversed_, series)[slot].snapshot()), \
                        (epoch, series, slot)
                assert bits(list(ordered.pending[slot])) == \
                    bits(list(reversed_.pending[slot])), (epoch, slot)

        for epoch in range(8):
            targets = np.asarray(
                [epoch + 1.0 + 0.3 * (k % 3) for k in slots])
            for slot, budget in zip(slots, _SLOT_BUDGETS):
                if epoch % 3 == 0:
                    budget = None
                ordered.receive_budget(slot, budget)
                reversed_.receive_budget(slot, budget)
            ordered.advance(fwd, targets)
            reversed_.advance(back, targets[::-1].copy())
            assert_same(epoch)
        assert (ordered.wstatus == W_DONE).all()
