"""One way into a vector group: restored nodes share the build's groups.

``VectorEngine.build`` stages eligible specs and importable checkpoints
together by profile key and makes one group per key, so a resumed run
steps as few groups as a fresh one. A checkpoint the importer refuses
restores as an object node and takes no row of any group.
"""

import copy

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import ClusterSimulation, UniformPowerPolicy
from repro.cluster.node_instance import NodeInstance
from repro.cluster.sharding import ShardedLockstep
from repro.exceptions import CheckpointError
from repro.scheduler import PowerAwareScheduler
from repro.vector import VectorEngine, VectorNodeView, profile_key
from tests.cluster.test_replay import _book, _report, _sched_config, \
    _submit_jobs
from tests.vector.conftest import (
    BUDGET_SCHEDULE,
    bits,
    make_spec,
    queued_openmc_host,
    surface,
)


def _groups(nodes):
    return {id(node.group) for node in nodes
            if isinstance(node, VectorNodeView)}


def _drive(nodes, budgets):
    """Step every node through ``budgets``; the per-epoch surfaces."""
    out = []
    for budget in budgets:
        target = nodes[0].now + 1.0
        for node in nodes:
            node.receive_budget(budget)
            node.advance(target)
        out.append([bits(surface(node)) for node in nodes])
    return out


class TestResumeSharesGroups:
    def test_resumed_cluster_holds_one_group(self):
        """A resumed 100-node lammps cluster steps as one group, and its
        series match the uninterrupted run bit for bit."""
        def series(sim):
            return [(list(ts.times), list(ts.values)) for ts in
                    (sim.budget_history, sim.total_progress,
                     sim.critical_path)] + [sim.total_energy]

        sim = ClusterSimulation(100, "lammps", UniformPowerPolicy(9000.0),
                                app_kwargs={"n_workers": 4}, seed=5,
                                engine="vector")
        try:
            sim.run(until=2.0)
            checkpoint = sim.run_checkpoint()
            sim.run(until=4.0)
            assert len(_groups(sim.nodes)) == 1
            want = bits(series(sim))
        finally:
            sim.close()
        resumed = ClusterSimulation.resume(checkpoint, engine="vector")
        try:
            assert len(_groups(resumed.nodes)) == 1
            resumed.run(until=4.0)
            assert bits(series(resumed)) == want
        finally:
            resumed.close()

    def test_resumed_scheduler_holds_one_group_per_key(self):
        """Jobs started in separate builds share one group per profile
        key once resumed, and the run finishes as recorded."""
        sched = PowerAwareScheduler(_sched_config(engine="vector"), _book())
        _submit_jobs(sched)
        try:
            for _ in range(6):
                sched.step()
            checkpoint = sched.run_checkpoint()
            sched.run()
            want = _report(sched)
        finally:
            sched.close()
        resumed = PowerAwareScheduler.resume(checkpoint)
        try:
            nodes = resumed._lockstep.local_nodes().values()
            keys = {profile_key(node.spec) for node in nodes
                    if isinstance(node, VectorNodeView)}
            assert keys and len(_groups(nodes)) <= len(keys)
            resumed.run()
            assert _report(resumed) == want
        finally:
            resumed.close()


class TestMixedBuilds:
    def test_specs_and_checkpoints_of_one_key_make_one_group(self):
        """Two mid-run checkpoints and a fresh spec of the same key land
        in one group, and every row runs on bit-equal to its source."""
        specs = [make_spec("lammps", node_id=nid, seed=7 + nid)
                 for nid in range(3)]
        source = VectorEngine()
        source.build([(0, specs[0]), (1, specs[1])])
        _drive([source.node(0), source.node(1)], BUDGET_SCHEDULE[:3])
        fresh = VectorEngine()
        fresh.build([(2, specs[2])])
        # the fresh node catches up to the checkpoints' clock first
        fresh.node(2).advance(source.node(0).now)

        host = VectorEngine()
        host.build([(0, source.node(0).snapshot()), (2, specs[2]),
                    (1, source.node(1).snapshot())])
        host.node(2).advance(source.node(0).now)
        assert host.vector_node_ids == [0, 2, 1]
        assert len(_groups(host.node(nid) for nid in range(3))) == 1
        assert len(host.node(0).group) == 3
        want = _drive([source.node(0), source.node(1), fresh.node(2)],
                      BUDGET_SCHEDULE[3:6])
        got = _drive([host.node(0), host.node(1), host.node(2)],
                     BUDGET_SCHEDULE[3:6])
        assert got == want

    def test_refused_checkpoint_takes_no_row(self):
        """A refused checkpoint restores as an object node beside the
        accepted ones, which share one group and step on bit-equal."""
        source = queued_openmc_host(3)
        checkpoints = {nid: source.node(nid).snapshot() for nid in range(3)}
        bad = copy.deepcopy(checkpoints[1])
        queue = bad["stack"].state["bus"]["subs"][0]["queue"]
        t, msg = queue[0]
        queue[0] = (t + 0.5, msg)

        host = VectorEngine()
        host.build([(0, checkpoints[0]), (1, bad), (2, checkpoints[2])])
        assert host.fallback_node_ids == [1]
        assert isinstance(host.node(1), NodeInstance)
        group = host.node(0).group
        assert host.node(2).group is group and len(group) == 2
        want = _drive([source.node(0), source.node(2)], BUDGET_SCHEDULE[:3])
        got = _drive([host.node(0), host.node(2)], BUDGET_SCHEDULE[:3])
        assert got == want


@pytest.mark.parametrize("engine", ["object", "vector"])
def test_checkpoint_under_another_id_is_refused(engine):
    """A checkpoint added under an id other than its own raises on both
    engines (the object host used to keep the checkpoint's id, so node
    5's step results came back as node 3's)."""
    spec = make_spec("lammps", node_id=3)
    node = NodeInstance.from_spec(3, spec)
    node.advance(0.5)
    with ShardedLockstep(engine=engine) as lockstep:
        with pytest.raises(CheckpointError, match="node 3 added as node 5"):
            lockstep.add_nodes([(4, spec), (5, node.snapshot())])
