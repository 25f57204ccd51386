"""Elasticity: the shard balancer's planning logic (pure, synthetic
timings), live node migration between shard workers (bit-identical
continuation), and typed failure when a worker dies mid-run.

The load-bearing invariant is the lockstep parity contract: placement
cannot affect simulated results, so every migration test compares
series with ``==``, never ``approx``.
"""

import os
import signal
import time

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import ClusterSimulation, ShardedLockstep, StepRequest
from repro.cluster.elastic import (
    MigrationPlan,
    NodeMigration,
    ShardBalancer,
)
from repro.cluster.policies import UniformPowerPolicy
from repro.exceptions import ConfigurationError, ShardWorkerError
from repro.stack import BUDGET, StackSpec

APP_KW = {"n_workers": 4}


def _spec(node_id, seed=0):
    return StackSpec(app_name="lammps", app_kwargs=dict(APP_KW),
                     seed=seed, controller=BUDGET, name=f"node{node_id}")


# ----------------------------------------------------------------------
# ShardBalancer planning (pure logic — synthetic wall times)
# ----------------------------------------------------------------------


def balancer(**kw):
    kw.setdefault("warmup", 0)
    kw.setdefault("cooldown", 0)
    return ShardBalancer(**kw)


class TestShardBalancer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardBalancer(threshold=1.0)
        with pytest.raises(ConfigurationError):
            ShardBalancer(warmup=-1)

    def test_warmup_suppresses_early_plans(self):
        b = ShardBalancer(threshold=1.4, warmup=2, cooldown=0)
        times = {0: 10.0, 1: 1.0}
        nodes = {0: [0, 1, 2], 1: [3]}
        assert b.observe(times, nodes) is None
        assert b.observe(times, nodes) is None
        assert b.observe(times, nodes) is not None

    def test_below_threshold_no_plan(self):
        b = balancer(threshold=2.0)
        assert b.observe({0: 1.5, 1: 1.0}, {0: [0, 1], 1: [2]}) is None
        assert b.plans == 0

    def test_plan_moves_tail_of_slowest_to_fastest(self):
        b = balancer(threshold=1.4)
        plan = b.observe({0: 4.0, 1: 1.0}, {0: [0, 1, 2, 3], 1: [4]})
        assert isinstance(plan, MigrationPlan)
        assert all(isinstance(m, NodeMigration) for m in plan.moves)
        assert all(m.src == 0 and m.dst == 1 for m in plan.moves)
        # tail of the donor list, never the whole shard
        moved = [m.node_id for m in plan.moves]
        assert moved == [0, 1, 2, 3][-len(moved):]
        assert len(moved) < 4

    def test_never_empties_single_node_shard(self):
        b = balancer()
        assert b.observe({0: 10.0, 1: 1.0}, {0: [7], 1: [1, 2]}) is None

    def test_single_shard_no_plan(self):
        b = balancer()
        assert b.observe({0: 5.0}, {0: [0, 1]}) is None

    def test_cooldown_skips_after_plan(self):
        b = ShardBalancer(threshold=1.4, warmup=0, cooldown=2)
        times = {0: 10.0, 1: 1.0}
        nodes = {0: [0, 1, 2, 3], 1: [4]}
        assert b.observe(times, nodes) is not None
        assert b.observe(times, nodes) is None
        assert b.observe(times, nodes) is None
        assert b.observe(times, nodes) is not None
        assert b.plans == 2

    def test_max_moves_caps_plan(self):
        b = balancer(max_moves=1)
        plan = b.observe({0: 10.0, 1: 0.5},
                         {0: [0, 1, 2, 3, 4, 5], 1: [6]})
        assert len(plan.moves) == 1

    def test_zero_fast_time_no_plan(self):
        b = balancer()
        assert b.observe({0: 5.0, 1: 0.0}, {0: [0, 1], 1: [2]}) is None

    def test_ignores_shards_without_placement(self):
        b = balancer()
        # shard 1 timed but no longer holds nodes: not a candidate
        plan = b.observe({0: 4.0, 1: 0.1, 2: 1.0},
                         {0: [0, 1, 2], 2: [3]})
        assert plan is not None
        assert all(m.dst == 2 for m in plan.moves)

    def test_empty_shard_seeded_as_receiver(self):
        # A shard with no nodes never steps work, so it never gets a
        # wall time; it must still be reachable as a receiver (at an
        # implicit 0.0 s), or a fully skewed start can never unskew.
        b = balancer(threshold=1.4)
        plan = b.observe({0: 4.0}, {0: [0, 1, 2, 3], 1: []})
        assert plan is not None
        assert all(m.src == 0 and m.dst == 1 for m in plan.moves)
        # equalising estimate: per-node cost 1.0, so half the donors go
        assert [m.node_id for m in plan.moves] == [2, 3]

    def test_empty_shard_needs_measured_work(self):
        b = balancer()
        # nothing measured to move: no plan
        assert b.observe({0: 0.0}, {0: [0, 1], 1: []}) is None
        # still never empties the donor's last node
        assert b.observe({0: 5.0}, {0: [7], 1: []}) is None


# ----------------------------------------------------------------------
# Live migration between shard workers
# ----------------------------------------------------------------------


def _series(ls, node_ids, start, end):
    """Step nodes epoch-by-epoch, returning all reported floats."""
    out = []
    t = start
    while t < end - 1e-9:
        t += 1.0
        reqs = [StepRequest(node_id=i, target=t, budget=90.0,
                            set_budget=True, windows=(3.0, 1.0))
                for i in node_ids]
        for res in ls.step(reqs):
            out.append((res.node_id, res.now, res.energy,
                        res.cumulative, tuple(sorted(res.rates.items()))))
    return out


class TestMigrateNodes:
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_migration_is_invisible_to_results(self, engine):
        ids = list(range(4))
        items = [(i, _spec(i, seed=i)) for i in ids]

        ref = ShardedLockstep(shards=2, engine=engine)
        try:
            ref.add_nodes(items)
            expected = _series(ref, ids, 0.0, 3.0)
            expected += _series(ref, ids, 3.0, 6.0)
        finally:
            ref.close()

        ls = ShardedLockstep(shards=2, engine=engine)
        try:
            ls.add_nodes(items)
            got = _series(ls, ids, 0.0, 3.0)
            # mid-run: move both of shard 0's nodes onto shard 1
            placement = ls.shard_nodes()
            moved = ls.migrate_nodes({nid: 1 for nid in placement[0]})
            assert moved == len(placement[0]) > 0
            assert ls.migrations == moved
            assert ls.shard_nodes()[0] == []
            got += _series(ls, ids, 3.0, 6.0)
        finally:
            ls.close()

        assert got == expected  # bit-identical, not approx

    def test_noop_and_unknown_moves(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            src = ls.shard_nodes()
            assert ls.migrate_nodes({0: [s for s, nids in src.items()
                                         if 0 in nids][0]}) == 0
            with pytest.raises(ConfigurationError, match="unknown"):
                ls.migrate_nodes({99: 0})
            with pytest.raises(ConfigurationError, match="destination"):
                ls.migrate_nodes({0: 5})

    def test_serial_mode_never_migrates(self):
        ls = ShardedLockstep(shards=1)
        ls.add_nodes([(0, _spec(0))])
        assert ls.migrate_nodes({0: 0}) == 0
        ls.close()

    def test_explicit_shard_placement(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))],
                         shard=1)
            assert ls.shard_nodes() == {0: [], 1: [0, 1]}
            # pinned adds must not advance the round-robin cursor
            ls.add_nodes([(2, _spec(2, seed=2))])
            assert 2 in ls.shard_nodes()[0]
            with pytest.raises(ConfigurationError):
                ls.add_nodes([(3, _spec(3))], shard=9)

    def test_shard_times_measured_per_step(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            assert ls.shard_times == {}
            ls.step([StepRequest(node_id=0, target=1.0),
                     StepRequest(node_id=1, target=1.0)])
            assert sorted(ls.shard_times) == [0, 1]
            assert all(t >= 0.0 for t in ls.shard_times.values())


class _OnePlanBalancer:
    """Deterministic stand-in: migrate node ``node_id`` to ``dst`` on
    the first observation, then stay quiet."""

    def __init__(self, node_id, dst):
        self.node_id = node_id
        self.dst = dst
        self.fired = False

    def observe(self, shard_times, shard_nodes):
        if self.fired:
            return None
        src = next(s for s, nids in shard_nodes.items()
                   if self.node_id in nids)
        if src == self.dst:
            return None
        self.fired = True
        return MigrationPlan(observation=1, moves=(
            NodeMigration(node_id=self.node_id, src=src, dst=self.dst),))


class TestBalancerInLoop:
    def test_forced_plan_applied_and_results_invariant(self):
        ids = list(range(4))
        items = [(i, _spec(i, seed=i)) for i in ids]

        ref = ShardedLockstep(shards=2)
        try:
            ref.add_nodes(items)
            expected = _series(ref, ids, 0.0, 5.0)
        finally:
            ref.close()

        bal = _OnePlanBalancer(node_id=0, dst=1)
        ls = ShardedLockstep(shards=2, balancer=bal)
        try:
            ls.add_nodes(items)
            got = _series(ls, ids, 0.0, 5.0)
            assert bal.fired
            assert ls.migrations == 1
            assert 0 in ls.shard_nodes()[1]
        finally:
            ls.close()

        assert got == expected

    def test_skewed_start_unskews_into_empty_shard(self):
        """All nodes pinned to shard 0 of 2: the real balancer must
        seed the never-stepped shard 1 (it has no wall time at all),
        and the migration must not perturb the series."""
        ids = list(range(4))
        items = [(i, _spec(i, seed=i)) for i in ids]

        ref = ShardedLockstep(shards=2)
        try:
            ref.add_nodes(items, shard=0)
            expected = _series(ref, ids, 0.0, 5.0)
        finally:
            ref.close()

        bal = ShardBalancer(threshold=1.05, warmup=0, cooldown=0)
        ls = ShardedLockstep(shards=2, balancer=bal)
        try:
            ls.add_nodes(items, shard=0)
            got = _series(ls, ids, 0.0, 5.0)
            # shard 0's wall time is real (> 0) and shard 1's implicit
            # 0.0 s beats any threshold, so the first eligible
            # observation must fire deterministically
            assert bal.plans >= 1
            assert ls.migrations >= 1
            assert ls.shard_nodes()[1] != []
        finally:
            ls.close()

        assert got == expected

    def test_skewed_and_balanced_runs_match_serial(self):
        """A 6-vs-2 placement over two shards reproduces the serial run
        with the real balancer off and on; with it on, the overloaded
        shard gives nodes away."""
        ids = list(range(8))
        items = [(i, _spec(i, seed=7 + 1000 * i)) for i in ids]

        def run(shards, balancer=None):
            ls = ShardedLockstep(shards=shards, balancer=balancer)
            try:
                if shards == 1:
                    ls.add_nodes(items)
                else:
                    ls.add_nodes(items[:6], shard=0)
                    ls.add_nodes(items[6:], shard=1)
                series = _series(ls, ids, 0.0, 6.0)
                return series, ls.migrations, ls.shard_nodes()
            finally:
                ls.close()

        serial, _, _ = run(1)
        skewed, skewed_moves, _ = run(2)
        balanced, balanced_moves, placement = run(
            2, ShardBalancer(threshold=1.25, warmup=1, cooldown=1))
        assert skewed == serial
        assert balanced == serial
        assert skewed_moves == 0
        assert balanced_moves >= 1
        assert len(placement[0]) < 6

    def test_cluster_simulation_balance_flag(self):
        """balance=True end-to-end: whether or not the real balancer
        fires (wall times are nondeterministic), the series must equal
        the serial run's bit-for-bit."""
        policy = UniformPowerPolicy(360.0)
        serial = ClusterSimulation(4, "lammps", policy,
                                   app_kwargs=APP_KW, seed=11)
        try:
            serial.run(6.0)
            expected = (list(serial.total_progress.values),
                        list(serial.critical_path.values),
                        serial.total_energy)
        finally:
            serial.close()

        sim = ClusterSimulation(4, "lammps", UniformPowerPolicy(360.0),
                                app_kwargs=APP_KW, seed=11, shards=2,
                                balance=True)
        try:
            sim.run(6.0)
            got = (list(sim.total_progress.values),
                   list(sim.critical_path.values),
                   sim.total_energy)
            assert sim.migrations >= 0  # counter exists either way
        finally:
            sim.close()

        assert got == expected


# ----------------------------------------------------------------------
# Worker death → typed error, not a hang
# ----------------------------------------------------------------------


class TestShardWorkerError:
    def test_killed_worker_raises_typed_error(self):
        ls = ShardedLockstep(shards=2)
        try:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            victim = ls._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ShardWorkerError) as err:
                for _ in range(3):  # buffered sends may succeed once
                    ls.step([StepRequest(node_id=0, target=1.0),
                             StepRequest(node_id=1, target=1.0)])
            assert err.value.shard == 0
            assert "checkpoint" in str(err.value)
        finally:
            ls.close()  # must not hang on the dead worker

    def test_close_after_partial_construction(self):
        with pytest.raises(ConfigurationError):
            ShardedLockstep(shards=2, engine="warp")
        # surviving the constructor raising is the test: __del__ runs
        # close() on the partially built instance without AttributeError
