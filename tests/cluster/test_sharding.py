"""Sharded-lockstep tests: golden parity against the pre-refactor serial
cluster output, serial == sharded equivalence, and the worker protocol.

``fixtures/golden_cluster.json`` was recorded by the serial
pre-refactor ``ClusterSimulation`` (before the epoch loop moved onto
:class:`ShardedLockstep`); the parity tests require every shard count to
reproduce it *exactly* — same floats, not approximately.
"""

import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import (
    ClusterSimulation,
    NodeInstance,
    ProgressAwareRebalancer,
    ShardedLockstep,
    StepRequest,
    UniformPowerPolicy,
    step_node,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardWorkerError,
    SimulationError,
)
from repro.stack import StackSpec

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_cluster.json"

APP_KW = {"n_workers": 4}


def _golden():
    with open(FIXTURE) as f:
        return json.load(f)


def _policy(name):
    if name == "uniform":
        return UniformPowerPolicy(360.0)
    return ProgressAwareRebalancer(360.0, min_node=60.0, max_node=130.0)


def _run_cluster(policy_name, shards, engine="object"):
    sim = ClusterSimulation(3, "lammps", _policy(policy_name),
                            app_kwargs=APP_KW, variability=(0.05, 0.08),
                            seed=11, shards=shards, engine=engine)
    try:
        sim.run(10.0, epoch=1.0)
        return {
            "times": list(sim.total_progress.times),
            "total_progress": list(sim.total_progress.values),
            "critical_path": list(sim.critical_path.values),
            "budget_history": list(sim.budget_history.values),
            "total_energy": sim.total_energy,
            "now": sim.now,
            "node_rates": sim.node_rates(window=5.0),
            "node_frequencies": sim.node_frequencies(),
        }
    finally:
        sim.close()


class TestGoldenParity:
    """Serial and sharded runs must both reproduce the pre-refactor
    output bit-for-bit (values compared with ==, not approx)."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("policy_name", ["uniform", "progress"])
    def test_matches_pre_refactor_fixture(self, policy_name, shards):
        golden = _golden()[policy_name]
        got = _run_cluster(policy_name, shards)
        for key, expected in golden.items():
            assert got[key] == expected, f"{key} diverged at shards={shards}"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_vector_engine_matches_pre_refactor_fixture(self, shards):
        golden = _golden()["progress"]
        got = _run_cluster("progress", shards, engine="vector")
        for key, expected in golden.items():
            assert got[key] == expected, f"{key} diverged at shards={shards}"


def _spec(node_id, seed=0):
    return StackSpec(app_name="lammps", app_kwargs=dict(APP_KW),
                     seed=seed, name=f"node{node_id}")


class TestShardedLockstep:
    def test_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedLockstep(shards=0)

    def test_serial_exposes_local_nodes(self):
        ls = ShardedLockstep(shards=1)
        ls.add_nodes([(0, _spec(0))])
        assert isinstance(ls.local_nodes()[0], NodeInstance)
        ls.close()

    def test_sharded_hides_local_nodes(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            with pytest.raises(ConfigurationError):
                ls.local_nodes()

    def test_duplicate_node_id_rejected(self):
        ls = ShardedLockstep(shards=1)
        ls.add_nodes([(0, _spec(0))])
        with pytest.raises(ConfigurationError):
            ls.add_nodes([(0, _spec(0))])
        ls.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_step_results_in_request_order(self, shards):
        """Every gathered reply comes back in request order, whatever
        the shards the ids land on (here interleaved over both)."""
        with ShardedLockstep(shards=shards) as ls:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(4)])
            order = (2, 0, 3, 1)
            reqs = [StepRequest(node_id=i, target=2.0, windows=(1.0,))
                    for i in order]
            results = ls.step(reqs)
            assert [r.node_id for r in results] == list(order)
            assert all(r.now == pytest.approx(2.0) for r in results)
            assert all(r.energy > 0 for r in results)

            pairs = [(3, 1.0), (0, 2.0), (1, 1.0), (0, 1.0), (2, 2.0)]
            rates = ls.rates(pairs)
            assert rates == [ls.rates([pair])[0] for pair in pairs]
            assert rates[3] == results[1].rates[1.0]

            tels = ls.telemetry([3, 0, 2])
            assert list(tels) == [3, 0, 2]
            assert [tel.node_id for tel in tels.values()] == [3, 0, 2]

            snaps = ls.checkpoint([1, 3, 0])
            assert list(snaps) == [1, 3, 0]
            assert [snap["node_id"] for snap in snaps.values()] == [1, 3, 0]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_refused_budget_is_refused_again(self, shards):
        """A budget the node refused is not remembered as delivered:
        re-sending it fails again instead of being skipped as
        unchanged, and the node has not moved."""
        with ShardedLockstep(shards=shards) as ls:
            ls.add_nodes([(0, _spec(0))])
            bad = [StepRequest(node_id=0, target=1.0, budget=math.inf,
                               set_budget=True)]
            for _ in range(2):
                with pytest.raises((ConfigurationError, SimulationError),
                                   match="finite"):
                    ls.step(bad)
            [res] = ls.step([StepRequest(node_id=0, target=1.0,
                                         budget=90.0, set_budget=True)])
            assert res.now == pytest.approx(1.0)

    def test_worker_error_propagates(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0))])
            with pytest.raises(SimulationError, match="shard"):
                # rewinding a node raises inside the worker
                ls.step([StepRequest(node_id=0, target=1.0)])
                ls.step([StepRequest(node_id=0, target=0.5)])

    def test_checkpoint_migrates_between_layouts(self):
        """A node checkpointed out of one lockstep and rebuilt in
        another continues bit-for-bit."""
        ref = ShardedLockstep(shards=1)
        ref.add_nodes([(0, _spec(0))])
        ref.step([StepRequest(node_id=0, target=3.0)])
        snap = ref.checkpoint([0])[0]
        [ref_res] = ref.step([StepRequest(node_id=0, target=6.0,
                                          windows=(2.0,))])
        ref.close()

        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, snap)])
            [res] = ls.step([StepRequest(node_id=0, target=6.0,
                                         windows=(2.0,))])
        assert res.now == ref_res.now
        assert res.energy == ref_res.energy
        assert res.cumulative == ref_res.cumulative
        assert res.rates == ref_res.rates

    def test_remove_then_reuse_node_id(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            ls.step([StepRequest(node_id=0, target=1.0),
                     StepRequest(node_id=1, target=1.0)])
            ls.remove_nodes([0, 1])
            assert ls.n_nodes == 0
            ls.add_nodes([(0, _spec(0, seed=5))])
            [res] = ls.step([StepRequest(node_id=0, target=1.0)])
            assert res.now == pytest.approx(1.0)

    def test_close_is_idempotent(self):
        # a closed lockstep refuses every command, serial ones included
        for shards in (1, 2):
            ls = ShardedLockstep(shards=shards)
            ls.add_nodes([(0, _spec(0))])
            ls.close()
            ls.close()
            with pytest.raises(SimulationError):
                ls.step([StepRequest(node_id=0, target=1.0)])

    def test_telemetry_carries_series_copy(self):
        with ShardedLockstep(shards=1) as ls:
            ls.add_nodes([(0, _spec(0))])
            ls.step([StepRequest(node_id=0, target=3.0)])
            tel = ls.telemetry([0])[0]
            assert tel.pkg_energy > 0
            assert len(tel.progress) >= 1
            assert tel.interval == pytest.approx(1.0)
            # mutating the copy must not corrupt the live monitor
            tel.progress.append(99.0, 1.0)
            assert ls.telemetry([0])[0].progress.times[-1] != 99.0

    def test_shard_times_measured_per_step(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            assert ls.shard_times == {}
            ls.step([StepRequest(node_id=0, target=1.0),
                     StepRequest(node_id=1, target=1.0)])
            assert sorted(ls.shard_times) == [0, 1]
            assert all(t >= 0.0 for t in ls.shard_times.values())


# ----------------------------------------------------------------------
# Worker death → typed error, not a hang
# ----------------------------------------------------------------------


def _kill_worker(ls, shard):
    victim = ls._workers[shard]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while victim.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestShardWorkerError:
    def test_killed_worker_raises_typed_error(self):
        ls = ShardedLockstep(shards=2)
        try:
            ls.add_nodes([(0, _spec(0)), (1, _spec(1, seed=1))])
            _kill_worker(ls, 0)
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


# ----------------------------------------------------------------------
# A failed command leaves every pipe empty
# ----------------------------------------------------------------------


def _capped(node_id, budget=90.0, target=1.0):
    return StepRequest(node_id=node_id, target=target, budget=budget,
                       set_budget=True)


def _after_stepping(node_ids, engine):
    """Rates and telemetry of a four-node, two-shard lockstep in which
    only ``node_ids`` stepped one capped epoch: what a lockstep whose
    step failed on the other nodes must report."""
    with ShardedLockstep(shards=2, engine=engine) as ref:
        ref.add_nodes([(i, _spec(i, seed=i)) for i in range(4)])
        ref.step([_capped(i) for i in node_ids])
        return (ref.rates([(i, 1.0) for i in range(4)]),
                _telemetry_surface(ref.telemetry(node_ids)))


def _telemetry_surface(telemetry):
    return {node_id: (tel.node_id, tel.now, tel.pkg_energy, tel.frequency,
                      list(tel.progress.times), list(tel.progress.values))
            for node_id, tel in telemetry.items()}


class TestFailedCommandDrainsEveryShard:
    """When one shard fails a command, the replies of the others are
    read before the error is raised, so the next command gets its own
    answers and close() finds clean pipes."""

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_error_reply_leaves_no_stale_reply(self, engine, capfd):
        want_rates, want_tel = _after_stepping([1, 3], engine)
        ls = ShardedLockstep(shards=2, engine=engine)
        try:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(4)])
            # node 0 (shard 0) refuses its budget; shard 1 steps 1 and 3
            with pytest.raises(SimulationError, match="finite"):
                ls.step([_capped(0, math.inf), _capped(1), _capped(2),
                         _capped(3)])
            assert ls.rates([(i, 1.0) for i in range(4)]) == want_rates
            assert _telemetry_surface(ls.telemetry([1, 3])) == want_tel
        finally:
            ls.close()
        assert "Traceback" not in capfd.readouterr().err

    def test_dead_worker_leaves_no_stale_reply(self, capfd):
        want_rates, want_tel = _after_stepping([1, 3], "object")
        ls = ShardedLockstep(shards=2)
        try:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(4)])
            _kill_worker(ls, 0)
            # shard 1's nodes first, so it is sent the step and working
            # when shard 0's pipe turns out dead
            with pytest.raises(ShardWorkerError) as err:
                ls.step([_capped(1), _capped(3), _capped(0), _capped(2)])
            assert err.value.shard == 0
            assert ls.rates([(1, 1.0), (3, 1.0)]) == \
                [want_rates[1], want_rates[3]]
            assert _telemetry_surface(ls.telemetry([1, 3])) == want_tel
        finally:
            ls.close()
        assert "Traceback" not in capfd.readouterr().err


# ----------------------------------------------------------------------
# A refused add_nodes batch leaves the lockstep as it was
# ----------------------------------------------------------------------


def _hacc_spec(node_id):
    """A spec no vector group takes: the object fallback of a vector
    host, built before the host reaches the batch's checkpoint."""
    return StackSpec(app_name="hacc", app_kwargs=dict(APP_KW), seed=node_id,
                     name=f"node{node_id}")


@pytest.mark.parametrize("refused", ["foreign", "corrupt"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ["object", "vector"])
def test_refused_batch_leaves_lockstep_as_it_was(engine, shards, refused):
    """A batch with one refused checkpoint registers no id and leaves no
    node on any host: "foreign" is node 0's checkpoint added as node 2
    (refused before any build), "corrupt" a node-2 checkpoint of an
    unknown version (refused by the build itself, after the host built
    the batch's earlier node). Either way the survivors step on and the
    good items can be added again, stepping bit-equal to fresh nodes."""
    good = [(1, _hacc_spec(1)), (3, _spec(3, seed=3))]
    with ShardedLockstep(shards=1) as ref:
        ref.add_nodes(good)
        want = [_surface(res)
                for res in ref.step([_capped(1, target=3.0),
                                     _capped(3, target=3.0)])]

    with ShardedLockstep(shards=shards, engine=engine) as ls:
        ls.add_nodes([(0, _spec(0))])
        ls.step([_capped(0)])
        snap = ls.checkpoint([0])[0]
        bad = snap if refused == "foreign" else dict(snap, node_id=2,
                                                     version=99)
        with pytest.raises((CheckpointError, SimulationError)):
            ls.add_nodes([*good, (2, bad)])
        assert ls.n_nodes == 1
        [res] = ls.step([_capped(0, target=2.0)])
        assert res.now == pytest.approx(2.0)

        ls.add_nodes(good)
        assert ls.n_nodes == 3
        got = ls.step([_capped(1, target=3.0), _capped(3, target=3.0),
                       _capped(0, target=3.0)])
        assert [_surface(res) for res in got[:2]] == want
        assert got[2].now == pytest.approx(3.0)


_KEEP = object()  #: no budget update for this node this epoch

#: Per epoch, one entry per node: a budget (None = uncapped) or _KEEP.
#: Repeats, changes, None and no-update epochs are mixed on purpose.
_BUDGET_PLAN = [
    (90.0, 80.0, None),
    (90.0, 70.0, None),
    (_KEEP, 70.0, 85.0),
    (60.0, None, 85.0),
    (60.0, None, _KEEP),
    (None, 75.0, 85.0),
]


def _plan_requests(epoch, budgets):
    return [StepRequest(node_id=i, target=float(epoch + 1),
                        budget=None if b is _KEEP else b,
                        set_budget=b is not _KEEP, windows=(1.0, 2.0))
            for i, b in enumerate(budgets)]


def _surface(res):
    return (res.node_id, res.now, res.energy, res.cumulative,
            sorted(res.rates.items()))


@pytest.mark.parametrize("engine", ["object", "vector"])
def test_serial_lockstep_is_step_node_with_deduplicated_budgets(
        engine, monkeypatch):
    """A ``shards=1`` lockstep goes through the same command table as a
    worker, budget de-duplication included. Its results are bit-equal to
    :func:`step_node` on fresh nodes that receive every budget, and an
    unchanged budget reaches its node once."""
    from repro.vector.host import VectorNodeView

    specs = [_spec(i, seed=100 + i) for i in range(3)]
    ref_nodes = [NodeInstance.from_spec(i, spec)
                 for i, spec in enumerate(specs)]
    expected = [[_surface(step_node(ref_nodes[req.node_id], req))
                 for req in _plan_requests(epoch, budgets)]
                for epoch, budgets in enumerate(_BUDGET_PLAN)]

    delivered = []
    for cls in (NodeInstance, VectorNodeView):
        def receive(self, watts, _orig=cls.receive_budget):
            delivered.append((self.node_id, watts))
            _orig(self, watts)
        monkeypatch.setattr(cls, "receive_budget", receive)

    with ShardedLockstep(shards=1, engine=engine) as ls:
        ls.add_nodes(list(enumerate(specs)))
        on_vector = [isinstance(node, VectorNodeView)
                     for node in ls.local_nodes().values()]
        assert on_vector == [engine == "vector"] * 3
        got = [[_surface(res) for res in ls.step(_plan_requests(e, b))]
               for e, b in enumerate(_BUDGET_PLAN)]
    assert got == expected

    last: dict[int, object] = {}
    wanted = []
    for budgets in _BUDGET_PLAN:
        for node_id, budget in enumerate(budgets):
            if budget is not _KEEP and last.get(node_id, _KEEP) != budget:
                wanted.append((node_id, budget))
                last[node_id] = budget
    assert delivered == wanted
    assert len(wanted) < sum(b is not _KEEP
                             for budgets in _BUDGET_PLAN for b in budgets)


def _local(n=2):
    """A serial lockstep of ``n`` lammps nodes plus the live nodes."""
    ls = ShardedLockstep(shards=1)
    ls.add_nodes([(i, _spec(i, seed=1000 * i)) for i in range(n)])
    nodes = ls.local_nodes()
    return ls, [nodes[i] for i in range(n)]


def _advance(ls, n, target, budgets=None):
    """One epoch of every node to ``target``; the epoch's energy."""
    results = ls.step([
        StepRequest(node_id=i, target=target,
                    budget=None if budgets is None else budgets[i],
                    set_budget=budgets is not None, windows=(3.0,))
        for i in range(n)])
    return sum(res.energy for res in results)


class TestNodeStep:
    """The epoch step the cluster and scheduler loops share, on the
    serial path where the live nodes can be inspected."""

    def test_first_epoch_rates_are_zero(self):
        # Before any epoch has run, no monitor has closed a window: the
        # guard must report 0.0 instead of NaN-poisoning an allocator.
        ls, nodes = _local(2)
        with ls:
            assert [node.recent_rate(3.0) for node in nodes] == [0.0, 0.0]
            assert ls.rates([(0, 3.0), (1, 3.0)]) == [0.0, 0.0]

    def test_rates_positive_after_progress(self):
        ls, _ = _local(2)
        with ls:
            _advance(ls, 2, 4.0)
            assert all(r > 0.0 for r in ls.rates([(0, 3.0), (1, 3.0)]))

    def test_first_epoch_allocation_survives_empty_series(self):
        ls, _ = _local(3)
        with ls:
            rates = ls.rates([(i, 3.0) for i in range(3)])
            budgets = UniformPowerPolicy(300.0).allocate(rates)
            assert budgets == pytest.approx([100.0] * 3)

    def test_budget_applies_on_next_tick(self):
        ls, nodes = _local(2)
        with ls:
            budgets = UniformPowerPolicy(160.0).allocate([0.0, 0.0])
            _advance(ls, 2, 4.0, budgets=budgets)
            for node in nodes:
                assert node.controller.cap_series.values[-1] == \
                    pytest.approx(80.0)

    def test_advances_all_nodes_and_sums_energy(self):
        ls, nodes = _local(2)
        with ls:
            energy = _advance(ls, 2, 3.0)
            assert all(n.now == pytest.approx(3.0) for n in nodes)
            assert energy == pytest.approx(
                sum(n.node.pkg_energy for n in nodes))

    def test_energy_is_per_epoch_delta(self):
        ls, nodes = _local(1)
        with ls:
            first = _advance(ls, 1, 2.0)
            second = _advance(ls, 1, 4.0)
            assert first > 0 and second > 0
            assert first + second == pytest.approx(nodes[0].node.pkg_energy)


_ORPHAN_PARENT = """
import time
from repro.cluster import ShardedLockstep
lock = ShardedLockstep(shards=2)
print(" ".join(str(proc.pid) for proc in lock._workers), flush=True)
time.sleep(600)
"""


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed coordinator leaves no shard worker behind: each
    worker holds only its own end of its pipe, so the parent's death
    closes the pipe and the worker's ``recv`` sees EOF."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHAN_PARENT],
                              stdout=subprocess.PIPE, text=True, env=env)
    workers = []
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        parent.stdout.close()


def test_unpicklable_item_is_taken_back_from_every_shard():
    """An item that cannot cross a pipe fails its shard's send after
    the shard before it was sent its share: that shard's reply is read,
    its build removed again, and no id registered."""
    bad = StackSpec(app_name="lammps",
                    app_kwargs={**APP_KW, "hook": lambda: None}, seed=1,
                    name="node1")
    with ShardedLockstep(shards=2) as ls:
        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            ls.add_nodes([(0, _spec(0)), (1, bad)])
        assert ls.n_nodes == 0
        ls.add_nodes([(0, _spec(0))])
        [res] = ls.step([_capped(0)])
        assert res.now == pytest.approx(1.0)
