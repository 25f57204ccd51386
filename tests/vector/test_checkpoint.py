"""Checkpoint round-trips between the engines.

A vector slot exports a standard :meth:`NodeInstance.snapshot`
checkpoint, and ``VectorEngine.build`` re-imports object checkpoints
into the groups it builds — so nodes can cross engine boundaries mid-run
with bit parity in all four directions (vector->object, object->vector,
vector->vector, and the pre-start case).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.slow

from repro.cluster.node_instance import NodeInstance
from repro.cluster.sharding import ShardedLockstep, StepRequest
from repro.exceptions import CheckpointError
from repro.telemetry.pubsub import Message
from repro.telemetry.timeseries import TimeSeries
from repro.vector import VectorEngine
from repro.vector.checkpoint import read_slot
from repro.vector.engine import _DRAW_BLOCK, W_RUNNING
from repro.vector.gate import build_profile
from tests.vector.conftest import (
    BUDGET_SCHEDULE,
    bits,
    build_pair,
    make_spec,
    queued_openmc_host,
    surface,
)


def _drive(node, budgets):
    t = node.now
    for budget in budgets:
        node.receive_budget(budget)
        t += 1.0
        node.advance(t)


def _continue_and_compare(a, b, budgets=BUDGET_SCHEDULE[5:]):
    """Advance both nodes through the same tail; every epoch surface
    and the final full checkpoint must be bit-identical."""
    t = a.now
    for budget in budgets:
        a.receive_budget(budget)
        b.receive_budget(budget)
        t += 1.0
        a.advance(t)
        b.advance(t)
        assert bits(surface(a)) == bits(surface(b))
    assert bits(a.snapshot()) == bits(b.snapshot())


def _plain(value):
    """Generators, series and queues as comparable plain data."""
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, TimeSeries):
        return value.snapshot()
    if isinstance(value, (list, tuple, deque)):
        return [_plain(v) for v in value]
    return value


def _import_vector(checkpoint, node_id=0):
    host = VectorEngine()
    host.build([(node_id, checkpoint)])
    assert host.vector_node_ids == [node_id], host.fallback_node_ids
    return host.node(node_id)


class TestRoundTrips:
    @pytest.mark.parametrize("app_name", ["lammps", "openmc"])
    def test_vector_to_object(self, app_name):
        obj, host = build_pair(app_name)
        vec = host.node(0)
        _drive(obj, BUDGET_SCHEDULE[:5])
        _drive(vec, BUDGET_SCHEDULE[:5])
        restored = NodeInstance.from_checkpoint(vec.snapshot())
        _continue_and_compare(restored, obj)

    @pytest.mark.parametrize("app_name", ["lammps", "stream"])
    def test_object_to_vector(self, app_name):
        obj, host = build_pair(app_name)
        vec = host.node(0)
        _drive(obj, BUDGET_SCHEDULE[:5])
        _drive(vec, BUDGET_SCHEDULE[:5])
        imported = _import_vector(obj.snapshot())
        _continue_and_compare(imported, vec)

    def test_vector_to_vector(self):
        obj, host = build_pair("lammps")
        vec = host.node(0)
        _drive(obj, BUDGET_SCHEDULE[:5])
        _drive(vec, BUDGET_SCHEDULE[:5])
        imported = _import_vector(vec.snapshot())
        _continue_and_compare(imported, obj)

    def test_pre_start_checkpoint(self):
        """A checkpoint taken before the first advance restores onto
        either engine and both continue identically."""
        _, host = build_pair("amg")
        vec = host.node(0)
        checkpoint = vec.snapshot()
        restored_obj = NodeInstance.from_checkpoint(checkpoint)
        restored_vec = _import_vector(checkpoint)
        _continue_and_compare(restored_obj, restored_vec,
                              budgets=BUDGET_SCHEDULE[:6])

    def test_irregular_checkpoint_falls_back(self):
        """A checkpoint of a non-fast-path app imports as an object
        fallback inside the vector host, results unchanged."""
        spec = make_spec("candle")
        obj = NodeInstance(0, spec)
        _drive(obj, BUDGET_SCHEDULE[:3])
        host = VectorEngine()
        host.build([(0, obj.snapshot())])
        assert host.fallback_node_ids == [0]
        ref = NodeInstance(0, spec)
        _drive(ref, BUDGET_SCHEDULE[:3])
        _continue_and_compare(host.node(0), ref,
                              budgets=BUDGET_SCHEDULE[3:6])

    def test_same_pass_arrivals_keep_the_object_order(self):
        """Workers completing in the same micro-step reach the barrier
        in descending id on both engines: the object engine dispatches
        them LIFO, and checkpoints record the order as barrier_pos."""
        obj, _ = build_pair("lammps")
        obj.advance(1.0)
        tasks = obj.snapshot()["stack"].state["engine"]["tasks"]
        while any(task["status"] != "running" for task in tasks):
            obj.advance(obj.now + 0.001)
            tasks = obj.snapshot()["stack"].state["engine"]["tasks"]
        checkpoint = obj.snapshot()
        tasks = checkpoint["stack"].state["engine"]["tasks"]
        # Workers 1 and 3 get identical work, nearly done; 0 and 2 start
        # over, so the barrier stays open after 1 and 3 arrive together.
        for wid, frac in ((0, 0.0), (1, 0.9), (2, 0.0), (3, 0.9)):
            tasks[wid]["work"] = tasks[1]["work"]
            tasks[wid]["frac_done"] = frac
        a = NodeInstance.from_checkpoint(checkpoint)
        b = _import_vector(checkpoint)
        for node in (a, b):
            node.advance(node.now + 0.02)
        got = [task["barrier_pos"] for task in
               b.snapshot()["stack"].state["engine"]["tasks"]]
        assert got == [None, 1, None, 0]
        assert bits(b.snapshot()) == bits(a.snapshot())

    def test_group_slot_round_trip_mid_barrier(self):
        """A slot exported mid-barrier and imported into a fresh group
        carries every per-node field of VectorGroup. The fields are
        found by walking ``vars(group)`` (an array or list with one
        entry per slot, in a three-slot and a one-slot group alike), so
        a field added later is covered with no list to maintain."""
        host = VectorEngine()
        host.build([(nid, make_spec("openmc", node_id=nid, seed=7 + nid))
                    for nid in range(3)])
        vec = host.node(1)
        group, slot = vec.group, vec.slot
        vec.advance(2.0)
        while (group.barrier_pos[slot] >= 0).sum() < 2:
            vec.advance(vec.now + 0.001)
        twin = _import_vector(vec.snapshot(), node_id=1)
        running = group.wstatus[slot] == W_RUNNING
        per_node = [name for name, value in vars(group).items()
                    if isinstance(value, (np.ndarray, list))
                    and len(value) == len(group)
                    and len(getattr(twin.group, name)) == len(twin.group)]
        assert {"barrier_pos", "w_cycles", "rngs", "mon_series"} <= \
            set(per_node)
        for name in per_node:
            if name == "rate":
                continue  # scratch, recomputed at every micro-step
            ours = getattr(group, name)[slot]
            theirs = getattr(twin.group, name)[twin.slot]
            if name.startswith("w_"):
                # The exporter writes work for running workers only.
                ours, theirs = ours[running], theirs[running]
            assert bits(_plain(ours)) == bits(_plain(theirs)), name
        _continue_and_compare(vec, twin, budgets=BUDGET_SCHEDULE[:3])


class TestLockstepMigration:
    def test_vector_lockstep_checkpoints_restore_on_object(self):
        """Checkpoints taken through a vector-engine lockstep rebuild
        inside an object-engine lockstep (and vice versa) with
        bit-identical step results."""

        def requests(target):
            return [StepRequest(node_id=i, target=target, budget=90.0,
                                set_budget=True, windows=(3.0,))
                    for i in range(2)]

        def fingerprint(results):
            return bits([(r.node_id, r.now, r.energy, r.cumulative,
                          sorted(r.rates.items())) for r in results])

        specs = [(i, make_spec("lammps", node_id=i, seed=7 + i))
                 for i in range(2)]
        with ShardedLockstep(engine="vector") as vec_ls:
            vec_ls.add_nodes(specs)
            vec_ls.step(requests(1.0))
            checkpoints = vec_ls.checkpoint([0, 1])
            with ShardedLockstep(engine="object") as obj_ls:
                obj_ls.add_nodes(sorted(checkpoints.items()))
                obj_results = obj_ls.step(requests(2.0))
            vec_results = vec_ls.step(requests(2.0))
        assert fingerprint(obj_results) == fingerprint(vec_results)


def _vector_node(app_name):
    host = VectorEngine()
    host.build([(0, make_spec(app_name))])
    return host.node(0)


#: (app, start-time range, holds-at-the-export-point) per case. Every
#: condition reads the slot's look-ahead draw blocks (repro.vector.engine).
MID_BLOCK_CASES = {
    # the workers' and the shared block are partly consumed
    "partly_consumed": (
        "lammps", (0.2, 2.5),
        lambda g, s: 0 < g.jitter_draws.cursor[s] < _DRAW_BLOCK
        and 0 < g.shared_draws.cursor[s] < _DRAW_BLOCK),
    # the fill that entered amg's second phase reset the shared block
    # and took the first value of a fresh one
    "after_phase_crossing": (
        "amg", (0.2, 1.8),
        lambda g, s: g.p_idx[s] == 1 and g.it[s] == 1
        and g.shared_draws.cursor[s] == 1),
    # openmc's bus loses messages: its drop block is partly used
    "bus_drop_block": (
        "openmc", (0.6, 3.0),
        lambda g, s: 0 < g.drop_draws.cursor[s] < _DRAW_BLOCK),
}


class TestMidBlockCheckpoints:
    @pytest.mark.parametrize("case", sorted(MID_BLOCK_CASES))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_export_mid_block_continues_bit_equal(self, case, data):
        """A slot exported while its draw blocks are partly used
        restores into a fresh group and onto the object engine; the
        exported slot, both restores and a control that was never
        snapshotted then run bit-equal."""
        app_name, (lo, hi), ready = MID_BLOCK_CASES[case]
        start = data.draw(st.floats(lo, hi), label="start")
        step = data.draw(st.floats(1e-3, 5e-3), label="step")
        node, control = _vector_node(app_name), _vector_node(app_name)
        t = start
        for n in (node, control):
            n.receive_budget(80.0)
            n.advance(t)
        while not ready(node.group, node.slot):
            assert t < start + 10.0, "export point never reached"
            t += step
            node.advance(t)
            control.advance(t)

        first, second = node.snapshot(), node.snapshot()
        assert bits(first) == bits(second)
        restored = [_import_vector(first),
                    NodeInstance.from_checkpoint(first)]
        for budget in BUDGET_SCHEDULE[:3]:
            t += 1.0
            for n in [control, node, *restored]:
                n.receive_budget(budget)
                n.advance(t)
            want = bits(surface(control))
            for n in [node, *restored]:
                assert bits(surface(n)) == want
        want = bits(control.snapshot())
        for n in [node, *restored]:
            assert bits(n.snapshot()) == want


def _per_node_fields(group):
    """Every per-node field of ``group`` as plain comparable data."""
    return {name: bits(_plain(value)) for name, value in vars(group).items()
            if isinstance(value, (np.ndarray, list))
            and len(value) == len(group)}


def _delay_first_message(state):
    queue = state["bus"]["subs"][0]["queue"]
    t, msg = queue[0]
    queue[0] = (t + 0.5, msg)


def _foreign_first_message(state):
    queue = state["bus"]["subs"][0]["queue"]
    t, msg = queue[0]
    queue[0] = (t, Message(t, "other", msg.value))


def _drop_shared_stream(state):
    for task in state["engine"]["tasks"]:
        task["body"]["state"]["shared_rng"] = None


#: refusal -> (reason the importer gives, edit of a checkpoint's state)
REFUSALS = {
    "delayed": ("bus queue", _delay_first_message),
    "foreign_topic": ("bus queue", _foreign_first_message),
    "no_shared_stream": ("shared factor stream", _drop_shared_stream),
}


class TestImporterValidation:
    @pytest.mark.parametrize("edit", sorted(REFUSALS))
    def test_bad_bus_queue_entry_is_refused_before_install(self, edit):
        """Every refusal happens before any group exists: a build that
        mixes the refused checkpoint with accepted ones leaves their
        shared group bit-equal to a build without it, and the refused
        node restores as an object node."""
        reason, apply = REFUSALS[edit]
        host = queued_openmc_host(2)
        checkpoints = [host.node(nid).snapshot() for nid in range(2)]
        apply(checkpoints[1]["stack"].state)
        spec = checkpoints[1]["stack"].spec
        with pytest.raises(CheckpointError, match=reason):
            read_slot(build_profile(spec), checkpoints[1])

        mixed, clean = VectorEngine(), VectorEngine()
        fresh = make_spec("openmc", node_id=2, seed=9)
        mixed.build([(0, checkpoints[0]), (1, checkpoints[1]), (2, fresh)])
        clean.build([(0, checkpoints[0]), (2, fresh)])
        assert mixed.fallback_node_ids == [1]
        assert isinstance(mixed.node(1), NodeInstance)
        assert _per_node_fields(mixed.node(0).group) == \
            _per_node_fields(clean.node(0).group)

    def test_running_loop_without_shared_stream_is_refused(self):
        """The object body starts a phase's shared factor stream in the
        fill that enters the phase, so a running loop always has one; the
        importer refuses a checkpoint that drops it."""
        node = NodeInstance(0, make_spec("lammps"))
        node.advance(0.5)
        checkpoint = node.snapshot()
        _drop_shared_stream(checkpoint["stack"].state)
        with pytest.raises(CheckpointError, match="shared factor stream"):
            read_slot(build_profile(checkpoint["stack"].spec), checkpoint)
        host = VectorEngine()
        host.build([(0, checkpoint)])
        assert host.fallback_node_ids == [0]
