"""Long-lived vector groups: one group per profile key for the host's life.

A :class:`VectorEngine` keeps one :class:`VectorGroup` per profile key
across builds. Each build admits its nodes into the key's group (reusing
a retired row, or growing the arrays), ``remove`` retires rows without
compaction, and the group leaves the host with its last row. Whatever
the churn, every node steps bit-equal to an object node, and a reused
row starts exactly as a fresh group's row would.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node_instance import NodeInstance
from repro.cluster.sharding import StepRequest, _ObjectHost
from repro.cluster.variability import perturb_config
from repro.exceptions import ConfigurationError
from repro.hardware.config import skylake_config
from repro.stack import StackSpec
from repro.vector import VectorEngine, profile_key
from repro.vector.engine import _ROW_OBJECTS
from tests.vector.conftest import bits, make_spec
from tests.vector.test_checkpoint import _plain

#: The daemon's two job kinds (work counts as in its benchmark trace).
APP_KWARGS = {
    "lammps": {"n_steps": 1_000_000, "n_workers": 4},
    "qmcpack": {"vmc1_blocks": 0, "vmc2_blocks": 0,
                "dmc_blocks": 1_000_000, "n_workers": 4},
}
#: Node ids a build may take, smallest free first, so removed ids return.
ID_POOL = range(10)
WINDOWS = (3.0,)


def _job_specs(app, cap, ids, seed):
    base = skylake_config()
    return [(nid, StackSpec(
        app_name=app, app_kwargs=APP_KWARGS[app], seed=seed + 131 * k,
        cfg=perturb_config(base, np.random.default_rng([seed, k])),
        initial_budget=cap, name=f"node{nid}"))
        for k, nid in enumerate(ids)]


def _groups_by_key(host):
    keys = {}
    for nid in host.vector_node_ids:
        view = host.node(nid)
        keys.setdefault(profile_key(view.spec), set()).add(id(view.group))
    return keys


def _check_one_group_per_key(host):
    keys = _groups_by_key(host)
    assert all(len(groups) == 1 for groups in keys.values()), keys
    assert len(host._groups) == len(keys)


_build = st.tuples(st.just("build"), st.sampled_from(sorted(APP_KWARGS)),
                   st.integers(1, 4),
                   st.sampled_from([None, None, 58.3, 90.0, 130.0]))
_remove = st.tuples(st.just("remove"), st.integers(0, 7))
_step = st.tuples(st.just("step"),
                  st.sampled_from(["keep", None, 70.0, 95.0, 142.5]))


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(st.lists(st.one_of(_build, _remove, _step, _step), min_size=6,
                max_size=14))
def test_churn_matches_object_host(ops):
    """Random builds (some capped at admission, some on ids a removed
    job held) and removes of 1-4-node lammps and qmcpack jobs, with
    epochs in between: every StepResult and every final snapshot is
    bit-equal on the vector and the object host, no node falls back,
    and no key ever has two groups."""
    vec, obj = VectorEngine(), _ObjectHost()
    jobs: list[list[int]] = []
    clock: dict[int, float] = {}
    for index, op in enumerate(ops + [("step", "keep")]):
        kind = op[0]
        if kind == "build":
            _, app, n, cap = op
            free = [nid for nid in ID_POOL if nid not in clock][:n]
            if not free:
                continue
            specs = _job_specs(app, cap, free, seed=1000 + index)
            vec.build(specs)
            obj.build(specs)
            jobs.append(free)
            clock.update((nid, 0.0) for nid in free)
        elif kind == "remove" and jobs:
            ids = jobs.pop(op[1] % len(jobs))
            for nid in ids:
                assert bits(vec.checkpoint(nid)) == \
                    bits(obj.checkpoint(nid)), nid
                del clock[nid]
            vec.remove(ids)
            obj.remove(ids)
        elif kind == "step" and clock:
            keep = op[1] == "keep"
            requests = [StepRequest(
                node_id=nid, target=now + 1.0,
                budget=None if keep else op[1], set_budget=not keep,
                windows=WINDOWS)
                for nid, now in sorted(clock.items())]
            got, want = vec.step(requests), obj.step(requests)
            assert bits(got) == bits(want)
            clock.update((res.node_id, res.now) for res in got)
        assert vec.fallback_node_ids == []
        _check_one_group_per_key(vec)
    for nid in clock:
        assert bits(vec.checkpoint(nid)) == bits(obj.checkpoint(nid)), nid


def _lammps(node_id, seed, cap=None, cfg=None):
    return dataclasses.replace(make_spec("lammps", node_id=node_id,
                                         seed=seed, cfg=cfg),
                               initial_budget=cap)


def _row(group, slot):
    """Every per-row field of ``group``'s row ``slot`` as plain data,
    the look-ahead draw blocks included."""
    out = {name: bits(_plain(getattr(group, name)[slot]))
           for name in [*group._blank, *_ROW_OBJECTS]}
    for blocks in ("jitter_draws", "shared_draws", "drop_draws"):
        draws = getattr(group, blocks)
        out[blocks] = bits([draws.values[slot], draws.cursor[slot],
                            draws.base[slot]])
    return out


class TestRowReuse:
    def test_reused_row_equals_a_fresh_groups_row(self):
        """A row retired after two epochs of running (budgets applied,
        draws taken, messages queued) and reused by a new spec holds,
        field by field, what a fresh group's row for that spec holds.
        The per-row fields are found by walking ``vars(group)`` (one
        entry per row in a three-row and a one-row group alike), so a
        field missing from the tables a reset writes fails here."""
        base = skylake_config()
        host = VectorEngine()
        host.build([(nid, _lammps(nid, seed=7 + nid, cap=95.0))
                    for nid in range(3)])
        for epoch in range(2):
            for nid in range(3):
                node = host.node(nid)
                node.receive_budget(80.0 + 10 * nid)
                node.advance(epoch + 1.0)
        group = host.node(1).group
        host.remove([1])
        spec = _lammps(9, seed=41, cap=63.2,
                       cfg=perturb_config(base, np.random.default_rng(3)))
        host.build([(9, spec)])
        assert host.node(9).group is group and host.node(9).slot == 1
        assert len(group) == 3

        twin = VectorEngine()
        twin.build([(9, spec)])
        fresh = twin.node(9).group
        walked = {name for name, value in vars(group).items()
                  if isinstance(value, (np.ndarray, list))
                  and len(value) == len(group)
                  and len(getattr(fresh, name)) == len(fresh)}
        assert walked == {*group._blank, *_ROW_OBJECTS}
        assert _row(group, 1) == _row(fresh, 0)

    def test_arrays_grow_only_past_the_free_rows(self):
        host = VectorEngine()
        host.build([(nid, _lammps(nid, seed=nid)) for nid in range(4)])
        group = host.node(0).group
        host.remove([1, 3])
        assert (len(group), group.n_live) == (4, 2)
        host.build([(nid, _lammps(nid, seed=nid)) for nid in (5, 6, 7)])
        assert [host.node(nid).slot for nid in (5, 6, 7)] == [1, 3, 4]
        assert (len(group), group.n_live) == (5, 5)
        assert host.node(0).slot == 0 and host.node(2).slot == 2

    def test_refused_member_leaves_the_group_untouched(self):
        """Every member is checked before any row is written: a build
        whose last spec has an admission cap that quantizes to 0 W
        raises, as the object node's firmware does, and leaves the rows
        as they were."""
        host = VectorEngine()
        host.build([(0, _lammps(0, seed=1))])
        group = host.node(0).group
        host.remove([0])
        before = _row(group, 0)
        bad = _lammps(2, seed=2, cap=1e-6)
        with pytest.raises(ConfigurationError, match="positive"):
            NodeInstance(2, bad)
        with pytest.raises(ConfigurationError, match="positive"):
            group.admit([(1, _lammps(1, seed=1)), (2, bad)])
        assert _row(group, 0) == before and group._free == [0]


class TestAdvanceSlots:
    """``VectorGroup.advance`` refuses a slot it cannot step before any
    row moves: a retired row (its objects are gone) on either pass path,
    a row listed twice (only possible out of order), a row past the
    group."""

    def _group(self):
        host = VectorEngine()
        host.build([(nid, _lammps(nid, seed=nid)) for nid in range(4)])
        group = host.node(0).group
        host.remove([2])
        return host, group

    @pytest.mark.parametrize("slots", [[0, 1, 2], [3, 2, 0]])
    def test_retired_slot_refused(self, slots):
        host, group = self._group()
        before = _row(group, 0)
        with pytest.raises(ConfigurationError, match="row 2 is not in use"):
            group.advance(np.asarray(slots), np.full(len(slots), 1.0))
        assert _row(group, 0) == before

    def test_duplicate_slot_refused(self):
        host, group = self._group()
        before = _row(group, 1)
        with pytest.raises(ConfigurationError, match="twice"):
            group.advance(np.asarray([1, 3, 1]), np.full(3, 1.0))
        assert _row(group, 1) == before

    @pytest.mark.parametrize("slot", [4, -1])
    def test_slot_outside_the_group_refused(self, slot):
        host, group = self._group()
        with pytest.raises(ConfigurationError, match="not in the group"):
            group.advance(np.asarray([0, slot]), np.full(2, 1.0))


class TestRetiredViews:
    def test_retired_view_does_not_alias_the_reused_row(self):
        host = VectorEngine()
        host.build([(0, _lammps(0, seed=1)), (1, _lammps(1, seed=2))])
        old = host.node(1)
        old.advance(1.0)
        host.remove([1])
        host.build([(5, _lammps(5, seed=3))])
        assert host.node(5).slot == old.slot
        for read in (lambda: old.now, lambda: old.node.pkg_energy,
                     lambda: old.monitor.series, old.snapshot,
                     lambda: old.advance(2.0)):
            with pytest.raises(ConfigurationError, match="removed"):
                read()
        assert host.node(5).now == 0.0

    def test_group_leaves_the_host_with_its_last_row(self):
        host = VectorEngine()
        host.build([(0, _lammps(0, seed=1)),
                    (1, make_spec("qmcpack", node_id=1))])
        assert len(host._groups) == 2
        host.remove([0])
        assert len(host._groups) == 1
        host.build([(0, _lammps(0, seed=1))])
        assert len(host._groups) == 2
        host.remove([0, 1])
        assert host._groups == {} and len(host) == 0
