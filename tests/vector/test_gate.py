"""Eligibility gate: which specs take the fast path, and why not."""

import dataclasses
import gc
import weakref

import pytest

from repro.cluster.node_instance import NodeInstance
from repro.exceptions import ConfigurationError
from repro.hardware.config import skylake_config
from repro.nrm.schemes import FixedCapSchedule
from repro.stack import StackSpec
from repro.vector import (
    FAST_APPS,
    VectorEngine,
    profile_key,
    supports_fast_path,
)
from repro.vector.gate import build_profile
from tests.vector.conftest import (
    BUDGET_SCHEDULE,
    IRREGULAR_APPS,
    bits,
    make_spec,
    surface,
)


def _overpinned_spec():
    return StackSpec(app_name="lammps", cfg=skylake_config(n_cores=4),
                     app_kwargs={"n_steps": 1000, "n_workers": 6},
                     seed=0)


class TestSupportsFastPath:
    @pytest.mark.parametrize("app_name", FAST_APPS)
    def test_fast_apps_are_eligible(self, app_name):
        assert supports_fast_path(make_spec(app_name)) is None

    @pytest.mark.parametrize("app_name", IRREGULAR_APPS)
    def test_irregular_apps_are_refused_with_a_reason(self, app_name):
        reason = supports_fast_path(make_spec(app_name))
        assert isinstance(reason, str) and app_name in reason

    def test_cap_schedule_is_refused(self):
        spec = dataclasses.replace(make_spec("lammps"),
                                   schedule=FixedCapSchedule(95.0))
        assert supports_fast_path(spec) == "cap schedules are not vectorized"

    @pytest.mark.parametrize("cap", [100.0, 61.37])
    def test_initial_budget_is_accepted_and_bit_equal(self, cap):
        """An admission-time cap takes the vector path, and the node
        runs bit-equal to the object node: capped from its first cycle,
        re-applied and recorded on the controller's first tick, then through
        the budget schedule (61.37 W is not a whole power unit)."""
        spec = dataclasses.replace(make_spec("lammps"), initial_budget=cap)
        assert supports_fast_path(spec) is None
        obj = NodeInstance(0, spec)
        host = VectorEngine()
        host.build([(0, spec)])
        assert host.vector_node_ids == [0]
        vec = host.node(0)
        for budget in (cap, cap, *BUDGET_SCHEDULE[:4]):
            target = obj.now + 1.0
            for node in (obj, vec):
                node.receive_budget(budget)
                node.advance(target)
            assert bits(surface(vec)) == bits(surface(obj))
        assert bits(vec.snapshot()) == bits(obj.snapshot())

    def test_too_many_workers_are_refused(self):
        assert "n_workers" in supports_fast_path(_overpinned_spec())

    def test_overpinned_node_raises_on_both_engines(self):
        """More workers than cores is a configuration error, not a
        vector row: the gate sends the node to the object fallback,
        which refuses to pin it exactly as the object engine does."""
        spec = _overpinned_spec()
        with pytest.raises(ConfigurationError, match="cannot pin 6"):
            NodeInstance(0, spec)
        with pytest.raises(ConfigurationError, match="cannot pin 6"):
            VectorEngine().build([(0, spec)])

    def test_checkpoint_dict_is_refused(self):
        assert supports_fast_path({"version": 1}) is not None


class TestProfileKey:
    def test_seed_and_name_do_not_split_groups(self):
        a = make_spec("lammps", node_id=0, seed=1)
        b = make_spec("lammps", node_id=1, seed=2)
        assert profile_key(a) == profile_key(b)

    def test_different_apps_split_groups(self):
        assert profile_key(make_spec("lammps")) != \
            profile_key(make_spec("amg"))

    def test_different_kwargs_split_groups(self):
        a = make_spec("stream")
        b = dataclasses.replace(a, app_kwargs={"n_workers": 2})
        assert profile_key(a) != profile_key(b)

    def test_build_profile_refuses_ineligible_specs(self):
        with pytest.raises(ConfigurationError):
            build_profile(make_spec("candle"))


class TestHostMembership:
    def test_mixed_build_routes_each_spec(self):
        host = VectorEngine()
        host.build([(0, make_spec("lammps", node_id=0)),
                    (1, make_spec("candle", node_id=1)),
                    (2, make_spec("lammps", node_id=2, seed=9))])
        assert sorted(host.vector_node_ids) == [0, 2]
        assert host.fallback_node_ids == [1]
        assert len(host) == 3 and 1 in host and 3 not in host

    def test_duplicate_node_id_raises(self):
        host = VectorEngine()
        host.build([(0, make_spec("lammps"))])
        with pytest.raises(ConfigurationError):
            host.build([(0, make_spec("lammps"))])

    def test_remove_frees_both_paths(self):
        host = VectorEngine()
        host.build([(0, make_spec("lammps", node_id=0)),
                    (1, make_spec("candle", node_id=1))])
        host.remove([0, 1])
        assert len(host) == 0

    def test_removed_nodes_free_their_group(self):
        host = VectorEngine()
        host.build([(0, make_spec("lammps", node_id=0)),
                    (1, make_spec("lammps", node_id=1, seed=9))])
        group = weakref.ref(host.node(0).group)
        assert host.node(1).group is group()
        host.remove([0, 1])
        gc.collect()
        assert group() is None
