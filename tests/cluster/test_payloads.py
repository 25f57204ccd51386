"""Per-epoch pickle payload accounting on the sharded lockstep.

Payload sizes are recorded only through :mod:`repro.obs`: while tracing
is enabled, every dispatch adds its pickled bytes to the
``shard.pickle_bytes`` counter and emits one ``shard.payload`` instant
per shard.
"""

import types

import pytest

from repro import obs
from repro.cluster import ShardedLockstep, StepRequest, sharding
from repro.stack import StackSpec

pytestmark = pytest.mark.slow

APP_KW = {"n_workers": 4}


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _spec(node_id, seed=0):
    return StackSpec(app_name="lammps", app_kwargs=dict(APP_KW),
                     seed=seed, name=f"node{node_id}")


def _requests(target):
    return [StepRequest(node_id=i, target=target, budget=90.0,
                        set_budget=True, windows=(1.0,))
            for i in range(2)]


def _pickle_bytes(session):
    return tuple(
        session.metrics.counter("shard.pickle_bytes",
                                direction=d).snapshot()
        for d in ("down", "up"))


def _payload_instants(session, cmd):
    return [ev for ev in session.tracer.events
            if ev["name"] == "shard.payload" and ev["args"]["cmd"] == cmd]


class TestShardedMeasurement:
    def test_off_by_default(self, monkeypatch):
        """Untraced dispatches never re-pickle a payload to size it."""
        sized = []
        monkeypatch.setattr(sharding, "pickle", types.SimpleNamespace(
            dumps=lambda obj: sized.append(obj) or b""))
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
            ls.step(_requests(1.0))
        assert sized == []

    def test_measured_sharded_epochs_record_bytes(self):
        session = obs.enable()
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
            add_down, _ = _pickle_bytes(session)
            ls.step(_requests(1.0))
            ls.step(_requests(2.0))
        down, up = _pickle_bytes(session)
        step_down = down - add_down
        assert step_down > 0 and up > 0
        # one instant per shard per epoch
        assert len(_payload_instants(session, "step2")) == 4
        # add_nodes ships whole StackSpecs; steps ship only budgets
        # down and (rates, energy) up, so they must be far smaller.
        assert add_down > step_down

    def test_measurement_does_not_change_results(self):
        def run():
            with ShardedLockstep(shards=2) as ls:
                ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
                results = ls.step(_requests(1.0))
                return [(r.node_id, r.now, r.energy,
                         sorted(r.rates.items())) for r in results]

        untraced = run()
        obs.enable()
        assert run() == untraced

    def test_serial_lockstep_records_nothing(self):
        session = obs.enable()
        with ShardedLockstep(shards=1) as ls:
            ls.add_nodes([(0, _spec(0))])
            ls.step([StepRequest(node_id=0, target=1.0, budget=90.0,
                                 set_budget=True, windows=(1.0,))])
        assert _pickle_bytes(session) == (0, 0)
        assert _payload_instants(session, "step2") == []
