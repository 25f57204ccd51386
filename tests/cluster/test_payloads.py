"""Per-epoch pickle payload accounting on the sharded lockstep."""

import pytest

from repro.cluster import PayloadStats, ShardedLockstep, StepRequest
from repro.stack import BUDGET, StackSpec

pytestmark = pytest.mark.slow

APP_KW = {"n_workers": 4}


def _spec(node_id, seed=0):
    return StackSpec(app_name="lammps", app_kwargs=dict(APP_KW),
                     seed=seed, controller=BUDGET, name=f"node{node_id}")


def _requests(target):
    return [StepRequest(node_id=i, target=target, budget=90.0,
                        set_budget=True, windows=(1.0,))
            for i in range(2)]


class TestPayloadStats:
    def test_only_step_dispatches_count_as_epochs(self):
        stats = PayloadStats()
        stats.record("add_nodes", 500, 20)
        stats.record("step2", 100, 40)
        stats.record("step2", 120, 44)
        stats.record("rates", 60, 30)
        assert stats.epochs == 2
        assert stats.epoch_payloads == [(100, 40), (120, 44)]
        assert stats.dispatches == 4
        assert stats.bytes_down == 780
        assert stats.bytes_up == 134

    def test_mean_epoch_bytes(self):
        stats = PayloadStats()
        stats.record("step2", 100, 40)
        stats.record("step2", 200, 60)
        assert stats.mean_epoch_bytes() == (150.0, 50.0)

    def test_mean_of_no_epochs_is_zero(self):
        assert PayloadStats().mean_epoch_bytes() == (0.0, 0.0)


class TestShardedMeasurement:
    def test_off_by_default(self):
        with ShardedLockstep(shards=2) as ls:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
            ls.step(_requests(1.0))
            assert ls.measure_payloads is False
            assert ls.payload_stats.epochs == 0

    def test_measured_sharded_epochs_record_bytes(self):
        with ShardedLockstep(shards=2, measure_payloads=True) as ls:
            ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
            ls.step(_requests(1.0))
            ls.step(_requests(2.0))
            stats = ls.payload_stats
            assert stats.epochs == 2
            down, up = stats.mean_epoch_bytes()
            assert down > 0 and up > 0
            # add_nodes ships whole StackSpecs; steps ship only budgets
            # down and (rates, energy) up, so they must be far smaller.
            assert stats.bytes_down > sum(
                d for d, _ in stats.epoch_payloads)

    def test_measurement_does_not_change_results(self):
        def run(measure):
            with ShardedLockstep(shards=2,
                                 measure_payloads=measure) as ls:
                ls.add_nodes([(i, _spec(i, seed=i)) for i in range(2)])
                results = ls.step(_requests(1.0))
                return [(r.node_id, r.now, r.energy,
                         sorted(r.rates.items())) for r in results]

        assert run(True) == run(False)

    def test_serial_lockstep_records_nothing(self):
        with ShardedLockstep(shards=1, measure_payloads=True) as ls:
            ls.add_nodes([(0, _spec(0))])
            ls.step([StepRequest(node_id=0, target=1.0, budget=90.0,
                                 set_budget=True, windows=(1.0,))])
            assert ls.payload_stats.epochs == 0
