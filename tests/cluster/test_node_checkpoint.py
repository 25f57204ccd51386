"""Energy accounting across a NodeInstance snapshot/restore boundary.

Regression guard for a double-counting hazard: ``epoch_energy()`` is a
*delta* against ``_energy_mark``, so a checkpoint that did not carry the
mark would make the restored node re-report every joule consumed before
the snapshot in its first post-restore epoch.
"""

import pickle

import pytest

from repro.cluster.node_instance import NodeInstance
from repro.hardware.config import skylake_config
from repro.stack import StackSpec

pytestmark = pytest.mark.slow

APP_KW = {"n_steps": 1_000_000, "n_workers": 4}


def _node(node_id=0, seed=5):
    return NodeInstance(node_id, StackSpec(
        app_name="lammps", cfg=skylake_config(), app_kwargs=APP_KW,
        seed=seed, name=f"node{node_id}"))


class TestEnergyMarkAcrossCheckpoint:
    def test_mark_travels_with_checkpoint(self):
        node = _node()
        node.advance(4.0)
        node.epoch_energy()  # consume the first epoch: mark is non-zero
        node.advance(6.0)
        state = pickle.loads(pickle.dumps(node.snapshot(), protocol=4))
        assert state["energy_mark"] == node._energy_mark > 0.0
        clone = NodeInstance.from_checkpoint(state)
        assert clone._energy_mark == node._energy_mark

    def test_no_double_count_after_restore(self):
        node = _node()
        node.advance(4.0)
        e_first = node.epoch_energy()
        node.advance(6.0)
        state = pickle.loads(pickle.dumps(node.snapshot(), protocol=4))

        clone = NodeInstance.from_checkpoint(state)
        clone.advance(8.0)
        e_clone = clone.epoch_energy()

        node.advance(8.0)
        e_orig = node.epoch_energy()

        # identical deltas, and neither re-reports the pre-snapshot epoch
        assert e_clone == e_orig
        assert e_clone < e_first + e_orig
        # the two epochs together account for all energy consumed
        assert e_first + e_orig == pytest.approx(node.node.pkg_energy)

    def test_restored_node_matches_original_telemetry(self):
        node = _node()
        node.advance(5.0)
        state = pickle.loads(pickle.dumps(node.snapshot(), protocol=4))
        clone = NodeInstance.from_checkpoint(state)

        node.advance(9.0)
        clone.advance(9.0)
        assert clone.now == node.now
        assert clone.node_id == node.node_id
        assert clone.cumulative_progress() == node.cumulative_progress()
        assert clone.recent_rate(3.0) == node.recent_rate(3.0)
        assert clone.epoch_energy() == node.epoch_energy()
