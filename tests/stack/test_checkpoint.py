"""Checkpoint round-trip property: ``snapshot -> restore -> advance(T)``
must equal ``advance(T)`` without the round-trip, bit for bit.

The matrix covers every registered app category under both cap sources
(a schedule, as the paper's power-policy daemon runs, and budgets), with
the snapshot taken mid-run (t=4.5 s, between monitor ticks and across a
scheduled cap transition at t=5 s) and pushed through a real
pickle boundary — exactly what :mod:`repro.cluster.sharding` does when
it migrates a node to a worker process.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import available
from repro.apps import build as build_app
from repro.exceptions import CheckpointError
from repro.nrm.schemes import FixedCapSchedule
from repro.stack import (
    CHECKPOINT_VERSION,
    NodeCheckpoint,
    NodeStack,
    StackSpec,
)

pytestmark = pytest.mark.slow

T_SNAPSHOT = 4.5
T_END = 9.0

#: Work sized so no app terminates before T_END (a finished app is a
#: legitimate state too, but a running one exercises far more of the
#: snapshot: live task frames, pending barriers, mid-window monitors).
APP_KWARGS = {
    "amg": {"n_iterations": 1_000_000, "setup_iterations": 2},
    "candle": {"max_epochs": 10_000},
    "hacc": {"n_steps": 10_000},
    "imbalance": {"equal": False, "n_iterations": 10_000},
    "lammps": {"n_steps": 1_000_000},
    "nek5000": {"n_steps": 10_000},
    "openmc": {"inactive_batches": 2, "active_batches": 10_000},
    # phase boundaries on both sides of the snapshot point:
    "qmcpack": {"vmc1_blocks": 40, "vmc2_blocks": 40, "dmc_blocks": 10_000},
    "stream": {"n_iterations": 1_000_000},
    "urban": {"duration_steps": 10_000},
}

#: Cap-source labels: the schedule-driven stack of the power-policy
#: daemon (with the Testbed's node-state tap) and the budget-driven one.
DAEMON, BUDGET = "daemon", "budget"

CONTROLLER_SPECS = {
    # cap change at t=5 s lands *after* the snapshot: the restored stack
    # must apply it from replayed controller state, not from a fresh start.
    DAEMON: dict(schedule=FixedCapSchedule(90.0, start=5.0),
                 sample_node_state=True),
    BUDGET: dict(initial_budget=110.0),
}


def _spec(app_name: str, controller: str, seed: int = 0) -> StackSpec:
    kwargs = dict(APP_KWARGS[app_name])
    kwargs["n_workers"] = 4
    return StackSpec(app_name=app_name, app_kwargs=kwargs, seed=seed,
                     **CONTROLLER_SPECS[controller])


def _observables(stack: NodeStack) -> dict:
    return {
        "now": stack.engine.clock.now,
        "pkg_energy": stack.node.pkg_energy,
        "frequency": stack.node.frequency,
        "series": {t: (list(s.times), list(s.values))
                   for t, s in stack.topic_series().items()},
        "cap": (list(stack.controller.cap_series.times),
                list(stack.controller.cap_series.values)),
        "power": (list(stack.power_series.times),
                  list(stack.power_series.values)),
        "bus_published": stack.bus.published,
        "bus_dropped": stack.bus.dropped,
    }


def _roundtrip(stack: NodeStack) -> NodeStack:
    """Snapshot through a real pickle boundary, then rebuild."""
    blob = pickle.dumps(stack.snapshot(), protocol=4)
    return NodeStack.from_checkpoint(pickle.loads(blob))


class TestRoundTripParity:
    @pytest.mark.parametrize("controller", [DAEMON, BUDGET])
    @pytest.mark.parametrize("app_name", sorted(APP_KWARGS))
    def test_restore_then_advance_matches_straight_run(self, app_name,
                                                       controller):
        assert sorted(APP_KWARGS) == available()  # matrix stays exhaustive
        spec = _spec(app_name, controller)

        # Control pauses at the same instant (pausing alone splits a
        # power-integration interval, worth a ULP of energy); the
        # round-trip is the only difference between the two runs.
        control = NodeStack(spec)
        control.run(until=T_SNAPSHOT)
        control.run(until=T_END)

        paused = NodeStack(spec)
        paused.run(until=T_SNAPSHOT)
        resumed = _roundtrip(paused)
        assert resumed.engine.clock.now == paused.engine.clock.now
        resumed.run(until=T_END)

        assert _observables(resumed) == _observables(control)

    @pytest.mark.parametrize("controller", [DAEMON, BUDGET])
    def test_double_roundtrip(self, controller):
        """Snapshotting a restored stack keeps working (checkpoint is
        not a one-shot operation)."""
        spec = _spec("lammps", controller)
        control = NodeStack(spec)
        for t in (3.0, 6.0, T_END):
            control.run(until=t)

        stack = NodeStack(spec)
        stack.run(until=3.0)
        stack = _roundtrip(stack)
        stack.run(until=6.0)
        stack = _roundtrip(stack)
        stack.run(until=T_END)
        assert _observables(stack) == _observables(control)

    @given(t_snap=st.floats(min_value=0.0, max_value=6.0),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_any_snapshot_time_and_seed(self, t_snap, seed):
        """The round-trip is an identity at *any* point in the run, not
        just between ticks, and for any seed."""
        spec = _spec("openmc", BUDGET, seed=seed)  # lossy transport: RNG too
        control = NodeStack(spec)
        control.run(until=t_snap)
        control.run(until=8.0)

        stack = NodeStack(spec)
        stack.run(until=t_snap)
        stack = _roundtrip(stack)
        stack.run(until=8.0)
        assert _observables(stack) == _observables(control)


class TestCheckpointErrors:
    def test_prebuilt_app_cannot_checkpoint(self):
        app = build_app("stream", n_iterations=50, n_workers=4)
        stack = NodeStack(StackSpec(app_name="stream"), app=app)
        with pytest.raises(CheckpointError, match="prebuilt"):
            stack.snapshot()

    def test_version_mismatch_rejected(self):
        stack = NodeStack(_spec("lammps", BUDGET))
        stack.run(until=2.0)
        cp = stack.snapshot()
        stale = NodeCheckpoint(version=CHECKPOINT_VERSION + 1,
                               spec=cp.spec, state=cp.state)
        with pytest.raises(CheckpointError, match="version"):
            NodeStack.from_checkpoint(stale)

    def test_missing_hooks_rejected(self):
        """Restoring without a hook that registered a live timer leaves
        a snapshotted timer with no rebuilt counterpart: refused (the
        reverse — a rebuilt timer absent from the snapshot — is the
        fired-one-shot case and is cancelled silently)."""
        def hook_timer(s: NodeStack) -> None:
            s.engine.add_timer(1.0, lambda now: None, period=1.0)

        stack = NodeStack(_spec("lammps", BUDGET), hooks=(hook_timer,))
        stack.run(until=2.0)
        cp = stack.snapshot()
        with pytest.raises(CheckpointError):
            NodeStack.from_checkpoint(cp)  # hooks omitted

    def test_checkpoint_is_plain_data(self):
        """The checkpoint must pickle without dragging live components
        (generators, sockets) along."""
        stack = NodeStack(_spec("urban", BUDGET))
        stack.run(until=3.0)
        cp = stack.snapshot()
        clone = pickle.loads(pickle.dumps(cp, protocol=4))
        assert clone.version == CHECKPOINT_VERSION
        assert clone.spec == stack.spec
