"""The one cap controller, under each of its two cap sources."""

import math
import pickle

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.hardware import SimulatedNode
from repro.hardware.msr import MSRDevice
from repro.hardware.msr_safe import MSRSafe
from repro.hardware.rapl import RaplFirmware
from repro.libmsr import LibMSR
from repro.nrm.controller import CapController
from repro.nrm.schemes import (
    FixedCapSchedule,
    LinearDecreaseSchedule,
    StepSchedule,
    UncappedSchedule,
)
from repro.runtime.engine import Engine, Work
from repro.stack import CHECKPOINT_VERSION, NodeCheckpoint, NodeStack, StackSpec


def make_stack():
    node = SimulatedNode()
    engine = Engine(node)
    fw = RaplFirmware(node, engine)
    lib = LibMSR(MSRSafe(MSRDevice(node, fw)), node.clock)
    return node, engine, fw, lib


def spawn_load(engine, n=24):
    def body():
        while True:
            yield Work(cycles=0.33e9)

    for c in range(n):
        engine.spawn(body(), core_id=c)


def series(ts):
    return list(ts.times), list(ts.values)


class TestScheduleSource:
    def test_fixed_schedule_programs_firmware(self):
        """The t=0 cap is applied and logged at construction."""
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib, FixedCapSchedule(95.0))
        assert fw.limit == pytest.approx(95.0)
        assert fw.enabled
        assert series(ctl.cap_series) == ([0.0], [95.0])

    def test_uncapped_schedule_disables_capping(self):
        node, engine, fw, lib = make_stack()
        fw.set_limit(60.0)
        ctl = CapController(engine, lib, UncappedSchedule())
        assert not fw.enabled
        assert series(ctl.cap_series) == ([0.0], [lib.get_tdp()])

    def test_cap_series_tracks_schedule(self):
        node, engine, fw, lib = make_stack()
        schedule = LinearDecreaseSchedule(high=150.0, low=80.0, rate=10.0)
        ctl = CapController(engine, lib, schedule)
        spawn_load(engine)
        engine.run(until=8.0)
        assert ctl.cap_series.name == "package-cap"
        assert list(ctl.cap_series.times) == pytest.approx(range(9))
        caps = ctl.cap_series.values
        assert caps[0] == pytest.approx(150.0)
        assert caps[-1] < caps[0]

    def test_step_schedule_reprograms_limit(self):
        node, engine, fw, lib = make_stack()
        schedule = StepSchedule(low=80.0, high=None, high_duration=3.0,
                                low_duration=3.0)
        CapController(engine, lib, schedule)
        spawn_load(engine)
        engine.run(until=2.5)
        assert not fw.enabled            # uncapped half-period
        engine.run(until=4.0)
        assert fw.enabled and fw.limit == pytest.approx(80.0)

    def test_budget_is_refused(self):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib, FixedCapSchedule(95.0))
        with pytest.raises(ConfigurationError, match="schedule"):
            ctl.receive_budget(80.0)

    def test_stop(self):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib, UncappedSchedule())
        ctl.stop()
        spawn_load(engine, n=1)
        engine.run(until=3.0)
        assert len(ctl.cap_series) == 1   # the t=0 point only

    def test_rejects_bad_interval(self):
        node, engine, fw, lib = make_stack()
        with pytest.raises(ConfigurationError):
            CapController(engine, lib, UncappedSchedule(), interval=0.0)


class TestBudgetSource:
    def test_budget_applied_on_next_tick(self):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib)
        ctl.receive_budget(85.0)
        assert fw.limit == pytest.approx(lib.get_tdp())
        assert len(ctl.cap_series) == 0

        def body():
            yield Work(cycles=10e9)

        engine.spawn(body(), core_id=0)
        engine.run(until=2.0)
        assert fw.enabled and fw.limit == pytest.approx(85.0)
        assert list(ctl.cap_series.times) == pytest.approx([1.0, 2.0])
        assert list(ctl.cap_series.values) == [85.0, 85.0]

    def test_none_budget_uncaps(self):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib)
        ctl.receive_budget(85.0)
        engine.run(until=1.5)
        ctl.receive_budget(None)
        engine.run(until=3.0)
        assert not fw.enabled
        assert ctl.cap_series.values[-1] == lib.get_tdp()

    @pytest.mark.parametrize("watts", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_nonpositive_budget(self, watts):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib)
        with pytest.raises(ConfigurationError):
            ctl.receive_budget(watts)


class TestSnapshot:
    @pytest.mark.parametrize("schedule", [None, StepSchedule(
        low=80.0, high=None, high_duration=2.0, low_duration=2.0)])
    def test_roundtrip(self, schedule):
        """A controller restored at t=2.5 s into a fresh one continues
        exactly as the original does."""
        def build():
            node, engine, fw, lib = make_stack()
            spawn_load(engine)
            return engine, fw, CapController(engine, lib, schedule)

        engine, fw, ctl = build()
        if schedule is None:
            ctl.receive_budget(90.0)
        engine.run(until=2.5)
        state = pickle.loads(pickle.dumps(ctl.snapshot()))
        assert state["version"] == 2
        assert set(state) == {"version", "start", "budget", "applied",
                              "cap_series"}

        engine2, fw2, ctl2 = build()
        engine2.run(until=2.5)
        ctl2.restore(state)
        fw2.restore(fw.snapshot())
        if schedule is None:
            ctl.receive_budget(70.0)
            ctl2.receive_budget(70.0)
        engine.run(until=6.0)
        engine2.run(until=6.0)
        assert series(ctl2.cap_series) == series(ctl.cap_series)
        assert ctl2.snapshot() == ctl.snapshot()

    def test_version_one_snapshot_is_refused(self):
        node, engine, fw, lib = make_stack()
        ctl = CapController(engine, lib)
        state = ctl.snapshot()
        old = {"version": 1, "budget": state["budget"],
               "applied": state["applied"],
               "cap_series": state["cap_series"]}
        with pytest.raises(CheckpointError, match="version"):
            ctl.restore(old)

    def test_budget_in_a_schedule_snapshot_is_refused(self):
        node, engine, fw, lib = make_stack()
        budget_state = CapController(engine, lib).snapshot()
        budget_state["budget"] = 80.0
        ctl = CapController(engine, lib, FixedCapSchedule(95.0))
        with pytest.raises(CheckpointError, match="schedule"):
            ctl.restore(budget_state)

    def test_older_node_checkpoint_is_refused(self):
        spec = StackSpec(app_name="lammps",
                         app_kwargs={"n_steps": 1_000, "n_workers": 2})
        cp = NodeStack(spec).launch().snapshot()
        assert cp.version == CHECKPOINT_VERSION == 2
        old = NodeCheckpoint(version=1, spec=cp.spec, state=cp.state)
        with pytest.raises(CheckpointError, match="version 1"):
            NodeStack.from_checkpoint(old)
