"""Regression tests for the fixes `repro.lint` forced.

The ``ckpt-missing-version`` rule surfaced that no component snapshot
carried a schema version, and ``ckpt-key-drift`` surfaced that
``TimeSeries.restore`` silently ignored the recorded series name. Both
are now enforced at restore time; these tests pin the behaviour.
"""

import pytest

from repro.exceptions import CheckpointError, check_snapshot_version
from repro.stack import NodeStack, StackSpec
from repro.telemetry.timeseries import TimeSeries


def _built_stack() -> NodeStack:
    spec = StackSpec(app_name="stream", app_kwargs={"n_workers": 2},
                     seed=3, initial_budget=100.0)
    stack = NodeStack(spec).launch()
    stack.engine.run(until=1.5)
    return stack


class TestVersionHelper:
    def test_matching_version_passes(self):
        check_snapshot_version({"version": 1}, 1, "X")

    def test_missing_version_means_version_one(self):
        # Snapshots written before the field existed restore unchanged.
        check_snapshot_version({}, 1, "X")

    def test_mismatch_raises_with_owner(self):
        with pytest.raises(CheckpointError, match="RaplFirmware.*version 99"):
            check_snapshot_version({"version": 99}, 1, "RaplFirmware")


class TestComponentSnapshotsCarryVersions:
    def test_every_component_snapshot_is_versioned(self):
        stack = _built_stack()
        snapshots = {
            "node": stack.node.snapshot(),
            "firmware": stack.firmware.snapshot(),
            "libmsr": stack.libmsr.snapshot(),
            "msr": stack.libmsr.msr.snapshot(),
            "bus": stack.bus.snapshot(),
            "monitor": stack.main_monitor.snapshot(),
            "controller": stack.controller.snapshot(),
            "app": stack.app.snapshot(),
            "engine": stack.engine.snapshot(),
            "freq_series": stack.freq_series.snapshot(),
        }
        for name, snap in snapshots.items():
            expected = 2 if name == "controller" else 1
            assert snap.get("version") == expected, \
                f"{name} snapshot unversioned"

    @pytest.mark.parametrize("component", [
        "node", "firmware", "libmsr", "bus", "controller", "app", "engine",
    ])
    def test_future_version_is_refused(self, component):
        stack = _built_stack()
        target = {
            "node": stack.node,
            "firmware": stack.firmware,
            "libmsr": stack.libmsr,
            "bus": stack.bus,
            "controller": stack.controller,
            "app": stack.app,
            "engine": stack.engine,
        }[component]
        state = target.snapshot()
        state["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            target.restore(state)

    def test_versionless_snapshot_still_restores(self):
        # Backward compatibility: a pre-version snapshot is version 1.
        stack = _built_stack()
        state = stack.firmware.snapshot()
        del state["version"]
        stack.firmware.restore(state)


class TestTimeSeriesNameGuard:
    def test_roundtrip_same_name(self):
        ts = TimeSeries("power", [(0.0, 1.0), (1.0, 2.0)])
        out = TimeSeries("power")
        out.restore(ts.snapshot())
        assert list(out.values) == [1.0, 2.0]

    def test_cross_series_restore_is_refused(self):
        # Before the lint-driven fix this silently succeeded, leaving a
        # series whose name and samples disagreed about what it measures.
        ts = TimeSeries("power", [(0.0, 1.0)])
        other = TimeSeries("frequency")
        with pytest.raises(CheckpointError, match="'power'"):
            other.restore(ts.snapshot())

    def test_future_version_is_refused(self):
        ts = TimeSeries("power", [(0.0, 1.0)])
        state = ts.snapshot()
        state["version"] = 2
        with pytest.raises(CheckpointError, match="TimeSeries"):
            TimeSeries("power").restore(state)
