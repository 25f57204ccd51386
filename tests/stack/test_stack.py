"""Unit tests for the StackSpec / NodeStack layer."""

import math
import pickle

import pytest

from repro.apps import build as build_app
from repro.exceptions import ConfigurationError
from repro.nrm.schemes import FixedCapSchedule
from repro.stack import NodeStack, StackSpec, default_topics

APP_KW = {"n_steps": 1_000_000, "n_workers": 4}


class TestStackSpec:
    def test_defaults(self):
        spec = StackSpec(app_name="lammps")
        assert spec.schedule is None
        assert spec.initial_budget is None
        assert spec.topics is None

    def test_picklable_with_schedule(self):
        spec = StackSpec(app_name="lammps", app_kwargs=APP_KW, seed=3,
                         schedule=FixedCapSchedule(90.0, start=5.0))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.schedule.cap_at(6.0) == 90.0

    def test_replace(self):
        spec = StackSpec(app_name="lammps", seed=1)
        other = spec.replace(seed=2)
        assert other.seed == 2 and spec.seed == 1

    @pytest.mark.parametrize("kwargs", [
        {"app_name": ""},
        {"app_name": "lammps", "monitor_interval": 0.0},
        {"app_name": "lammps", "initial_budget": -1.0},
        {"app_name": "lammps", "initial_budget": math.nan},
        {"app_name": "lammps", "initial_budget": 90.0,
         "schedule": FixedCapSchedule(90.0)},
        {"app_name": "lammps", "topics": ()},
        {"app_name": "lammps", "initial_budget": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StackSpec(**kwargs)


class TestNodeStack:
    def test_daemon_assembly(self):
        """A spec with a schedule gets a schedule-driven controller,
        which applies and logs the t=0 cap at assembly."""
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    schedule=FixedCapSchedule(90.0)))
        assert stack.controller.schedule is stack.spec.schedule
        assert stack.main_topic == stack.app.topic
        assert list(stack.controller.cap_series.values) == [90.0]
        with pytest.raises(ConfigurationError):
            stack.controller.receive_budget(80.0)

    def test_budget_assembly_applies_initial_cap(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    initial_budget=90.0))
        assert stack.controller.schedule is None
        # admission-time cap is programmed before the first cycle runs
        limit = stack.libmsr.get_pkg_power_limit()
        assert limit.enabled
        assert limit.watts == pytest.approx(90.0, abs=0.5)

    def test_run_produces_progress(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW))
        end = stack.run(until=4.0)
        assert end == pytest.approx(4.0)
        assert not stack.progress_series.is_empty()

    def test_launch_idempotent(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW))
        stack.launch()
        n_tasks = len(stack.engine.tasks)
        stack.launch()
        assert len(stack.engine.tasks) == n_tasks

    def test_series_name_prefix(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    name="node7"))
        assert stack.progress_series.name.startswith("node7:")

    def test_node_state_tap(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    sample_node_state=True))
        stack.run(until=3.0)
        assert len(stack.freq_series) >= 2
        assert len(stack.uncore_series) >= 2

    def test_tap_records_package_power_at_one_hz(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    sample_node_state=True))
        stack.run(until=5.0)
        assert stack.power_series.name == "package-power"
        assert len(stack.power_series) == 5
        assert stack.power_series.mean() > 20.0

    def test_tap_power_respects_applied_cap(self):
        kw = {"n_steps": 1_000_000, "n_workers": 24}
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=kw,
                                    schedule=FixedCapSchedule(90.0),
                                    sample_node_state=True))
        stack.run(until=6.0)
        settled = stack.power_series.window(3.0, 6.1)
        assert settled.mean() <= 90.0 * 1.05

    def test_no_tap_without_sampling(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW))
        stack.run(until=3.0)
        assert stack.freq_series.is_empty()
        assert stack.power_series.is_empty()

    def test_hooks_run_after_assembly(self):
        seen = []
        NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW),
                  hooks=[lambda s: seen.append(s.app.name)])
        assert seen == ["lammps"]

    def test_prebuilt_app_wins(self):
        app = build_app("stream", n_iterations=50, n_workers=4)
        stack = NodeStack(StackSpec(app_name="stream"), app=app)
        assert stack.app is app

    def test_dvfs_pin(self):
        stack = NodeStack(StackSpec(app_name="lammps", app_kwargs=APP_KW,
                                    dvfs_freq=1.6e9))
        stack.run(until=2.0)
        assert stack.node.frequency <= 1.6e9


class TestDefaultTopics:
    def test_imbalance_monitored_under_both_definitions(self):
        app = build_app("imbalance", equal=True, n_iterations=3,
                        n_workers=4)
        assert default_topics(app) == ("progress/imbalance/iterations",
                                       "progress/imbalance/work_units")

    def test_plain_app_uses_main_topic(self):
        app = build_app("lammps", **APP_KW)
        assert default_topics(app) == (app.topic,)
