"""Golden parity regressions for the unified node-stack assembly.

The fixtures in ``fixtures/golden_parity.json`` were generated at commit
ee4ed50 — the last revision where the Testbed and NodeInstance wired
their stacks by hand — by ``make_golden.py``. The `repro.stack`-built
replacements must reproduce every series *bit-for-bit*: the simulator is
deterministic, so any numeric drift means the assembly changed
behaviour, not just shape.
"""

import json
import os

import pytest

pytestmark = pytest.mark.slow

from repro.cluster.node_instance import NodeInstance
from repro.experiments.harness import Testbed
from repro.hardware.config import skylake_config
from repro.nrm.schemes import FixedCapSchedule
from repro.stack import StackSpec

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_parity.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def assert_series_identical(series, expected, label):
    __tracebackhide__ = True
    assert [float(t) for t in series.times] == expected["times"], \
        f"{label}: timestamps diverged"
    assert [float(v) for v in series.values] == expected["values"], \
        f"{label}: values diverged"


class TestTestbedParity:
    def test_lammps_capped_run(self, golden):
        g = golden["testbed_lammps_capped"]
        r = Testbed(seed=3).run(
            "lammps", duration=8.0,
            schedule=FixedCapSchedule(95.0, start=4.0),
            app_kwargs={"n_steps": 100_000, "n_workers": 8})
        assert_series_identical(r.progress, g["progress"], "progress")
        assert_series_identical(r.power, g["power"], "power")
        assert_series_identical(r.cap, g["cap"], "cap")
        assert_series_identical(r.frequency, g["frequency"], "frequency")
        assert_series_identical(r.duty, g["duty"], "duty")
        assert_series_identical(r.uncore_power, g["uncore_power"],
                                "uncore power")
        assert float(r.pkg_energy) == g["pkg_energy"]
        assert float(r.duration) == g["duration"]
        assert float(r.mips()) == g["mips"]

    def test_stream_uncapped_run(self, golden):
        g = golden["testbed_stream_uncapped"]
        r = Testbed(seed=11).run(
            "stream", duration=6.0,
            app_kwargs={"n_iterations": 100_000, "n_workers": 8})
        assert_series_identical(r.progress, g["progress"], "progress")
        assert_series_identical(r.power, g["power"], "power")
        assert float(r.pkg_energy) == g["pkg_energy"]
        assert float(r.mips()) == g["mips"]


class TestNodeInstanceParity:
    @staticmethod
    def _drive(app, seed, budget, app_kwargs, until):
        # Mirrors make_golden.node_instance_case exactly.
        inst = NodeInstance(0, StackSpec(
            app_name=app, cfg=skylake_config(), app_kwargs=app_kwargs,
            seed=seed, initial_budget=budget, name="node0"))
        inst.advance(until / 2.0)
        first_energy = inst.epoch_energy()
        inst.receive_budget(None if budget is None else budget - 10.0)
        inst.advance(until)
        return inst, first_energy

    def test_lammps_under_budget(self, golden):
        g = golden["node_instance_lammps_budget"]
        inst, first_energy = self._drive(
            "lammps", 5, 90.0, {"n_steps": 1_000_000, "n_workers": 8}, 6.0)
        assert_series_identical(inst.monitor.series, g["progress"],
                                "progress")
        assert float(inst.recent_rate()) == g["recent_rate"]
        assert float(inst.cumulative_progress()) == g["cumulative"]
        assert first_energy == g["first_epoch_energy"]
        assert float(inst.node.pkg_energy) == g["pkg_energy"]
        assert float(inst.node.frequency) == g["frequency"]

    def test_amg_unbudgeted(self, golden):
        g = golden["node_instance_amg_unbudgeted"]
        inst, first_energy = self._drive(
            "amg", 9, None,
            {"n_iterations": 1_000_000, "setup_iterations": 0,
             "n_workers": 8}, 6.0)
        assert_series_identical(inst.monitor.series, g["progress"],
                                "progress")
        assert first_energy == g["first_epoch_energy"]
        assert float(inst.node.pkg_energy) == g["pkg_energy"]
        assert float(inst.node.frequency) == g["frequency"]
