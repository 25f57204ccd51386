"""Regenerate the golden parity fixtures.

The fixtures pin the *numeric* behaviour of the node-stack wiring: they
were generated at commit ee4ed50 (the last revision with the hand-rolled
Testbed / NodeInstance assemblies) and the `repro.stack`-built
replacements must reproduce every series bit-for-bit.

Run from the repo root::

    PYTHONPATH=src python tests/stack/make_golden.py
"""

from __future__ import annotations

import json
import os

from repro.cluster.node_instance import NodeInstance
from repro.experiments.harness import Testbed
from repro.hardware.config import skylake_config
from repro.nrm.schemes import FixedCapSchedule
from repro.stack import StackSpec

OUT = os.path.join(os.path.dirname(__file__), "fixtures", "golden_parity.json")


def series(ts):
    return {"name": ts.name,
            "times": [float(t) for t in ts.times],
            "values": [float(v) for v in ts.values]}


def testbed_case(app, seed, schedule, app_kwargs, duration):
    tb = Testbed(seed=seed)
    r = tb.run(app, duration=duration, schedule=schedule,
               app_kwargs=app_kwargs)
    return {
        "progress": series(r.progress),
        "power": series(r.power),
        "cap": series(r.cap),
        "frequency": series(r.frequency),
        "duty": series(r.duty),
        "uncore_power": series(r.uncore_power),
        "pkg_energy": float(r.pkg_energy),
        "duration": float(r.duration),
        "mips": float(r.mips()),
    }


def node_instance_case(app, seed, budget, app_kwargs, until):
    inst = NodeInstance(0, StackSpec(
        app_name=app, cfg=skylake_config(), app_kwargs=app_kwargs,
        seed=seed, initial_budget=budget, name="node0"))
    inst.advance(until / 2.0)
    first_energy = inst.epoch_energy()
    inst.receive_budget(None if budget is None else budget - 10.0)
    inst.advance(until)
    return {
        "progress": series(inst.monitor.series),
        "recent_rate": float(inst.recent_rate()),
        "cumulative": float(inst.cumulative_progress()),
        "first_epoch_energy": first_energy,
        "pkg_energy": float(inst.node.pkg_energy),
        "frequency": float(inst.node.frequency),
    }


def main():
    fixtures = {
        "testbed_lammps_capped": testbed_case(
            "lammps", 3, FixedCapSchedule(95.0, start=4.0),
            {"n_steps": 100_000, "n_workers": 8}, 8.0),
        "testbed_stream_uncapped": testbed_case(
            "stream", 11, None,
            {"n_iterations": 100_000, "n_workers": 8}, 6.0),
        "node_instance_lammps_budget": node_instance_case(
            "lammps", 5, 90.0, {"n_steps": 1_000_000, "n_workers": 8}, 6.0),
        "node_instance_amg_unbudgeted": node_instance_case(
            "amg", 9, None,
            {"n_iterations": 1_000_000, "setup_iterations": 0,
             "n_workers": 8}, 6.0),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(fixtures, fh, indent=1)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
