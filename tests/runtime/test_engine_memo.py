"""Cold-memo differential tests for the engine's per-segment memos.

The engine keeps, per task, the rate terms of its current ``Work`` at
its core's frequency and duty, and the power model keeps each core's
power term; both are rebuilt from nothing on a restored stack. So a run
that is snapshotted, pickled and rebuilt every few segments (empty
memos each time) must equal a run paused at the same instants without
the round-trip (memos warm throughout), bit for bit. The cases are the
ones that change a memo's inputs mid-run: a RAPL frequency step, a DDCM
duty step, STREAM under a tight cap (uncore DVFS moves the node's
bandwidth, so memory contention comes and goes) and a DRAM power limit.
"""

import pickle

import numpy as np
import pytest

from repro.hardware import SimulatedNode, skylake_config
from repro.hardware.cpu import CoreMode
from repro.hardware.ddcm import DDCMController
from repro.hardware.power import PowerModel
from repro.nrm.schemes import FixedCapSchedule
from repro.runtime.engine import Engine
from repro.stack import NodeStack, StackSpec

T_END = 2.5
#: Pause every PAUSE seconds: a few to a few dozen segments each, and
#: off the 1 Hz monitor and RAPL tick grid.
PAUSE = 0.037


def _duty_step(stack: NodeStack) -> None:
    ddcm = DDCMController(stack.node)
    stack.engine.add_timer(0.7031, lambda now: ddcm.set_duty(0.5))
    stack.engine.add_timer(1.6017, lambda now: ddcm.set_duty(0.875))


def _dram_limit(stack: NodeStack) -> None:
    fw = stack.firmware
    watts = stack.node.cfg.dram_base + 4.0
    stack.engine.add_timer(0.6013, lambda now: fw.set_dram_limit(watts))
    stack.engine.add_timer(1.8011, lambda now: fw.set_dram_limit(None))


#: name -> (spec, hooks)
CASES = {
    "rapl_frequency_step": (
        StackSpec(app_name="lammps",
                  app_kwargs={"n_steps": 1_000_000, "n_workers": 8},
                  schedule=FixedCapSchedule(90.0, start=0.5),
                  sample_node_state=True),
        ()),
    "ddcm_duty_step": (
        StackSpec(app_name="hacc",
                  app_kwargs={"n_steps": 10_000, "n_workers": 8},
                  sample_node_state=True),
        (_duty_step,)),
    "stream_tight_cap": (
        StackSpec(app_name="stream",
                  app_kwargs={"n_iterations": 1_000_000},
                  schedule=FixedCapSchedule(60.0, start=0.5),
                  sample_node_state=True),
        ()),
    "set_dram_limit": (
        StackSpec(app_name="stream",
                  app_kwargs={"n_iterations": 1_000_000, "n_workers": 12},
                  sample_node_state=True),
        (_dram_limit,)),
}


def _observables(stack: NodeStack) -> dict:
    node = stack.node
    series = dict(stack.topic_series())
    for name in ("power_series", "freq_series", "duty_series",
                 "uncore_series"):
        series[name] = getattr(stack, name)
    return {
        "now": node.clock.now,
        "counters": node.counters.dump_state(),
        "pkg_energy": node.pkg_energy,
        "dram_energy": node.dram_energy,
        "frac_done": [(t.status, t.frac_done) for t in stack.engine.tasks],
        "series": {name: (list(s.times), list(s.values))
                   for name, s in series.items()},
    }


def _pauses() -> list[float]:
    n = int(T_END / PAUSE)
    return [PAUSE * (i + 1) for i in range(n)] + [T_END]


def _run(name: str, roundtrip: bool) -> NodeStack:
    spec, hooks = CASES[name]
    stack = NodeStack(spec, hooks=hooks)
    for until in _pauses():
        stack.run(until=until)
        if roundtrip:
            blob = pickle.dumps(stack.snapshot(), protocol=4)
            stack = NodeStack.from_checkpoint(pickle.loads(blob),
                                              hooks=hooks)
    return stack


@pytest.fixture()
def allocations(monkeypatch):
    """Count segments that ran the bandwidth allocation (contended)."""
    seen = {"contended": 0}
    allocate = Engine._allocate

    def counted(self, running):
        seen["contended"] += 1
        return allocate(self, running)

    monkeypatch.setattr(Engine, "_allocate", counted)
    return seen


class TestColdMemoParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_roundtrip_every_few_segments_matches_warm_run(self, name):
        warm = _observables(_run(name, roundtrip=False))
        cold = _observables(_run(name, roundtrip=True))
        assert cold == warm

    def test_cases_change_the_memo_inputs(self, allocations):
        """Each case moves what it is named for, so the parity above
        covers memo misses of that kind."""
        freqs = set(_run("rapl_frequency_step", False).freq_series.values)
        assert len(freqs) > 1
        duties = set(_run("ddcm_duty_step", False).duty_series.values)
        assert {0.5, 0.875} <= duties

        allocations["contended"] = 0
        stack = _run("stream_tight_cap", False)
        assert len(set(stack.uncore_series.values)) > 1
        # contention comes and goes: some segments allocate, most not
        assert 0 < allocations["contended"]

        allocations["contended"] = 0
        stack = _run("set_dram_limit", False)
        assert stack.node.dram_bw_cap is None   # cleared again
        assert 0 < allocations["contended"]


class TestPowerMemo:
    @pytest.fixture()
    def node(self):
        node = SimulatedNode(skylake_config())
        for i, core in enumerate(node.cores):
            core.mode = (CoreMode.BUSY, CoreMode.SPIN, CoreMode.SLEEP,
                         CoreMode.IDLE)[i % 4]
            core.compute_frac = 0.25 + i / 100 if i % 4 == 0 else 0.0
            core.bytes_rate = 1e8 * i
        return node

    def test_what_if_between_samples_leaves_next_sample_unchanged(
            self, node):
        model = node.power_model
        first = model.sample(node.cores)
        cfg = node.cfg
        what_if = model.fold(node.cores, freq=cfg.freq_ladder[0],
                             duty=cfg.duty_levels[0])
        assert what_if != model.fold(node.cores)
        assert model.sample(node.cores) == first
        assert PowerModel(cfg).sample(node.cores) == first

    def test_warm_sample_equals_cold_after_core_changes(self, node):
        model = node.power_model
        model.sample(node.cores)
        node.set_frequency(node.cfg.freq_ladder[3])
        node.cores[0].compute_frac = 0.9
        node.cores[1].mode = CoreMode.BUSY
        node.cores[1].compute_frac = 0.5
        node.set_core_duty(2, 0.5)
        warm = model.sample(node.cores)
        assert warm == PowerModel(node.cfg).sample(node.cores)
        node.cores[4].mode = CoreMode.SPIN   # only the mode moves
        warm = model.sample(node.cores)
        assert warm == PowerModel(node.cfg).sample(node.cores)

    def test_hit_returns_the_type_a_miss_would(self, node):
        model = node.power_model
        assert type(model.fold(node.cores)[0]) is float
        for core in node.cores:
            core.freq = np.float64(core.freq)   # equal value, other type
        warm = model.fold(node.cores)
        cold = PowerModel(node.cfg).fold(node.cores)
        assert warm == cold
        assert type(warm[0]) is type(cold[0]) is np.float64
