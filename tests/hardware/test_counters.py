"""Unit tests for the PAPI-like counter bank."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hardware.counters import EVENTS, CounterBank, CounterSnapshot


class TestCounterBank:
    def test_starts_at_zero(self):
        bank = CounterBank(4)
        snap = bank.snapshot(0.0)
        for ev in EVENTS:
            assert snap.total(ev) == 0.0

    def test_accrue_and_total(self):
        bank = CounterBank(2)
        bank.accrue(0, instructions=100, cycles=200, l3_misses=3)
        bank.accrue(1, instructions=50)
        snap = bank.snapshot(1.0)
        assert snap.total("PAPI_TOT_INS") == 150
        assert snap.total("PAPI_TOT_CYC") == 200
        assert snap.total("PAPI_L3_TCM") == 3

    def test_rejects_negative_increment(self):
        bank = CounterBank(1)
        with pytest.raises(ConfigurationError):
            bank.accrue(0, instructions=-1)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            CounterBank(0)

    def test_snapshot_is_immutable_copy(self):
        bank = CounterBank(1)
        snap = bank.snapshot(0.0)
        bank.accrue(0, instructions=10)
        assert snap.total("PAPI_TOT_INS") == 0.0

    def test_reset(self):
        bank = CounterBank(1)
        bank.accrue(0, instructions=10, cycles=20, l3_misses=1)
        bank.reset()
        snap = bank.snapshot(0.0)
        assert snap.total("PAPI_TOT_INS") == 0.0
        assert snap.total("PAPI_L3_TCM") == 0.0

    def test_unknown_event_raises(self):
        snap = CounterBank(1).snapshot(0.0)
        with pytest.raises(ConfigurationError):
            snap.total("PAPI_FP_OPS")


class TestCounterBankState:
    def _bank(self):
        bank = CounterBank(3)
        bank.accrue(0, instructions=0.1, cycles=0.2, l3_misses=0.3)
        bank.accrue(2, instructions=1e9 / 3, cycles=2e9 / 7)
        bank.accrue(0, instructions=np.float64(0.7), cycles=1.1)
        return bank

    def test_snapshot_arrays_are_copies(self):
        bank = self._bank()
        snap = bank.snapshot(1.0)
        before = snap.tot_ins.copy()
        bank.accrue(0, instructions=5.0, cycles=5.0, l3_misses=5.0)
        assert snap.tot_ins.tolist() == before.tolist()
        snap.tot_cyc[:] = -1.0
        assert bank.snapshot(1.0).tot_cyc.min() >= 0.0
        assert bank.snapshot(1.0).tot_ins is not bank.snapshot(1.0).tot_ins

    def test_dump_load_round_trips_exactly(self):
        bank = self._bank()
        state = bank.dump_state()
        assert all(type(x) is float for key in ("ins", "cyc", "l3")
                   for x in state[key])
        other = CounterBank(3)
        other.load_state(state)
        assert other.dump_state() == state
        a, b = bank.snapshot(2.0), other.snapshot(2.0)
        for name in ("tot_ins", "tot_cyc", "l3_tcm"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()

    def test_load_refuses_a_one_element_list(self):
        """A length-1 list must not broadcast to every core."""
        bank = CounterBank(24)
        state = {"ins": [5.0], "cyc": [0.0] * 24, "l3": [0.0] * 24}
        with pytest.raises(ConfigurationError):
            bank.load_state(state)
        assert bank.snapshot(0.0).total("PAPI_TOT_INS") == 0.0

    @pytest.mark.parametrize("length", [0, 2, 23, 25])
    def test_load_refuses_wrong_lengths(self, length):
        bank = CounterBank(24)
        state = {"ins": [0.0] * 24, "cyc": [1.0] * length, "l3": [0.0] * 24}
        with pytest.raises(ConfigurationError):
            bank.load_state(state)

    def test_load_refuses_non_numeric_state(self):
        bank = CounterBank(2)
        with pytest.raises(ConfigurationError):
            bank.load_state({"ins": 5.0, "cyc": [0.0, 0.0], "l3": [0.0, 0.0]})

    def test_node_restore_refuses_malformed_counters(self):
        from repro.hardware import SimulatedNode

        node = SimulatedNode()
        state = node.snapshot()
        state["counters"] = dict(state["counters"], ins=[5.0])
        with pytest.raises(ConfigurationError):
            SimulatedNode().restore(state)


class TestSnapshotMath:
    def _snaps(self):
        bank = CounterBank(2)
        s0 = bank.snapshot(10.0)
        bank.accrue(0, instructions=2e6, cycles=4e6, l3_misses=1e3)
        bank.accrue(1, instructions=4e6, cycles=4e6, l3_misses=3e3)
        s1 = bank.snapshot(12.0)
        return s0, s1

    def test_delta(self):
        s0, s1 = self._snaps()
        d = s1.delta(s0)
        assert d.time == pytest.approx(2.0)
        assert d.total("PAPI_TOT_INS") == pytest.approx(6e6)
        assert np.allclose(d.tot_ins, [2e6, 4e6])

    def test_mips(self):
        s0, s1 = self._snaps()
        # 6e6 instructions over 2 s = 3 MIPS
        assert s1.delta(s0).mips() == pytest.approx(3.0)

    def test_mips_requires_positive_interval(self):
        bank = CounterBank(1)
        with pytest.raises(ConfigurationError):
            bank.snapshot(0.0).mips()

    def test_mpo(self):
        s0, s1 = self._snaps()
        d = s1.delta(s0)
        assert d.mpo() == pytest.approx(4e3 / 6e6)

    def test_mpo_zero_instructions(self):
        bank = CounterBank(1)
        assert bank.snapshot(0.0).mpo() == 0.0
