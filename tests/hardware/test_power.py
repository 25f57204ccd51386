"""Unit tests for the package power model."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.hardware.config import skylake_config
from repro.hardware.cpu import CoreMode, CoreState
from repro.hardware.power import PowerModel


@pytest.fixture()
def cfg():
    return skylake_config()


@pytest.fixture()
def model(cfg):
    return PowerModel(cfg)


def _busy_core(cfg, freq, compute_frac=1.0, bytes_rate=0.0, duty=1.0):
    core = CoreState(core_id=0, freq=freq, duty=duty)
    core.mode = CoreMode.BUSY
    core.compute_frac = compute_frac
    core.bytes_rate = bytes_rate
    return core


class TestCorePower:
    def test_increases_with_frequency(self, cfg, model):
        p_low = model.core_power(_busy_core(cfg, 1.6e9))
        p_high = model.core_power(_busy_core(cfg, 3.3e9))
        assert p_high > p_low

    def test_increases_with_activity(self, cfg, model):
        p_stall = model.core_power(_busy_core(cfg, 3.3e9, compute_frac=0.0))
        p_full = model.core_power(_busy_core(cfg, 3.3e9, compute_frac=1.0))
        assert p_full > p_stall

    def test_duty_reduces_dynamic_power(self, cfg, model):
        p_full = model.core_power(_busy_core(cfg, 3.3e9))
        p_half = model.core_power(_busy_core(cfg, 3.3e9, duty=0.5))
        assert p_half < p_full
        # static power remains, so duty=0.5 is more than half the total
        assert p_half > p_full / 2

    def test_idle_core_draws_mostly_static(self, cfg, model):
        idle = CoreState(core_id=0, freq=3.3e9)
        busy = _busy_core(cfg, 3.3e9)
        assert model.core_power(idle) < 0.3 * model.core_power(busy)

    def test_spin_burns_significant_power(self, cfg, model):
        spin = CoreState(core_id=0, freq=3.3e9)
        spin.mode = CoreMode.SPIN
        busy = _busy_core(cfg, 3.3e9)
        ratio = model.core_power(spin) / model.core_power(busy)
        assert 0.5 < ratio <= 1.0

    def test_compute_bound_24core_power_in_testbed_regime(self, cfg, model):
        cores = [_busy_core(cfg, cfg.f_nominal) for _ in range(24)]
        sample = model.sample(cores)
        assert 130.0 < sample.package < 180.0

    def test_uncore_scales_with_traffic(self, cfg, model):
        quiet = model.sample([_busy_core(cfg, 3.3e9)])
        loud = model.sample([_busy_core(cfg, 3.3e9, bytes_rate=50e9)])
        assert loud.uncore > quiet.uncore
        assert loud.dram > quiet.dram

    def test_sample_is_sum_of_parts(self, cfg, model):
        cores = [_busy_core(cfg, 2.0e9, bytes_rate=1e9) for _ in range(4)]
        s = model.sample(cores)
        assert s.package == pytest.approx(s.cores + s.uncore)
        assert s.total == pytest.approx(s.package + s.dram)


class TestEffectiveAlpha:
    def test_alpha_near_one_at_voltage_floor(self, cfg, model):
        """Below the voltage knee, P_dyn ~ f (alpha ~ 1)."""
        alpha = model.effective_alpha(1.2e9, 1.7e9)
        assert alpha == pytest.approx(1.0, abs=0.05)

    def test_alpha_near_three_at_top_of_ladder(self, cfg, model):
        alpha = model.effective_alpha(2.8e9, 3.3e9)
        assert 2.2 < alpha < 3.5

    def test_alpha_midrange_near_two(self, cfg, model):
        """The paper assumes alpha = 2; the simulator's midrange agrees
        to within ~0.5 — this overlap is what makes the model usable."""
        alpha = model.effective_alpha(1.8e9, 2.8e9)
        assert 1.5 < alpha < 2.6

    @given(st.floats(min_value=1.3e9, max_value=3.6e9))
    def test_alpha_locally_within_physical_range(self, f):
        cfg = skylake_config()
        model = PowerModel(cfg)
        alpha = model.effective_alpha(f - 0.05e9, f + 0.05e9)
        assert 0.9 < alpha < 4.0

    def test_core_power_at_matches_core_power(self, cfg, model):
        core = _busy_core(cfg, 2.5e9)
        assert model.core_power_at(2.5e9, activity=1.0) == pytest.approx(
            model.core_power(core)
        )


# ----------------------------------------------------------------------
# The power fold against a per-core oracle
# ----------------------------------------------------------------------

_CFG = skylake_config()
_core_states = st.tuples(
    st.sampled_from(list(CoreMode)),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2e10),
    st.sampled_from(_CFG.duty_levels),
)
# the first len(list) cores take these states, the rest stay idle (a
# short list also keeps a failing example's shrunk report small)
_node_states = st.lists(_core_states, min_size=1, max_size=_CFG.n_cores)
# Hypothesis's explain phase re-runs a failing example over every
# variation of these per-core states, for minutes and a gigabyte; the
# shrunk example alone is report enough
_no_explain = settings(phases=[p for p in Phase if p is not Phase.explain])


def _node_with(freq, cores):
    from repro.hardware import SimulatedNode

    node = SimulatedNode(_CFG)
    node.set_frequency(freq)
    for core, (mode, cf, bw, duty) in zip(node.cores, cores):
        core.mode = mode
        core.compute_frac = cf
        core.bytes_rate = bw
        node.set_core_duty(core.core_id, duty)
    return node


def _oracle(cores, freq=None, duty=None):
    """Per-core ``kernels.core_power`` with ``cfg.voltage`` and
    ``CoreState.activity``, summed left to right in core order."""
    from repro.hardware import kernels

    cfg = _CFG
    core_total = 0.0
    traffic = 0.0
    for core in cores:
        f = core.freq if freq is None else freq
        d = core.duty if duty is None else duty
        core_total = core_total + kernels.core_power(
            cfg.voltage(f), f, d, core.activity(cfg), cfg.c_dyn,
            cfg.leak_per_volt)
        traffic = traffic + core.bytes_rate
    return core_total, traffic


class TestPowerFold:
    @_no_explain
    @given(st.sampled_from(_CFG.freq_ladder), _node_states)
    def test_sample_equals_the_oracle_bit_for_bit(self, freq, cores):
        from repro.hardware import kernels

        node = _node_with(freq, cores)
        core_total, traffic = _oracle(node.cores)
        sample = node.power_model.sample(node.cores)
        uncore = kernels.uncore_power(traffic, _CFG.uncore_base,
                                      _CFG.uncore_per_bw)
        assert sample.cores == core_total
        assert sample.uncore == uncore
        assert sample.package == core_total + uncore
        assert sample.dram == kernels.dram_power(
            traffic, _CFG.dram_base, _CFG.dram_per_bw)

    @_no_explain
    @given(st.sampled_from(_CFG.freq_ladder), _node_states,
           st.sampled_from(_CFG.freq_ladder),
           st.sampled_from(_CFG.duty_levels))
    def test_firmware_prediction_equals_the_oracle(self, freq, cores,
                                                   what_if_freq,
                                                   what_if_duty):
        from repro.hardware import kernels
        from repro.hardware.rapl import RaplFirmware
        from repro.runtime.engine import Engine

        node = _node_with(freq, cores)
        firmware = RaplFirmware(node, Engine(node))
        core_total, traffic = _oracle(node.cores, what_if_freq,
                                      what_if_duty)
        expected = core_total + kernels.uncore_power(
            traffic, _CFG.uncore_base, _CFG.uncore_per_bw)
        assert firmware._predicted_power(what_if_freq,
                                         what_if_duty) == expected
