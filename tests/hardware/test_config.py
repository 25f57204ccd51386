"""Unit tests for NodeConfig validation and derived quantities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.hardware.config import NodeConfig, skylake_config


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = skylake_config()
        assert cfg.n_cores == 24
        assert cfg.f_nominal == pytest.approx(3.3e9)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(n_cores=0)

    def test_rejects_single_step_ladder(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(freq_ladder=(2.0e9,), f_nominal=2.0e9)

    def test_rejects_descending_ladder(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(freq_ladder=(3.0e9, 2.0e9), f_nominal=3.0e9)

    def test_rejects_f_nominal_off_ladder(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(freq_ladder=(1.0e9, 2.0e9), f_nominal=1.5e9)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(mem_bandwidth=-1.0)

    def test_rejects_activity_above_one(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(stall_activity=1.5)

    def test_rejects_duty_levels_not_ending_at_one(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(duty_levels=(0.25, 0.5))

    def test_rejects_f_beta_low_outside_ladder(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(f_beta_low=0.1e9)

    def test_overrides_are_applied(self):
        cfg = skylake_config(n_cores=12)
        assert cfg.n_cores == 12


class TestDerived:
    def test_f_min_max(self):
        cfg = skylake_config()
        assert cfg.f_min == pytest.approx(1.2e9)
        assert cfg.f_turbo == pytest.approx(3.7e9)
        assert cfg.f_turbo > cfg.f_nominal

    def test_nominal_index_points_at_nominal(self):
        cfg = skylake_config()
        assert cfg.freq_ladder[cfg.nominal_index] == cfg.f_nominal

    def test_ladder_has_100mhz_steps(self):
        cfg = skylake_config()
        steps = [b - a for a, b in zip(cfg.freq_ladder, cfg.freq_ladder[1:])]
        assert all(s == pytest.approx(0.1e9, rel=1e-6) for s in steps)

    def test_ladder_steps_are_floats(self):
        # numpy scalars here would leak into every frequency-derived
        # quantity of a capped run
        assert all(type(f) is float for f in skylake_config().freq_ladder)

    def test_ladder_index_snaps_down(self):
        cfg = skylake_config()
        idx = cfg.ladder_index(2.55e9)
        assert cfg.freq_ladder[idx] == pytest.approx(2.5e9)

    def test_ladder_index_exact_step(self):
        cfg = skylake_config()
        idx = cfg.ladder_index(2.0e9)
        assert cfg.freq_ladder[idx] == pytest.approx(2.0e9)

    def test_ladder_index_below_min_raises(self):
        cfg = skylake_config()
        with pytest.raises(ConfigurationError):
            cfg.ladder_index(0.5e9)

    def test_ladder_index_above_max_clips_to_top(self):
        cfg = skylake_config()
        assert cfg.freq_ladder[cfg.ladder_index(9e9)] == cfg.f_turbo


class TestVoltageCurve:
    def test_floor_below_knee(self):
        cfg = skylake_config()
        assert cfg.voltage(1.2e9) == pytest.approx(cfg.v_min)
        assert cfg.voltage(cfg.v_knee_freq) == pytest.approx(cfg.v_min)

    def test_nominal_voltage_at_nominal_freq(self):
        cfg = skylake_config()
        assert cfg.voltage(cfg.f_nominal) == pytest.approx(cfg.v_nominal)

    def test_turbo_voltage_extrapolates_above_nominal(self):
        cfg = skylake_config()
        assert cfg.voltage(cfg.f_turbo) > cfg.v_nominal

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ConfigurationError):
            skylake_config().voltage(0.0)

    @given(st.floats(min_value=1.2e9, max_value=3.7e9))
    def test_voltage_monotonic_nondecreasing(self, freq):
        cfg = skylake_config()
        assert cfg.voltage(freq) >= cfg.voltage(freq - 1e6) - 1e-12
