"""Tests for the multi-node cluster simulation (extension)."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro.cluster import (
    ClusterSimulation,
    NodeInstance,
    ProgressAwareRebalancer,
    UniformPowerPolicy,
    perturb_config,
)
from repro.exceptions import ConfigurationError
from repro.hardware.config import skylake_config

APP_KW = {"n_steps": 1_000_000, "n_workers": 8}


class TestVariability:
    def test_perturbs_power_coefficients(self):
        cfg = skylake_config()
        rng = np.random.default_rng(1)
        v = perturb_config(cfg, rng)
        assert v.c_dyn != cfg.c_dyn
        assert v.leak_per_volt != cfg.leak_per_volt
        # everything else untouched
        assert v.freq_ladder == cfg.freq_ladder
        assert v.mem_bandwidth == cfg.mem_bandwidth

    def test_zero_sigma_is_identity(self):
        cfg = skylake_config()
        v = perturb_config(cfg, np.random.default_rng(1), sigma_dynamic=0.0,
                           sigma_static=0.0)
        assert v.c_dyn == cfg.c_dyn
        assert v.leak_per_volt == cfg.leak_per_volt

    def test_deterministic_per_stream(self):
        cfg = skylake_config()
        a = perturb_config(cfg, np.random.default_rng(5))
        b = perturb_config(cfg, np.random.default_rng(5))
        assert a.c_dyn == b.c_dyn

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            perturb_config(skylake_config(), np.random.default_rng(0),
                           sigma_dynamic=-0.1)


class TestPolicies:
    def test_uniform_split(self):
        p = UniformPowerPolicy(300.0)
        assert p.allocate([1.0, 2.0, 3.0]) == [100.0, 100.0, 100.0]

    def test_uniform_rejects_no_nodes(self):
        with pytest.raises(ConfigurationError):
            UniformPowerPolicy(300.0).allocate([])

    def test_rebalancer_conserves_budget(self):
        p = ProgressAwareRebalancer(300.0)
        budgets = p.allocate([10.0, 8.0, 12.0])
        assert sum(budgets) == pytest.approx(300.0)

    def test_rebalancer_favours_slow_nodes(self):
        p = ProgressAwareRebalancer(300.0)
        budgets = p.allocate([10.0, 8.0, 12.0])
        # slowest node (index 1) gets the most, fastest the least
        assert budgets[1] > budgets[0] > budgets[2]

    def test_rebalancer_uniform_without_signal(self):
        p = ProgressAwareRebalancer(300.0)
        assert p.allocate([0.0, 0.0, 0.0]) == pytest.approx([100.0] * 3)

    @pytest.mark.parametrize("rates", [
        [float("nan"), 10.0, 12.0],
        [float("inf"), 10.0, 12.0],
        [-30.0, 10.0, 12.0],  # degenerate negative sum -> mean <= 0
    ])
    def test_rebalancer_uniform_on_corrupt_signal(self, rates):
        """Non-finite or degenerate rate samples (e.g. a monitor that has
        produced no window yet) must not poison the allocation."""
        p = ProgressAwareRebalancer(300.0)
        budgets = p.allocate(rates)
        assert budgets == pytest.approx([100.0] * 3)
        assert all(np.isfinite(budgets))

    def test_rebalancer_respects_floor(self):
        p = ProgressAwareRebalancer(150.0, min_node=45.0, gain=10.0)
        budgets = p.allocate([1.0, 100.0, 100.0])
        assert min(budgets) >= 45.0 - 1e-9

    def test_rebalancer_budget_below_floors_rejected(self):
        p = ProgressAwareRebalancer(100.0, min_node=45.0)
        with pytest.raises(ConfigurationError):
            p.allocate([1.0, 1.0, 1.0])

    def test_rebalancer_validation(self):
        with pytest.raises(ConfigurationError):
            ProgressAwareRebalancer(0.0)
        with pytest.raises(ConfigurationError):
            ProgressAwareRebalancer(100.0, min_node=50.0, max_node=40.0)
        with pytest.raises(ConfigurationError):
            ProgressAwareRebalancer(100.0, gain=0.0)


class TestNodeInstance:
    def test_advance_and_progress(self):
        inst = NodeInstance(0, skylake_config(), "lammps",
                            app_kwargs=APP_KW, seed=1)
        inst.advance(5.0)
        assert inst.now == pytest.approx(5.0)
        assert inst.recent_rate() > 0.0

    def test_budget_enforced(self):
        inst = NodeInstance(0, skylake_config(), "lammps",
                            app_kwargs={"n_steps": 1_000_000}, seed=1)
        inst.receive_budget(90.0)
        inst.advance(6.0)
        assert inst.node.frequency < inst.node.cfg.f_nominal

    def test_rewind_rejected(self):
        inst = NodeInstance(0, skylake_config(), "lammps",
                            app_kwargs=APP_KW, seed=1)
        inst.advance(2.0)
        with pytest.raises(ConfigurationError):
            inst.advance(1.0)

    def test_epoch_energy_increments(self):
        inst = NodeInstance(0, skylake_config(), "lammps",
                            app_kwargs=APP_KW, seed=1)
        inst.advance(2.0)
        first = inst.epoch_energy()
        inst.advance(4.0)
        second = inst.epoch_energy()
        assert first > 0 and second > 0
        assert first + second == pytest.approx(inst.node.pkg_energy)


class TestClusterSimulation:
    def test_lockstep_advance(self):
        sim = ClusterSimulation(3, "lammps", UniformPowerPolicy(3 * 90.0),
                                app_kwargs=APP_KW, seed=2)
        sim.run(6.0, epoch=2.0)
        assert sim.now == pytest.approx(6.0)
        assert all(n.now == pytest.approx(6.0) for n in sim.nodes)
        assert len(sim.total_progress) == 3

    def test_identical_nodes_without_variability(self):
        sim = ClusterSimulation(3, "lammps", UniformPowerPolicy(3 * 90.0),
                                app_kwargs=APP_KW, variability=None, seed=2)
        sim.run(6.0)
        freqs = sim.node_frequencies()
        assert len(set(freqs)) == 1

    def test_variability_spreads_capped_frequency(self):
        sim = ClusterSimulation(
            4, "lammps", UniformPowerPolicy(4 * 70.0),
            app_kwargs={"n_steps": 1_000_000},
            variability=(0.10, 0.25), seed=4,
        )
        sim.run(8.0)
        freqs = sim.node_frequencies()
        assert max(freqs) > min(freqs)

    def test_total_is_sum_and_critical_is_min(self):
        sim = ClusterSimulation(3, "lammps", UniformPowerPolicy(3 * 90.0),
                                app_kwargs=APP_KW, seed=2)
        sim.run(6.0)
        rates = sim.node_rates(window=1.0)
        assert sim.total_progress.values[-1] == pytest.approx(sum(rates))
        assert sim.critical_path.values[-1] == pytest.approx(min(rates))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSimulation(0, "lammps", UniformPowerPolicy(100.0))
        sim = ClusterSimulation(1, "lammps", UniformPowerPolicy(100.0),
                                app_kwargs=APP_KW)
        with pytest.raises(ConfigurationError):
            sim.run(0.0)
        with pytest.raises(ConfigurationError):
            sim.steady_critical_path()

    def test_balance_keyword_accepts_only_false(self):
        """The shard balancer is gone; ``balance=False`` still
        constructs (callers pass it), a true value is refused."""
        sim = ClusterSimulation(1, "lammps", UniformPowerPolicy(100.0),
                                app_kwargs=APP_KW, balance=False)
        sim.close()
        with pytest.raises(ConfigurationError, match="balancer was removed"):
            ClusterSimulation(1, "lammps", UniformPowerPolicy(100.0),
                              app_kwargs=APP_KW, shards=2, balance=True)
