"""Unit tests for the wall-clock epoch pacer (pure arithmetic half)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.pacing import EpochPacer


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sim_rate": 0.0},
        {"sim_rate": -1.0},
        {"epoch": 0.0},
        {"epoch": -0.5},
        {"max_epochs_per_tick": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        defaults = dict(sim_rate=10.0, epoch=1.0)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            EpochPacer(defaults["sim_rate"], defaults["epoch"],
                       max_epochs_per_tick=defaults.get(
                           "max_epochs_per_tick", 1000))

    def test_rejects_negative_and_nan_elapsed(self):
        pacer = EpochPacer(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            pacer.epochs_due(-0.1)
        with pytest.raises(ConfigurationError):
            pacer.epochs_due(float("nan"))


class TestPacing:
    def test_whole_epochs(self):
        pacer = EpochPacer(10.0, 1.0)
        assert pacer.epochs_due(1.0) == 10

    def test_fractional_carry_accumulates(self):
        # 10 sim-s/wall-s, 1 s epochs: 0.35 s ticks owe 3.5 epochs each
        pacer = EpochPacer(10.0, 1.0)
        assert pacer.epochs_due(0.35) == 3
        assert pacer.epochs_due(0.35) == 4  # 0.5 + 3.5
        assert pacer.epochs_due(0.30) == 3

    def test_converges_on_sim_rate(self):
        pacer = EpochPacer(7.0, 0.5)  # 14 epochs per wall second
        total = sum(pacer.epochs_due(0.013) for _ in range(1000))
        # within one epoch of exact (float error in the carry stream)
        assert abs(total - 1000 * 0.013 * 14) <= 1.0

    def test_sub_epoch_ticks_eventually_fire(self):
        pacer = EpochPacer(1.0, 1.0)
        due = [pacer.epochs_due(0.25) for _ in range(8)]
        assert sum(due) == 2
        assert due[3] == 1 and due[7] == 1

    def test_backlog_clamped_and_dropped(self):
        pacer = EpochPacer(10.0, 1.0, max_epochs_per_tick=5)
        # a 100 s stall owes 1000 epochs; only 5 run, the rest vanish
        assert pacer.epochs_due(100.0) == 5
        assert pacer.epochs_due(0.1) == 1  # no replayed debt

    def test_reset_forgets_carry(self):
        pacer = EpochPacer(10.0, 1.0)
        assert pacer.epochs_due(0.35) == 3
        pacer.reset()
        assert pacer.epochs_due(0.35) == 3

    def test_wall_until_due_is_the_rest_of_one_epoch(self):
        pacer = EpochPacer(10.0, 1.0)  # one epoch per 0.1 wall s
        assert pacer.wall_until_due() == pytest.approx(0.1)
        assert pacer.epochs_due(0.25) == 2
        assert pacer.wall_until_due() == pytest.approx(0.05)
        # exactly that much more wall time owes exactly one epoch
        assert pacer.epochs_due(pacer.wall_until_due() + 1e-12) == 1
