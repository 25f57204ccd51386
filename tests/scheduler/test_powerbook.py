"""Tests for per-application power profiles and cap selection."""

import pytest

from repro.core.model import PowerCapModel
from repro.exceptions import ConfigurationError
from repro.scheduler import AppPowerProfile, PowerBook
from repro.experiments.harness import Testbed
from repro.scheduler.powerbook import CHARACTERIZE_SIZING, steady_sizing


def synthetic_profile(beta=1.0, r_max=100.0, p_uncapped=95.0, alpha=2.0):
    return AppPowerProfile(
        app_name="lammps", beta=beta, mpo=3e-4, r_max=r_max,
        p_uncapped=p_uncapped,
        model=PowerCapModel(beta=beta, r_max=r_max, p_coremax=beta * p_uncapped,
                            alpha=alpha),
        fit_residual_rms=0.0, probe_caps=(75.0, 60.0),
    )


class TestCheapestCap:
    def test_cheapest_cap_is_lowest_within_tolerance(self):
        profile = synthetic_profile()
        cap, predicted = profile.cheapest_cap(0.3, floor=50.0, ceiling=95.0,
                                              step=5.0, margin=1.0)
        assert 50.0 <= cap < 95.0
        assert predicted <= 0.3
        # one grid step cheaper must violate the tolerance (else `cap`
        # was not the cheapest qualifying point)
        if cap > 50.0:
            assert profile.predicted_slowdown(cap - 5.0) > 0.3

    def test_tighter_tolerance_needs_more_power(self):
        profile = synthetic_profile()
        loose, _ = profile.cheapest_cap(0.3, floor=40.0, ceiling=95.0,
                                        margin=1.0)
        tight, _ = profile.cheapest_cap(0.05, floor=40.0, ceiling=95.0,
                                        margin=1.0)
        assert tight > loose

    def test_margin_reserves_headroom(self):
        profile = synthetic_profile()
        plain, _ = profile.cheapest_cap(0.2, floor=40.0, ceiling=95.0,
                                        margin=1.0)
        guarded, predicted = profile.cheapest_cap(0.2, floor=40.0,
                                                  ceiling=95.0, margin=0.5)
        assert guarded >= plain
        assert predicted <= 0.1 + 1e-12

    def test_falls_back_to_ceiling_when_nothing_fits(self):
        # memory-bound profile barely slows down; an absurdly tight
        # tolerance pushes the search to the ceiling
        profile = synthetic_profile(beta=0.99)
        cap, predicted = profile.cheapest_cap(0.001, floor=50.0,
                                              ceiling=95.0, margin=1.0)
        assert cap == pytest.approx(95.0)
        assert predicted == pytest.approx(
            profile.predicted_slowdown(95.0))

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": 1.0},
        {"floor": -1.0},
        {"floor": 100.0, "ceiling": 95.0},
        {"step": 0.0},
        {"margin": 0.0},
        {"margin": 1.5},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        base = dict(tolerance=0.2, floor=50.0, ceiling=95.0, step=5.0,
                    margin=0.8)
        base.update(kwargs)
        tolerance = base.pop("tolerance")
        with pytest.raises(ConfigurationError):
            synthetic_profile().cheapest_cap(tolerance, **base)

    def test_predicted_slowdown_monotone_in_cap(self):
        profile = synthetic_profile()
        slows = [profile.predicted_slowdown(c) for c in (50, 65, 80, 95, 200)]
        assert slows == sorted(slows, reverse=True)
        assert slows[-1] == 0.0  # far above the operating point


class TestPowerBook:
    def test_preload_and_known(self):
        book = PowerBook(n_workers=2)
        book.preload(synthetic_profile())
        assert book.known() == ["lammps"]
        assert book.profile("lammps").r_max == 100.0

    def test_steady_sizing_scales_only_active_phases(self):
        sizing = steady_sizing("amg")
        assert sizing["n_iterations"] == 1_000_000
        assert sizing["setup_iterations"] == 0
        assert steady_sizing("unknown-app") == {}

    @pytest.mark.parametrize("kwargs", [
        {"n_workers": 0},
        {"warmup": 5.0, "duration": 4.0},
        {"probe_caps": ()},
        {"probe_caps": (90.0, -5.0)},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            PowerBook(**kwargs)

    @pytest.mark.slow
    def test_real_characterization_is_consistent(self):
        book = PowerBook(n_workers=4, seed=0, duration=6.0, warmup=2.0,
                         probe_caps=(60.0, 45.0))
        profile = book.profile("lammps")
        assert profile is book.profile("lammps")  # cached
        # compute-bound: beta near 1, binding probes observed, and the
        # fitted model predicts a real slowdown at the lowest probe cap
        assert profile.beta > 0.8
        assert profile.r_max > 0
        assert profile.p_uncapped > 40.0
        assert profile.probe_caps  # at least one cap bound
        assert profile.predicted_slowdown(45.0) > 0.05
        assert profile.predicted_slowdown(45.0) < 0.8

    @pytest.mark.slow
    def test_beta_and_mpo_come_from_testbed_characterize(self):
        profile = PowerBook(n_workers=2).profile("lammps")
        char = Testbed(seed=0).characterize(
            "lammps",
            app_kwargs={**CHARACTERIZE_SIZING["lammps"], "n_workers": 2})
        assert (profile.beta, profile.mpo) == (char.beta, char.mpo)
