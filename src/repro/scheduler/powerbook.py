"""Per-application power/progress profiles for cap selection.

The scheduler's decisions all reduce to two questions the paper's model
answers: *how much power does this application draw uncapped?* and *how
much progress does a given cap cost?* The :class:`PowerBook` measures
both once per application on a reference node and keeps the result, in
memory, as an :class:`AppPowerProfile`:

* beta and MPO from the Section IV-A characterization protocol
  (:meth:`repro.experiments.harness.Testbed.characterize`),
* the uncapped progress rate and package power from a steady run,
* a :class:`~repro.core.model.PowerCapModel` whose alpha (and beta) are
  *fitted* to a few capped probe runs via :mod:`repro.core.fitting` —
  Section VI-B3's proposed refinement, which removes most of the
  fixed-alpha model error and makes the predicted slowdowns trustworthy
  enough to gate admission on.

Cap selection (:meth:`AppPowerProfile.cheapest_cap`) walks a candidate
cap grid from the floor upward and returns the lowest cap whose
predicted slowdown stays within the job's tolerance — the cheapest
power demand the model says the user's contract allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.fitting import fit_alpha
from repro.core.model import PowerCapModel
from repro.exceptions import ConfigurationError, FittingError
from repro.experiments.harness import Testbed
from repro.hardware.config import NodeConfig, skylake_config
from repro.nrm.schemes import FixedCapSchedule

__all__ = ["AppPowerProfile", "PowerBook", "CHARACTERIZE_SIZING",
           "steady_sizing"]

#: Fixed-work sizings for the beta/MPO characterization runs (small so
#: the two DVFS-pinned runs finish quickly; beta is a ratio of times, so
#: the absolute size barely matters on the exact engine).
CHARACTERIZE_SIZING: dict[str, dict[str, int]] = {
    "lammps": {"n_steps": 60},
    "stream": {"n_iterations": 60},
    "amg": {"n_iterations": 12, "setup_iterations": 0},
    "qmcpack": {"vmc1_blocks": 0, "vmc2_blocks": 0, "dmc_blocks": 48},
    "openmc": {"inactive_batches": 0, "active_batches": 6},
}


def steady_sizing(app_name: str) -> dict[str, int]:
    """Open-ended sizing for steady-state runs of ``app_name``: the
    characterization phases scaled to effectively infinite iterations,
    so a run is bounded by wall time (or a scheduler work target), not
    by the application exhausting its input."""
    sizing = CHARACTERIZE_SIZING.get(app_name, {})
    return {k: (1_000_000 if v else 0) for k, v in sizing.items()}


@dataclass(frozen=True)
class AppPowerProfile:
    """Measured power/progress characterization of one application."""

    app_name: str
    beta: float                  #: measured compute-boundedness
    mpo: float                   #: measured misses per operation
    r_max: float                 #: steady uncapped progress rate (units/s)
    p_uncapped: float            #: steady uncapped package power (W)
    model: PowerCapModel         #: fitted predictor (alpha/beta from probes)
    fit_residual_rms: float      #: RMS progress residual of the fit
    probe_caps: tuple[float, ...]  #: package caps the fit observed

    def predicted_slowdown(self, cap: float) -> float:
        """Model-predicted fractional slowdown under package cap
        ``cap`` (0 when the cap does not bind)."""
        if cap <= 0:
            raise ConfigurationError(f"cap must be positive, got {cap}")
        return float(np.clip(self.model.slowdown_at_package_cap(cap),
                             0.0, 1.0))

    def cheapest_cap(self, tolerance: float, *, floor: float,
                     ceiling: float, step: float = 5.0,
                     margin: float = 0.8) -> tuple[float, float]:
        """Lowest candidate cap whose predicted slowdown respects the
        tolerance.

        Walks the grid ``floor, floor+step, ...`` up to ``ceiling`` and
        returns ``(cap, predicted_slowdown)`` for the first (cheapest)
        cap with predicted slowdown <= ``tolerance * margin``. The
        margin keeps the *measured* slowdown inside the user's declared
        tolerance despite residual model error. Falls back to the
        ceiling (effectively uncapped) if no grid point qualifies.
        """
        if not 0.0 < tolerance < 1.0:
            raise ConfigurationError(
                f"tolerance must lie in (0, 1), got {tolerance}")
        if not 0 < floor <= ceiling:
            raise ConfigurationError(
                f"need 0 < floor <= ceiling, got [{floor}, {ceiling}]")
        if step <= 0 or not 0.0 < margin <= 1.0:
            raise ConfigurationError("step must be > 0 and margin in (0, 1]")
        budget = tolerance * margin
        cap = floor
        while cap < ceiling - 1e-9:
            predicted = self.predicted_slowdown(cap)
            if predicted <= budget:
                return float(cap), predicted
            cap += step
        return float(ceiling), self.predicted_slowdown(ceiling)


class PowerBook:
    """Characterize applications on a reference node, once each.

    Parameters
    ----------
    cfg:
        Reference node configuration (defaults to the calibrated
        Skylake node).
    n_workers:
        Worker count the *jobs* will run with — rates and powers depend
        on it, so the book must measure under identical conditions.
    seed:
        Measurement seed (profiles are deterministic given it).
    duration, warmup:
        Length of each steady-state probe run and the transient to
        discard.
    probe_caps:
        Package caps for the model-fitting probe runs; non-binding caps
        (above the uncapped power draw) are dropped automatically.
    """

    def __init__(self, cfg: NodeConfig | None = None, *, n_workers: int = 8,
                 seed: int = 0, duration: float = 12.0, warmup: float = 4.0,
                 probe_caps: tuple[float, ...] = (90.0, 75.0, 60.0)
                 ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}")
        if not 0 <= warmup < duration:
            raise ConfigurationError("need 0 <= warmup < duration")
        if not probe_caps or any(c <= 0 for c in probe_caps):
            raise ConfigurationError("probe_caps must be positive")
        self.cfg = cfg if cfg is not None else skylake_config()
        self.n_workers = n_workers
        self.seed = seed
        self.duration = duration
        self.warmup = warmup
        self.probe_caps = tuple(sorted(probe_caps, reverse=True))
        self._profiles: dict[str, AppPowerProfile] = {}

    # ------------------------------------------------------------------

    def profile(self, app_name: str) -> AppPowerProfile:
        """The (cached) profile of ``app_name``."""
        if app_name not in self._profiles:
            self._profiles[app_name] = self._characterize(app_name)
        return self._profiles[app_name]

    def preload(self, profile: AppPowerProfile) -> None:
        """Install an externally built profile (tests, replays)."""
        self._profiles[profile.app_name] = profile

    def known(self) -> list[str]:
        """Application names already profiled, sorted."""
        return sorted(self._profiles)

    # ------------------------------------------------------------------

    def _steady(self, app_name: str,
                cap: float | None = None) -> tuple[float, float]:
        """One steady run: (mean progress rate, mean package power)
        over the post-warmup window, uncapped or under a fixed cap."""
        schedule = None if cap is None else FixedCapSchedule(cap)
        result = Testbed(self.cfg, self.seed).run(
            app_name, duration=self.duration, schedule=schedule,
            app_kwargs={**steady_sizing(app_name),
                        "n_workers": self.n_workers})
        rate = result.steady_progress(self.warmup, self.duration,
                                      ignore_zeros=False)
        power = float(result.power.window(self.warmup,
                                          self.duration).mean())
        return rate, power

    def _characterize(self, app_name: str) -> AppPowerProfile:
        """Measure one application's profile: the Section IV-A
        characterization, one uncapped steady run, and one steady run
        per binding probe cap."""
        with obs.tracer().span("powerbook.characterize", app=app_name):
            sizing = dict(CHARACTERIZE_SIZING.get(app_name, {}))
            sizing["n_workers"] = self.n_workers
            char = Testbed(self.cfg, self.seed).characterize(
                app_name, app_kwargs=sizing)

            r_max, p_uncapped = self._steady(app_name)
            if r_max <= 0:
                raise ConfigurationError(
                    f"{app_name}: no progress during the uncapped probe")
            p_coremax = max(char.beta, 1e-3) * p_uncapped

            # non-binding caps carry no model information
            caps = [cap for cap in self.probe_caps if cap < p_uncapped]
            rates = [self._steady(app_name, cap)[0] for cap in caps]

            model, residual = self._fit(char.beta, r_max, p_coremax, caps,
                                        rates)
            return AppPowerProfile(
                app_name=app_name,
                beta=char.beta,
                mpo=char.mpo,
                r_max=r_max,
                p_uncapped=float(p_uncapped),
                model=model,
                fit_residual_rms=residual,
                probe_caps=tuple(caps),
            )

    def _fit(self, beta: float, r_max: float, p_coremax: float,
             caps: list[float], rates: list[float]
             ) -> tuple[PowerCapModel, float]:
        """Fit alpha to the probe observations, keeping the measured
        beta (Section VI-B3's refinement — beta stays fixed so Eq. 5's
        core split matches the conversion used for the probe points).
        Falls back to the paper's fixed alpha = 2 when no cap bound."""
        beta = float(np.clip(beta, 1e-3, 1.0))
        if not caps:
            return PowerCapModel(beta=beta, r_max=r_max,
                                 p_coremax=p_coremax), float("nan")
        p_corecaps = [beta * c for c in caps]
        try:
            fit = fit_alpha(p_corecaps, rates, beta=beta, r_max=r_max,
                            p_coremax=p_coremax)
        except FittingError:
            return PowerCapModel(beta=beta, r_max=r_max,
                                 p_coremax=p_coremax), float("nan")
        return fit.model, fit.residual_rms
