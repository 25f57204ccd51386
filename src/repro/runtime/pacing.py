"""Wall-clock pacing of simulated epochs — the pure arithmetic half.

The daemon (:mod:`repro.daemon`) runs a *simulated* cluster as a
long-lived service: real clients connect over real sockets, so the
simulation has to advance against real time. The exchange rate is
``sim_rate`` simulated seconds per wall second; on every pass of its
loop the server asks how many whole epochs have come due since the last
pass and runs exactly that many, then waits at most until the next one
is due.

This module deliberately reads no clock. The server measures elapsed
wall time through the audited :mod:`repro.obs.hostclock` module and
passes the reading in; :class:`EpochPacer` only does arithmetic on it.
That split keeps the determinism contract auditable: pacing decides
*when* epochs run (and therefore when telemetry is drained to
subscribers — which is exactly how a slow transport produces stale
rates under load), but the content of every epoch remains a pure
function of the seed, because nothing downstream of this class ever
sees a wall-clock value.

The fractional-epoch remainder carries over between calls, so a pacer
asked at an awkward cadence (ticks shorter than an epoch, jittery
sleeps) still converges on exactly ``sim_rate`` over time instead of
systematically rounding it away.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["EpochPacer"]


class EpochPacer:
    """Convert elapsed wall time into a whole number of due epochs.

    Parameters
    ----------
    sim_rate:
        Simulated seconds that should elapse per wall second.
    epoch:
        Epoch length in simulated seconds (the scheduler's tick).
    max_epochs_per_tick:
        Backlog clamp: after a stall (a long GC pause, a suspended
        laptop) the pacer owes a burst of epochs; capping the burst
        keeps one tick from monopolising the event loop while requests
        wait. The excess debt is *dropped*, not deferred — the daemon
        falls behind real time rather than freezing admissions.
    """

    def __init__(self, sim_rate: float, epoch: float, *,
                 max_epochs_per_tick: int = 1000) -> None:
        if sim_rate <= 0:
            raise ConfigurationError(
                f"sim_rate must be positive, got {sim_rate}")
        if epoch <= 0:
            raise ConfigurationError(f"epoch must be positive, got {epoch}")
        if max_epochs_per_tick < 1:
            raise ConfigurationError(
                f"max_epochs_per_tick must be >= 1, got "
                f"{max_epochs_per_tick}")
        self.sim_rate = sim_rate
        self.epoch = epoch
        self.max_epochs_per_tick = max_epochs_per_tick
        self._carry = 0.0  # fractional epochs owed from previous ticks

    def epochs_due(self, wall_elapsed_s: float) -> int:
        """Whole epochs owed for ``wall_elapsed_s`` of wall time.

        Consumes the reading: the fractional remainder is retained for
        the next call, debt beyond :attr:`max_epochs_per_tick` is
        discarded.
        """
        if not wall_elapsed_s >= 0.0:  # also rejects NaN
            raise ConfigurationError(
                f"elapsed wall time must be >= 0, got {wall_elapsed_s!r}")
        owed = self._carry + wall_elapsed_s * self.sim_rate / self.epoch
        due = int(owed)
        if due > self.max_epochs_per_tick:
            due = self.max_epochs_per_tick
            self._carry = 0.0  # drop the backlog, don't replay it
        else:
            self._carry = owed - due
        return due

    def wall_until_due(self) -> float:
        """Wall seconds, from the last :meth:`epochs_due` reading, until
        the next whole epoch is owed."""
        return (1.0 - self._carry) * self.epoch / self.sim_rate

    def reset(self) -> None:
        """Forget any fractional debt (e.g. after a manual tick)."""
        self._carry = 0.0
