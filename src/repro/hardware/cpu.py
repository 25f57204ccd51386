"""Per-core execution state.

A :class:`CoreState` is a plain mutable record owned by the
:class:`~repro.hardware.node.SimulatedNode`. Control software sets its
frequency and duty; the execution engine writes its mode, compute
fraction and traffic before every segment, from per-task memos, so a
core whose task kept its work, frequency and duty gets the very same
objects back. The power model reads it, and reuses a core's power term
while those objects stay the same.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.kernels import busy_activity, effective_clock

__all__ = ["CoreMode", "CoreState"]


class CoreMode(enum.Enum):
    """What a core is doing during the current engine segment."""

    IDLE = "idle"      #: no task mapped to the core
    BUSY = "busy"      #: executing application work (compute and/or memory)
    SPIN = "spin"      #: busy-waiting (e.g. polling an MPI barrier)
    SLEEP = "sleep"    #: blocked in an OS sleep (usleep); deep C-state


@dataclass
class CoreState:
    """Mutable per-core state.

    Attributes
    ----------
    core_id:
        Physical core index.
    freq:
        Current core clock in Hz (set package-wide by DVFS/RAPL).
    duty:
        Clock-modulation duty cycle in (0, 1]; the effective clock is
        ``freq * duty``.
    mode:
        Current :class:`CoreMode`.
    compute_frac:
        In ``BUSY`` mode, the fraction of wall time the core retires
        instructions rather than stalling on memory. Meaningless (kept at
        0) in other modes.
    bytes_rate:
        Memory traffic currently generated by this core, bytes/s.
    """

    core_id: int
    freq: float
    duty: float = 1.0
    mode: CoreMode = CoreMode.IDLE
    compute_frac: float = 0.0
    bytes_rate: float = 0.0

    def effective_clock(self) -> float:
        """Clock rate visible to software: ``freq * duty`` (Hz)."""
        return effective_clock(self.freq, self.duty)

    def activity(self, cfg) -> float:
        """Dynamic-power activity factor for the current mode.

        ``cfg`` is a :class:`~repro.hardware.config.NodeConfig`. A busy
        core burns full activity while computing and ``cfg.stall_activity``
        while stalled; spinning burns ``cfg.spin_activity``; idle and
        sleeping cores burn ``cfg.sleep_activity`` (clock-gated but not
        power-gated).
        """
        if self.mode is CoreMode.BUSY:
            return busy_activity(self.compute_frac, cfg.stall_activity)
        if self.mode is CoreMode.SPIN:
            return cfg.spin_activity
        return cfg.sleep_activity
