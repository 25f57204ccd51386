"""The daemon package's only wall-clock access — audited.

The determinism contract (see the :mod:`repro.daemon` package
docstring) is that wall time decides *when* ticks happen, never what
they compute. To keep that auditable, every host-clock read the daemon
performs funnels through this module, which is registered in
``repro.lint``'s ``AUDITED_CLOCK_MODULES`` — the det-wallclock rule
flags ``time.monotonic``/``time.sleep`` anywhere else under
``repro/``. Anything that imports from here is, by construction, on
the nondeterministic side of the seam and must not feed values into
simulation state.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_s"]


def monotonic_s() -> float:
    """Monotonic host clock in seconds (pacing and timeouts only)."""
    return time.monotonic()
