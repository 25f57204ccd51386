"""Pure, array-ready transfer functions shared by both node engines.

Every per-epoch formula of the node model — the V(f) curve, per-core
activity and power, uncore/DRAM traffic power, the RAPL EWMA and
throttle-step laws, bandwidth demand and max-min fair allocation — lives
here exactly once. The object engine (:mod:`repro.hardware.power`,
:mod:`repro.hardware.rapl`, :mod:`repro.runtime.engine`) calls these with
Python floats; the vectorized engine (:mod:`repro.vector`) calls the same
functions with numpy arrays. Because both paths execute the *same*
expressions in the *same* order, the formulas cannot drift apart — which
is what makes the vector engine's bit-parity guarantee possible at all
(see ``docs/VECTOR.md``).

Parity rules observed throughout:

* Expressions are plain ``+ - * /`` chains whose evaluation order is
  fixed by Python's left-associativity; IEEE-754 makes them bit-identical
  whether the operands are floats or float64 arrays.
* ``math.exp`` and ``numpy.exp`` are *different* libm entry points and
  differ in the last ulp. The RAPL EWMA historically used ``math.exp``;
  :func:`ewma_alpha` keeps that, and the array variant
  (:func:`ewma_alpha_array`) applies ``math.exp`` per element rather
  than ``numpy.exp`` so the vector engine reproduces the firmware
  trajectory bit-for-bit.
* Reductions over cores are sequential left folds in core order (the
  object engine's is :meth:`repro.hardware.power.PowerModel.fold`, the
  bandwidth check in :func:`repro.hardware.memory.allocate_bandwidth`
  folds demands the same way); ``numpy.sum`` pairwise summation would
  reassociate and drift.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "voltage_curve",
    "busy_activity",
    "core_power",
    "uncore_power",
    "dram_power",
    "effective_clock",
    "standalone_time",
    "bandwidth_demand",
    "progress_rate",
    "compute_fraction",
    "fair_share_fill",
    "ewma_alpha",
    "ewma_alpha_array",
    "ewma_update",
    "THROTTLE_GAIN",
    "throttle_steps",
    "throttle_steps_array",
    "uncore_dvfs_scale",
    "uncore_dvfs_scale_array",
    "average_power",
]


# ----------------------------------------------------------------------
# Voltage / frequency
# ----------------------------------------------------------------------

def voltage_curve(freq, v_min, v_knee_freq, f_nominal, v_nominal,
                  v_slope_linear):
    """V(f) above the knee: quadratic in ``f - v_knee_freq`` with the
    curvature pinned so V(f_nominal) == v_nominal.

    The caller applies the ``v_min`` floor below the knee (a branch for
    scalars, ``numpy.where`` for arrays); this function is the shared
    polynomial both paths evaluate.
    """
    span = f_nominal - v_knee_freq
    a2 = (v_nominal - v_min - v_slope_linear * span) / span**2
    x = freq - v_knee_freq
    return v_min + v_slope_linear * x + a2 * x * x


def effective_clock(freq, duty):
    """Clock rate visible to software: ``freq * duty`` (Hz)."""
    return freq * duty


# ----------------------------------------------------------------------
# Per-core power
# ----------------------------------------------------------------------

def busy_activity(compute_frac, stall_activity):
    """Dynamic-activity factor of a BUSY core: full while retiring,
    ``stall_activity`` while stalled on memory."""
    return compute_frac + (1.0 - compute_frac) * stall_activity


def core_power(volt, freq, duty, activity, c_dyn, leak_per_volt):
    """Static + dynamic power of one core (watts)."""
    return leak_per_volt * volt + c_dyn * volt * volt * freq * duty * activity


def uncore_power(traffic, uncore_base, uncore_per_bw):
    """Traffic-dependent uncore power (watts)."""
    return uncore_base + uncore_per_bw * traffic


def dram_power(traffic, dram_base, dram_per_bw):
    """Traffic-dependent DRAM-domain power (watts)."""
    return dram_base + dram_per_bw * traffic


# ----------------------------------------------------------------------
# Progress rates and memory contention
# ----------------------------------------------------------------------

def standalone_time(cycles, nbytes, clock, link):
    """Uncontended wall time of a work item: compute plus transfer."""
    return cycles / clock + nbytes / link


def bandwidth_demand(nbytes, standalone):
    """Bandwidth an item would consume if memory were uncontended."""
    return nbytes / standalone


def progress_rate(granted, nbytes):
    """Fraction of the work item completed per second at ``granted``."""
    return granted / nbytes


def compute_fraction(cycles, rate, clock):
    """Fraction of wall time spent retiring instructions (<= 1)."""
    return cycles * rate / clock


def fair_share_fill(remaining, n_left):
    """Per-round fair share of progressive filling."""
    return remaining / n_left


# ----------------------------------------------------------------------
# RAPL firmware laws
# ----------------------------------------------------------------------

def average_power(energy, last_energy, dt):
    """Average package power over an interval from the energy counter."""
    return (energy - last_energy) / dt


def ewma_alpha(dt, window):
    """EWMA gain of the PL1 window filter (scalar; uses ``math.exp``)."""
    return 1.0 - math.exp(-dt / max(window, dt))


def ewma_alpha_array(dt, window):
    """Element-wise :func:`ewma_alpha` for arrays.

    Applies ``math.exp`` per element instead of ``numpy.exp``, which
    differs from ``math.exp`` in the last ulp and would make the vector
    firmware drift from the object one.
    """
    dt = np.asarray(dt, dtype=float)
    window = np.asarray(window, dtype=float)
    arg = -dt / np.maximum(window, dt)
    exps = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
    return 1.0 - exps.reshape(arg.shape)


def ewma_update(prev, avg, alpha):
    """One EWMA step: ``prev + alpha * (avg - prev)``."""
    return prev + alpha * (avg - prev)


#: Proportional gain of the RAPL step-down law (ladder steps per unit
#: fractional over-budget error).
THROTTLE_GAIN = 20


def throttle_steps(avg, cap, max_steps):
    """Ladder steps to drop when ``avg`` exceeds ``cap`` (scalar)."""
    error = (avg - cap) / cap
    return max(1, min(max_steps, int(error * THROTTLE_GAIN)))


def throttle_steps_array(avg, cap, max_steps):
    """Element-wise :func:`throttle_steps` (int array)."""
    error = (avg - cap) / cap
    steps = np.trunc(error * THROTTLE_GAIN)
    return np.maximum(1, np.minimum(max_steps, steps)).astype(np.int64)


def uncore_dvfs_scale(freq, f_nominal, min_scale):
    """Uncore clock scale while a cap is enforced (scalar)."""
    return min(1.0, max(min_scale, freq / f_nominal))


def uncore_dvfs_scale_array(freq, f_nominal, min_scale):
    """Element-wise :func:`uncore_dvfs_scale`."""
    return np.minimum(1.0, np.maximum(min_scale, freq / f_nominal))
