"""Core power: the simulator's ground truth for per-core draw.

Dynamic power follows the classic CMOS form ``C_eff · V² · f`` scaled
by an activity factor (the fraction of time the core actually executes
instructions rather than stalling on memory).  Static power is leakage,
which grows with voltage.

Fitting ``P(f) = P_i (f/f_max)^α`` to this ground truth over the
2.2-4.0 GHz / 0.65-1.2 V ladder yields α between roughly 2 and 3 —
matching what the paper reports for its online-fitted core model — and
that fit is exactly what :mod:`repro.core.power_fit` performs at
runtime from observations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ModelError
from repro.sim.config import PowerCalibration
from repro.sim.dvfs import DVFSLadder


def core_dynamic_power_w(
    ladder: DVFSLadder,
    calibration: PowerCalibration,
    frequency_hz: float,
    activity: float,
    intensity: float = 1.0,
) -> float:
    """Dynamic power of one core.

    Parameters
    ----------
    frequency_hz:
        Core clock; the matching voltage is interpolated on the ladder.
    activity:
        Fraction of wall-clock time the core is executing (its think
        time share of the turn-around time).  Stalled cores clock-gate.
    intensity:
        Per-application switching-intensity factor (ILP-heavy code
        toggles more capacitance per cycle than pointer chasing); 1.0
        is the calibration reference.
    """
    if not 0.0 <= activity <= 1.0:
        raise ModelError(f"activity must lie in [0, 1], got {activity}")
    if intensity <= 0:
        raise ModelError("intensity must be positive")
    frequency_hz = ladder.clamp(frequency_hz)
    voltage = ladder.voltage_at(frequency_hz)
    f_ratio = frequency_hz / ladder.f_max_hz
    v_ratio_sq = (voltage / ladder.v_max) ** 2
    # A stalled core keeps its clock tree, front end and window logic
    # toggling while it waits on memory — in-order cores of this era do
    # not aggressively clock-gate on misses, so the stall floor is a
    # large fraction of active power.  This matches the paper's regime
    # where memory-bound workloads still draw a large share of peak
    # (Fig. 5's MEM3 sits near 0.7 of peak uncapped), which is what
    # makes core DVFS worth applying to stalled cores (Fig. 7's swim).
    effective_activity = 0.55 + 0.45 * activity
    return (
        calibration.core_max_dynamic_w
        * intensity
        * v_ratio_sq
        * f_ratio
        * effective_activity
    )


def core_static_power_w(
    ladder: DVFSLadder,
    calibration: PowerCalibration,
    frequency_hz: float,
) -> float:
    """Leakage power of one core at the voltage matching ``frequency_hz``."""
    frequency_hz = ladder.clamp(frequency_hz)
    voltage = ladder.voltage_at(frequency_hz)
    exponent = calibration.leakage_voltage_exponent
    return calibration.core_static_w * (voltage / ladder.v_max) ** exponent


def core_power_w(
    ladder: DVFSLadder,
    calibration: PowerCalibration,
    frequency_hz: float,
    activity: float,
    intensity: float = 1.0,
) -> float:
    """Total (dynamic + static) power of one core."""
    return core_dynamic_power_w(
        ladder, calibration, frequency_hz, activity, intensity
    ) + core_static_power_w(ladder, calibration, frequency_hz)


def _voltages_at(ladder: DVFSLadder, frequencies_hz: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`DVFSLadder.voltage_at`.

    Element-for-element the same arithmetic (same interpolation
    expression, same clamping) as the scalar method, so the result is
    bit-identical to looping over ``voltage_at``.
    """
    freqs = np.asarray(ladder.frequencies_hz)
    volts = np.asarray(ladder.voltages_v)
    f = np.asarray(frequencies_hz, dtype=float)
    hi = np.searchsorted(freqs, f, side="right")
    hi = np.clip(hi, 1, len(freqs) - 1)
    lo = hi - 1
    span = freqs[hi] - freqs[lo]
    frac = (f - freqs[lo]) / span
    interp = volts[lo] + frac * (volts[hi] - volts[lo])
    return np.where(
        f <= freqs[0], volts[0], np.where(f >= freqs[-1], volts[-1], interp)
    )


def core_frequency_terms(
    ladder: DVFSLadder,
    calibration: PowerCalibration,
    frequencies_hz: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frequency-only half of :func:`core_power_w_batch`.

    Returns ``(v_ratio_sq, f_ratio, static)`` per core: the ladder
    clamp, the voltage interpolation, the V² and f ratios and the
    leakage.  None of it depends on activity, so a caller that charges
    several operating points at one frequency vector computes it once
    and hands it to :func:`core_power_from_terms` each time.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    clamped = np.minimum(
        np.maximum(frequencies_hz, ladder.f_min_hz), ladder.f_max_hz
    )
    v_rel = _voltages_at(ladder, clamped) / ladder.v_max
    static = calibration.core_static_w * v_rel ** calibration.leakage_voltage_exponent
    return v_rel**2, clamped / ladder.f_max_hz, static


def core_power_from_terms(
    calibration: PowerCalibration,
    terms: Tuple[np.ndarray, np.ndarray, np.ndarray],
    activities: np.ndarray,
    intensities: np.ndarray,
) -> np.ndarray:
    """The activity half of :func:`core_power_w_batch`.

    ``terms`` is :func:`core_frequency_terms`' result; this applies the
    activity and intensity factors in :func:`core_power_w`'s order.
    """
    activities = np.asarray(activities, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    if np.any(activities < 0.0) or np.any(activities > 1.0):
        raise ModelError("activity must lie in [0, 1]")
    if np.any(intensities <= 0):
        raise ModelError("intensity must be positive")
    v_ratio_sq, f_ratio, static = terms
    effective_activity = 0.55 + 0.45 * activities
    dynamic = (
        calibration.core_max_dynamic_w
        * intensities
        * v_ratio_sq
        * f_ratio
        * effective_activity
    )
    return dynamic + static


def core_power_w_batch(
    ladder: DVFSLadder,
    calibration: PowerCalibration,
    frequencies_hz: np.ndarray,
    activities: np.ndarray,
    intensities: np.ndarray,
) -> np.ndarray:
    """Per-core total power for every core at once.

    The vectorised equivalent of calling :func:`core_power_w` per core
    (bit-identical results), composed of its frequency half
    (:func:`core_frequency_terms`) and its activity half
    (:func:`core_power_from_terms`).
    """
    return core_power_from_terms(
        calibration,
        core_frequency_terms(ladder, calibration, frequencies_hz),
        activities,
        intensities,
    )


def fitted_alpha(ladder: DVFSLadder) -> float:
    """Least-squares exponent of P_dyn(f) ∝ (f/f_max)^α over the ladder.

    Useful in tests to confirm the ground-truth model lands in the
    paper's α ∈ [2, 3] band (voltage scaling roughly proportional to
    frequency gives α ≈ 3 at the top of the range, less at the bottom).
    """
    import math

    ratios = [f / ladder.f_max_hz for f in ladder.frequencies_hz]
    powers = [
        (ladder.voltage_at(f) / ladder.v_max) ** 2 * (f / ladder.f_max_hz)
        for f in ladder.frequencies_hz
    ]
    logs_x = [math.log(r) for r in ratios[:-1]]  # skip log(1) = 0 pairing
    logs_y = [math.log(p) for p in powers[:-1]]
    n = len(logs_x)
    mean_x = sum(logs_x) / n
    mean_y = sum(logs_y) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(logs_x, logs_y))
    den = sum((x - mean_x) ** 2 for x in logs_x)
    return num / den
