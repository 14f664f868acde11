"""DRAM and memory-controller power from Table II currents.

This is the ground-truth memory power model of the simulator,
structured after the Micron DDR3 power methodology but driven by the
aggregate per-rank currents the paper lists:

* **background** power — standby/powerdown currents weighted by how
  busy the banks are (``IDD2P/IDD2N/IDD3N``-style terms),
* **refresh** power — refresh current times refresh duty cycle,
* **activate/precharge** energy per row activation (misses only),
* **read/write burst** energy per access,
* **bus/IO + termination** power, linear in bus frequency and
  utilisation (frequency-only scaling, hence the paper's β ≈ 1), and
* **memory-controller** power — an on-chip CMOS block sharing the
  cores' voltage range, clocked at twice the bus frequency, so its
  dynamic power scales like C·V²·f.

The governor never sees these formulas: it refits the paper's
``P_m (s̄_b/s_b)^β + P_static`` abstraction from observations, exactly
as the real system would.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.sim.config import (
    DDR3Currents,
    DDR3Timing,
    MemoryTopology,
    PowerCalibration,
)
from repro.sim.dvfs import DVFSLadder


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ModelError(f"{name} must lie in [0, 1], got {value}")


def background_power_w(
    topology: MemoryTopology,
    currents: DDR3Currents,
    bank_utilization: float,
    powerdown_fraction: float = 0.5,
) -> float:
    """Standby/powerdown background power for one controller's ranks.

    Busy banks draw active-standby current; idle time is split between
    precharge standby and precharge powerdown according to
    ``powerdown_fraction`` (a fast-exit powerdown policy keeps roughly
    half the idle time in powerdown).
    """
    _check_unit_interval(bank_utilization, "bank_utilization")
    _check_unit_interval(powerdown_fraction, "powerdown_fraction")
    ranks = topology.channels_per_controller * topology.ranks_per_channel
    devices = ranks * topology.chips_per_rank
    idle = 1.0 - bank_utilization
    per_device_a = (
        bank_utilization * currents.active_standby_a
        + idle * powerdown_fraction * currents.precharge_powerdown_a
        + idle * (1.0 - powerdown_fraction) * currents.precharge_standby_a
    )
    return currents.vdd * per_device_a * devices


def refresh_power_w(
    topology: MemoryTopology,
    currents: DDR3Currents,
    timing: DDR3Timing,
) -> float:
    """Refresh power for one controller's ranks."""
    ranks = topology.channels_per_controller * topology.ranks_per_channel
    devices = ranks * topology.chips_per_rank
    return currents.vdd * currents.refresh_a * timing.refresh_duty * devices


def access_power_w(
    calibration: PowerCalibration,
    access_rate_per_s: float,
    row_hit_rate: float,
) -> float:
    """Activate/precharge plus burst power for one controller.

    Row misses pay the activate energy; every access pays the burst
    energy.  Both are per-64-byte-line energies from the calibration.
    """
    if access_rate_per_s < 0:
        raise ModelError("access rate must be non-negative")
    _check_unit_interval(row_hit_rate, "row_hit_rate")
    activate = (1.0 - row_hit_rate) * access_rate_per_s * calibration.activate_energy_j
    burst = access_rate_per_s * calibration.burst_energy_j
    return activate + burst


#: The calibration's mc/bus-IO constants describe a reference
#: four-channel controller; narrower or wider controllers scale
#: proportionally (same silicon split differently across controllers).
_REFERENCE_CHANNELS = 4


def bus_io_power_w(
    calibration: PowerCalibration,
    mem_ladder: DVFSLadder,
    bus_frequency_hz: float,
    bus_utilization: float,
    channels: int = _REFERENCE_CHANNELS,
) -> float:
    """IO/termination power: linear in frequency ratio and utilisation.

    A floor of 20% of the frequency-scaled term models clock/ODT
    overhead present even with an idle bus.  ``channels`` scales the
    reference four-channel constant to the controller's actual width.
    """
    _check_unit_interval(bus_utilization, "bus_utilization")
    ratio = bus_frequency_hz / mem_ladder.f_max_hz
    scale = 0.2 + 0.8 * bus_utilization
    width = channels / _REFERENCE_CHANNELS
    return calibration.bus_io_max_w * width * ratio * scale


def controller_power_w(
    bus_frequency_hz: float,
    mem_ladder: DVFSLadder,
    calibration: PowerCalibration,
    bus_utilization: float,
    core_voltage_range: tuple = (0.65, 1.2),
    channels: int = _REFERENCE_CHANNELS,
) -> float:
    """On-chip memory-controller power for one controller.

    The MC is clocked at 2× the bus and voltage-scales across the same
    range as the cores (Section IV-A), so its dynamic power follows
    C·V²·f plus a small utilisation-dependent component, plus static.
    ``channels`` scales the reference four-channel block: splitting
    the same channels across more controllers must not grow the total
    silicon (the multi-controller study of Section IV-B).
    """
    _check_unit_interval(bus_utilization, "bus_utilization")
    ratio = bus_frequency_hz / mem_ladder.f_max_hz
    v_min, v_max = core_voltage_range
    voltage = v_min + (v_max - v_min) * ratio
    v_ratio_sq = (voltage / v_max) ** 2
    activity = 0.6 + 0.4 * bus_utilization
    width = channels / _REFERENCE_CHANNELS
    dynamic = calibration.mc_max_dynamic_w * width * v_ratio_sq * ratio * activity
    return dynamic + calibration.mc_static_w * width


def dram_power_w(
    topology: MemoryTopology,
    currents: DDR3Currents,
    timing: DDR3Timing,
    calibration: PowerCalibration,
    access_rate_per_s: float,
    row_hit_rate: float,
    bank_utilization: float,
    bus_utilization: float,
    bus_frequency_hz: float,
) -> float:
    """DRAM-side power for one controller: background + refresh +
    activate/burst.  Bus IO and the MC need the memory ladder, so
    :func:`memory_subsystem_power_w` adds them."""
    if bus_frequency_hz <= 0:
        raise ModelError("bus frequency must be positive")
    bg = background_power_w(topology, currents, bank_utilization)
    refr = refresh_power_w(topology, currents, timing)
    acc = access_power_w(calibration, access_rate_per_s, row_hit_rate)
    return bg + refr + acc


def memory_subsystem_power_w(
    topology: MemoryTopology,
    currents: DDR3Currents,
    timing: DDR3Timing,
    calibration: PowerCalibration,
    mem_ladder: DVFSLadder,
    bus_frequency_hz: float,
    access_rate_per_s: float,
    row_hit_rate: float,
    bank_utilization: float,
    bus_utilization: float,
) -> float:
    """Complete memory power for one controller: DRAM + IO + MC."""
    dram = dram_power_w(
        topology=topology,
        currents=currents,
        timing=timing,
        calibration=calibration,
        access_rate_per_s=access_rate_per_s,
        row_hit_rate=row_hit_rate,
        bank_utilization=bank_utilization,
        bus_utilization=bus_utilization,
        bus_frequency_hz=bus_frequency_hz,
    )
    channels = topology.channels_per_controller
    io = bus_io_power_w(
        calibration, mem_ladder, bus_frequency_hz, bus_utilization, channels
    )
    mc = controller_power_w(
        bus_frequency_hz,
        mem_ladder,
        calibration,
        bus_utilization,
        channels=channels,
    )
    return dram + io + mc

