"""Verbatim seed (pre-PR2) implementations of the hot kernels.

These are byte-for-byte copies of ``repro.queueing.mva.solve_mva``,
``repro.core.optimizer.solve_degradation`` and
``repro.sim.server.ServerSimulator.synthesize_counters`` (with its
``_noisy`` helper) as they stood in the seed, before the array-native
refactor and the one-draw counter synthesis.  The counter synthesis is
a function of the simulator here (``seed_synthesize_counters(sim,
...)``, ``self`` renamed ``sim``).  They exist for two reasons:

* the golden-parity suite (:mod:`tests.test_golden_parity`) and the
  counter-synthesis gate (:mod:`tests.sim.test_counter_synthesis`)
  assert the refactored code reproduces these *exactly* (the refactor
  is an implementation change, not a numerical one);
* ``benchmarks/test_micro_solvers.py`` times the solvers as the
  "before" side of its solver micro-benchmarks.

Do not "improve" this module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import FastCapInputs
from repro.core.optimizer import DegradationSolution
from repro.errors import ConvergenceError
from repro.queueing.mva import MVASolution
from repro.queueing.network import QueueingNetwork
from repro.sim.counters import ControllerCounters, CoreCounters, EpochCounters

_RHO_CAP = 0.995
_BG_RHO_CAP = 0.95

_D_TOL = 1e-10
_MAX_BISECTIONS = 200


def seed_solve_mva(
    network: QueueingNetwork,
    max_iterations: int = 2000,
    tolerance: float = 1e-10,
    damping: float = 0.5,
    initial_throughput=None,
) -> MVASolution:
    """The seed AMVA fixed point (pre-refactor ``solve_mva``)."""
    n = network.n_classes
    n_banks = network.total_banks

    routing = network.routing_matrix()  # (n, B)
    bank_service = network.bank_service_vector()  # (B,)
    bus_transfer = network.bus_transfer_vector()  # (K,)
    bank_ctrl = network.bank_controller_map()  # (B,)
    bg_rates = network.background_rate_vector()  # (B,)
    population = np.array([c.population for c in network.classes], dtype=float)
    think = np.array(
        [c.think_time_s + c.cache_time_s for c in network.classes], dtype=float
    )
    n_controllers = len(network.controllers)
    total_pop = float(population.sum())

    visit = np.zeros((n, n_controllers))
    for k in range(n_controllers):
        visit[:, k] = routing[:, bank_ctrl == k].sum(axis=1)

    if initial_throughput is not None:
        x = np.asarray(initial_throughput, dtype=float).copy()
    else:
        x = population / (think + bank_service.mean() + bus_transfer.mean())

    r_bank = np.tile(bank_service, (n, 1))
    q_per_class_bank = x[:, None] * routing * r_bank

    last_rel_change = np.inf
    current_damping = damping
    for iteration in range(1, max_iterations + 1):
        if iteration % 300 == 0:
            current_damping *= 0.5
        fg_bank_rates = x @ routing  # (B,)
        bank_rates = fg_bank_rates + bg_rates
        ctrl_rates = np.bincount(
            bank_ctrl, weights=bank_rates, minlength=n_controllers
        )

        rho_bus = np.minimum(ctrl_rates * bus_transfer, _RHO_CAP)
        bus_wait = bus_transfer * rho_bus / (2.0 * (1.0 - rho_bus))
        bus_wait = np.minimum(bus_wait, max(total_pop - 1.0, 0.0) * bus_transfer)

        s_eff = bank_service + bus_wait[bank_ctrl] + bus_transfer[bank_ctrl]

        rho_bg = np.minimum(bg_rates * s_eff, _BG_RHO_CAP)
        s_fg = s_eff / (1.0 - rho_bg)

        bank_queue_total = q_per_class_bank.sum(axis=0)  # (B,)
        self_seen = q_per_class_bank / population[:, None]
        queue_seen = np.maximum(bank_queue_total[None, :] - self_seen, 0.0)
        r_bank_new = s_fg[None, :] * (1.0 + queue_seen)

        r_mem = (routing * r_bank_new).sum(axis=1)
        turnaround = think + r_mem
        x_new = population / turnaround

        x_next = current_damping * x_new + (1.0 - current_damping) * x
        q_new = x_next[:, None] * routing * r_bank_new
        q_next = current_damping * q_new + (1.0 - current_damping) * q_per_class_bank

        denom = np.maximum(np.abs(x), 1e-300)
        last_rel_change = float(np.max(np.abs(x_next - x) / denom))
        x = x_next
        q_per_class_bank = q_next
        r_bank = r_bank_new

        if last_rel_change < tolerance:
            break
    else:
        raise ConvergenceError(
            f"AMVA did not converge in {max_iterations} iterations "
            f"(last relative change {last_rel_change:.3e})"
        )

    fg_bank_rates = x @ routing
    bank_rates = fg_bank_rates + bg_rates
    ctrl_rates = np.bincount(bank_ctrl, weights=bank_rates, minlength=n_controllers)
    rho_bus = np.minimum(ctrl_rates * bus_transfer, _RHO_CAP)
    bus_wait = bus_transfer * rho_bus / (2.0 * (1.0 - rho_bus))
    bus_wait = np.minimum(bus_wait, max(total_pop - 1.0, 0.0) * bus_transfer)
    s_eff = bank_service + bus_wait[bank_ctrl] + bus_transfer[bank_ctrl]
    rho_bg = np.minimum(bg_rates * s_eff, _BG_RHO_CAP)
    bank_util = np.minimum(bank_rates * s_eff, 1.0)
    bank_queue = q_per_class_bank.sum(axis=0)

    r_mem = (routing * r_bank).sum(axis=1)
    turnaround = think + r_mem

    ctrl_resp = np.zeros((n, n_controllers))
    for k in range(n_controllers):
        mask = bank_ctrl == k
        weights = routing[:, mask]
        denom = np.maximum(weights.sum(axis=1), 1e-300)
        ctrl_resp[:, k] = (weights * r_bank[:, mask]).sum(axis=1) / denom

    return MVASolution(
        throughput_per_s=x,
        memory_response_s=r_mem,
        turnaround_s=turnaround,
        bank_utilization=bank_util,
        bank_queue=bank_queue,
        bus_utilization=rho_bus,
        bus_wait_s=bus_wait,
        controller_arrival_per_s=ctrl_rates,
        controller_response_s=ctrl_resp,
        controller_visit_probs=visit,
        iterations=iteration,
    )


def _z_of_d(inputs: FastCapInputs, d: float, r, t_bar):
    raw = t_bar / d - inputs.cache - r
    return np.clip(raw, inputs.z_min, inputs.z_max)


def _achieved_d(inputs: FastCapInputs, z, r, t_bar) -> float:
    return float(np.min(t_bar / (z + inputs.cache + r)))


def seed_solve_degradation(inputs: FastCapInputs, s_b: float) -> DegradationSolution:
    """The seed Theorem-1 bisection (pre-refactor ``solve_degradation``)."""
    r = inputs.response.per_core(s_b)
    t_bar = inputs.best_turnaround_s()
    mem_power = inputs.memory_dynamic_power_w(s_b)
    available = inputs.budget_w - inputs.static_power_w - mem_power

    def cpu_power(d: float) -> float:
        return inputs.core_dynamic_power_w(_z_of_d(inputs, d, r, t_bar))

    def finish(d_instrument: float, feasible: bool) -> DegradationSolution:
        z = _z_of_d(inputs, d_instrument, r, t_bar)
        return DegradationSolution(
            d=_achieved_d(inputs, z, r, t_bar),
            z=z,
            power_w=cpu_power(d_instrument) + mem_power + inputs.static_power_w,
            feasible=feasible,
        )

    t_floor = inputs.z_max + inputs.cache + r
    d_floor = float(np.min(t_bar / t_floor))
    d_floor = min(max(d_floor, 1e-9), 1.0)

    if cpu_power(d_floor) > available:
        return finish(d_floor, feasible=False)

    if cpu_power(1.0) <= available:
        return finish(1.0, feasible=True)

    lo, hi = d_floor, 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if cpu_power(mid) > available:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _D_TOL * hi:
            break
    return finish(lo, feasible=True)


def _noisy(sim, value: float, sigma: float) -> float:
    if sigma <= 0:
        return value
    return float(value * (1.0 + sim._rng.normal(0.0, sigma)))


def seed_synthesize_counters(sim, epoch_index: int, op, settings) -> EpochCounters:
    """Build the noisy profiling-window sample a real OS would read."""
    cfg = sim.config
    window = cfg.epoch.profiling_s
    c_sig = cfg.noise.counter_rel_sigma
    p_sig = cfg.noise.power_rel_sigma
    sol = op.solution
    s_b = cfg.bus_transfer_s(settings.bus_frequency_hz)
    topo = cfg.memory
    banks_per = topo.banks_per_controller

    cores = []
    for i in range(cfg.n_cores):
        ips = float(op.per_core_ips[i])
        miss_rate = float(sol.throughput_per_s[i])
        think = float(
            op.inst_per_blocking_miss[i]
            * sim._apps[i].cpi_exe_at(0.0)  # busy time uses exec CPI
        )
        cores.append(
            CoreCounters(
                instructions=max(_noisy(sim, ips * window, c_sig), 1.0),
                llc_misses=max(_noisy(sim, miss_rate * window, c_sig), 1e-6),
                busy_time_s=max(
                    _noisy(
                        sim, float(op.per_core_activity[i]) * window, c_sig
                    ),
                    1e-12,
                ),
                window_s=window,
                cache_time_s=max(
                    _noisy(sim, cfg.cache.l2_hit_time_s, c_sig), 1e-12
                ),
                frequency_hz=float(settings.core_frequencies_hz[i]),
                power_w=max(
                    _noisy(sim, float(op.per_core_power_w[i]), p_sig), 1e-6
                ),
                memory_response_s=max(
                    _noisy(sim, float(sol.memory_response_s[i]), c_sig),
                    1e-12,
                ),
                controller_visits=tuple(sim._visit_probs[i]),
            )
        )

    controllers = []
    x = sol.throughput_per_s
    for k in range(len(op.bank_service_s)):
        bank_slice = slice(k * banks_per, (k + 1) * banks_per)
        # Arrival-weighted mean response at this controller.
        visit_weights = x * sim._visit_probs[:, k]
        wsum = float(visit_weights.sum())
        if wsum > 0:
            r_mean = float(
                (visit_weights * sol.controller_response_s[:, k]).sum() / wsum
            )
        else:
            r_mean = float(op.bank_service_s[k] + s_b)
        # Paper's Q: queue incl. the arriving request, averaged over
        # banks (arrival-weighted, excluding the arrival's own mean
        # contribution via the (N-1)/N factor).
        n_eff = max(cfg.n_cores, 2)
        queue_avg = float(np.mean(sol.bank_queue[bank_slice]))
        q = 1.0 + queue_avg * (n_eff - 1) / n_eff
        s_m = float(op.bank_service_s[k])
        # Paper's U: bus backlog per departure, chosen so that
        # R = Q (s_m + U s_b) is exact at the current operating
        # point — this is what the MemScale counters measure.
        u = (r_mean / q - s_m) / s_b
        u = min(max(u, 1.0), float(cfg.n_cores))
        controllers.append(
            ControllerCounters(
                q=max(_noisy(sim, q, c_sig), 1.0),
                u=max(_noisy(sim, u, c_sig), 1.0),
                bank_service_s=max(_noisy(sim, s_m, c_sig), 1e-12),
                bus_utilization=float(
                    min(max(_noisy(sim, sol.bus_utilization[k], c_sig), 0.0), 1.0)
                ),
                arrival_rate_per_s=max(
                    _noisy(sim, float(sol.controller_arrival_per_s[k]), c_sig),
                    0.0,
                ),
            )
        )

    return EpochCounters(
        epoch_index=epoch_index,
        cores=tuple(cores),
        controllers=tuple(controllers),
        memory_power_w=max(_noisy(sim, op.memory_power_w, p_sig), 0.0),
        total_power_w=max(_noisy(sim, op.total_power_w, p_sig), 0.0),
        bus_frequency_hz=settings.bus_frequency_hz,
    )
