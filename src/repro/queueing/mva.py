"""Approximate Mean Value Analysis for the transfer-blocking network.

The solver runs a damped fixed point over per-class throughputs:

1. bank arrival rates follow from throughputs and routing;
2. each controller's bus utilisation gives a bus waiting time (M/M/1
   form, capped by the finite population);
3. transfer blocking folds the bus wait + transfer into the bank's
   effective service time (the bank is held until its request's data
   has crossed the bus);
4. open background traffic (writebacks, OoO non-blocking misses)
   inflates the effective service foreground jobs observe;
5. a Bard–Schweitzer step updates per-class bank response times from
   mean queue lengths (arrival theorem with self-exclusion);
6. class cycle times close the loop: X_i = n_i / (z_i + c_i + R_i).

No closed form exists for blocking networks (Section III-A cites the
same difficulty), so this approximation is validated against the
discrete-event simulator in the test suite.

Implementation: the fixed point runs on :class:`NetworkArrays` — the
compiled array form of the network — through :class:`MVASolver`, which
owns preallocated scratch buffers so one iteration performs no Python
object construction and no array allocation.  The op-for-op float
sequence is identical to the original spec-walking implementation
(enforced by the golden-parity suite), so results are bit-identical;
only the bookkeeping around the math changed.  An iteration is one
numpy gemv (``x @ routing``, whose BLAS accumulation order only numpy
can reproduce) followed by ~35 elementwise ops and reductions; when
the C library of :mod:`repro.queueing.kernels.cext` loads, those run
as one call of its exact step, which follows numpy's op order and
reduction orders to the bit, and otherwise as the numpy loop, which
is also the step's test reference.  :func:`solve_mva` keeps the
historical signature and accepts either a
:class:`~repro.queueing.network.QueueingNetwork` or a prebuilt
:class:`NetworkArrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.kernels import cext
from repro.queueing.network import QueueingNetwork

#: Utilisation ceiling that keeps 1/(1-rho) finite while still letting
#: saturated stations dominate response times.
_RHO_CAP = 0.995
_BG_RHO_CAP = 0.95


@dataclass(frozen=True)
class MVASolution:
    """Steady-state estimates for one network operating point.

    All arrays are indexed like the network's classes/banks/controllers.
    """

    #: Per-class throughput of blocking requests (requests/second).
    throughput_per_s: np.ndarray
    #: Per-class mean memory response time R_i (bank queue + service +
    #: bus wait + transfer), in seconds.
    memory_response_s: np.ndarray
    #: Per-class turn-around time z_i + c_i + R_i, in seconds.
    turnaround_s: np.ndarray
    #: Per-bank utilisation (fraction of time busy or blocked).
    bank_utilization: np.ndarray
    #: Per-bank mean foreground queue length (jobs at the bank).
    bank_queue: np.ndarray
    #: Per-controller bus utilisation.
    bus_utilization: np.ndarray
    #: Per-controller mean bus waiting time, seconds.
    bus_wait_s: np.ndarray
    #: Per-controller arrival rate (foreground + background), req/s.
    controller_arrival_per_s: np.ndarray
    #: Per-(class, controller) mean response time at that controller.
    controller_response_s: np.ndarray
    #: Per-(class, controller) visit probability.
    controller_visit_probs: np.ndarray
    #: Fixed-point iterations used.
    iterations: int

    @property
    def total_throughput_per_s(self) -> float:
        return float(self.throughput_per_s.sum())


class MVASolver:
    """Reusable AMVA fixed-point kernel bound to one :class:`NetworkArrays`.

    Construct once per network structure, call :meth:`solve` after every
    in-place :meth:`NetworkArrays.update`.  All scratch is preallocated
    in ``__init__``; a solve allocates only the output arrays of its
    :class:`MVASolution`.
    """

    def __init__(self, arrays: NetworkArrays) -> None:
        self.arrays = arrays
        n = arrays.n_classes
        n_banks = arrays.total_banks
        n_ctrl = arrays.n_controllers

        # Static per-controller response aggregation structure: the
        # routing slices (and their row sums) never change.  The fancy
        # column extraction is kept in its native (Fortran-ordered)
        # layout on purpose: the layout steers numpy's reduction order,
        # and the row sums must reduce exactly like the original
        # boolean-mask extraction did.
        self._ctrl_weights = [
            arrays.routing[:, idx] for idx in arrays.controller_bank_index
        ]
        self._ctrl_denom = [
            np.maximum(w.sum(axis=1), 1e-300) for w in self._ctrl_weights
        ]

        # Scratch buffers.  The 2-D (n, 1) views let broadcast products
        # run without per-iteration view construction.
        self._x2 = np.empty((n, 1))
        self._x2_flat = self._x2.reshape(n)
        self._x = np.empty(n)
        self._pop_col = arrays.population[:, None]
        self._fg = np.empty(n_banks)
        self._rates = np.empty(n_banks)
        self._wait_bank = np.empty(n_banks)
        self._s_eff = np.empty(n_banks)
        self._rho_bg = np.empty(n_banks)
        self._s_fg = np.empty(n_banks)
        self._bank_q = np.empty(n_banks)
        self._bt_bank = np.empty(n_banks)
        self._q = np.empty((n, n_banks))
        self._q_new = np.empty((n, n_banks))
        self._queue_seen = np.empty((n, n_banks))
        self._self_seen = np.empty((n, n_banks))
        self._r_bank = np.empty((n, n_banks))
        self._r_bank_alt = np.empty((n, n_banks))
        self._r_prod = np.empty((n, n_banks))
        self._r_mem = np.empty(n)
        self._turnaround = np.empty(n)
        self._x_new = np.empty(n)
        self._dx = np.empty(n)
        self._denom = np.empty(n)
        self._rho = np.empty(n_ctrl)
        self._bus_wait = np.empty(n_ctrl)
        self._tmp_k = np.empty(n_ctrl)
        # Structure that `update` cannot change (populations and the
        # controller count are fixed at construction).
        self._unit_pop = bool(np.all(arrays.population == 1.0))
        self._scalar_bus = n_ctrl == 1
        # The compiled exact step, bound once to the buffers above (all
        # written in place only); None runs the numpy loop instead.
        self._r_banks = (self._r_bank, self._r_bank_alt)
        self._step = cext.bind_exact_step(
            arrays,
            fg=self._fg,
            x=self._x,
            q=self._q,
            rates=self._rates,
            bus_wait=self._bus_wait,
            s_fg=self._s_fg,
            bank_q=self._bank_q,
            r_prod=self._r_prod,
            r_bank=self._r_banks,
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        max_iterations: int = 2000,
        tolerance: float = 1e-10,
        damping: float = 0.5,
        initial_throughput: Optional[np.ndarray] = None,
    ) -> MVASolution:
        """Run the damped fixed point to steady state.

        Raises :class:`ConvergenceError` if it does not reach
        ``tolerance`` within ``max_iterations``.
        """
        self._start(initial_throughput)
        iteration = self._fixed_point(damping, max_iterations, tolerance)
        return self._snapshot(self._x, self._q, self._r_bank, iteration)

    # ------------------------------------------------------------------
    def solve_relaxed(
        self,
        max_iterations: int = 2000,
        tolerance: float = 1e-10,
        damping: float = 0.5,
        initial_throughput: Optional[np.ndarray] = None,
    ) -> MVASolution:
        """Relaxed-tier solve through the compiled C loop-nest.

        Same fixed point as :meth:`solve` — same initialisation, same
        damping schedule, same stopping rule — but the per-iteration
        op sequence runs as one loop-nest
        (:mod:`repro.queueing.kernels.cext`) instead of ~30 pinned
        numpy ops, so reduction orders (and therefore the final bits)
        may differ within rounding noise.  Run-level agreement with the
        exact tier is gated at ≤1e-8 relative by the relaxed-parity
        fixture.

        When the C library is unavailable this is :meth:`solve` —
        bit-identical to the exact tier and exactly as fast.
        """
        if cext.load() is None:
            return self.solve(
                max_iterations=max_iterations,
                tolerance=tolerance,
                damping=damping,
                initial_throughput=initial_throughput,
            )
        self._start(initial_throughput)
        a = self.arrays
        x, q, r_bank = self._x, self._q, self._r_bank
        iterations, last_rel_change, final_damping = cext.solve_lane(
            a.routing,
            a.bank_service,
            a.bus_transfer,
            a.bank_ctrl,
            a.bg_rates,
            a.population,
            a.think_s,
            x,
            q,
            r_bank,
            1,
            max_iterations,
            tolerance,
            damping,
        )
        if not iterations:
            raise ConvergenceError(
                f"AMVA (C kernel) did not converge in {max_iterations} "
                f"iterations (last relative change {last_rel_change:.3e}, "
                f"damping decayed to {final_damping:.3g})",
                iterations=max_iterations,
                last_rel_change=last_rel_change,
                damping=final_damping,
            )
        return self._snapshot(x, q, r_bank, iterations)

    # ------------------------------------------------------------------
    def _start(self, initial_throughput: Optional[np.ndarray]) -> None:
        """Initialise the fixed point's state (``_x``, ``_q``, ``_r_bank``).

        Throughputs start from the warm start or a closed form; queue
        estimates follow from them consistently (Little's law with bare
        service times), so warm starts actually shorten convergence.
        """
        a = self.arrays
        x = self._x
        if initial_throughput is not None:
            x[...] = np.asarray(initial_throughput, dtype=float)
        else:
            x[...] = a.population / (
                a.think_s + a.bank_service.mean() + a.bus_transfer.mean()
            )
        r_bank = self._r_bank
        r_bank[...] = a.bank_service
        q = self._q
        self._x2_flat[...] = x
        np.multiply(self._x2, a.routing, out=q)
        np.multiply(q, r_bank, out=q)

    # ------------------------------------------------------------------
    def _fixed_point(
        self, damping: float, max_iterations: int, tolerance: float
    ) -> int:
        """Run the damped fixed point from the state :meth:`_start` set.

        Iterates on ``self._x`` / ``self._q`` (the complete
        cross-iteration state) from iteration 1 until convergence,
        halving ``damping`` every 300 iterations, and leaves the final
        bank responses in ``self._r_bank``; returns the converged
        (1-based) iteration index.  Every exact-tier solve runs here:
        :meth:`solve`, and through it each lane of
        :meth:`repro.queueing.fleet.FleetSolver.solve`.

        Runs :meth:`_compiled_fixed_point` when the C library loaded,
        else :meth:`_numpy_fixed_point`; the two are bit-identical.

        Raises :class:`ConvergenceError` past ``max_iterations``.
        """
        run = (
            self._numpy_fixed_point
            if self._step is None
            else self._compiled_fixed_point
        )
        return run(damping, max_iterations, tolerance)

    # ------------------------------------------------------------------
    def _compiled_fixed_point(
        self, damping: float, max_iterations: int, tolerance: float
    ) -> int:
        """:meth:`_fixed_point` as numpy's gemv plus one C call per iteration.

        ``x @ routing`` stays in numpy (its BLAS accumulation order is
        the build's); ``fastcap_mva_exact_step``
        (:mod:`repro.queueing.kernels.cext`) performs every other op of
        :meth:`_numpy_fixed_point`'s iteration in numpy's order, so the
        state after each iteration is the same to the bit — including
        which response buffer holds what.
        """
        a = self.arrays
        step, args, ref = self._step
        # The per-solve invariants the numpy loop derives.
        args.has_bg = bool(np.any(a.bg_rates > 0))
        args.pop_wait = max(float(a.population.sum()) - 1.0, 0.0)
        matmul, x, routing, fg = np.matmul, self._x, a.routing, self._fg
        r_banks = self._r_banks
        # The buffer this iteration writes: the numpy loop's r_bank_new.
        slot = 1 if self._r_bank_alt is r_banks[1] else 0

        last_rel_change = np.inf
        current_damping = damping
        retained = 1.0 - current_damping
        for iteration in range(1, max_iterations + 1):
            if iteration % 300 == 0:
                current_damping *= 0.5
                retained = 1.0 - current_damping
            matmul(x, routing, out=fg)
            last_rel_change = step(ref, slot, current_damping, retained)
            slot ^= 1
            if last_rel_change < tolerance:
                break
        else:
            raise _not_converged(max_iterations, last_rel_change, current_damping)
        self._r_bank, self._r_bank_alt = r_banks[slot ^ 1], r_banks[slot]
        return iteration

    # ------------------------------------------------------------------
    def _numpy_fixed_point(
        self, damping: float, max_iterations: int, tolerance: float
    ) -> int:
        """:meth:`_fixed_point` as ~35 numpy ops per iteration.

        The reference the compiled step reproduces, and the path when
        the C library cannot be built or loaded.
        """
        a = self.arrays
        n_ctrl = a.n_controllers
        routing = a.routing
        bank_service = a.bank_service
        bus_transfer = a.bus_transfer
        bank_ctrl = a.bank_ctrl
        bg_rates = a.bg_rates
        population = a.population
        think = a.think_s
        total_pop = float(population.sum())

        # Per-solve invariants (depend on quantities `update` may have
        # changed, so they cannot live in __init__).
        bt_bank = self._bt_bank
        np.take(bus_transfer, bank_ctrl, out=bt_bank)
        pop_wait_cap = max(total_pop - 1.0, 0.0) * bus_transfer
        has_bg = bool(np.any(bg_rates > 0))
        unit_pop = self._unit_pop
        scalar_bus = self._scalar_bus
        bt0 = float(bus_transfer[0])
        cap0 = float(pop_wait_cap[0])

        x = self._x
        q = self._q
        r_bank = self._r_bank
        x2 = self._x2
        x2_flat = self._x2_flat

        # Local aliases: the loop below is the hottest code in the
        # repository; attribute lookups are hoisted deliberately.
        MUL, ADD, SUB, DIV = np.multiply, np.add, np.subtract, np.divide
        MINI, MAXI, ABS, RED = np.minimum, np.maximum, np.abs, np.add.reduce
        fg, rates = self._fg, self._rates
        wait_bank, s_eff = self._wait_bank, self._s_eff
        rho_bg, s_fg, bank_q = self._rho_bg, self._s_fg, self._bank_q
        queue_seen, self_seen = self._queue_seen, self._self_seen
        r_bank_new, r_prod = self._r_bank_alt, self._r_prod
        r_mem, turnaround, x_new = self._r_mem, self._turnaround, self._x_new
        dx, denom, q_new = self._dx, self._denom, self._q_new
        rho_k, bus_wait_k, tmp_k = self._rho, self._bus_wait, self._tmp_k
        pop_col = self._pop_col

        last_rel_change = np.inf
        current_damping = damping
        retained = 1.0 - current_damping
        for iteration in range(1, max_iterations + 1):
            # Heavily congested points can make the plain fixed point
            # oscillate; progressively stronger damping always settles it.
            if iteration % 300 == 0:
                current_damping *= 0.5
                retained = 1.0 - current_damping
            np.matmul(x, routing, out=fg)
            ADD(fg, bg_rates, out=rates)
            if scalar_bus:
                # One controller: the bus quantities are scalars; the
                # float ops below are the same IEEE operations as their
                # 1-element array counterparts.
                ctrl0 = float(np.bincount(bank_ctrl, weights=rates, minlength=1)[0])
                rho0 = min(ctrl0 * bt0, _RHO_CAP)
                # M/D/1 waiting time: bus transfers are deterministic
                # (fixed-size cache-line bursts), which halves the
                # queueing delay relative to the exponential M/M/1 form.
                wait0 = bt0 * rho0 / (2.0 * (1.0 - rho0))
                # Finite population: no more than (everything else in
                # flight) can be queued ahead of a request at the bus.
                wait0 = min(wait0, cap0)
                ADD(bank_service, wait0, out=s_eff)
                ADD(s_eff, bt0, out=s_eff)
            else:
                ctrl_rates = np.bincount(
                    bank_ctrl, weights=rates, minlength=n_ctrl
                )
                MUL(ctrl_rates, bus_transfer, out=rho_k)
                MINI(rho_k, _RHO_CAP, out=rho_k)
                SUB(1.0, rho_k, out=tmp_k)
                MUL(2.0, tmp_k, out=tmp_k)
                MUL(bus_transfer, rho_k, out=bus_wait_k)
                DIV(bus_wait_k, tmp_k, out=bus_wait_k)
                MINI(bus_wait_k, pop_wait_cap, out=bus_wait_k)
                # Transfer blocking: bank held for service + bus wait +
                # transfer.
                np.take(bus_wait_k, bank_ctrl, out=wait_bank)
                ADD(bank_service, wait_bank, out=s_eff)
                ADD(s_eff, bt_bank, out=s_eff)
            if has_bg:
                # Open background traffic inflates foreground-visible
                # service.
                MUL(bg_rates, s_eff, out=rho_bg)
                MINI(rho_bg, _BG_RHO_CAP, out=rho_bg)
                SUB(1.0, rho_bg, out=rho_bg)
                DIV(s_eff, rho_bg, out=s_fg)
            else:
                # x / (1 - 0) == x bit-for-bit; skip four array ops.
                s_fg[...] = s_eff

            # Bard–Schweitzer: response at bank b for class i sees the
            # total mean queue minus (1/n_i) of its own contribution.
            RED(q, axis=0, out=bank_q)
            if unit_pop:
                # q / 1.0 == q bit-for-bit; skip the division.
                SUB(bank_q, q, out=queue_seen)
            else:
                DIV(q, pop_col, out=self_seen)
                SUB(bank_q, self_seen, out=queue_seen)
            MAXI(queue_seen, 0.0, out=queue_seen)
            ADD(1.0, queue_seen, out=queue_seen)
            MUL(s_fg, queue_seen, out=r_bank_new)

            MUL(routing, r_bank_new, out=r_prod)
            RED(r_prod, axis=1, out=r_mem)
            ADD(think, r_mem, out=turnaround)
            DIV(population, turnaround, out=x_new)

            MUL(x_new, current_damping, out=x2_flat)
            MUL(x, retained, out=dx)
            ADD(x2_flat, dx, out=x2_flat)
            MUL(x2, routing, out=q_new)
            MUL(q_new, r_bank_new, out=q_new)
            MUL(q_new, current_damping, out=q_new)
            MUL(q, retained, out=q)
            ADD(q, q_new, out=q)

            ABS(x, out=denom)
            MAXI(denom, 1e-300, out=denom)
            SUB(x2_flat, x, out=dx)
            ABS(dx, out=dx)
            DIV(dx, denom, out=dx)
            last_rel_change = MAXI.reduce(dx)
            x[...] = x2_flat
            r_bank, r_bank_new = r_bank_new, r_bank

            if last_rel_change < tolerance:
                break
        else:
            raise _not_converged(max_iterations, last_rel_change, current_damping)
        # Keep the double buffers consistent for the next solve.
        self._r_bank, self._r_bank_alt = r_bank, r_bank_new
        return iteration

    # ------------------------------------------------------------------
    def _snapshot(
        self,
        x: np.ndarray,
        q: np.ndarray,
        r_bank: np.ndarray,
        iteration: int,
    ) -> MVASolution:
        """Final consistent solution from the converged state.

        Runs once per solve; output arrays are freshly allocated so the
        solution stays valid across future solves on the same scratch.
        """
        a = self.arrays
        n = a.n_classes
        n_ctrl = a.n_controllers
        routing = a.routing
        bank_service = a.bank_service
        bus_transfer = a.bus_transfer
        bank_ctrl = a.bank_ctrl
        bg_rates = a.bg_rates
        total_pop = float(a.population.sum())

        fg_bank_rates = x @ routing
        bank_rates = fg_bank_rates + bg_rates
        ctrl_rates = np.bincount(bank_ctrl, weights=bank_rates, minlength=n_ctrl)
        rho_bus = np.minimum(ctrl_rates * bus_transfer, _RHO_CAP)
        bus_wait = bus_transfer * rho_bus / (2.0 * (1.0 - rho_bus))
        bus_wait = np.minimum(
            bus_wait, max(total_pop - 1.0, 0.0) * bus_transfer
        )
        s_eff = bank_service + bus_wait[bank_ctrl] + bus_transfer[bank_ctrl]
        bank_util = np.minimum(bank_rates * s_eff, 1.0)
        bank_queue = q.sum(axis=0)

        r_mem = (routing * r_bank).sum(axis=1)
        turnaround = a.think_s + r_mem

        # Per-(class, controller) response: conditional on visiting that
        # controller, the expected response there.
        ctrl_resp = np.zeros((n, n_ctrl))
        for k in range(n_ctrl):
            idx = a.controller_bank_index[k]
            ctrl_resp[:, k] = (
                (self._ctrl_weights[k] * r_bank[:, idx]).sum(axis=1)
                / self._ctrl_denom[k]
            )

        return MVASolution(
            throughput_per_s=x.copy(),
            memory_response_s=r_mem,
            turnaround_s=turnaround,
            bank_utilization=bank_util,
            bank_queue=bank_queue,
            bus_utilization=rho_bus,
            bus_wait_s=bus_wait,
            controller_arrival_per_s=ctrl_rates,
            controller_response_s=ctrl_resp,
            controller_visit_probs=a.visit_matrix.copy(),
            iterations=iteration,
        )


def _not_converged(
    max_iterations: int, last_rel_change: float, damping: float
) -> ConvergenceError:
    """The exact tier's exhausted-budget error."""
    return ConvergenceError(
        f"AMVA did not converge in {max_iterations} iterations "
        f"(last relative change {last_rel_change:.3e}, "
        f"damping decayed to {damping:.3g})",
        iterations=max_iterations,
        last_rel_change=float(last_rel_change),
        damping=damping,
    )


def solve_mva(
    network: Union[QueueingNetwork, NetworkArrays],
    max_iterations: int = 2000,
    tolerance: float = 1e-10,
    damping: float = 0.5,
    initial_throughput: Optional[np.ndarray] = None,
) -> MVASolution:
    """Solve the network to steady state.

    Accepts a declarative :class:`QueueingNetwork` (compiled to arrays
    on the fly) or a prebuilt :class:`NetworkArrays`.  Hot loops that
    solve the same structure repeatedly should hold a
    :class:`MVASolver` instead and mutate its arrays in place.

    Raises :class:`ConvergenceError` if the damped fixed point does not
    reach ``tolerance`` within ``max_iterations``.
    """
    arrays = (
        network
        if isinstance(network, NetworkArrays)
        else NetworkArrays.from_network(network)
    )
    return MVASolver(arrays).solve(
        max_iterations=max_iterations,
        tolerance=tolerance,
        damping=damping,
        initial_throughput=initial_throughput,
    )
