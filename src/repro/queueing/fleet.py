"""Cross-run batched MVA: the fleet fast path.

Campaign runs are independent, so R runs' solver states can be stacked
into ``(R, n)``, ``(R, n, B)`` and ``(R, M)`` tensors and the damped
AMVA fixed point advanced in *lockstep* across all R lanes — one numpy
op sequence per iteration instead of one per lane — with a per-lane
convergence mask: lanes that reach tolerance freeze (their state stops
being written), lanes still moving keep iterating.  This amortises
numpy dispatch overhead across the fleet, which is where the wall-clock
of the decision loop goes for paper-sized networks (tens of classes ×
tens of banks: every array is tiny, so each solve is dispatch-bound).

Parity is the contract, not an aspiration: lane ``k`` of
:meth:`FleetSolver.solve` is **bit-identical** to
:meth:`repro.queueing.mva.MVASolver.solve` on lane ``k``'s network.
Three implementation rules make that hold:

* every elementwise op mirrors the scalar kernel's op order exactly
  (IEEE float ops are deterministic, so equal inputs + equal op trees
  give equal bits);
* reductions preserve the scalar kernel's summation order: per-class
  and per-bank reductions keep the reduced axis in the same memory
  position (numpy applies pairwise summation along the contiguous axis
  and sequential accumulation elsewhere), and the bank→controller
  aggregation reproduces ``np.bincount``'s sequential bank-order
  accumulation via per-controller reductions over a transposed
  ``(B, R)`` buffer;
* the one BLAS call per iteration (throughput × routing) is probed at
  construction: if a batched ``(R, 1, n) @ (R, n, B)`` matmul is
  bit-identical to the per-lane gemv on this numpy/BLAS build it is
  used, otherwise the solver falls back to R per-lane gemv calls —
  either path produces identical bits by construction.

The final per-lane solution snapshot reuses each lane's scalar
:class:`~repro.queueing.mva.MVASolver` verbatim (the snapshot runs once
per solve, so there is nothing to batch and nothing to diverge).

The lockstep trick is the same one Conoci et al. use to explore many
power/thread configurations under one cap, applied across campaign
runs; the golden-parity suite and the property-based tests in
``tests/queueing/test_fleet_solver.py`` enforce the bit-identity
contract on every commit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.kernels import cext
from repro.queueing.mva import _RHO_CAP, _BG_RHO_CAP, MVASolution, MVASolver


class FleetArrays:
    """Stacked tensor view over R same-shape :class:`NetworkArrays`.

    Lanes must agree on the network *shape* — class count, bank count,
    controller count and the bank→controller map — but every per-lane
    quantity (routing, service times, think times, populations,
    background rates) is free to differ.  The static tensors (routing,
    populations) are copied once at construction; the dynamic ones are
    refreshed lazily by :meth:`gather`, which uses each lane's
    ``_version`` counter to skip lanes that have not been updated since
    the previous gather.
    """

    __slots__ = (
        "lanes",
        "n_lanes",
        "n_classes",
        "total_banks",
        "n_controllers",
        "bank_ctrl",
        "routing",
        "population",
        "bank_service",
        "bus_transfer",
        "bg_rates",
        "think_s",
        "_gathered_versions",
    )

    def __init__(self, lanes: Sequence[NetworkArrays]) -> None:
        if not lanes:
            raise ConfigurationError("a fleet needs at least one lane")
        first = lanes[0]
        for i, lane in enumerate(lanes):
            if not isinstance(lane, NetworkArrays):
                raise ConfigurationError(
                    f"lane {i} is not a NetworkArrays: {type(lane).__name__}"
                )
            if (
                lane.n_classes != first.n_classes
                or lane.total_banks != first.total_banks
                or lane.n_controllers != first.n_controllers
                or not np.array_equal(lane.bank_ctrl, first.bank_ctrl)
            ):
                raise ConfigurationError(
                    "fleet lanes must share the network shape "
                    "(classes, banks, controllers, bank->controller map); "
                    f"lane {i} differs from lane 0"
                )
        self.lanes = tuple(lanes)
        r = len(self.lanes)
        n, n_banks, n_ctrl = first.n_classes, first.total_banks, first.n_controllers
        self.n_lanes = r
        self.n_classes = n
        self.total_banks = n_banks
        self.n_controllers = n_ctrl
        self.bank_ctrl = first.bank_ctrl.copy()

        # Static per-lane structure (never changed by `update`).
        self.routing = np.stack([lane.routing for lane in self.lanes])
        self.population = np.stack([lane.population for lane in self.lanes])

        # Dynamic tensors, refreshed by gather().
        self.bank_service = np.empty((r, n_banks))
        self.bus_transfer = np.empty((r, n_ctrl))
        self.bg_rates = np.empty((r, n_banks))
        self.think_s = np.empty((r, n))
        self._gathered_versions = np.full(r, -1, dtype=np.int64)
        self.gather()

    def gather(self) -> "FleetArrays":
        """Copy each lane's current dynamic arrays into the tensors.

        Rows whose lane has not been :meth:`NetworkArrays.update`-d
        since the previous gather are skipped (version check), so a
        fleet where only some lanes moved pays only for those rows.
        """
        for i, lane in enumerate(self.lanes):
            if self._gathered_versions[i] == lane._version:
                continue
            self.bank_service[i] = lane.bank_service
            self.bus_transfer[i] = lane.bus_transfer
            self.bg_rates[i] = lane.bg_rates
            self.think_s[i] = lane.think_s
            self._gathered_versions[i] = lane._version
        return self


def _probe_batched_matmul(routing: np.ndarray) -> bool:
    """True when batched matmul matches per-lane gemv bit-for-bit.

    The per-iteration throughput × routing product is the one BLAS call
    in the fixed point.  numpy dispatches ``(n,) @ (n, B)`` to gemv and
    ``(R, 1, n) @ (R, n, B)`` to a stacked kernel; on every build we
    have measured they agree bitwise, but the choice is BLAS-internal,
    so it is verified here on the actual routing tensors with
    magnitude-spanning synthetic throughputs rather than assumed.  The
    fallback (R per-lane gemv calls) is bit-identical by construction.
    """
    r, n, n_banks = routing.shape
    rng = np.random.default_rng(0xF1EE7)
    x = rng.uniform(1.0, 1e8, (r, n))
    batched = np.empty((r, 1, n_banks))
    np.matmul(x[:, None, :], routing, out=batched)
    per_lane = np.empty((r, n_banks))
    for i in range(r):
        np.matmul(x[i], routing[i], out=per_lane[i])
    return bool(
        np.array_equal(
            batched[:, 0, :].view(np.uint64), per_lane.view(np.uint64)
        )
    )


class FleetSolver:
    """Lockstep AMVA fixed point across R lanes with convergence masks.

    Construct once per fleet from the lanes' scalar solvers (or bare
    :class:`NetworkArrays`, in which case per-lane solvers are created
    internally — they own the per-lane snapshot path and the static
    per-controller aggregation structure).  Call :meth:`solve` after
    the lanes' arrays have been updated in place; the solver gathers
    the dynamic tensors, runs the batched fixed point, and snapshots
    each participating lane through its own scalar solver.
    """

    def __init__(
        self, solvers: Sequence[Union[MVASolver, NetworkArrays]]
    ) -> None:
        self.solvers: tuple = tuple(
            s if isinstance(s, MVASolver) else MVASolver(s) for s in solvers
        )
        self.fleet = FleetArrays([s.arrays for s in self.solvers])
        f = self.fleet
        r, n, n_banks, n_ctrl = (
            f.n_lanes,
            f.n_classes,
            f.total_banks,
            f.n_controllers,
        )
        self._use_batched_matmul = _probe_batched_matmul(f.routing)

        # Bank→controller aggregation structure.  np.bincount (the
        # scalar kernel's aggregation) accumulates sequentially in
        # global bank order; numpy's strided reduction over the rows of
        # a C-ordered (B, R) buffer accumulates in exactly that order,
        # one controller segment at a time.  Contiguous segments (the
        # layout every simulator builds) reduce through views; general
        # maps fall back to a `take` into a per-controller scratch row
        # block.
        self._rates_t = np.empty((n_banks, r))
        rows: List = []
        scratch: List[Optional[np.ndarray]] = []
        for k in range(n_ctrl):
            idx = np.flatnonzero(f.bank_ctrl == k)
            if idx.size and np.array_equal(
                idx, np.arange(idx[0], idx[0] + idx.size)
            ):
                rows.append(slice(int(idx[0]), int(idx[0] + idx.size)))
                scratch.append(None)
            else:
                rows.append(idx)
                scratch.append(np.empty((idx.size, r)))
        self._ctrl_rows = rows
        self._ctrl_scratch = scratch

        # Compacted per-lane inputs: row j holds the j-th *participating*
        # lane's inputs for the current solve (copied from the
        # lane-indexed fleet tensors), so every per-iteration op runs at
        # the active width instead of the full fleet width.
        self._routing_c = np.empty((r, n, n_banks))
        self._bank_service_c = np.empty((r, n_banks))
        self._bus_transfer_c = np.empty((r, n_ctrl))
        self._bg_rates_c = np.empty((r, n_banks))
        self._think_c = np.empty((r, n))
        self._population_c = np.empty((r, n))
        self._total_pop_c = np.empty(r)
        self._bt_bank_c = np.empty((r, n_banks))
        self._pop_wait_cap_c = np.empty((r, n_ctrl))

        # Scratch tensors (allocated once, reused across solves; solves
        # use the leading [:m] rows for the current compact width).
        self._x = np.ones((r, n))
        self._x2 = np.empty((r, n, 1))
        self._x2_flat = self._x2.reshape(r, n)
        self._fg = np.empty((r, n_banks))
        self._fg3 = self._fg.reshape(r, 1, n_banks)
        self._x3 = self._x.reshape(r, 1, n)
        self._rates = np.empty((r, n_banks))
        self._ctrl_rates = np.empty((r, n_ctrl))
        self._rho = np.empty((r, n_ctrl))
        self._bus_wait = np.empty((r, n_ctrl))
        self._tmp_k = np.empty((r, n_ctrl))
        self._wait_bank = np.empty((r, n_banks))
        self._s_eff = np.empty((r, n_banks))
        self._rho_bg = np.empty((r, n_banks))
        self._s_fg = np.empty((r, n_banks))
        self._bank_q = np.empty((r, 1, n_banks))
        self._q = np.empty((r, n, n_banks))
        self._q_cand = np.empty((r, n, n_banks))
        self._q_scaled = np.empty((r, n, n_banks))
        self._queue_seen = np.empty((r, n, n_banks))
        self._self_seen = np.empty((r, n, n_banks))
        self._r_bank = np.empty((r, n, n_banks))
        self._r_bank_new = np.empty((r, n, n_banks))
        self._r_prod = np.empty((r, n, n_banks))
        self._r_mem = np.empty((r, n))
        self._turnaround = np.empty((r, n))
        self._x_new = np.empty((r, n))
        self._dx = np.empty((r, n))
        self._denom = np.empty((r, n))
        self._rel = np.empty(r)
        self._unit_pop = bool(np.all(f.population == 1.0))
        self._scalar_bus = n_ctrl == 1
        #: Arrays whose rows move together when the compact set shrinks.
        self._compactable = (
            self._x,
            self._q,
            self._r_bank,
            self._routing_c,
            self._bank_service_c,
            self._bus_transfer_c,
            self._bg_rates_c,
            self._think_c,
            self._population_c,
            self._total_pop_c,
            self._bt_bank_c,
            self._pop_wait_cap_c,
        )

    @property
    def n_lanes(self) -> int:
        return self.fleet.n_lanes

    # ------------------------------------------------------------------
    def _controller_rates(self, m: int) -> None:
        """Per-lane bank→controller sums in np.bincount order.

        For ``m >= 2`` the transposed ``(B, m)`` copy makes each
        controller's reduction a multi-output accumulation over the
        non-contiguous axis, which numpy performs sequentially — the
        same add order ``np.bincount`` uses on the scalar path.  A
        single-lane reduction would collapse to one output element,
        where numpy switches to buffered pairwise summation, so width
        1 calls ``np.bincount`` itself (the exact scalar op).
        """
        if m == 1:
            self._ctrl_rates[0] = np.bincount(
                self.fleet.bank_ctrl,
                weights=self._rates[0],
                minlength=self.fleet.n_controllers,
            )
            return
        rates_t = self._rates_t[:, :m]
        np.copyto(rates_t, self._rates[:m].T)
        ctrl = self._ctrl_rates
        for k, rows in enumerate(self._ctrl_rows):
            if isinstance(rows, slice):
                seg = rates_t[rows]
            else:
                seg = self._ctrl_scratch[k][:, :m]
                seg[...] = rates_t[rows]
            np.add.reduce(seg, axis=0, out=ctrl[:m, k])

    # ------------------------------------------------------------------
    def solve(
        self,
        max_iterations: int = 2000,
        tolerance: float = 1e-10,
        damping: float = 0.5,
        initial_throughput: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> List[Optional[MVASolution]]:
        """Run the lockstep fixed point; return per-lane solutions.

        ``initial_throughput`` is an optional ``(R, n)`` warm-start
        tensor (rows for non-participating lanes are ignored).
        ``lanes`` is an optional boolean participation mask: only
        masked-in lanes are solved (and snapshotted); the returned list
        holds ``None`` for the others.  Raises
        :class:`~repro.errors.ConvergenceError` if any participating
        lane fails to reach ``tolerance`` in ``max_iterations``.

        Work tracks the *active* width throughout: participating lanes
        are compacted to the leading tensor rows at solve start, the
        compact set re-packs whenever half of it has converged (each
        lane is snapshotted the moment it converges, so its rows can be
        reclaimed), and the last ≤2 stragglers are handed to their
        scalar solvers to finish — a bit-identical continuation, since
        an iteration reads nothing but ``x``, ``q``, the iteration
        counter and the damping state.
        """
        lane_rows = self._start(initial_throughput, lanes)
        m = int(lane_rows.size)
        solutions: List[Optional[MVASolution]] = [None] * self.n_lanes
        if m == 0:
            return solutions
        f = self.fleet

        # Per-solve invariants (mirror MVASolver._fixed_point).
        np.take(
            self._bus_transfer_c[:m],
            f.bank_ctrl,
            axis=1,
            out=self._bt_bank_c[:m],
        )
        np.add.reduce(self._population_c[:m], axis=1, out=self._total_pop_c[:m])
        np.multiply(
            np.maximum(self._total_pop_c[:m] - 1.0, 0.0)[:, None],
            self._bus_transfer_c[:m],
            out=self._pop_wait_cap_c[:m],
        )
        has_bg = bool(np.any(self._bg_rates_c[:m] > 0))
        unit_pop = self._unit_pop
        scalar_bus = self._scalar_bus
        batched_mm = self._use_batched_matmul
        bank_ctrl = f.bank_ctrl

        MUL, ADD, SUB, DIV = np.multiply, np.add, np.subtract, np.divide
        MINI, MAXI, ABS, RED = np.minimum, np.maximum, np.abs, np.add.reduce

        rows = lane_rows.copy()
        active = np.ones(m, dtype=bool)
        reslice = True
        current_damping = damping
        retained = 1.0 - current_damping
        converged = False
        for iteration in range(1, max_iterations + 1):
            # Lockstep iteration index == every lane's local iteration
            # index (all lanes start together), so the progressive
            # damping schedule matches the scalar kernel's exactly.
            if iteration % 300 == 0:
                current_damping *= 0.5
                retained = 1.0 - current_damping
            if reslice:
                # Width changed: rebind the [:m] working views.
                routing, think = self._routing_c[:m], self._think_c[:m]
                bank_service = self._bank_service_c[:m]
                bus_transfer = self._bus_transfer_c[:m]
                bg_rates = self._bg_rates_c[:m]
                population = self._population_c[:m]
                pop_col = self._population_c[:m, :, None]
                bt_bank = self._bt_bank_c[:m]
                pop_wait_cap = self._pop_wait_cap_c[:m]
                x, x2, x2_flat = self._x[:m], self._x2[:m], self._x2_flat[:m]
                x3, fg3 = self._x3[:m], self._fg3[:m]
                fg, rates = self._fg[:m], self._rates[:m]
                ctrl_rates = self._ctrl_rates[:m]
                rho_k, bus_wait_k = self._rho[:m], self._bus_wait[:m]
                tmp_k, wait_bank = self._tmp_k[:m], self._wait_bank[:m]
                s_eff, rho_bg, s_fg = (
                    self._s_eff[:m],
                    self._rho_bg[:m],
                    self._s_fg[:m],
                )
                bank_q = self._bank_q[:m]
                q, q_cand, q_scaled = (
                    self._q[:m],
                    self._q_cand[:m],
                    self._q_scaled[:m],
                )
                queue_seen, self_seen = (
                    self._queue_seen[:m],
                    self._self_seen[:m],
                )
                r_bank, r_bank_new = self._r_bank[:m], self._r_bank_new[:m]
                r_prod, r_mem = self._r_prod[:m], self._r_mem[:m]
                turnaround, x_new = self._turnaround[:m], self._x_new[:m]
                dx, denom, rel = self._dx[:m], self._denom[:m], self._rel[:m]
                reslice = False

            if batched_mm:
                np.matmul(x3, routing, out=fg3)
            else:
                for j in np.flatnonzero(active):
                    np.matmul(x[j], routing[j], out=fg[j])
            ADD(fg, bg_rates, out=rates)
            self._controller_rates(m)
            if scalar_bus:
                # One controller: the scalar kernel runs this block on
                # python floats; the (m, 1) column ops below perform
                # the identical IEEE operations lane-wise.
                MUL(ctrl_rates, bus_transfer, out=rho_k)
                MINI(rho_k, _RHO_CAP, out=rho_k)
                SUB(1.0, rho_k, out=tmp_k)
                MUL(2.0, tmp_k, out=tmp_k)
                MUL(bus_transfer, rho_k, out=bus_wait_k)
                DIV(bus_wait_k, tmp_k, out=bus_wait_k)
                MINI(bus_wait_k, pop_wait_cap, out=bus_wait_k)
                ADD(bank_service, bus_wait_k, out=s_eff)
                ADD(s_eff, bus_transfer, out=s_eff)
            else:
                MUL(ctrl_rates, bus_transfer, out=rho_k)
                MINI(rho_k, _RHO_CAP, out=rho_k)
                SUB(1.0, rho_k, out=tmp_k)
                MUL(2.0, tmp_k, out=tmp_k)
                MUL(bus_transfer, rho_k, out=bus_wait_k)
                DIV(bus_wait_k, tmp_k, out=bus_wait_k)
                MINI(bus_wait_k, pop_wait_cap, out=bus_wait_k)
                np.take(bus_wait_k, bank_ctrl, axis=1, out=wait_bank)
                ADD(bank_service, wait_bank, out=s_eff)
                ADD(s_eff, bt_bank, out=s_eff)
            if has_bg:
                # Lanes without background traffic compute x/(1-0) == x
                # here, which is bit-identical to the scalar kernel's
                # skip branch.
                MUL(bg_rates, s_eff, out=rho_bg)
                MINI(rho_bg, _BG_RHO_CAP, out=rho_bg)
                SUB(1.0, rho_bg, out=rho_bg)
                DIV(s_eff, rho_bg, out=s_fg)
            else:
                s_fg[...] = s_eff

            RED(q, axis=1, out=bank_q[:, 0, :])
            if unit_pop:
                SUB(bank_q, q, out=queue_seen)
            else:
                DIV(q, pop_col, out=self_seen)
                SUB(bank_q, self_seen, out=queue_seen)
            MAXI(queue_seen, 0.0, out=queue_seen)
            ADD(1.0, queue_seen, out=queue_seen)
            MUL(s_fg[:, None, :], queue_seen, out=r_bank_new)

            MUL(routing, r_bank_new, out=r_prod)
            RED(r_prod, axis=2, out=r_mem)
            ADD(think, r_mem, out=turnaround)
            DIV(population, turnaround, out=x_new)

            MUL(x_new, current_damping, out=x2_flat)
            MUL(x, retained, out=dx)
            ADD(x2_flat, dx, out=x2_flat)
            MUL(x2, routing, out=q_cand)
            MUL(q_cand, r_bank_new, out=q_cand)
            MUL(q_cand, current_damping, out=q_cand)
            MUL(q, retained, out=q_scaled)
            ADD(q_scaled, q_cand, out=q_scaled)

            ABS(x, out=denom)
            MAXI(denom, 1e-300, out=denom)
            SUB(x2_flat, x, out=dx)
            ABS(dx, out=dx)
            DIV(dx, denom, out=dx)
            MAXI.reduce(dx, axis=1, out=rel)

            # Converged-but-not-yet-compacted rows keep their state;
            # active rows take the damped update (including the rows
            # converging right now — the scalar kernel also commits the
            # final update before breaking).
            np.copyto(x, x2_flat, where=active[:, None])
            np.copyto(q, q_scaled, where=active[:, None, None])
            np.copyto(r_bank, r_bank_new, where=active[:, None, None])

            newly_converged = active & (rel < tolerance)
            if not newly_converged.any():
                continue
            # Snapshot each converging lane immediately (through its
            # own scalar solver, reusing the exact scalar snapshot code
            # and its F-ordered aggregation quirks) so its rows can be
            # reclaimed by the next compaction.
            for j in np.flatnonzero(newly_converged):
                lane = int(rows[j])
                solutions[lane] = self.solvers[lane]._snapshot(
                    x[j], q[j], r_bank[j], iteration
                )
            active &= ~newly_converged
            n_active = int(active.sum())
            if n_active == 0:
                converged = True
                break
            if n_active <= 2:
                # Straggler handoff: finish each remaining lane on its
                # own scalar solver, resuming mid-trajectory.
                for j in np.flatnonzero(active):
                    lane = int(rows[j])
                    solver = self.solvers[lane]
                    solver._x[...] = x[j]
                    solver._q[...] = q[j]
                    final = solver._fixed_point(
                        first_iteration=iteration + 1,
                        current_damping=current_damping,
                        max_iterations=max_iterations,
                        tolerance=tolerance,
                    )
                    solutions[lane] = solver._snapshot(
                        solver._x, solver._q, solver._r_bank, final
                    )
                converged = True
                break
            if n_active <= m // 2:
                # Re-pack the surviving rows to the front.  Row-by-row
                # forward copies are safe: destination j is always at
                # or below source keep[j].
                keep = np.flatnonzero(active)
                for j, src in enumerate(keep):
                    if j != int(src):
                        for buf in self._compactable:
                            buf[j] = buf[src]
                rows = rows[keep]
                m = n_active
                active = np.ones(m, dtype=bool)
                reslice = True

        if not converged:
            stuck = rows[active].tolist()
            raise ConvergenceError(
                f"fleet AMVA: lanes {stuck} did not converge in "
                f"{max_iterations} iterations (worst relative change "
                f"{float(rel[active].max()):.3e}, damping decayed to "
                f"{current_damping:.3g})",
                iterations=max_iterations,
                last_rel_change=float(rel[active].max()),
                damping=current_damping,
            )
        return solutions

    # ------------------------------------------------------------------
    def solve_relaxed(
        self,
        max_iterations: int = 2000,
        tolerance: float = 1e-10,
        damping: float = 0.5,
        initial_throughput: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> List[Optional[MVASolution]]:
        """Relaxed-tier fleet solve through the batched C loop-nest.

        The batched twin of
        :meth:`repro.queueing.mva.MVASolver.solve_relaxed`: the
        participating lanes' inputs are compacted into the stacked
        ``(m, n, B)`` tensors and handed to
        :func:`repro.queueing.kernels.cext.solve_lanes`, which runs each
        lane to its own convergence inside one compiled loop-nest — no
        lockstep, no convergence masks, no per-iteration dispatch to
        amortise.  Per-lane trajectories match the single-lane kernel
        exactly.

        When the C library is unavailable this is the exact lockstep
        :meth:`solve` — bit-identical to the exact tier and exactly as
        fast.  Raises :class:`~repro.errors.ConvergenceError` if any
        participating lane fails.
        """
        if cext.load() is None:
            return self.solve(
                max_iterations=max_iterations,
                tolerance=tolerance,
                damping=damping,
                initial_throughput=initial_throughput,
                lanes=lanes,
            )
        lane_rows = self._start(initial_throughput, lanes)
        m = int(lane_rows.size)
        solutions: List[Optional[MVASolution]] = [None] * self.n_lanes
        if m == 0:
            return solutions

        iters = np.zeros(m, dtype=np.int64)
        rels = np.zeros(m)
        damps = np.zeros(m)
        cext.solve_lanes(
            self._routing_c[:m],
            self._bank_service_c[:m],
            self._bus_transfer_c[:m],
            self.fleet.bank_ctrl,
            self._bg_rates_c[:m],
            self._population_c[:m],
            self._think_c[:m],
            self._x[:m],
            self._q[:m],
            self._r_bank[:m],
            iters,
            rels,
            damps,
            1,
            max_iterations,
            tolerance,
            damping,
        )
        failed = np.flatnonzero(iters == 0)
        if failed.size:
            stuck = lane_rows[failed].tolist()
            worst = int(failed[np.argmax(rels[failed])])
            raise ConvergenceError(
                f"fleet AMVA (C kernel): lanes {stuck} did not converge in "
                f"{max_iterations} iterations (worst relative change "
                f"{float(rels[worst]):.3e}, damping decayed to "
                f"{float(damps[worst]):.3g})",
                iterations=max_iterations,
                last_rel_change=float(rels[worst]),
                damping=float(damps[worst]),
            )
        for j in range(m):
            lane = int(lane_rows[j])
            solutions[lane] = self.solvers[lane]._snapshot(
                self._x[j], self._q[j], self._r_bank[j], int(iters[j])
            )
        return solutions

    # ------------------------------------------------------------------
    def _start(
        self,
        initial_throughput: Optional[np.ndarray],
        lanes: Optional[np.ndarray],
    ) -> np.ndarray:
        """Compact the participating lanes and initialise their state.

        Gathers the lanes' current arrays, copies the participating
        lanes' inputs into rows ``0..m-1`` of the compacted tensors and
        initialises ``_x`` / ``_q`` / ``_r_bank`` there exactly as the
        scalar :meth:`MVASolver._start` does.  Returns the participating
        lanes' indices (row ``j`` holds lane ``lane_rows[j]``).
        """
        f = self.fleet.gather()
        r = f.n_lanes
        if lanes is None:
            lane_rows = np.arange(r)
        else:
            mask = np.asarray(lanes, dtype=bool)
            if mask.shape != (r,):
                raise ConfigurationError(f"lane mask must have shape ({r},)")
            lane_rows = np.flatnonzero(mask)
        m = int(lane_rows.size)
        if m == 0:
            return lane_rows

        np.take(f.routing, lane_rows, axis=0, out=self._routing_c[:m])
        np.take(f.bank_service, lane_rows, axis=0, out=self._bank_service_c[:m])
        np.take(f.bus_transfer, lane_rows, axis=0, out=self._bus_transfer_c[:m])
        np.take(f.bg_rates, lane_rows, axis=0, out=self._bg_rates_c[:m])
        np.take(f.think_s, lane_rows, axis=0, out=self._think_c[:m])
        np.take(f.population, lane_rows, axis=0, out=self._population_c[:m])

        if initial_throughput is not None:
            warm = np.asarray(initial_throughput, dtype=float)
            np.take(warm, lane_rows, axis=0, out=self._x[:m])
        else:
            # Same closed form the scalar kernel uses (per-lane means
            # reduce over the contiguous axis, like the scalar .mean()).
            self._x[:m] = self._population_c[:m] / (
                self._think_c[:m]
                + self._bank_service_c[:m].mean(axis=1)[:, None]
                + self._bus_transfer_c[:m].mean(axis=1)[:, None]
            )
        self._r_bank[:m] = self._bank_service_c[:m][:, None, :]
        self._x2_flat[:m] = self._x[:m]
        np.multiply(self._x2[:m], self._routing_c[:m], out=self._q[:m])
        np.multiply(self._q[:m], self._r_bank[:m], out=self._q[:m])
        return lane_rows
