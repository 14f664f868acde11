"""Cross-run fleet solves: R same-shape lanes behind one solver.

Campaign runs are independent, so a fleet driver can hold R runs'
solvers together and serve any subset of them per call, named by a
boolean participation mask.  :class:`FleetArrays` stacks the lanes'
inputs into ``(R, n)``, ``(R, n, B)`` and ``(R, M)`` tensors, and
:class:`FleetSolver` serves both parity tiers from them:

* :meth:`FleetSolver.solve` (the exact tier) runs each participating
  lane's own compiled scalar solve,
  :meth:`repro.queueing.mva.MVASolver.solve` — numpy's gemv plus one
  call of the compiled exact step per iteration, or the numpy loop
  when the C library cannot be built — warm-started from the lane's
  row of the ``(R, n)`` tensor.  Lane ``k`` is therefore the scalar
  solve of lane ``k``'s network, bit for bit, by construction.
* :meth:`FleetSolver.solve_relaxed` (the relaxed tier) compacts the
  participating lanes' tensors and runs them through one call of the
  batched C loop-nest, each lane to its own convergence.

Either way, each lane's final solution snapshot runs through that
lane's scalar :class:`~repro.queueing.mva.MVASolver`.  The
golden-parity suite and the property-based tests in
``tests/queueing/test_fleet_solver.py`` check the per-lane contract on
every commit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.kernels import cext
from repro.queueing.mva import MVASolution, MVASolver


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


class FleetSolver:
    """AMVA solves over R same-shape lanes, one participation mask per call.

    Construct once per fleet from the lanes' scalar solvers (or bare
    :class:`NetworkArrays`, in which case per-lane solvers are created
    internally — they own each lane's exact solve and snapshot path).
    Call :meth:`solve` or :meth:`solve_relaxed` after the lanes' arrays
    have been updated in place.  :meth:`solve` runs each participating
    lane's own scalar solve; :meth:`solve_relaxed` gathers the dynamic
    tensors, runs the participating lanes through one batched C call
    and snapshots each lane through its own scalar solver.
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

        # The relaxed tier's compacted per-lane inputs and state: row j
        # holds the j-th *participating* lane of the current solve
        # (copied from the lane-indexed fleet tensors by _start).
        self._routing_c = np.empty((r, n, n_banks))
        self._bank_service_c = np.empty((r, n_banks))
        self._bus_transfer_c = np.empty((r, n_ctrl))
        self._bg_rates_c = np.empty((r, n_banks))
        self._think_c = np.empty((r, n))
        self._population_c = np.empty((r, n))
        self._x = np.ones((r, n))
        self._x2 = np.empty((r, n, 1))
        self._x2_flat = self._x2.reshape(r, n)
        self._q = np.empty((r, n, n_banks))
        self._r_bank = np.empty((r, n, n_banks))

    @property
    def n_lanes(self) -> int:
        return self.fleet.n_lanes

    # ------------------------------------------------------------------
    def solve(
        self,
        max_iterations: int = 2000,
        tolerance: float = 1e-10,
        damping: float = 0.5,
        initial_throughput: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> List[Optional[MVASolution]]:
        """Solve each participating lane on its own solver.

        ``initial_throughput`` is an optional ``(R, n)`` warm-start
        tensor: lane ``k`` starts from row ``k`` (rows for
        non-participating lanes are ignored).  ``lanes`` is an optional
        boolean participation mask: only masked-in lanes are solved; the
        returned list holds ``None`` for the others.

        Lane ``k``'s solution is ``self.solvers[k].solve(...)`` — numpy's
        gemv plus the compiled exact step when the C library loads, the
        numpy loop otherwise — so it is the scalar solve, bit for bit.
        Lanes are solved in index order, and the first one that does not
        reach ``tolerance`` in ``max_iterations`` raises its own
        :class:`~repro.errors.ConvergenceError`.
        """
        solutions: List[Optional[MVASolution]] = [None] * self.n_lanes
        for lane in self._lane_rows(lanes).tolist():
            solutions[lane] = self.solvers[lane].solve(
                max_iterations=max_iterations,
                tolerance=tolerance,
                damping=damping,
                initial_throughput=(
                    None
                    if initial_throughput is None
                    else initial_throughput[lane]
                ),
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
        lane to its own convergence inside one compiled loop-nest.
        Per-lane trajectories match the single-lane kernel exactly.

        When the C library is unavailable this is :meth:`solve`, each
        lane running the exact tier's numpy loop, so results are
        bit-identical to the exact tier.  Raises
        :class:`~repro.errors.ConvergenceError` if any participating
        lane fails.
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
        lane_rows = self._lane_rows(lanes)
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

    # ------------------------------------------------------------------
    def _lane_rows(self, lanes: Optional[np.ndarray]) -> np.ndarray:
        """Indices of the lanes the mask ``lanes`` selects (all if None).

        Raises :class:`~repro.errors.ConfigurationError` unless the mask
        holds one entry per lane.
        """
        r = self.n_lanes
        if lanes is None:
            return np.arange(r)
        mask = np.asarray(lanes, dtype=bool)
        if mask.shape != (r,):
            raise ConfigurationError(f"lane mask must have shape ({r},)")
        return np.flatnonzero(mask)
