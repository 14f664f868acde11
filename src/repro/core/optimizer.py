"""Tight-constraint degradation solve (paper Theorem 1).

For a fixed bus transfer time s_b, Theorem 1 says the optimum makes
both constraint families equalities: every core runs exactly at
``turnaround = T̄_i / D`` and the power budget is fully spent.  That
collapses the optimisation to a one-dimensional root solve in D:

    z_i(D) = clip(T̄_i / D − c_i − R(s_b),  z̄_i,  z_i^max)
    power(D) = Σ_i P_i (z̄_i/z_i(D))^α_i + P_m (s̄_b/s_b)^β + P_s

``power`` is monotonically non-decreasing in D (faster cores burn
more), so bisection finds the unique D with power(D) = budget — or the
boundary cases: budget slack even at D = 1 (run everything at max), or
budget infeasible even at the frequency floor (pin the floor and report
the violation).

The clip handles the real-system corner Theorem 1's interior argument
ignores: a core whose constraint would demand more than f_max (its
constraint goes slack — it simply runs at max), or less than f_min
(it runs at min; the budget shortfall is then spread over the rest by
the root solve).

One row kernel runs every bisection: :func:`solve_degradation` is its
K=1 call, :func:`solve_degradation_batch` its K=M call over one
epoch's memory candidates, and :func:`solve_degradation_lanes` its
K=rows call across fleet lanes.  When the C library of
:mod:`repro.queueing.kernels.cext` loads, ``fastcap_decide_step`` runs
all of it except ``ratios**alpha``, which stays one numpy ``power``
call over all K rows per step; without it the numpy kernel
(:func:`_solve_degradation_rows`) runs.  Both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import FastCapInputs
from repro.errors import ModelError
from repro.queueing.kernels import cext

#: Bisection tolerance on D (relative).
_D_TOL = 1e-10
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class DegradationSolution:
    """Optimal common degradation for one memory-frequency candidate."""

    #: The performance objective D ∈ (0, 1]; 1/D is the common slowdown.
    d: float
    #: Optimal think time per core, seconds (clipped to the DVFS range).
    z: np.ndarray
    #: Predicted full-system power at this operating point, watts.
    power_w: float
    #: False when even the all-min-frequency floor exceeds the budget.
    feasible: bool

    def core_frequency_ratios(self, z_min: np.ndarray) -> np.ndarray:
        """f_i / f_max implied by the solved think times (z̄_i / z_i)."""
        return z_min / np.maximum(self.z, 1e-300)


def _z_of_d(inputs: FastCapInputs, d: float, r: np.ndarray, t_bar: np.ndarray) -> np.ndarray:
    """Think times implied by a common degradation D (with DVFS clips)."""
    raw = t_bar / d - inputs.cache - r
    return np.clip(raw, inputs.z_min, inputs.z_max)


def _achieved_d(
    inputs: FastCapInputs, z: np.ndarray, r: np.ndarray, t_bar: np.ndarray
) -> float:
    """The objective actually attained by clipped think times.

    With DVFS-range clipping the target ``turnaround = T̄_i / D`` is not
    always reachable — a core already at f_max cannot compensate for a
    slower memory.  The objective value of constraint (5) is therefore
    ``min_i T̄_i / (z_i + c_i + R_i)``, which is what candidate
    comparison across memory frequencies must use.
    """
    return float(np.min(t_bar / (z + inputs.cache + r)))


@dataclass(frozen=True)
class BatchDegradationSolution:
    """Per-candidate Theorem-1 solutions, batched over memory frequencies.

    Row ``m`` holds exactly what :func:`solve_degradation` would return
    for ``sb_candidates[m]`` — the batch kernel runs every candidate's
    bisection in lock-step (array ``lo``/``hi``, one ``(M, N)`` power
    evaluation per step), so an exhaustive scan over M candidates costs
    the wall-clock of roughly one scalar solve.
    """

    #: Candidate bus transfer times, seconds (M,).
    sb: np.ndarray
    #: Achieved objective D per candidate (M,).
    d: np.ndarray
    #: Optimal think times per candidate, seconds (M, N).
    z: np.ndarray
    #: Predicted full-system power per candidate, watts (M,).
    power_w: np.ndarray
    #: Feasibility per candidate (M,).
    feasible: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.sb.size)

    def solution(self, index: int) -> DegradationSolution:
        """The scalar :class:`DegradationSolution` for one candidate."""
        return DegradationSolution(
            d=float(self.d[index]),
            z=self.z[index].copy(),
            power_w=float(self.power_w[index]),
            feasible=bool(self.feasible[index]),
        )


def _solve_degradation_rows(
    r: np.ndarray,
    t_bar: np.ndarray,
    z_min: np.ndarray,
    z_max: np.ndarray,
    cache: np.ndarray,
    p_max: np.ndarray,
    alpha: np.ndarray,
    available: np.ndarray,
    mem_power: np.ndarray,
    static_w,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-parallel Theorem-1 bisection in numpy: the reference kernel.

    Each row is one independent (inputs, s_b candidate) degradation
    solve; ``r`` is ``(K, N)`` and every other per-core array may be
    ``(N,)`` (shared across rows, the within-lane candidate batch) or
    ``(K, N)`` (per-row, the cross-lane fleet batch) — broadcasting
    keeps the float op sequence identical either way.  All K bisections
    advance in lock-step with a per-row convergence freeze, so a row's
    result does not depend on the rows beside it.  This is the path
    without a C compiler, and the reference the compiled step
    reproduces bit for bit (see :func:`_solve_rows`).

    Returns ``(achieved_d, z, power_w, feasible)`` row-wise.
    """
    k = int(r.shape[0])

    def z_of_d(d: np.ndarray) -> np.ndarray:
        """(K, N) clipped think times for per-row degradations."""
        raw = t_bar / d[:, None] - cache - r
        return np.clip(raw, z_min, z_max)

    def cpu_power(d: np.ndarray) -> np.ndarray:
        """(K,) predicted core dynamic power at per-row D."""
        z = z_of_d(d)
        ratios = z_min / np.maximum(z, 1e-300)
        return np.sum(p_max * ratios**alpha, axis=1)

    # Degradation floor: even at D -> 0 think times clip at z_max, so
    # the meaningful lower end is where every core sits at its floor.
    t_floor = (z_max + cache) + r  # (K, N)
    d_floor = np.min(t_bar / t_floor, axis=1)
    d_floor = np.minimum(np.maximum(d_floor, 1e-9), 1.0)

    ones = np.ones(k)
    infeasible = cpu_power(d_floor) > available  # pin the floor
    slack = cpu_power(ones) <= available  # no degradation needed

    lo = d_floor.copy()
    hi = np.ones(k)
    active = ~(infeasible | slack)
    for _ in range(_MAX_BISECTIONS):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        over = cpu_power(mid) > available
        np.copyto(hi, mid, where=active & over)
        np.copyto(lo, mid, where=active & ~over)
        active &= ~((hi - lo) <= _D_TOL * hi)

    d_instrument = np.where(infeasible, d_floor, np.where(slack, 1.0, lo))
    z = z_of_d(d_instrument)
    achieved = np.min(t_bar / (z + cache + r), axis=1)
    power = cpu_power(d_instrument) + mem_power + static_w
    return achieved, z, power, ~infeasible


def _solve_rows(**inputs) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Theorem-1 row solve: compiled when the C library loads.

    Takes :func:`_solve_degradation_rows`' arguments and returns its
    result to the bit.  The compiled path runs ``fastcap_decide_step``
    (:mod:`repro.queueing.kernels.cext`) with one ``np.power`` call
    between C calls, because numpy's ``power`` cannot be reproduced in
    C.  Without the library, and for rows without cores (where numpy's
    min-reduce raises), the numpy kernel runs.
    """
    n = inputs["r"].shape[1]
    step = cext.bind_decide_step(_MAX_BISECTIONS, _D_TOL, **inputs) if n else None
    if step is None:
        return _solve_degradation_rows(**inputs)
    call, address = step.call, step.address
    ratios, alpha, powed = step.ratios, step.alpha, step.powed
    while call(address):
        np.power(ratios, alpha, powed)
    return (
        step.achieved.copy(),
        step.z.copy(),
        step.power.copy(),
        step.infeasible == 0.0,
    )


def solve_degradation_batch(
    inputs: FastCapInputs,
    sb_candidates: Optional[np.ndarray] = None,
) -> BatchDegradationSolution:
    """Solve line 6 of Algorithm 1 for *all* memory candidates at once.

    ``sb_candidates`` defaults to ``inputs.sb_candidates``.  Each
    candidate is one row of the row kernel (per-row ``lo``/``hi`` with
    a per-row convergence freeze), so row ``m`` is bit-identical to
    ``solve_degradation(inputs, sb[m])``, the kernel's K=1 call — the
    batching turns M bisections into one, not the numbers.
    """
    sb = (
        inputs.sb_candidates
        if sb_candidates is None
        else np.asarray(sb_candidates, dtype=float)
    )
    r = inputs.response.per_core_batch(sb)  # (M, N)
    t_bar = inputs.best_turnaround_s()  # (N,)
    mem_power = np.array(
        [inputs.memory_dynamic_power_w(float(s)) for s in sb]
    )  # (M,)
    available = inputs.budget_w - inputs.static_power_w - mem_power  # (M,)

    achieved, z, power, feasible = _solve_rows(
        r=r,
        t_bar=t_bar,
        z_min=inputs.z_min,
        z_max=inputs.z_max,
        cache=inputs.cache,
        p_max=inputs.core_p_max,
        alpha=inputs.core_alpha,
        available=available,
        mem_power=mem_power,
        static_w=inputs.static_power_w,
    )
    return BatchDegradationSolution(
        sb=sb,
        d=achieved,
        z=z,
        power_w=power,
        feasible=feasible,
    )


def solve_degradation_lanes(
    rows: "Sequence[Tuple[FastCapInputs, int]]",
) -> "List[DegradationSolution]":
    """Theorem-1 solves for many (inputs, candidate-index) rows at once.

    This is the fleet form of :func:`solve_degradation_batch`: each row
    carries its *own* inputs (its lane's counters, fitted power models
    and budget), so R runs' decision solves — lanes × candidates —
    advance through one lock-step bisection.  Row ``j`` is
    bit-identical to
    ``solve_degradation(rows[j][0], rows[j][0].sb_candidates[rows[j][1]])``.

    All rows must share the core count (fleet lanes do by
    construction).
    """
    if not rows:
        return []
    n = rows[0][0].n_cores
    k = len(rows)
    r = np.empty((k, n))
    t_bar = np.empty((k, n))
    z_min = np.empty((k, n))
    z_max = np.empty((k, n))
    cache = np.empty((k, n))
    p_max = np.empty((k, n))
    alpha = np.empty((k, n))
    available = np.empty(k)
    mem_power = np.empty(k)
    static_w = np.empty(k)
    for j, (inputs, idx) in enumerate(rows):
        if inputs.n_cores != n:
            raise ModelError(
                "all rows of a lane batch must share the core count"
            )
        s_b = float(inputs.sb_candidates[idx])
        r[j] = inputs.response.per_core(s_b)
        t_bar[j] = inputs.best_turnaround_s()
        z_min[j] = inputs.z_min
        z_max[j] = inputs.z_max
        cache[j] = inputs.cache
        p_max[j] = inputs.core_p_max
        alpha[j] = inputs.core_alpha
        mem_power[j] = inputs.memory_dynamic_power_w(s_b)
        available[j] = inputs.budget_w - inputs.static_power_w - mem_power[j]
        static_w[j] = inputs.static_power_w

    achieved, z, power, feasible = _solve_rows(
        r=r,
        t_bar=t_bar,
        z_min=z_min,
        z_max=z_max,
        cache=cache,
        p_max=p_max,
        alpha=alpha,
        available=available,
        mem_power=mem_power,
        static_w=static_w,
    )
    return [
        DegradationSolution(
            d=float(achieved[j]),
            z=z[j].copy(),
            power_w=float(power[j]),
            feasible=bool(feasible[j]),
        )
        for j in range(k)
    ]


def solve_degradation(inputs: FastCapInputs, s_b: float) -> DegradationSolution:
    """Solve line 6 of Algorithm 1: optimal D for one s_b candidate.

    The row kernel's K=1 call (the adaptive probes of
    ``binary_search_sb`` ask for one candidate at a time), so it is
    bit-identical to the matching row of :func:`solve_degradation_batch`.
    """
    mem_power = inputs.memory_dynamic_power_w(s_b)
    achieved, z, power, feasible = _solve_rows(
        r=inputs.response.per_core(s_b)[None, :],
        t_bar=inputs.best_turnaround_s(),
        z_min=inputs.z_min,
        z_max=inputs.z_max,
        cache=inputs.cache,
        p_max=inputs.core_p_max,
        alpha=inputs.core_alpha,
        available=inputs.budget_w - inputs.static_power_w - mem_power,
        mem_power=mem_power,
        static_w=inputs.static_power_w,
    )
    return DegradationSolution(
        d=float(achieved[0]),
        z=z[0],
        power_w=float(power[0]),
        feasible=bool(feasible[0]),
    )


@dataclass(frozen=True)
class ProcessorGroups:
    """Per-processor (socket) budget constraints — the paper's §III-B
    extension: "adding a constraint similar to constraint 6 for each
    processor".

    ``membership[i]`` is the socket index of core i;
    ``budgets_w[g]`` caps socket g's frequency-dependent core power
    (each socket's voltage-regulator/thermal limit).  The global
    full-system budget of the base problem still applies on top.
    """

    membership: np.ndarray
    budgets_w: np.ndarray

    def __post_init__(self) -> None:
        if self.membership.ndim != 1:
            raise ModelError("membership must be one-dimensional")
        if self.budgets_w.ndim != 1:
            raise ModelError("budgets must be one-dimensional")
        if self.membership.size and (
            self.membership.min() < 0
            or self.membership.max() >= self.budgets_w.size
        ):
            raise ModelError(
                "membership indexes a socket without a budget"
            )
        if np.any(self.budgets_w <= 0):
            raise ModelError("socket budgets must be positive")

    @property
    def n_groups(self) -> int:
        return int(self.budgets_w.size)

    def group_power(self, per_core_power: np.ndarray) -> np.ndarray:
        """Sum per-core powers into per-socket totals."""
        return np.bincount(
            self.membership, weights=per_core_power, minlength=self.n_groups
        )


def solve_degradation_grouped(
    inputs: FastCapInputs,
    s_b: float,
    groups: ProcessorGroups,
) -> DegradationSolution:
    """Degradation solve with per-processor budgets layered on top.

    The feasibility predicate gains one inequality per socket; the
    objective keeps the single fairness level D, so the tightest socket
    binds and the whole system degrades together (fairness across
    sockets, exactly like fairness across cores).  Power is still
    monotone in D, so the same bisection applies.
    """
    r = inputs.response.per_core(s_b)
    t_bar = inputs.best_turnaround_s()
    mem_power = inputs.memory_dynamic_power_w(s_b)
    available = inputs.budget_w - inputs.static_power_w - mem_power

    def per_core_power(d: float) -> np.ndarray:
        z = _z_of_d(inputs, d, r, t_bar)
        ratios = inputs.z_min / np.maximum(z, 1e-300)
        return inputs.core_p_max * ratios**inputs.core_alpha

    def within_budgets(d: float) -> bool:
        powers = per_core_power(d)
        if float(powers.sum()) > available:
            return False
        return bool(np.all(groups.group_power(powers) <= groups.budgets_w))

    def finish(d_instrument: float, feasible: bool) -> DegradationSolution:
        z = _z_of_d(inputs, d_instrument, r, t_bar)
        return DegradationSolution(
            d=_achieved_d(inputs, z, r, t_bar),
            z=z,
            power_w=float(per_core_power(d_instrument).sum())
            + mem_power
            + inputs.static_power_w,
            feasible=feasible,
        )

    t_floor = inputs.z_max + inputs.cache + r
    d_floor = float(np.min(t_bar / t_floor))
    d_floor = min(max(d_floor, 1e-9), 1.0)

    if not within_budgets(d_floor):
        return finish(d_floor, feasible=False)
    if within_budgets(1.0):
        return finish(1.0, feasible=True)

    lo, hi = d_floor, 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if within_budgets(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= _D_TOL * hi:
            break
    return finish(lo, feasible=True)
