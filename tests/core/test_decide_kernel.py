"""The compiled Theorem-1 decide vs the numpy row kernel, bit for bit.

:func:`repro.core.optimizer._solve_rows` runs ``fastcap_decide_step``
with one ``np.power`` call between C calls; it must return exactly
what :func:`~repro.core.optimizer._solve_degradation_rows` returns:
the achieved D, the think times, the predicted power and the
feasibility, with equal bits (signed zeros included) and NaN where
numpy has NaN.

The pinned cases cover the op-order rules the C step follows: core
counts on each branch of numpy's pairwise sum (fewer than 8, exactly
8, a non-multiple of 8, more than 128), one row, many rows sharing
``(N,)`` power models and rows with their own ``(K, N)`` models, rows
that are infeasible, slack and interior in one call, degradation
floors clamped at 1e-9 and at 1.0, and a row holding a NaN.  The
property also checks :func:`~repro.core.optimizer.solve_degradation`
against ``benchmarks/seed_reference.seed_solve_degradation``, the
seed's scalar bisection.  It runs under `hypothesis` when available
and over a seeded grid otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.core import optimizer
from repro.core.model import FastCapInputs
from repro.core.optimizer import (
    solve_degradation,
    solve_degradation_batch,
    solve_degradation_lanes,
)
from repro.core.power_fit import FittedPowerModel
from repro.core.response_time import ResponseModel
from repro.queueing.kernels import cext
from repro.units import NS

from benchmarks.seed_reference import seed_solve_degradation

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal CI images
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.skipif(
    cext.load() is None, reason="no C compiler available"
)

#: Core counts by the pairwise-sum branch they exercise.
CORE_CHOICES = (1, 2, 5, 7, 8, 9, 13, 16, 32, 64, 127, 128, 129, 200)

#: What a row's budget makes of it.
REGIMES = ("infeasible", "slack", "interior")

#: Seeds for the no-hypothesis fallback grid.
FALLBACK_SEEDS = tuple(range(40))


def random_case(
    seed: int,
    n: Optional[int] = None,
    k: Optional[int] = None,
    per_row: Optional[bool] = None,
    regimes: Optional[tuple] = None,
    floor: Optional[str] = None,
    nan_row: Optional[int] = None,
) -> dict:
    """Draw one row solve's arguments; keywords pin a draw.

    Each row's budget sits below its all-floor power (``infeasible``),
    above its full-speed power (``slack``) or between them
    (``interior``).  ``floor`` pushes row 0's degradation floor below
    1e-9 (``"low"``) or above 1.0 (``"high"``); ``nan_row`` puts a NaN
    in that row's response times.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.choice(CORE_CHOICES)) if n is None else n
    k = int(rng.integers(1, 12)) if k is None else k
    per_row = bool(rng.random() < 0.5) if per_row is None else per_row
    if regimes is None:
        regimes = tuple(rng.choice(REGIMES) for _ in range(k))
    shape = (k, n) if per_row else (n,)

    z_min = rng.uniform(10 * NS, 400 * NS, shape)
    z_max = z_min / rng.uniform(0.4, 0.8, shape)
    cache = rng.uniform(2 * NS, 10 * NS, shape)
    r_min = rng.uniform(5 * NS, 60 * NS, shape)
    t_bar = z_min + cache + r_min
    r = r_min * rng.uniform(1.0, 3.0, (k, n))
    p_max = rng.uniform(0.5, 6.0, shape)
    alpha = rng.uniform(1.5, 3.5, shape)
    if floor == "low":
        t_bar = np.array(np.broadcast_to(t_bar, (k, n)))
        t_bar[0, 0] = 1e-12 * NS
    elif floor == "high":
        t_bar = np.array(np.broadcast_to(t_bar, (k, n)))
        t_bar[0] = 10.0 * (z_max + cache + r)[0]
    if nan_row is not None:
        r[nan_row, int(rng.integers(0, n))] = np.nan

    # Power at every core's floor and at full speed bound the interior.
    full = np.broadcast_to(p_max, (k, n)).sum(axis=1)
    at_floor = np.broadcast_to(p_max * (z_min / z_max) ** alpha, (k, n)).sum(axis=1)
    share = {
        "infeasible": lambda: rng.uniform(-0.5, 0.0),
        "slack": lambda: rng.uniform(1.01, 2.0),
        "interior": lambda: rng.uniform(0.05, 0.95),
    }
    available = np.array(
        [
            at_floor[j] + share[regime]() * (full[j] - at_floor[j])
            for j, regime in enumerate(regimes)
        ]
    )
    mem_power = rng.uniform(2.0, 20.0, k)
    static_w = rng.uniform(5.0, 40.0, k) if per_row else float(rng.uniform(5, 40))
    return dict(
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


def assert_same_bits(actual, expected, name: str) -> None:
    """Equal bits everywhere, except that any NaN matches any NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, name
    assert actual.dtype == expected.dtype, name
    if actual.dtype == bool:
        np.testing.assert_array_equal(actual, expected, err_msg=name)
        return
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan, err_msg=name)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64), err_msg=name
    )


def check_bit_identity(case: dict):
    """Both paths on the case; returns the numpy kernel's result."""
    with np.errstate(all="ignore"):
        compiled = optimizer._solve_rows(**case)
        expected = optimizer._solve_degradation_rows(**case)
    for name, a, b in zip(("d", "z", "power_w", "feasible"), compiled, expected):
        assert_same_bits(a, b, name)
    return expected


def random_inputs(seed: int) -> FastCapInputs:
    """A random multi-controller FastCapInputs with per-core models."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice(CORE_CHOICES[:11]))
    n_ctrl = int(rng.integers(1, 5))
    z_min = rng.uniform(10 * NS, 400 * NS, n)
    visits = rng.uniform(0.0, 1.0, (n, n_ctrl))
    visits /= visits.sum(axis=1, keepdims=True)
    sb_min = rng.uniform(0.5 * NS, 2.0 * NS)
    p_max = rng.uniform(0.5, 6.0, n)
    return FastCapInputs(
        z_min=z_min,
        z_max=z_min / rng.uniform(0.4, 0.8, n),
        cache=rng.uniform(2 * NS, 10 * NS, n),
        response=ResponseModel(
            q=rng.uniform(1.0, 4.0, n_ctrl),
            u=rng.uniform(1.0, 3.0, n_ctrl),
            s_m=rng.uniform(10 * NS, 40 * NS, n_ctrl),
            visits=visits,
        ),
        core_p_max=p_max,
        core_alpha=rng.uniform(1.5, 3.5, n),
        memory_model=FittedPowerModel(
            float(rng.uniform(2.0, 12.0)), float(rng.uniform(0.5, 1.5))
        ),
        static_power_w=float(rng.uniform(5.0, 40.0)),
        budget_w=float(rng.uniform(5.0, 40.0) + p_max.sum() * rng.uniform(0.1, 1.3)),
        sb_candidates=sb_min * np.linspace(1.0, rng.uniform(2.0, 5.0), 10),
        sb_min=sb_min,
    )


def check_against_seed(inputs: FastCapInputs) -> None:
    """Every candidate's scalar solve matches the seed's and the batch's."""
    batch = solve_degradation_batch(inputs)
    for idx, s_b in enumerate(inputs.sb_candidates):
        sol = solve_degradation(inputs, float(s_b))
        for ref in (seed_solve_degradation(inputs, float(s_b)), batch.solution(idx)):
            assert_same_bits(sol.d, ref.d, "d")
            assert_same_bits(sol.z, ref.z, "z")
            assert_same_bits(sol.power_w, ref.power_w, "power_w")
            assert sol.feasible == ref.feasible


# ----------------------------------------------------------------------
# Pinned cases: one per op-order rule
# ----------------------------------------------------------------------
PINNED = {
    # The branches of numpy's pairwise sum over a row of cores.
    "one-core": dict(n=1),
    "7-cores": dict(n=7),
    "8-cores": dict(n=8),
    "13-cores": dict(n=13),
    "129-cores": dict(n=129),
    "200-cores": dict(n=200),
    # The three callers' row shapes.
    "one-row": dict(k=1, per_row=False, regimes=("interior",)),
    "candidates-share-models": dict(k=10, per_row=False, regimes=("interior",) * 10),
    "lanes-own-models": dict(k=9, per_row=True, regimes=("interior",) * 9),
    "mixed-regimes": dict(k=6, regimes=REGIMES * 2),
    "floor-clamped-low": dict(k=3, floor="low", regimes=("interior",) * 3),
    "floor-clamped-high": dict(k=3, floor="high", regimes=("interior",) * 3),
    "nan-row": dict(k=4, nan_row=2, regimes=("interior",) * 4),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_case_is_bit_identical(name):
    check_bit_identity(random_case(sum(map(ord, name)), **PINNED[name]))


def test_mixed_regimes_reach_each_branch():
    case = random_case(5, n=16, k=6, per_row=False, regimes=REGIMES * 2)
    d, z, power, feasible = check_bit_identity(case)
    np.testing.assert_array_equal(feasible, [False, True, True] * 2)
    # Slack rows run at full speed; interior rows spend the budget.
    np.testing.assert_array_equal(z[[1, 4]], [case["z_min"]] * 2)
    interior = [2, 5]
    spent = power[interior] - case["mem_power"][interior] - case["static_w"]
    np.testing.assert_allclose(spent, case["available"][interior], rtol=1e-6)


def test_clamped_floors():
    low = random_case(7, n=8, k=2, floor="low", regimes=("infeasible",) * 2)
    high = random_case(7, n=8, k=2, floor="high", regimes=("interior",) * 2)
    # A floor below 1e-9 clamps to 1e-9, where an infeasible row is
    # pinned; the D it achieves there stays below the clamp.
    d, _, _, feasible = check_bit_identity(low)
    assert not feasible.any()
    assert d[0] < 1e-9
    # A floor above 1.0 clamps to 1.0, so the row runs at full speed.
    d, _, _, _ = check_bit_identity(high)
    assert d[0] >= 1.0


def test_nan_row_stays_in_its_row():
    d, _, _, _ = check_bit_identity(
        random_case(11, n=13, k=4, nan_row=2, regimes=("interior",) * 4)
    )
    assert np.isnan(d[2])
    assert not np.isnan(np.delete(d, 2)).any()


@pytest.mark.parametrize(
    "solve",
    [
        lambda inputs: solve_degradation(inputs, float(inputs.sb_candidates[2])),
        solve_degradation_batch,
        lambda inputs: solve_degradation_lanes([(inputs, 0), (inputs, 5)]),
    ],
    ids=["solve_degradation", "solve_degradation_batch", "solve_degradation_lanes"],
)
def test_solves_run_the_compiled_kernel(monkeypatch, solve):
    def refuse(**kwargs):
        raise AssertionError("the numpy row kernel ran")

    monkeypatch.setattr(optimizer, "_solve_degradation_rows", refuse)
    solve(random_inputs(3))


# ----------------------------------------------------------------------
# The property over random draws
# ----------------------------------------------------------------------
def check_seed(seed: int) -> None:
    check_bit_identity(random_case(seed))
    check_against_seed(random_inputs(seed))


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_random_cases_are_bit_identical(seed):
        check_seed(seed)

else:  # pragma: no cover - minimal CI images only

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_random_cases_are_bit_identical(seed):
        check_seed(seed)
