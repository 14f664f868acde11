"""The compiled exact step vs the numpy fixed point, bit for bit.

:meth:`MVASolver._compiled_fixed_point` runs numpy's gemv plus one
call of ``fastcap_mva_exact_step`` per iteration; it must leave the
same state as :meth:`MVASolver._numpy_fixed_point` to the bit.  Each
case builds two solvers over identical networks, puts both in the same
state, advances one on each path and compares ``x``, ``q``, both
response buffers (and which one ``_r_bank`` names), the iteration
count and the :meth:`~MVASolver._snapshot`, or the
:class:`~repro.errors.ConvergenceError` fields and the state it leaves.

Every case starts at iteration 1 with the solve's default damping,
as every solve does.  The cases cover the op-order rules the C step
follows: one bank (where numpy's per-bank queue sum turns pairwise),
fewer than 8, exactly 8, a non-multiple of 8 and more than 128 banks
(the branches of numpy's pairwise sum), one or several controllers
with contiguous or shuffled bank maps, unit and non-unit populations,
background traffic on and off, warm and cold starts, and budgets that
run out, one of them past the iteration-300 damping halving.  The
suite runs under `hypothesis` when available and over a seeded grid
otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.kernels import cext
from repro.queueing.mva import MVASolver

from tests.queueing.test_fleet_solver import assert_bit_identical

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal CI images
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.skipif(
    cext.load() is None, reason="no C compiler available"
)

#: Bank counts by the pairwise-sum branch they exercise.
BANK_CHOICES = (1, 2, 5, 7, 8, 9, 13, 16, 31, 64, 100, 127, 128, 129, 200, 300)

#: Seeds for the no-hypothesis fallback grid.
FALLBACK_SEEDS = tuple(range(40))


def random_case(
    seed: int,
    n_banks: Optional[int] = None,
    n_classes: Optional[int] = None,
    n_ctrl: Optional[int] = None,
    shuffled: Optional[bool] = None,
    unit_pop: Optional[bool] = None,
    with_bg: Optional[bool] = None,
    warm: Optional[bool] = None,
    max_iterations: Optional[int] = None,
    tolerance: Optional[float] = None,
) -> dict:
    """Draw one network, start and budget; keywords pin a draw."""
    rng = np.random.default_rng(seed)

    def pick(value, draw):
        return draw() if value is None else value

    n_banks = pick(n_banks, lambda: int(rng.choice(BANK_CHOICES)))
    n_classes = pick(n_classes, lambda: int(rng.integers(1, 40)))
    n_ctrl = pick(n_ctrl, lambda: int(rng.integers(1, min(8, n_banks) + 1)))
    shuffled = pick(shuffled, lambda: bool(rng.random() < 0.5))
    unit_pop = pick(unit_pop, lambda: bool(rng.random() < 0.5))
    with_bg = pick(with_bg, lambda: bool(rng.random() < 0.5))
    warm = pick(warm, lambda: bool(rng.random() < 0.5))
    max_iterations = pick(
        max_iterations,
        lambda: 2000 if rng.random() < 0.7 else int(rng.integers(0, 320)),
    )

    # Every controller owns at least one bank.
    bank_ctrl = np.concatenate(
        [np.arange(n_ctrl), rng.integers(0, n_ctrl, n_banks - n_ctrl)]
    ).astype(np.int64)
    if shuffled:
        rng.shuffle(bank_ctrl)
    else:
        bank_ctrl.sort()
    routing = rng.uniform(0.0, 1.0, (n_classes, n_banks)) ** rng.uniform(0.5, 4.0)
    routing /= routing.sum(axis=1, keepdims=True)
    network = dict(
        routing=routing,
        bank_service=rng.uniform(5e-9, 80e-9) * rng.uniform(0.5, 1.5, n_banks),
        bus_transfer=rng.uniform(1e-9, 20e-9, n_ctrl),
        bank_ctrl=bank_ctrl,
        bg_rates=rng.uniform(0.0, 3e7, n_banks) if with_bg else None,
        population=None if unit_pop else rng.integers(1, 5, n_classes).astype(float),
        think_s=rng.uniform(1e-9, 300e-9, n_classes),
    )
    return dict(
        network=network,
        initial=rng.uniform(1e3, 1e8, n_classes) if warm else None,
        max_iterations=max_iterations,
        tolerance=pick(
            tolerance, lambda: float(rng.choice([1e-8, 1e-10, 1e-12]))
        ),
    )


def advance(case: dict, compiled: bool):
    """Start a fresh solver at the case's state and advance it."""
    solver = MVASolver(NetworkArrays(**case["network"]))
    solver._start(case["initial"])
    # The second response buffer is uninitialised scratch until an
    # iteration writes it: give both paths the same contents.
    solver._r_bank_alt.fill(-1.0)
    run = solver._compiled_fixed_point if compiled else solver._numpy_fixed_point
    try:
        outcome = run(0.5, case["max_iterations"], case["tolerance"])
    except ConvergenceError as err:
        outcome = (err.iterations, err.last_rel_change, err.damping, str(err))
    return solver, outcome


def check_bit_identity(case: dict):
    """Both paths from the case's state; returns the shared outcome."""
    compiled, outcome = advance(case, compiled=True)
    reference, expected = advance(case, compiled=False)
    assert outcome == expected
    for name in ("_x", "_q", "_r_bank", "_r_bank_alt"):
        np.testing.assert_array_equal(
            getattr(compiled, name), getattr(reference, name), err_msg=name
        )
    assert (compiled._r_bank is compiled._r_banks[0]) == (
        reference._r_bank is reference._r_banks[0]
    )
    if isinstance(outcome, int):
        assert_bit_identical(
            reference._snapshot(
                reference._x, reference._q, reference._r_bank, expected
            ),
            compiled._snapshot(
                compiled._x, compiled._q, compiled._r_bank, outcome
            ),
            "snapshot",
        )
    return outcome


# ----------------------------------------------------------------------
# Pinned cases: one per op-order rule
# ----------------------------------------------------------------------
PINNED = {
    # numpy squeezes the unit bank axis: the per-bank queue sum over
    # 8+ classes turns pairwise.
    "one-bank-pairwise": dict(n_banks=1, n_classes=12),
    "one-bank-one-class": dict(n_banks=1, n_classes=1),
    "under-8-banks": dict(n_banks=5, n_ctrl=1),
    "8-banks": dict(n_banks=8, n_ctrl=2, shuffled=False),
    "non-multiple-of-8": dict(n_banks=37, n_ctrl=3, shuffled=True),
    "over-128-banks": dict(n_banks=300, n_ctrl=4, shuffled=True),
    "one-controller": dict(n_banks=32, n_ctrl=1, with_bg=False),
    "contiguous-controllers": dict(n_banks=32, n_ctrl=4, shuffled=False),
    "shuffled-controllers": dict(n_banks=32, n_ctrl=4, shuffled=True),
    "unit-population": dict(unit_pop=True, with_bg=True),
    "non-unit-population": dict(unit_pop=False, with_bg=False),
    "cold-start": dict(warm=False),
    "warm-start": dict(warm=True),
}

#: Budgets that run out, and the pins that make them run out.
EXHAUSTED = {
    "three-iterations": dict(max_iterations=3),
    "empty": dict(max_iterations=0),
    # A zero tolerance never converges, so the damping halves at
    # iteration 300 and the error reports the halved damping.
    "across-300": dict(max_iterations=310, tolerance=0.0),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_case_is_bit_identical(name):
    # Cold full-budget solves unless the case says otherwise.
    pins = dict(warm=False, max_iterations=2000)
    pins.update(PINNED[name])
    iterations = check_bit_identity(random_case(sum(map(ord, name)), **pins))
    assert isinstance(iterations, int)


@pytest.mark.parametrize("name", sorted(EXHAUSTED))
def test_exhausted_budget_raises_identical_errors(name):
    pins = EXHAUSTED[name]
    outcome = check_bit_identity(random_case(sum(map(ord, name)), **pins))
    budget = pins["max_iterations"]
    assert outcome[0] == budget  # ConvergenceError.iterations
    assert outcome[2] == 0.5 * 0.5 ** (budget // 300)  # .damping


def test_solve_runs_the_compiled_step(monkeypatch):
    case = random_case(3, n_banks=16, max_iterations=2000)
    solver = MVASolver(NetworkArrays(**case["network"]))
    assert solver._step is not None

    def refuse(*args):
        raise AssertionError("the numpy loop ran")

    monkeypatch.setattr(solver, "_numpy_fixed_point", refuse)
    solver.solve()


# ----------------------------------------------------------------------
# The property over random draws
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_random_cases_are_bit_identical(seed):
        check_bit_identity(random_case(seed))

else:  # pragma: no cover - minimal CI images only

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_random_cases_are_bit_identical(seed):
        check_bit_identity(random_case(seed))
