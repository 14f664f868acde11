"""Property-based correctness suite for the fleet MVA path.

Two layers:

* **MVA invariants** on randomly generated networks — throughputs are
  non-negative, the closed-network closure ``X_i (z_i + c_i + R_i) =
  n_i`` holds at convergence, and degradation is monotone in the bank
  service time;
* **bit-identity**: for every generated case, lane ``k`` of
  ``FleetSolver.solve`` equals scalar ``MVASolver.solve`` on the same
  network *bit for bit* (including the iteration count), under warm
  starts, background traffic, participation masks and repeated reuse.

The suite runs under `hypothesis` when available and falls back to a
seeded random grid otherwise (same generator, fixed seeds), so CI
environments without hypothesis still execute every property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.queueing import FleetArrays, FleetSolver, MVASolver, NetworkArrays

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal CI images
    HAVE_HYPOTHESIS = False

_MVA_FIELDS = (
    "throughput_per_s",
    "memory_response_s",
    "turnaround_s",
    "bank_utilization",
    "bank_queue",
    "bus_utilization",
    "bus_wait_s",
    "controller_arrival_per_s",
    "controller_response_s",
    "controller_visit_probs",
)

#: Seeds for the no-hypothesis fallback grid (and for the shared
#: generator under hypothesis, which draws the seed instead).
FALLBACK_SEEDS = tuple(range(24))


def random_fleet(seed: int):
    """Generate a random fleet of shape-compatible networks.

    One seeded draw fixes everything the properties quantify over:
    lane count, network shape, per-lane routing skews, service/think
    magnitudes, populations and background traffic.  Used directly by
    the fallback grid and wrapped in a strategy under hypothesis.
    """
    rng = np.random.default_rng(seed)
    n_lanes = int(rng.integers(1, 7))
    n_classes = int(rng.integers(2, 13))
    n_ctrl = int(rng.choice([1, 1, 2, 4]))
    banks_per = int(rng.integers(1, 9))
    n_banks = n_ctrl * banks_per
    bank_ctrl = np.repeat(np.arange(n_ctrl, dtype=np.int64), banks_per)
    with_bg = bool(rng.random() < 0.5)
    unit_pop = bool(rng.random() < 0.7)

    lanes = []
    for _ in range(n_lanes):
        # Random routing: positive, rows normalised.
        routing = rng.uniform(0.05, 1.0, (n_classes, n_banks))
        routing /= routing.sum(axis=1, keepdims=True)
        lanes.append(
            NetworkArrays(
                routing=routing,
                bank_service=rng.uniform(10e-9, 60e-9, n_banks),
                bus_transfer=rng.uniform(2e-9, 10e-9, n_ctrl),
                bank_ctrl=bank_ctrl,
                bg_rates=(
                    rng.uniform(0.0, 2e6, n_banks) if with_bg else None
                ),
                population=(
                    None
                    if unit_pop
                    else rng.integers(1, 4, n_classes).astype(float)
                ),
                think_s=rng.uniform(10e-9, 200e-9, n_classes),
            )
        )
    return lanes


def scalar_reference(lane: NetworkArrays, tolerance: float, warm=None):
    """Fresh-solver scalar solve on a private copy of one lane."""
    clone = NetworkArrays(
        routing=lane.routing,
        bank_service=lane.bank_service,
        bus_transfer=lane.bus_transfer,
        bank_ctrl=lane.bank_ctrl,
        bg_rates=lane.bg_rates,
        population=lane.population,
        think_s=lane.think_s,
    )
    return MVASolver(clone).solve(tolerance=tolerance, initial_throughput=warm)


def assert_bit_identical(ref, new, context: str) -> None:
    assert ref.iterations == new.iterations, context
    for field in _MVA_FIELDS:
        a, b = getattr(ref, field), getattr(new, field)
        np.testing.assert_array_equal(a, b, err_msg=f"{context}: {field}")


# ----------------------------------------------------------------------
# The properties (seed-parameterised; hypothesis wraps them below)
# ----------------------------------------------------------------------
def check_invariants_and_parity(seed: int) -> None:
    """Solve a random fleet; check invariants and lane bit-identity."""
    lanes = random_fleet(seed)
    tolerance = 1e-8
    solutions = FleetSolver(lanes).solve(tolerance=tolerance)

    for k, (lane, sol) in enumerate(zip(lanes, solutions)):
        context = f"seed={seed} lane={k}"
        # Invariant: throughputs are non-negative and finite.
        assert np.all(sol.throughput_per_s >= 0), context
        assert np.all(np.isfinite(sol.throughput_per_s)), context
        # Invariant: closed-network closure X_i (z_i + c_i + R_i) = n_i.
        closure = sol.throughput_per_s * sol.turnaround_s
        np.testing.assert_allclose(
            closure, lane.population, rtol=1e-5, err_msg=context
        )
        # Invariant: utilisations live in [0, 1] (capped).
        assert np.all(sol.bank_utilization <= 1.0 + 1e-12), context
        assert np.all(sol.bus_utilization <= 1.0), context
        # Bit-identity against a fresh scalar solve.
        assert_bit_identical(
            scalar_reference(lane, tolerance), sol, context
        )


def check_monotone_in_service_time(seed: int) -> None:
    """Slower banks can only degrade total throughput (monotone in s_m)."""
    lanes = random_fleet(seed)
    lane = lanes[0]
    totals = []
    for scale in (1.0, 1.5, 2.5, 4.0):
        lane.update(s_m=lane.bank_service * 0 + 30e-9 * scale)
        sol = MVASolver(lane).solve(tolerance=1e-9)
        totals.append(sol.total_throughput_per_s)
    for faster, slower in zip(totals, totals[1:]):
        # Tiny relative slack: the damped fixed point is approximate.
        assert slower <= faster * (1.0 + 1e-6), f"seed={seed}: {totals}"


def check_warm_start_and_mask_parity(seed: int) -> None:
    """Masked, warm-started fleet re-solves track the scalar path."""
    lanes = random_fleet(seed)
    r = len(lanes)
    n = lanes[0].n_classes
    solver = FleetSolver(lanes)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(2):
        mask = rng.random(r) < 0.6
        if not mask.any():
            mask[int(rng.integers(r))] = True
        warm = rng.uniform(1e4, 1e7, (r, n))
        for k in np.flatnonzero(mask):
            lanes[k].update(think=rng.uniform(10e-9, 150e-9, n))
        solutions = solver.solve(
            tolerance=1e-8, initial_throughput=warm, lanes=mask
        )
        for k in range(r):
            if not mask[k]:
                assert solutions[k] is None
                continue
            assert_bit_identical(
                scalar_reference(lanes[k], 1e-8, warm=warm[k]),
                solutions[k],
                f"seed={seed} lane={k}",
            )


# ----------------------------------------------------------------------
# Harness: hypothesis when present, seeded grid otherwise
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariants_and_lane_parity(seed):
        check_invariants_and_parity(seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_throughput_monotone_in_bank_service(seed):
        check_monotone_in_service_time(seed)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_warm_start_and_mask_parity(seed):
        check_warm_start_and_mask_parity(seed)

else:  # pragma: no cover - minimal CI images only

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_invariants_and_lane_parity(seed):
        check_invariants_and_parity(seed)

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS[:12])
    def test_throughput_monotone_in_bank_service(seed):
        check_monotone_in_service_time(seed)

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS[:8])
    def test_warm_start_and_mask_parity(seed):
        check_warm_start_and_mask_parity(seed)


# ----------------------------------------------------------------------
# Structural behaviour
# ----------------------------------------------------------------------
class TestFleetArrays:
    def test_fleet_arrays_stack_the_lanes(self):
        lanes = random_fleet(0)
        fleet = FleetArrays(lanes)
        assert fleet.n_lanes == len(lanes)
        assert fleet.routing.shape == (
            len(lanes),
            lanes[0].n_classes,
            lanes[0].total_banks,
        )

    def test_shape_mismatch_rejected(self):
        a = random_fleet(1)[0]
        b = random_fleet(2)[0]
        if (a.n_classes, a.total_banks, a.n_controllers) == (
            b.n_classes,
            b.total_banks,
            b.n_controllers,
        ):
            pytest.skip("seeds drew identical shapes")
        with pytest.raises(ConfigurationError):
            FleetArrays([a, b])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetArrays([])

    def test_gather_tracks_in_place_updates(self):
        lanes = random_fleet(3)
        fleet = FleetArrays(lanes)
        lanes[0].update(s_m=42e-9)
        fleet.gather()
        np.testing.assert_array_equal(
            fleet.bank_service[0], lanes[0].bank_service
        )

    def test_gather_skips_unchanged_lanes(self):
        lanes = random_fleet(4)
        fleet = FleetArrays(lanes)
        # Corrupt a row, then gather without touching the lane: the
        # version check must skip the copy (the corruption survives).
        fleet.bank_service[0, 0] = -1.0
        fleet.gather()
        assert fleet.bank_service[0, 0] == -1.0
        lanes[0].update(s_m=lanes[0].bank_service.copy())
        fleet.gather()
        assert fleet.bank_service[0, 0] == lanes[0].bank_service[0]


class TestFleetSolverEdges:
    def test_bad_lane_mask_shape_rejected(self):
        solver = FleetSolver(random_fleet(5))
        with pytest.raises(ConfigurationError):
            solver.solve(lanes=np.ones(solver.n_lanes + 1, dtype=bool))

    def test_all_masked_out_returns_nones(self):
        solver = FleetSolver(random_fleet(6))
        out = solver.solve(lanes=np.zeros(solver.n_lanes, dtype=bool))
        assert out == [None] * solver.n_lanes

    @pytest.mark.parametrize("first", [0, 1])
    def test_failing_lane_raises_its_scalar_error(self, first):
        """The first participating lane's own scalar error surfaces,
        whatever the lanes after it would have reported."""
        lanes = random_fleet(2)  # six lanes; neither lane 0 nor 1 steps most
        mask = np.arange(len(lanes)) >= first
        with pytest.raises(ConvergenceError) as fleet_error:
            FleetSolver(lanes).solve(max_iterations=2, lanes=mask)
        with pytest.raises(ConvergenceError) as scalar_error:
            MVASolver(lanes[first]).solve(max_iterations=2)
        for field in ("iterations", "last_rel_change", "damping"):
            assert getattr(fleet_error.value, field) == getattr(
                scalar_error.value, field
            ), field
