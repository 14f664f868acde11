"""The compiled fixed-point kernel vs the exact AMVA solver.

:mod:`repro.queueing.kernels.cext` states the relaxed tier's fused
iteration once, as a C loop-nest.  When a C compiler is present these
tests run it against :class:`~repro.queueing.mva.MVASolver`, both
through its raw entry points and through the solvers'
``solve_relaxed``; the ``failed_build`` fixture gives the process a
compiler that always fails, to check the exact numpy fallback.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.fleet import FleetSolver
from repro.queueing.kernels import cext, warmup
from repro.queueing.mva import MVASolver

from tests.conftest import make_network
from tests.golden_grid import golden_specs, result_content_hash

#: Relaxed-tier agreement bound (mirrors the parity fixture's gate).
RTOL = 1e-8

needs_cc = pytest.mark.skipif(
    cext.load() is None, reason="no C compiler available"
)


def _reset_loader(monkeypatch) -> None:
    """Forget this process's build attempt (restored after the test)."""
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_build_attempted", False)
    monkeypatch.setattr(cext, "_build_error", None)


@pytest.fixture
def failed_build(monkeypatch, tmp_path):
    """A process whose kernel build fails: ``$CC`` always exits 1."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("FASTCAP_KERNEL_CACHE", str(tmp_path / "kernels"))
    _reset_loader(monkeypatch)


def make_solver(**kwargs) -> MVASolver:
    return MVASolver(NetworkArrays.from_network(make_network(**kwargs)))


def kernel_fixed_point(solver: MVASolver, max_iterations: int = 2000):
    """Run the C kernel from the exact solver's cold-start state.

    Replicates :meth:`MVASolver.solve`'s initialisation so the kernel
    advances the same fixed point from the same starting point; returns
    the final throughputs and ``(iterations, last_rel_change, damping)``.
    """
    a = solver.arrays
    x = a.population / (a.think_s + a.bank_service.mean() + a.bus_transfer.mean())
    r_bank = np.tile(a.bank_service, (a.n_classes, 1))
    q = x[:, None] * a.routing * r_bank
    outcome = cext.solve_lane(
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
        1e-10,
        0.5,
    )
    return x, outcome


NETWORK_CASES = [
    dict(),
    dict(n_classes=16, think_ns=5.0),
    dict(n_classes=8, n_banks=16, n_controllers=2),
    dict(n_classes=32, think_ns=1.0, service_ns=40, bus_ns=5),
]


# ----------------------------------------------------------------------
# Which backend serves relaxed solves
# ----------------------------------------------------------------------
class TestRegistry:
    """``warmup()`` reports the C kernel when its library loads, else
    the exact numpy fallback."""

    @needs_cc
    def test_default_prefers_compiled_backends(self):
        assert warmup() == ("cc", True)
        assert cext.build_error() is None

    @needs_cc
    def test_warmup_returns_ready_kernel(self, monkeypatch, tmp_path):
        # A fresh cache: warmup builds the content-addressed library.
        cache = tmp_path / "kernels"
        monkeypatch.setenv("FASTCAP_KERNEL_CACHE", str(cache))
        _reset_loader(monkeypatch)
        assert warmup().compiled
        assert len(list(cache.glob("fastcap_mva_*.so"))) == 1

    def test_instances_are_memoised(self):
        assert warmup() is warmup()

    def test_numpy_always_available(self, monkeypatch, tmp_path):
        # No compiler anywhere on PATH.
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        _reset_loader(monkeypatch)
        assert warmup() == ("numpy", False)
        assert "no C compiler" in cext.build_error()

    def test_numpy_kernel_is_not_compiled(self, failed_build, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.queueing.kernels"):
            kernel = warmup()
            warmup()
        assert kernel.name == "numpy"
        assert not kernel.compiled
        error = cext.build_error()
        assert "kernel build failed" in error and "false" in error
        warnings = [
            r for r in caplog.records if r.name == "repro.queueing.kernels"
        ]
        assert len(warnings) == 1
        assert error in warnings[0].getMessage()


# ----------------------------------------------------------------------
# The C loop-nest's raw entry points vs the exact solver
# ----------------------------------------------------------------------
@needs_cc
class TestFusedReference:
    @pytest.mark.parametrize("case", NETWORK_CASES)
    def test_matches_exact_solver(self, case):
        solver = make_solver(**case)
        exact = solver.solve()
        x, (iterations, _, _) = kernel_fixed_point(solver)
        assert iterations > 0
        np.testing.assert_allclose(x, exact.throughput_per_s, rtol=RTOL)

    def test_same_iteration_count_as_exact(self):
        solver = make_solver(n_classes=16, think_ns=5.0)
        exact = solver.solve()
        _, (iterations, _, _) = kernel_fixed_point(solver)
        assert iterations == exact.iterations

    def test_exhausted_budget_reports_state(self):
        # max_iterations far too small
        _, (iterations, rel, damping) = kernel_fixed_point(
            make_solver(), max_iterations=2
        )
        assert iterations == 0
        assert rel > 0
        assert damping == 0.5  # no decay within 2 iterations

    def test_batched_entry_matches_single_lane(self):
        cases = [dict(n_classes=8, think_ns=t) for t in (5.0, 20.0, 60.0)]
        solvers = [make_solver(**c) for c in cases]
        singles = [kernel_fixed_point(s) for s in solvers]

        a0 = solvers[0].arrays
        r = len(solvers)
        routing = np.stack([s.arrays.routing for s in solvers])
        bank_service = np.stack([s.arrays.bank_service for s in solvers])
        bus_transfer = np.stack([s.arrays.bus_transfer for s in solvers])
        bg_rates = np.stack([s.arrays.bg_rates for s in solvers])
        population = np.stack([s.arrays.population for s in solvers])
        think = np.stack([s.arrays.think_s for s in solvers])
        x = population / (
            think
            + bank_service.mean(axis=1)[:, None]
            + bus_transfer.mean(axis=1)[:, None]
        )
        r_bank = np.repeat(bank_service[:, None, :], a0.n_classes, axis=1)
        q = x[:, :, None] * routing * r_bank
        iters = np.zeros(r, dtype=np.int64)
        cext.solve_lanes(
            routing,
            bank_service,
            bus_transfer,
            a0.bank_ctrl,
            bg_rates,
            population,
            think,
            x,
            q,
            r_bank,
            iters,
            np.zeros(r),
            np.zeros(r),
            1,
            2000,
            1e-10,
            0.5,
        )
        for j in range(r):
            x_single, (iterations, _, _) = singles[j]
            assert int(iters[j]) == iterations
            np.testing.assert_array_equal(x[j], x_single)


# ----------------------------------------------------------------------
# solve_relaxed integration
# ----------------------------------------------------------------------
def _assert_budget_error(err: ConvergenceError) -> None:
    """The C kernel's terminal state after a 2-iteration budget."""
    assert "C kernel" in str(err)
    assert err.iterations == 2
    assert err.last_rel_change > 0
    assert err.damping == 0.5  # no decay within 2 iterations


class TestSolveRelaxed:
    def test_numpy_fallback_is_bit_identical(self, failed_build):
        solver = make_solver(n_classes=16, think_ns=5.0)
        exact = solver.solve()
        x_exact = exact.throughput_per_s.copy()
        relaxed = solver.solve_relaxed()
        np.testing.assert_array_equal(relaxed.throughput_per_s, x_exact)
        assert relaxed.iterations == exact.iterations

    @needs_cc
    @pytest.mark.parametrize("case", NETWORK_CASES)
    def test_compiled_agrees_with_exact(self, case):
        solver = make_solver(**case)
        exact = solver.solve()
        x_exact = exact.throughput_per_s.copy()
        relaxed = solver.solve_relaxed()
        np.testing.assert_allclose(relaxed.throughput_per_s, x_exact, rtol=RTOL)
        np.testing.assert_allclose(
            relaxed.memory_response_s, exact.memory_response_s, rtol=RTOL
        )

    @needs_cc
    def test_cc_same_iteration_count(self):
        solver = make_solver(n_classes=16, think_ns=5.0)
        exact = solver.solve()
        relaxed = solver.solve_relaxed()
        assert relaxed.iterations == exact.iterations

    @needs_cc
    def test_exhausted_budget_raises_with_kernel_state(self):
        with pytest.raises(ConvergenceError) as info:
            make_solver().solve_relaxed(max_iterations=2)
        _assert_budget_error(info.value)


# ----------------------------------------------------------------------
# Fleet integration
# ----------------------------------------------------------------------
class TestFleetRelaxed:
    def _fleet(self):
        cases = [dict(n_classes=8, think_ns=t) for t in (5.0, 15.0, 40.0, 80.0)]
        return FleetSolver(
            [NetworkArrays.from_network(make_network(**c)) for c in cases]
        )

    def test_numpy_fallback_matches_exact_fleet(self, failed_build):
        fleet = self._fleet()
        exact = fleet.solve()
        relaxed = self._fleet().solve_relaxed()
        for e, r in zip(exact, relaxed):
            np.testing.assert_array_equal(
                r.throughput_per_s, e.throughput_per_s
            )

    @needs_cc
    def test_cc_agrees_with_exact_fleet(self):
        fleet = self._fleet()
        exact = fleet.solve()
        relaxed = self._fleet().solve_relaxed()
        for e, r in zip(exact, relaxed):
            np.testing.assert_allclose(
                r.throughput_per_s, e.throughput_per_s, rtol=RTOL
            )
            assert r.iterations == e.iterations

    @needs_cc
    def test_cc_respects_lane_mask(self):
        fleet = self._fleet()
        mask = np.array([True, False, True, False])
        solutions = fleet.solve_relaxed(lanes=mask)
        assert solutions[1] is None and solutions[3] is None
        exact = self._fleet().solve(lanes=mask)
        np.testing.assert_allclose(
            solutions[0].throughput_per_s,
            exact[0].throughput_per_s,
            rtol=RTOL,
        )

    @needs_cc
    def test_exhausted_budget_raises_with_kernel_state(self):
        with pytest.raises(ConvergenceError) as info:
            self._fleet().solve_relaxed(max_iterations=2)
        _assert_budget_error(info.value)


# ----------------------------------------------------------------------
# The fallback at run level
# ----------------------------------------------------------------------
def test_fallback_runs_are_byte_identical_to_exact(failed_build, caplog):
    """Without the C kernel a relaxed run is its exact run, bit for bit,
    scalar and fleet, and the process warns once."""
    from repro.campaign import Campaign, CampaignRunner
    from repro.campaign.runner import execute_spec

    specs = golden_specs()[:3]
    exact = {s: result_content_hash(execute_spec(s)) for s in specs}
    with caplog.at_level(logging.WARNING, logger="repro.queueing.kernels"):
        for spec in specs:
            relaxed = execute_spec(spec.replace(parity="relaxed"))
            assert result_content_hash(relaxed) == exact[spec]
        runner = CampaignRunner(batch="fleet", parity="relaxed")
        results = runner.run_campaign(Campaign("fallback-fleet", specs))
    assert runner.fleet_runs == len(specs)
    for spec in specs:
        assert result_content_hash(results[spec]) == exact[spec]
    warnings = [r for r in caplog.records if r.name == "repro.queueing.kernels"]
    assert len(warnings) == 1
    assert cext.build_error() in warnings[0].getMessage()


# ----------------------------------------------------------------------
# Warm-start property: the exact solver and the relaxed tier converge
# to the same fixed point from arbitrary feasible warm starts.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=0.05, max_value=4.0),
    tilt=st.floats(min_value=-0.8, max_value=0.8),
    think_ns=st.floats(min_value=2.0, max_value=120.0),
)
def test_warm_starts_reach_the_same_fixed_point(scale, tilt, think_ns):
    solver = make_solver(n_classes=8, think_ns=think_ns)
    cold = solver.solve()
    reference = cold.throughput_per_s.copy()

    # A feasible but arbitrary warm start: scaled and tilted across
    # classes, strictly positive.
    n = reference.size
    warm = reference * scale * (1.0 + tilt * np.linspace(-1.0, 1.0, n))
    warm = np.maximum(warm, 1e3)

    warm_exact = solver.solve(initial_throughput=warm.copy())
    np.testing.assert_allclose(
        warm_exact.throughput_per_s, reference, rtol=RTOL
    )

    relaxed = solver.solve_relaxed(initial_throughput=warm.copy())
    np.testing.assert_allclose(relaxed.throughput_per_s, reference, rtol=RTOL)
