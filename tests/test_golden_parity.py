"""Golden-parity gate for the PR2 array-native fast path.

Three layers of evidence that the refactor changed *implementation*,
not numbers:

1. kernel parity — the array-native MVA solver and the batched
   degradation solve reproduce verbatim copies of the seed
   implementations (:mod:`benchmarks.seed_reference`) bit for bit
   across sizes, tolerances and corner cases;
2. structural guarantee — ``solve_operating_point`` constructs zero
   network spec objects (the whole point of :class:`NetworkArrays`);
3. end-to-end hashes — every run on the (policy × workload × budget)
   golden grid produces a byte-identical ``RunResult`` content hash
   against the fixture captured on the pre-refactor tree.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.algorithm import binary_search_sb, exhaustive_sb
from repro.core.optimizer import solve_degradation, solve_degradation_batch
from repro.queueing import NetworkArrays, QueueingNetwork, solve_mva
from repro.queueing.mva import MVASolver
from repro.queueing.network import BackgroundFlow

from benchmarks.seed_reference import seed_solve_degradation, seed_solve_mva
from tests.conftest import make_network
from tests.core.conftest import make_inputs
from tests.golden_grid import GOLDEN_FIXTURE, golden_specs, result_content_hash

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


def _assert_mva_equal(ref, new):
    assert ref.iterations == new.iterations
    for field in _MVA_FIELDS:
        a, b = getattr(ref, field), getattr(new, field)
        np.testing.assert_array_equal(a, b, err_msg=field)


class TestMVAKernelParity:
    @pytest.mark.parametrize(
        "n_classes,n_banks,n_controllers",
        [(2, 4, 1), (4, 8, 1), (16, 32, 1), (16, 32, 4), (64, 32, 2)],
    )
    @pytest.mark.parametrize("tolerance", [1e-6, 1e-8, 1e-10])
    def test_matches_seed_bitwise(self, n_classes, n_banks, n_controllers, tolerance):
        net = make_network(
            n_classes=n_classes,
            n_banks=n_banks,
            think_ns=20,
            n_controllers=n_controllers,
        )
        _assert_mva_equal(
            seed_solve_mva(net, tolerance=tolerance),
            solve_mva(net, tolerance=tolerance),
        )

    def test_matches_seed_with_background(self):
        base = make_network(n_classes=16, n_banks=32, think_ns=20)
        rates = np.linspace(0.0, 2e6, 32)
        net = QueueingNetwork(
            classes=base.classes,
            controllers=base.controllers,
            background=tuple(
                BackgroundFlow(b, float(r)) for b, r in enumerate(rates) if r > 0
            ),
        )
        _assert_mva_equal(
            seed_solve_mva(net, tolerance=1e-8), solve_mva(net, tolerance=1e-8)
        )

    def test_matches_seed_with_warm_start(self):
        net = make_network(n_classes=8, n_banks=16, think_ns=25)
        warm = np.full(8, 1e6)
        _assert_mva_equal(
            seed_solve_mva(net, tolerance=1e-9, initial_throughput=warm),
            solve_mva(net, tolerance=1e-9, initial_throughput=warm),
        )

    def test_solver_reuse_is_stable(self):
        """Scratch reuse across solves must not leak state."""
        net = make_network(n_classes=8, n_banks=16, think_ns=25)
        solver = MVASolver(net.to_arrays())
        first = solver.solve(tolerance=1e-9)
        second = solver.solve(tolerance=1e-9)
        _assert_mva_equal(first, second)

    def test_in_place_update_equals_rebuilt_network(self):
        """update() + solve == building the equivalent network fresh."""
        net = make_network(n_classes=8, n_banks=16, think_ns=25)
        solver = MVASolver(net.to_arrays())
        solver.solve(tolerance=1e-8)  # dirty the scratch

        new_think = np.linspace(20e-9, 60e-9, 8)
        new_bg = np.linspace(0.0, 1e6, 16)
        solver.arrays.update(
            think=new_think, s_m=30e-9, s_b=4e-9, bg_rates=new_bg
        )
        updated = solver.solve(tolerance=1e-8)

        arrays = NetworkArrays(
            routing=net.routing_matrix(),
            bank_service=np.full(16, 30e-9),
            bus_transfer=np.full(1, 4e-9),
            bank_ctrl=net.bank_controller_map(),
            bg_rates=new_bg,
            population=np.ones(8),
            think_s=new_think,
        )
        rebuilt = MVASolver(arrays).solve(tolerance=1e-8)
        _assert_mva_equal(rebuilt, updated)


class TestDegradationBatchParity:
    @pytest.mark.parametrize("n_cores", [2, 4, 16, 64])
    @pytest.mark.parametrize(
        "budget_per_core,label",
        [(1.0, "infeasible"), (3.0, "interior"), (12.0, "slack")],
    )
    def test_batch_matches_seed_per_candidate(
        self, n_cores, budget_per_core, label
    ):
        rng = np.random.default_rng(7)
        inputs = make_inputs(
            n_cores=n_cores,
            z_min_ns=tuple(rng.uniform(10.0, 800.0, size=n_cores)),
            budget_w=budget_per_core * n_cores,
            static_w=0.5 * n_cores,
        )
        batch = solve_degradation_batch(inputs)
        assert batch.n_candidates == inputs.n_candidates
        for idx, s_b in enumerate(inputs.sb_candidates):
            ref = seed_solve_degradation(inputs, float(s_b))
            for sol in (batch.solution(idx), solve_degradation(inputs, float(s_b))):
                assert sol.d == ref.d
                assert sol.power_w == ref.power_w
                assert sol.feasible == ref.feasible
                np.testing.assert_array_equal(sol.z, ref.z)

    def test_searches_agree_with_seed_inner(self):
        rng = np.random.default_rng(11)
        inputs = make_inputs(
            n_cores=16,
            z_min_ns=tuple(rng.uniform(10.0, 800.0, size=16)),
            budget_w=50.0,
            static_w=8.0,
        )
        ref = exhaustive_sb(inputs, inner=seed_solve_degradation)
        new = exhaustive_sb(inputs)
        assert (ref.sb_index, ref.d, ref.predicted_power_w) == (
            new.sb_index,
            new.d,
            new.predicted_power_w,
        )
        ref_b = binary_search_sb(inputs, inner=seed_solve_degradation)
        new_b = binary_search_sb(inputs)
        assert (ref_b.sb_index, ref_b.d, ref_b.evaluations) == (
            new_b.sb_index,
            new_b.d,
            new_b.evaluations,
        )


class TestZeroSpecConstruction:
    def test_operating_point_builds_no_spec_objects(self, config16, monkeypatch):
        """The acceptance gate: zero JobClassSpec / ControllerSpec /
        BackgroundFlow constructions during an operating-point solve."""
        from repro.queueing import network as network_mod
        from repro.sim.server import FrequencySettings, ServerSimulator
        from repro.workloads import get_workload

        sim = ServerSimulator(config16, get_workload("MIX1"), seed=1)
        counts = {"n": 0}

        def counting_post_init(self):
            counts["n"] += 1

        for cls in ("JobClassSpec", "ControllerSpec", "BackgroundFlow"):
            monkeypatch.setattr(
                getattr(network_mod, cls), "__post_init__", counting_post_init
            )
        sim.solve_operating_point(
            FrequencySettings.all_max(config16), np.zeros(16)
        )
        assert counts["n"] == 0


class TestGoldenGridHashes:
    def test_run_results_byte_identical_to_seed_fixture(self):
        """Every golden-grid run hashes identically to the pre-refactor
        capture — the fast path is numerically invisible end to end."""
        from repro.campaign.runner import execute_spec

        fixture_path = pathlib.Path(__file__).parent / GOLDEN_FIXTURE
        fixture = json.loads(fixture_path.read_text())
        specs = golden_specs()
        assert len(fixture) == len(specs)
        mismatched = []
        for spec in specs:
            key = spec.to_json()
            assert key in fixture, f"fixture is missing {key}"
            if result_content_hash(execute_spec(spec)) != fixture[key]:
                mismatched.append((spec.policy, spec.workload, spec.budget_fraction))
        assert not mismatched, f"content hashes drifted: {mismatched}"

    def test_memoized_runs_byte_identical_to_seed_fixture(self):
        """The memo lane of the gate: every golden spec re-run with
        ``memo="op"`` reproduces the PR2 fixture hashes byte for byte.
        A cached operating point may only be served when doing so is
        numerically invisible — this is the gate that enforces it."""
        from tests.golden_grid import run_grid_memo

        fixture_path = pathlib.Path(__file__).parent / GOLDEN_FIXTURE
        fixture = json.loads(fixture_path.read_text())
        hashes = run_grid_memo()
        assert len(hashes) == len(fixture)
        mismatched = [
            key for key, value in hashes.items() if fixture.get(key) != value
        ]
        assert not mismatched, (
            f"memo content hashes drifted on {len(mismatched)} specs: "
            f"{mismatched[:3]}"
        )

    def test_fleet_campaign_byte_identical_to_seed_fixture(self):
        """The fleet lane of the gate: ``run_campaign(batch="fleet")``
        over the same 61-run grid — lockstep batched solves, per-lane
        convergence masks, batched FastCap decisions — reproduces the
        PR2 fixture hashes byte for byte.  This is the gate fleet mode
        had to pass before becoming selectable."""
        from tests.golden_grid import run_grid_fleet

        fixture_path = pathlib.Path(__file__).parent / GOLDEN_FIXTURE
        fixture = json.loads(fixture_path.read_text())
        hashes = run_grid_fleet()
        assert len(hashes) == len(fixture)
        mismatched = [
            key for key, value in hashes.items() if fixture.get(key) != value
        ]
        assert not mismatched, (
            f"fleet content hashes drifted on {len(mismatched)} specs: "
            f"{mismatched[:3]}"
        )


class TestVectorisedAccountingParity:
    """The batch power paths must track their scalar twins exactly —
    the model constants are intentionally inlined in the vector code,
    and these tests are what ties the two copies together."""

    def test_core_power_batch_matches_scalar_loop(self, config16):
        from repro.sim import cpu_power

        ladder = config16.core_dvfs
        rng = np.random.default_rng(5)
        freqs = rng.uniform(ladder.f_min_hz * 0.9, ladder.f_max_hz * 1.1, 32)
        acts = rng.uniform(0.0, 1.0, 32)
        intens = rng.uniform(0.5, 1.5, 32)
        batch = cpu_power.core_power_w_batch(
            ladder, config16.power, freqs, acts, intens
        )
        scalar = np.array(
            [
                cpu_power.core_power_w(
                    ladder,
                    config16.power,
                    float(freqs[i]),
                    float(acts[i]),
                    float(intens[i]),
                )
                for i in range(32)
            ]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_phase_table_matches_workload_helpers(self, config16):
        """The precompiled per-phase table must agree with evaluating
        the cache-sharing helpers at runtime positions."""
        from repro.sim.server import ServerSimulator
        from repro.workloads import get_workload
        from repro.workloads.cache_sharing import effective_mpki, effective_wpki

        workload = get_workload("MIX3")
        sim = ServerSimulator(config16, workload, seed=1)
        rng = np.random.default_rng(8)
        for done_scale in (0.0, 0.3, 1.7, 12.9):
            done = rng.uniform(0, 1e8, 16) * done_scale
            mpki, wpki, cpi, row = sim._phase_parameters(done)
            for i, app in enumerate(sim._apps):
                d = float(done[i])
                assert mpki[i] == effective_mpki(app, sim._pressure, d)
                assert wpki[i] == effective_wpki(app, sim._pressure, d)
                assert cpi[i] == app.cpi_exe_at(d)
                assert row[i] == app.row_hit_rate_at(d)
