"""FleetSimulator: lockstep multi-run execution, byte-identical per lane.

The fleet driver runs each lane's *own* ``run_steps`` generator — the
same code path the scalar ``ServerSimulator.run`` drives — so these
tests pin the only thing that can differ: how the yielded solve and
decide requests are served.  Byte-identity is checked through the same
content hash the golden-parity suite uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import RunSpec
from repro.campaign.runner import (
    config_for_spec,
    execute_fleet,
    execute_spec,
    resolved_policy_name,
)
from repro.errors import ConfigurationError
from repro.policies.registry import make_policy
from repro.queueing.fleet import FleetSolver
from repro.queueing.kernels import cext
from repro.sim.server import (
    DecideRequest,
    EpochComplete,
    FleetLane,
    FleetSimulator,
    ServerSimulator,
    SolveRequest,
)
from repro.workloads import get_workload

from tests.golden_grid import result_content_hash


def _spec(**overrides) -> RunSpec:
    base = dict(
        workload="MIX1",
        policy="fastcap",
        budget_fraction=0.6,
        n_cores=4,
        max_epochs=3,
        instruction_quota=None,
        seed=3,
        record_decision_time=False,
    )
    base.update(overrides)
    return RunSpec(**base)


def _lane(spec: RunSpec) -> FleetLane:
    sim = ServerSimulator(
        config_for_spec(spec),
        get_workload(spec.workload),
        seed=spec.seed,
        engine=spec.engine,
    )
    return FleetLane(
        simulator=sim,
        policy=make_policy(resolved_policy_name(spec)),
        budget_fraction=spec.budget_fraction,
        instruction_quota=spec.instruction_quota,
        max_epochs=spec.max_epochs,
        measure_decision_time=spec.record_decision_time,
    )


class TestFleetSimulatorParity:
    def test_mixed_policy_fleet_is_byte_identical(self):
        """One fleet with FastCap (binary + exhaustive + cpu-only),
        heuristic baselines and different epoch counts: every lane's
        result hashes identically to its solo scalar run."""
        specs = [
            _spec(),
            _spec(workload="MEM2", policy="fastcap-exhaustive",
                  budget_fraction=0.3),
            _spec(workload="ILP1", policy="cpu-only"),
            _spec(workload="MIX2", policy="eql-pwr", budget_fraction=1.0),
            _spec(workload="MID1", policy="max-freq", max_epochs=5),
        ]
        results = FleetSimulator([_lane(s) for s in specs]).run()
        for spec, fleet_result in zip(specs, results):
            assert result_content_hash(fleet_result) == result_content_hash(
                execute_spec(spec)
            ), f"{spec.workload}/{spec.policy}"

    def test_lanes_finish_independently(self):
        """A short lane leaving the lockstep must not disturb others."""
        specs = [_spec(max_epochs=1), _spec(workload="MEM1", max_epochs=4)]
        results = FleetSimulator([_lane(s) for s in specs]).run()
        assert results[0].n_epochs == 1
        assert results[1].n_epochs == 4
        for spec, result in zip(specs, results):
            assert result_content_hash(result) == result_content_hash(
                execute_spec(spec)
            )

    def test_execute_fleet_matches_execute_spec(self):
        specs = [_spec(), _spec(workload="MIX3")]
        for fleet_result, spec in zip(execute_fleet(specs), specs):
            assert result_content_hash(fleet_result) == result_content_hash(
                execute_spec(spec)
            )

    def test_single_lane_fleet_works(self):
        spec = _spec(max_epochs=2)
        (result,) = execute_fleet([spec])
        assert result_content_hash(result) == result_content_hash(
            execute_spec(spec)
        )

    def test_ooo_lane_in_fleet(self):
        """OoO lanes run more inner fixed-point passes per epoch than
        in-order lanes — the request protocol absorbs the phase skew."""
        specs = [_spec(), _spec(workload="MEM2", ooo=True)]
        for fleet_result, spec in zip(execute_fleet(specs), specs):
            assert result_content_hash(fleet_result) == result_content_hash(
                execute_spec(spec)
            )


class TestFleetSimulatorStructure:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator([_lane(_spec()), _lane(_spec(n_cores=16))])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulator([])

    def test_run_steps_protocol_shape(self):
        """The generator yields solve/decide requests in epoch order,
        closing each epoch with an ``EpochComplete`` marker."""
        spec = _spec(max_epochs=1)
        lane = _lane(spec)
        gen = lane.simulator.run_steps(
            lane.policy,
            lane.budget_fraction,
            instruction_quota=None,
            max_epochs=1,
            measure_decision_time=False,
        )
        kinds = []
        response = None
        while True:
            try:
                request = gen.send(response)
            except StopIteration as stop:
                result = stop.value
                break
            if isinstance(request, SolveRequest):
                kinds.append("solve")
                response = lane.simulator._solver.solve(
                    initial_throughput=request.warm_start,
                    tolerance=request.tolerance,
                )
            elif isinstance(request, DecideRequest):
                kinds.append("decide")
                response = (request.policy.decide(request.counters), 0.0)
            else:
                assert isinstance(request, EpochComplete)
                assert request.record.index == kinds.count("epoch")
                assert len(request.instructions_retired) == spec.n_cores
                kinds.append("epoch")
                response = None
        # One epoch: profile solves, one decision, main solves, marker.
        assert kinds.count("decide") == 1
        assert kinds.count("epoch") == 1
        assert kinds[-1] == "epoch"
        profile_solves = kinds.index("decide")
        assert profile_solves >= 1
        assert kinds[profile_solves + 1 : -1].count("solve") == len(
            kinds
        ) - profile_solves - 2
        assert result.n_epochs == 1

    def test_decision_times_recorded_when_measured(self):
        """Lanes that measure decision times get positive, individually
        timed per-governor decides inside a fleet."""
        specs = [
            _spec(record_decision_time=True, max_epochs=2),
            _spec(workload="MIX2", record_decision_time=True, max_epochs=2),
        ]
        results = FleetSimulator([_lane(s) for s in specs]).run()
        for result in results:
            assert result.mean_decision_time_s() > 0

    def test_measuring_lanes_never_batch_decide(self, monkeypatch):
        """A fleet of decision-time-recording FastCap lanes must take
        the individually timed path — a share of one batched solve is
        not a decision latency (and cached results would otherwise
        poison the timing-sensitive experiments)."""
        from repro.core import governor as governor_mod

        def forbidden(pairs):
            raise AssertionError("batched decide on measuring lanes")

        monkeypatch.setattr(
            governor_mod, "decide_fastcap_fleet", forbidden
        )
        specs = [
            _spec(record_decision_time=True, max_epochs=2),
            _spec(workload="MIX2", record_decision_time=True, max_epochs=2),
        ]
        results = FleetSimulator([_lane(s) for s in specs]).run()
        assert all(r.n_epochs == 2 for r in results)

    def test_non_measuring_lanes_do_batch_decide(self, monkeypatch):
        from repro.core import governor as governor_mod

        calls = {"n": 0}
        real = governor_mod.decide_fastcap_fleet

        def counting(pairs):
            calls["n"] += 1
            return real(pairs)

        monkeypatch.setattr(governor_mod, "decide_fastcap_fleet", counting)
        specs = [_spec(max_epochs=2), _spec(workload="MIX2", max_epochs=2)]
        FleetSimulator([_lane(s) for s in specs]).run()
        assert calls["n"] > 0


class TestFleetSimulatorSolves:
    @pytest.mark.skipif(cext.load() is None, reason="no C compiler available")
    def test_each_lane_solve_runs_the_compiled_step(self, monkeypatch):
        """Every lane-solve the fleet asks of ``FleetSolver.solve`` is
        one run of that lane's compiled scalar fixed point, and the
        numpy loop never runs."""
        specs = [
            _spec(),
            _spec(workload="MEM2"),
            _spec(workload="ILP1", policy="eql-pwr"),
            _spec(workload="MIX2", budget_fraction=0.4),
        ]
        fleet = FleetSimulator([_lane(s) for s in specs])
        counts = {"requested": 0, "compiled": 0}
        fleet_solve = FleetSolver.solve

        def requested(self, *args, lanes=None, **kwargs):
            counts["requested"] += (
                self.n_lanes if lanes is None else int(np.count_nonzero(lanes))
            )
            return fleet_solve(self, *args, lanes=lanes, **kwargs)

        def refuse(*args):
            raise AssertionError("the numpy loop ran")

        monkeypatch.setattr(FleetSolver, "solve", requested)
        for lane in fleet.lanes:
            solver = lane.simulator._solver

            def compiled(*args, run=solver._compiled_fixed_point):
                counts["compiled"] += 1
                return run(*args)

            monkeypatch.setattr(solver, "_numpy_fixed_point", refuse)
            monkeypatch.setattr(solver, "_compiled_fixed_point", compiled)
        results = fleet.run()
        assert [r.n_epochs for r in results] == [3] * len(specs)
        assert counts["requested"] > 0
        assert counts["compiled"] == counts["requested"]
