"""The golden-parity grid: specs + content hashing for PR2's fast path.

The refactor of the simulation/decision kernels onto
:class:`repro.queueing.arrays.NetworkArrays` is required to be
*numerically identical* to the seed implementation.  This module pins
down the grid of runs over which that is enforced and the content hash
used to compare them.  ``tests/data/golden_parity_pr2.json`` was
captured on the pre-refactor tree and committed in ``36aef82``, by a
capture script that has since been retired; :mod:`tests.test_golden_parity`
re-runs the grid on the current tree and asserts every hash still
matches.

All specs set ``record_decision_time=False`` — decision wall time is
the one non-deterministic field — and use the ``mva`` engine (the
eventsim engine intentionally re-seeds per epoch in this PR, which
changes its sampling stream; it gets its own reproducibility tests).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.campaign import RunSpec

GOLDEN_FIXTURE = "data/golden_parity_pr2.json"

#: Budget corners: 0.30 drives the floor-infeasible branch on memory
#: mixes, 1.00 the all-slack branch (D = 1), 0.60 the interior solve.
BUDGETS = (0.30, 0.60, 1.00)
WORKLOADS = ("ILP1", "MEM2", "MIX1")
POLICIES = (
    "fastcap",
    "fastcap-exhaustive",
    "cpu-only",
    "eql-pwr",
    "freq-par",
    "eql-freq",
)


def golden_specs() -> List[RunSpec]:
    """The (policy x workload x budget) grid plus structural corners."""
    base = dict(
        n_cores=4,
        max_epochs=5,
        instruction_quota=None,
        seed=3,
        record_decision_time=False,
    )
    specs = [
        RunSpec(workload=w, policy=p, budget_fraction=b, **base)
        for p in POLICIES
        for w in WORKLOADS
        for b in BUDGETS
    ]
    # Structural corners: multiple controllers, OoO backpressure, a
    # wider machine, and the remaining baselines.
    specs.append(
        RunSpec(
            workload="MIX1", policy="fastcap", budget_fraction=0.6,
            n_cores=16, n_controllers=4, max_epochs=5,
            instruction_quota=None, seed=3, record_decision_time=False,
        )
    )
    specs.append(
        RunSpec(
            workload="MEM2", policy="fastcap", budget_fraction=0.6,
            ooo=True, **base,
        )
    )
    specs.append(
        RunSpec(
            workload="MIX2", policy="fastcap", budget_fraction=0.6,
            n_cores=16, max_epochs=5, instruction_quota=None, seed=3,
            record_decision_time=False,
        )
    )
    specs.append(
        RunSpec(
            workload="MEM1", policy="fastcap", budget_fraction=0.6,
            n_cores=32, max_epochs=3, instruction_quota=None, seed=3,
            record_decision_time=False,
        )
    )
    specs.append(
        RunSpec(
            workload="MID1", policy="greedy-heap", budget_fraction=0.6, **base
        )
    )
    specs.append(
        RunSpec(
            workload="MID1", policy="maxbips", budget_fraction=0.6, **base
        )
    )
    specs.append(
        RunSpec(
            workload="ILP2", policy="max-freq", budget_fraction=0.6, **base
        )
    )
    return specs


def result_content_hash(result) -> str:
    """SHA-256 over the canonical JSON serialisation of a run result.

    ``json.dumps`` round-trips floats through ``repr`` (shortest exact
    representation), so two results hash equal iff every recorded float
    is bit-identical.
    """
    from repro.sim.results_io import run_result_to_dict

    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_grid() -> Dict[str, str]:
    """Execute every golden spec and return {spec json: content hash}."""
    from repro.campaign.runner import execute_spec

    return {
        spec.to_json(): result_content_hash(execute_spec(spec))
        for spec in golden_specs()
    }


def run_grid_memo() -> Dict[str, str]:
    """Execute the golden grid with operating-point memoization on.

    The memo lane of the parity gate: every spec re-runs with
    ``memo="op"`` and must still hash byte-identically to the PR2
    fixture — serving a cached operating point is only legal when it
    cannot change a single bit of the result.  Hashes are keyed by the
    memo-*off* spec JSON so they compare directly against the fixture.
    """
    from repro.campaign.runner import execute_spec

    return {
        spec.to_json(): result_content_hash(
            execute_spec(spec.replace(memo="op"))
        )
        for spec in golden_specs()
    }


def run_grid_fleet(fleet_width: int = 32) -> Dict[str, str]:
    """Execute the golden grid through ``run_campaign(batch="fleet")``.

    The fleet lane of the parity gate: every shape group of the 61-run
    grid advances in lockstep (batched AMVA solves, batched FastCap
    decisions) and must reproduce the byte-identical PR2 fixture
    hashes.  ``fleet_width`` is exposed so the gate can also exercise
    chunked groups.
    """
    from repro.campaign import Campaign, CampaignRunner

    specs = golden_specs()
    runner = CampaignRunner(batch="fleet", fleet_width=fleet_width)
    results = runner.run_campaign(Campaign("golden-fleet", specs))
    hashes = {
        spec.to_json(): result_content_hash(results[spec]) for spec in specs
    }
    # The point of the lane is lockstep execution: assert the runner
    # actually fleeted the grid rather than quietly looping specs.
    assert runner.fleet_runs > 0, "fleet lane executed no fleets"
    return hashes
