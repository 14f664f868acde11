"""Table I: time complexity / decision cost comparison.

The paper's table contrasts FastCap's O(N log M) with exhaustive
search O(F^N), numeric optimisation (~N^4) and heuristics
(~F N log N).  We reproduce it empirically: measure per-epoch decision
wall time of each policy at the core counts it can handle, and fit the
growth of FastCap's cost against N to confirm near-linear scaling
(the paper reports 33.5/64.9/133.5 µs at 16/32/64 cores — absolute
values differ in Python, the scaling shape is the claim).

Wall times move with the host's load, so decision cost is also counted
as work per decide: the configurations MaxBIPS enumerates (F^N core
settings × M memory settings, fixed by the system's DVFS ladders) and,
on every FastCap row, its inner degradation solves
(:attr:`~repro.core.algorithm.FastCapDecision.evaluations`, counted
over a replay of that row's run).  The solves are the log M half of
FastCap's O(N log M): at M = 10 memory settings Algorithm 1's
three-probe search needs at most 6, whatever N is.
"""

from __future__ import annotations

import math

from repro.campaign import Campaign, CampaignResult, RunSpec
from repro.campaign.runner import (
    config_for_spec,
    resolved_policy_name,
    simulator_for_spec,
)
from repro.experiments.registry import register
from repro.experiments.report import ExperimentOutput, Table
from repro.experiments.runner import ExperimentRunner
from repro.policies.registry import make_policy

WORKLOAD = "MID1"
BUDGET = 0.60
FASTCAP_CORES = (4, 16, 32, 64)

#: (policy, claimed complexity, core count) rows of the table.
ENTRIES = (
    tuple(("fastcap", "O(N log M)", n) for n in FASTCAP_CORES)
    + (
        ("cpu-only", "O(N)", 16),
        ("eql-freq", "O(F M)", 16),
        ("eql-pwr", "O(N M F)", 16),
        ("greedy-heap", "O(F N log N)", 16),
        ("maxbips", "O(F^N M)", 4),
    )
)


def _spec(policy: str, n_cores: int) -> RunSpec:
    return RunSpec(
        workload=WORKLOAD,
        policy=policy,
        budget_fraction=BUDGET,
        n_cores=n_cores,
        instruction_quota=None,
        max_epochs=30,
    )


def campaign() -> Campaign:
    """The full spec grid this table runs."""
    return Campaign(
        "table1", (_spec(policy, n) for policy, _, n in ENTRIES)
    )


def _mean_decision_us(
    results: CampaignResult, policy: str, n_cores: int
) -> float:
    return results[_spec(policy, n_cores)].mean_decision_time_s() * 1e6


def _maxbips_configurations(spec: RunSpec) -> int:
    """Configurations MaxBIPS enumerates on every decide: F^N × M."""
    config = config_for_spec(spec)
    return len(config.core_dvfs.frequencies_hz) ** spec.n_cores * len(
        config.mem_dvfs.frequencies_hz
    )


def _fastcap_evaluations(spec: RunSpec) -> float:
    """Mean inner degradation solves per decide over a replay of ``spec``."""
    sim = simulator_for_spec(spec)
    policy = make_policy(resolved_policy_name(spec))
    counts = []

    def count(settings):
        # The actuation hook runs once after every decide.
        counts.append(policy.last_decision.evaluations)
        return settings

    sim.actuation_filter = count
    sim.run(
        policy,
        budget_fraction=spec.budget_fraction,
        instruction_quota=spec.instruction_quota,
        max_epochs=spec.max_epochs,
    )
    return sum(counts) / len(counts)


@register("table1", "Decision-cost comparison (Table I)", timing_sensitive=True)
def run(runner: ExperimentRunner) -> ExperimentOutput:
    results = runner.run_campaign(campaign())
    rows = []
    fastcap_times = {}
    for policy, complexity, n in ENTRIES:
        t = _mean_decision_us(results, policy, n)
        if policy == "fastcap":
            fastcap_times[n] = t
        work = "-"
        if policy == "maxbips":
            work = _maxbips_configurations(_spec(policy, n))
        elif policy == "fastcap":
            work = _fastcap_evaluations(runner.scaled(_spec(policy, n)))
        rows.append((policy, complexity, n, t, work))

    # Fitted growth exponent of FastCap cost vs core count.
    ns = sorted(fastcap_times)
    xs = [math.log(n) for n in ns]
    ys = [math.log(fastcap_times[n]) for n in ns]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )

    out = ExperimentOutput("table1", "Decision-cost comparison (Table I)")
    out.tables["decision-cost"] = Table(
        headers=(
            "policy",
            "claimed complexity",
            "cores",
            "mean decision µs",
            "work per decide",
        ),
        rows=tuple(rows),
    )
    out.notes.append(
        f"fastcap cost growth exponent vs N: {slope:.2f} "
        "(≈1 claimed; interpreter overhead makes small-N costs flatter)"
    )
    out.notes.append(
        "expected shape: fastcap cheapest among search policies and "
        "near-linear in N; maxbips orders of magnitude more expensive "
        "already at 4 cores"
    )
    out.notes.append(
        "work per decide: configurations enumerated (maxbips) or inner "
        "degradation solves (fastcap, O(log M) at every core count)"
    )
    return out
