"""Figure 10: FastCap vs Eql-Freq on 64 cores, MIX workloads, B = 60%.

Expected shape: Eql-Freq is conservative — locking all 64 cores to one
frequency means the next step up would blow the budget, so it leaves
budget unharvested and both its average and worst degradations exceed
FastCap's.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.campaign import Campaign, RunSpec
from repro.experiments.registry import register
from repro.experiments.report import ExperimentOutput, Table
from repro.experiments.runner import ExperimentRunner
from repro.metrics.performance import summarize_degradation
from repro.metrics.power import summarize_power
from repro.workloads import MIX_CLASSES, WorkloadClass

BUDGET = 0.60
N_CORES = 64
POLICIES = ("fastcap", "eql-freq")


def campaign(
    workloads: Optional[Sequence[str]] = None, n_cores: int = N_CORES
) -> Campaign:
    """The spec grid this figure runs (64-core MIX class by default).

    ``workloads`` and ``n_cores`` narrow/scale the grid.
    """
    return Campaign.grid(
        "fig10",
        workloads=tuple(
            MIX_CLASSES[WorkloadClass.MIX] if workloads is None else workloads
        ),
        policies=POLICIES,
        budgets=(BUDGET,),
        n_cores=n_cores,
    )


@register("fig10", "FastCap vs Eql-Freq on 64-core MIX workloads (B=60%)")
def run(runner: ExperimentRunner) -> ExperimentOutput:
    results = runner.run_campaign(campaign(), include_baselines=True)
    rows = []
    harvest = {}
    for policy in POLICIES:
        runs, bases = [], []
        for workload in MIX_CLASSES[WorkloadClass.MIX]:
            spec = RunSpec(
                workload=workload,
                policy=policy,
                budget_fraction=BUDGET,
                n_cores=N_CORES,
            )
            run_result, base = results.pair(spec)
            runs.append(run_result)
            bases.append(base)
        summary = summarize_degradation(runs, bases)
        mean_power = sum(summarize_power(r).mean_of_budget for r in runs) / len(runs)
        harvest[policy] = mean_power
        rows.append((policy, summary.average, summary.worst, summary.outlier_gap))
    out = ExperimentOutput(
        "fig10", "FastCap vs Eql-Freq on 64-core MIX workloads (B=60%)"
    )
    out.tables["performance"] = Table(
        headers=("policy", "avg degradation", "worst degradation", "gap"),
        rows=tuple(rows),
    )
    out.notes.append(
        "mean power as a fraction of budget (harvesting): "
        + ", ".join(f"{k}={v:.3f}" for k, v in harvest.items())
    )
    out.notes.append(
        "expected shape: eql-freq worse on both average and worst — it "
        "cannot harvest the budget with one global frequency"
    )
    return out
