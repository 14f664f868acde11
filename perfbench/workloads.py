"""The benchmark's workloads: what each runs and how its outputs are checked.

The benchmark seed is the only input that varies: it becomes every
spec's noise seed, or the service session's.  Grids and the service
script are fixed, so a seed changes trajectories, not the amount or
kind of work.  Every spec sets ``record_decision_time=False`` — the
default for ``sweep`` and the service — which makes outputs
deterministic, so each run is checked against the exact tier:

* ``identical`` — byte-identical results: SHA-256 over the canonical
  JSON of ``run_result_to_dict`` (for the service, of its telemetry);
* ``relaxed`` — within 1e-8 relative of the exact tier, with identical
  per-epoch frequency decisions (the relaxed parity contract);
* ``memo`` — mean power and per-core instructions within 1e-4
  relative of the memo-off run (the operating-point memo's drift bound).

The model itself is not validated against hardware: the repository
holds no hardware reference.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

#: Seeds with stored references: the default, and one never used while
#: the benchmark was tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Relative tolerance of each check against its reference tier.
TOLERANCE = {"identical": 0.0, "relaxed": 1e-8, "memo": 1e-4}


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_record(result) -> Dict:
    """What the checks compare about one run."""
    from repro.sim.results_io import run_result_to_dict

    return {
        "sha": digest(run_result_to_dict(result)),
        "decisions": [
            digest([e.core_frequencies_hz, e.bus_frequency_hz])[:16]
            for e in result.epochs
        ],
        "mean_power_w": result.mean_power_w(),
        "max_power_w": result.max_epoch_power_w(),
        "instructions": [float(v) for v in result.instructions],
    }


def reference_record(kind: str, record: Dict) -> Dict:
    """The part of a run record that a stored reference keeps."""
    if kind == "identical":
        return {"sha": record["sha"]}
    if kind == "relaxed":
        return {
            "decisions": digest(record["decisions"]),
            "mean_power_w": record["mean_power_w"],
            "max_power_w": record["max_power_w"],
            "instructions": record["instructions"],
        }
    return {
        "mean_power_w": record["mean_power_w"],
        "instructions": record["instructions"],
    }


def matches(kind: str, record: Dict, reference: Dict) -> bool:
    """Whether a run record keeps ``kind``'s contract with its reference."""
    if kind == "identical":
        return record["sha"] == reference["sha"]
    mine = reference_record(kind, record)
    if kind == "relaxed" and mine["decisions"] != reference["decisions"]:
        return False
    pairs = [(mine["mean_power_w"], reference["mean_power_w"])]
    if kind == "relaxed":
        pairs.append((mine["max_power_w"], reference["max_power_w"]))
    if len(mine["instructions"]) != len(reference["instructions"]):
        return False
    pairs.extend(zip(mine["instructions"], reference["instructions"]))
    rtol = TOLERANCE[kind]
    return all(abs(a - b) <= rtol * abs(b) for a, b in pairs)


def _at_seed(specs, seed: int) -> List:
    """The grid at ``seed``, deterministic, deduplicated, in order."""
    return list(
        dict.fromkeys(
            replace(spec, seed=seed, record_decision_time=False)
            for spec in specs
        )
    )


def with_baselines(specs) -> List:
    """A grid plus its max-frequency baselines: every run it executes."""
    return list(dict.fromkeys(list(specs) + [s.baseline_spec() for s in specs]))


# Figure 9's grid runs at full length (~6 s per run on a 2-core host);
# the others are half of their figures' work (~3 s per run), so that one
# measurement window holds several fresh-interpreter runs of each.


def fig9_grid(seed: int) -> List:
    """Figure 9's grid at full length: 16 mixes x 4 policies at B=60%."""
    from repro.experiments import fig9

    return _at_seed(fig9.campaign(), seed)


def fig12_grid(seed: int) -> List:
    """Figs 12/13's full grid at half the instruction quota.

    Every mix stays, so the fleets keep the figure's 64/32-lane widths.
    """
    from repro.experiments import fig12

    return _at_seed(
        (replace(s, instruction_quota=s.instruction_quota / 2)
         for s in fig12.campaign()),
        seed,
    )


def timeseries_grid(seed: int) -> List:
    """The time-series figures' specs (4, 5, 7, 8) at half their epochs."""
    from repro.experiments import fig4, fig5, fig7, fig8

    return _at_seed(
        (replace(s, max_epochs=s.max_epochs // 2)
         for figure in (fig4, fig5, fig7, fig8) for s in figure.campaign()),
        seed,
    )


class CampaignWorkload:
    """A figure grid run through ``CampaignRunner.run_campaign``."""

    needs_baseline = False

    def __init__(self, name, grid, tier, check, reference_tier,
                 run_s) -> None:
        self.name = name
        self.grid = grid
        #: ``CampaignRunner`` keyword arguments of the measured runs.
        self.tier = tier
        self.check = check
        #: ``CampaignRunner`` keyword arguments of the tier checked against.
        self.reference_tier = reference_tier
        #: Nominal seconds of one timed run, start-up included, on a
        #: 2-vCPU x86-64 host: fixes how many runs fill ``--seconds``.
        self.run_s = run_s

    def inputs(self, seed: int) -> str:
        specs = with_baselines(self.grid(seed))
        return digest([[s.to_dict() for s in specs], self.tier])

    def operations(self, seed: int) -> int:
        return len(with_baselines(self.grid(seed)))

    def setup(self, seed: int, scratch: str, mode: str):
        from repro.campaign import Campaign, CampaignRunner

        tier = self.reference_tier if mode == "reference" else self.tier
        if tier.get("parity") == "relaxed":
            from repro.queueing.kernels import warmup

            # The runner would warm the kernel up at its first relaxed
            # miss; set-up time covers it instead of the first epochs.
            warmup()
        runner = CampaignRunner(jobs=1, cache_dir=scratch, **tier)
        return runner, Campaign(self.name, self.grid(seed))

    def execute(self, state):
        runner, campaign = state
        return runner.run_campaign(campaign, include_baselines=True)

    def summarize(self, state, result) -> Dict:
        from repro.metrics.performance import summarize_degradation

        _, campaign = state
        runs = {s.spec_hash(): result[s] for s in with_baselines(campaign)}
        fastcap = [s for s in campaign if s.policy == "fastcap"]
        summary = summarize_degradation(
            [result[s] for s in fastcap], [result.baseline(s) for s in fastcap]
        )
        return {
            "epochs": sum(len(r.epochs) for r in runs.values()),
            "records": {key: run_record(r) for key, r in runs.items()},
            "errors": 0,
            "simulated": {
                "fastcap_degradation": summary.average,
                "fastcap_fairness_gap": summary.outlier_gap,
            },
        }


class ServiceWorkload:
    """One 4-lane session stepped by one closed-loop caller.

    The caller sends the next request only after the previous one
    returned, through the in-process ASGI client, on a fixed script:
    load phases, a live budget cut, and a degraded memory controller
    injected under light load and resolved later.
    """

    name = "service-fleet-session"
    check = "identical"
    needs_baseline = True
    #: ``SessionCreate`` defaults: exact tier, memo off.
    tier: Dict = {}
    lanes = ("MIX1", "MIX2", "MEM1", "ILP1")
    steps = 100
    #: Nominal seconds of one timed run, as for a campaign.
    run_s = 4.0

    def body(self, seed: int, policy: str) -> Dict:
        return {
            "lanes": [{"workload": w} for w in self.lanes],
            "policy": policy,
            "seed": seed,
        }

    def script(self, sid: str) -> Dict[int, List[Tuple[str, str, Optional[Dict]]]]:
        """Requests sent just before the step of the same index."""
        base = f"/sessions/{sid}"
        # Heavy load over steps 10-29, light load over 30-79; the
        # fault under light load (steps 40-59) is the solver's
        # convergence tail: steps there take ~4x longer.
        script: Dict[int, List[Tuple[str, str, Optional[Dict]]]] = {
            10: [("POST", f"{base}/phases", {"phases": [
                {"duration_epochs": 20, "think_scale": 0.7},
                {"duration_epochs": 50, "think_scale": 1.6},
                {"think_scale": 1.0},
            ]})],
            20: [("POST", f"{base}/budget", {"budget_fraction": 0.5})],
            40: [("POST", f"{base}/faults",
                  {"type": "degraded-memory-controller"})],
            60: [("DELETE", f"{base}/faults/f1", None)],
        }
        for step in range(9, self.steps, 10):
            lane = (step // 10) % len(self.lanes)
            script.setdefault(step, []).append(
                ("GET", f"{base}/telemetry/summary?lane={lane}&last=10", None)
            )
        return script

    def inputs(self, seed: int) -> str:
        script = sorted(self.script("{sid}").items())
        return digest([self.body(seed, "fastcap"), script, self.steps])

    def operations(self, seed: int) -> int:
        return self.steps + sum(len(v) for v in self.script("").values())

    def setup(self, seed: int, scratch: str, mode: str):
        from repro.service import InProcessClient, create_app

        app = create_app()
        client = InProcessClient(app)
        policy = "max-freq" if mode == "baseline" else "fastcap"
        response = client.post("/sessions", json=self.body(seed, policy))
        if response.status_code != 201:
            raise RuntimeError(
                f"POST /sessions answered {response.status_code}: "
                f"{response.content[:300]!r}"
            )
        return app, client, response.json()["id"]

    def execute(self, state):
        """Run the script: non-2xx responses, and each step's end.

        A step covers its own request and the scripted ones sent just
        before it, as the caller sees them.
        """
        _, client, sid = state
        script = self.script(sid)
        errors = 0
        marks = [time.monotonic()]
        for step in range(self.steps):
            for method, path, body in script.get(step, ()):
                status = client.request(method, path, body).status_code
                errors += not 200 <= status < 300
            status = client.post(
                f"/sessions/{sid}/step", json={"epochs": 1}
            ).status_code
            errors += not 200 <= status < 300
            marks.append(time.monotonic())
        return errors, marks

    def summarize(self, state, output) -> Dict:
        errors, marks = output
        app, client, sid = state
        telemetry = [
            client.get(f"/sessions/{sid}/telemetry?lane={lane}").json()[
                "records"
            ]
            for lane in range(len(self.lanes))
        ]
        session = app.manager.get(sid)
        op_points = sum(
            lane.simulator.operating_point_stats["op_solves"]
            for lane in session.lanes
        )
        client.delete(f"/sessions/{sid}")  # ends every lane's run
        client.close()
        return {
            "epochs": sum(len(records) for records in telemetry),
            "records": {"telemetry": {"sha": digest(telemetry)}},
            "step_marks": marks,
            "errors": errors,
            "extra_counts": {"sim.server.op_points": op_points},
            "simulated": {
                "tpi_s": [
                    lane.result.per_core_tpi_s().tolist()
                    for lane in session.lanes
                ],
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload(
            "fig9-exact",
            fig9_grid,
            tier={},
            check="identical",
            reference_tier={},
            run_s=7.0,
        ),
        CampaignWorkload(
            "fig12-relaxed-fleet",
            fig12_grid,
            tier={"parity": "relaxed", "batch": "fleet"},
            check="relaxed",
            reference_tier={"batch": "fleet"},
            run_s=4.5,
        ),
        CampaignWorkload(
            "timeseries-memo-fleet",
            timeseries_grid,
            tier={"memo": "op", "batch": "fleet"},
            check="memo",
            reference_tier={"batch": "fleet"},
            run_s=3.75,
        ),
        ServiceWorkload(),
    )
}
