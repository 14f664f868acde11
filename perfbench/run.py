"""Benchmark entry point: runs a workload in fresh interpreters, prints metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig12-relaxed-fleet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload
    python3 perfbench/run.py --make-references            # rewrite references.json

Each timed run is a fresh interpreter (``perfbench/worker.py``) running
the bare program, with an empty result cache and an empty
operating-point memo, driven from one process with one thread.  The
number of timed runs is fixed by ``--seconds`` and the workload's
nominal run length (see :func:`timed_runs`), never by how fast the
program is, so two commits are measured alike.  Times are seconds on
a reference host, corrected for the shared host's changing speed (see
``hostclock.py``; raw wall seconds stay in the rows), and end-to-end
metrics are medians over the timed runs.  ``--trace 1`` adds
:data:`TRACED_RUNS` traced runs, whose work counters must agree, and
reports the per-layer metrics of the one with the median time; the
traced runs' median time against the timed runs' is the tracing
overhead.  Every run's outputs are checked (see ``workloads.py``).
The last line of standard output is the JSON result; rows with
provenance, the reported traced run's layer table and its spans go to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from hostclock import host_seconds
from probe import ROOT
from workloads import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    digest,
    matches,
    reference_record,
)

HERE = Path(__file__).resolve().parent
#: Fewest timed runs per invocation, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Traced runs per ``--trace 1`` invocation: the host's speed changes
#: within seconds, so one traced run cannot give the tracing overhead.
TRACED_RUNS = 3
#: No timed run starts after this many seconds, so that a much slower
#: program still ends inside the 180 s one invocation may take.
START_LIMIT_S = 110.0
CHILD_TIMEOUT_S = 150.0
#: The first prepare in a checkout compiles the kernel and bytecode.
PREPARE_TIMEOUT_S = 600.0


class Runs:
    """Starts worker processes and collects their rows."""

    def __init__(self, root: Path) -> None:
        self.root = root
        build = root / ".bench_build"
        self.out = build / "perfbench"
        self.scratch = self.out / "scratch"
        self.out.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        # Keep the kernel build, the compiler's temporary files and the
        # bytecode inside the checkout.
        env["FASTCAP_KERNEL_CACHE"] = str(build / "kernels")
        env["TMPDIR"] = str(build / "tmp")
        (build / "tmp").mkdir(exist_ok=True)
        env["PYTHONPYCACHEPREFIX"] = str(build / "pycache")
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self._count = 0

    def child(self, workload: str, seed: int, mode: str,
              timeout: float = CHILD_TIMEOUT_S) -> Dict:
        self._count += 1
        out = self.out / f"row-{os.getpid()}-{self._count}.json"
        spans = self.out / f"spans-{os.getpid()}-{self._count}.json.gz"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--out", str(out), "--scratch", str(self.scratch),
            "--spans", str(spans),
        ]
        shutil.rmtree(self.scratch, ignore_errors=True)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "mode": mode,
                    "error": f"timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        if proc.returncode != 0 or not out.exists():
            return {"ok": False, "mode": mode,
                    "error": proc.stderr.strip()[-2000:] or "no row written"}
        row = json.loads(out.read_text())
        out.unlink()
        row["ok"] = True
        if spans.exists():
            row["spans_file"] = str(spans)
        row["spawned"] = spawned
        return row


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` (None outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(root: Path) -> str:
    """Digest of every source file: names the program without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, row: Dict, seed: int) -> Dict:
    return {
        "machine": platform.machine(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": row.get("python"),
        "numpy": row.get("numpy"),
        "kernel_backend": row.get("kernel"),
        "kernel_compiled": row.get("kernel_compiled"),
        "c_compiler": row.get("c_compiler"),
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(root),
        "seed": seed,
        "traced": row.get("mode") == "traced",
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def timed_runs(workload, seconds: float) -> int:
    """How many timed runs fill ``seconds`` at the workload's nominal pace.

    A constant for a given ``--seconds``: a faster or slower program
    gets as many runs, so its medians are estimated the same way.
    """
    return max(MIN_RUNS, round(seconds / workload.run_s))


def corrected(rows: List[Dict]) -> None:
    """Give each row its set-up and run seconds on the reference host.

    The interpreter's start, before the worker's host clock runs, is
    counted as it came.  Raw wall seconds stay in ``wall_s``.
    """
    for row in rows:
        clock = row["clock"]
        row["setup_s"] = row["clock_start"] - row["spawned"] + host_seconds(
            clock, row["clock_start"], row["setup_done"]
        )
        if "start" in row:
            row["wall_s"] = row["end"] - row["start"]
            row["host_s"] = host_seconds(clock, row["start"], row["end"])
        if "step_marks" in row:
            marks = row["step_marks"]
            row["steps_s"] = [host_seconds(clock, a, b)
                              for a, b in zip(marks, marks[1:])]


def end_to_end(timed: List[Dict], baseline: Optional[Dict]) -> Dict:
    """End-to-end metrics: medians over the timed runs.

    Times are host-speed-corrected seconds (see ``hostclock.py``).
    """
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "epochs_per_s": timed[0]["epochs"]
        / statistics.median(r["host_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    simulated = dict(timed[0]["simulated"])
    if baseline is not None:
        # Same script, same epochs: per-core TPI over the max-frequency
        # lanes' is each application's degradation.
        ratios = [
            mine / base
            for lane, base_lane in zip(simulated.pop("tpi_s"),
                                       baseline["simulated"]["tpi_s"])
            for mine, base in zip(lane, base_lane)
        ]
        average = statistics.fmean(ratios)
        simulated["fastcap_degradation"] = average
        simulated["fastcap_fairness_gap"] = max(ratios) / average
    metrics.update(simulated)
    return metrics


def step_latency(timed: List[Dict]) -> Optional[str]:
    """The service's step latency, printed but not in the result line.

    Every workload must report every end-to-end metric, and a campaign
    has no step.  The tail is p99, or the highest percentile with ten
    steps beyond it.
    """
    if "steps_s" not in timed[0]:
        return None
    steps = sorted(1e3 * s for r in timed for s in r["steps_s"])
    n = len(steps)
    index = max(min(math.ceil(0.99 * n) - 1, n - 11), 0)
    p50 = statistics.median(statistics.median(r["steps_s"]) for r in timed)
    return (f"step latency over {n} steps of {len(timed)} runs: p50 "
            f"{1e3 * p50:.2f} ms (median of the runs'), p"
            f"{100.0 * (index + 1) / n:.1f} {steps[index]:.2f} ms")


def per_layer(row: Dict, overhead_pct: float, agreement: float) -> Dict:
    counts, spans = row["counts"], row["spans"]

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def busy(*names: str) -> float:
        return sum(spans.get(n, {}).get("busy_s", 0.0) for n in names)

    def own(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall = spans[ROOT]["busy_s"]
    server_self = own("sim.server.run", "sim.server.step")
    mva, fleet = "queueing.mva.solve", "queueing.fleet.solve"
    return {
        f"{mva}.calls": c(f"{mva}.calls"),
        f"{mva}.busy_s": busy(mva),
        f"{mva}.us_per_call": per(1e6 * busy(mva), c(f"{mva}.calls")),
        f"{mva}.iterations": c(f"{mva}.iterations"),
        f"{fleet}.calls": c(f"{fleet}.calls"),
        f"{fleet}.busy_s": busy(fleet),
        f"{fleet}.lanes_per_call": per(c(f"{fleet}.lanes"), c(f"{fleet}.calls")),
        f"{fleet}.iterations_max": c(f"{fleet}.iterations_max"),
        f"{fleet}.lockstep_efficiency": per(
            c(f"{fleet}.iterations"), c(f"{fleet}.lockstep_iterations")
        ),
        f"{fleet}_relaxed.calls": c(f"{fleet}_relaxed.calls"),
        f"{fleet}_relaxed.busy_s": busy(f"{fleet}_relaxed"),
        f"{fleet}_relaxed.lanes_per_call": per(
            c(f"{fleet}_relaxed.lanes"), c(f"{fleet}_relaxed.calls")
        ),
        f"{mva}_relaxed.calls": c(f"{mva}_relaxed.calls"),
        f"{mva}_relaxed.busy_s": busy(f"{mva}_relaxed"),
        "sim.server.self_s": server_self,
        "sim.server.self_us_per_epoch": per(1e6 * server_self, row["epochs"]),
        "sim.server.op_points": c("sim.server.op_points"),
        "sim.server.counters.calls": c("sim.server.counters.calls"),
        "sim.server.counters.busy_s": busy("sim.server.counters"),
        "sim.opmemo.lookups": c("sim.opmemo.lookup.calls"),
        "sim.opmemo.hits": c("sim.opmemo.hits"),
        "sim.opmemo.hit_rate": per(c("sim.opmemo.hits"), c("sim.server.op_points")),
        "sim.opmemo.busy_s": busy("sim.opmemo.lookup", "sim.opmemo.store"),
        "sim.opmemo.decision_agreement": agreement,
        "sim.fleet.ticks": c("sim.fleet.ticks"),
        "sim.fleet.occupancy": per(c("sim.fleet.lane_ticks"), c("sim.fleet.slot_ticks")),
        "sim.fleet.backfills": c("sim.fleet.backfills"),
        "sim.fleet.self_s": own("sim.fleet.run", "sim.fleet.serve"),
        "core.decide.calls": c("core.decide.calls"),
        "core.decide.busy_s": busy("core.decide"),
        "core.decide.p50_us": row["decide_us"]["p50"],
        "core.decide.p99_us": row["decide_us"]["p99"],
        "core.decide_fleet.calls": c("core.decide_fleet.calls"),
        "core.decide_fleet.busy_s": busy("core.decide_fleet"),
        "core.decide_fleet.lanes_per_call": per(
            c("core.decide_fleet.lanes"), c("core.decide_fleet.calls")
        ),
        "core.optimizer.busy_s": own("core.optimizer"),
        "core.algorithm.evaluations_per_decide": per(
            c("core.algorithm.evaluations"), c("core.algorithm.decides")
        ),
        "campaign.cache.get.calls": c("campaign.cache.get.calls"),
        "campaign.cache.get.busy_s": busy("campaign.cache.get"),
        "campaign.cache.put.calls": c("campaign.cache.put.calls"),
        "campaign.cache.put.busy_s": busy("campaign.cache.put"),
        "campaign.cache.put.bytes": c("campaign.cache.put.bytes"),
        "campaign.runner.self_s": own("campaign.runner"),
        "service.requests": c("service.request.calls"),
        "service.self_s": own("service.request"),
        "service.session.self_s": own("service.session"),
        "queueing.convergence_errors": c("queueing.convergence_errors"),
        "trace.overhead_pct": overhead_pct,
        "trace.coverage": 1.0 - own(ROOT) / wall,
    }


def decision_agreement(traced: Dict, reference: Dict) -> float:
    """Share of epochs whose frequency decisions match the memo-off run."""
    same = total = 0
    for key, record in traced["records"].items():
        theirs = reference["records"][key]["decisions"]
        same += sum(a == b for a, b in zip(record["decisions"], theirs))
        total += max(len(record["decisions"]), len(theirs))
    return same / total if total else 1.0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def load_references() -> Dict:
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_runs(root: Path, workload, seed: int, prepared: Dict,
               timed: List[Dict], traced: List[Dict], extra: Dict[str, Dict],
               stored: Optional[Dict], problems: List[str]):
    """Check every run's outputs and work counters; (attempted, failed).

    Timed and traced runs must have the same outputs as each other and
    keep the check against the stored reference for this seed; traced
    runs of the memo workload also against the live memo-off run.  The
    traced runs must count the same work.  A run that raised fails all
    its operations; a run whose check fails counts its failing runs
    (for the service: every request).  Every row gets its provenance.
    """
    checked = timed + traced
    digests = Counter(digest(r["records"]) for r in checked if r["ok"])
    usual = digests.most_common(1)[0][0] if digests else None
    live = extra.get("reference")
    others = list(extra.values())
    operations = prepared["operations"]
    attempted = failed = 0
    for row, is_checked in [(r, True) for r in checked] + [(r, False) for r in others]:
        attempted += operations
        if not row["ok"]:
            failed += operations
            problems.append(f"{row['mode']} run failed: {row['error'][-500:]}")
            continue
        row["provenance"] = provenance(root, row, seed)
        if workload.tier.get("parity") == "relaxed" and not row["kernel_compiled"]:
            row["provenance"]["relaxed_on_numpy_fallback"] = True
            problems.append("relaxed tier resolved to the numpy fallback, "
                            "which runs the exact path: a different program")
        bad = set()
        if is_checked:
            if digest(row["records"]) != usual:
                bad.update(row["records"])
                problems.append(f"{row['mode']} run's outputs differ from "
                                "other runs at the same seed")
            references = [stored["runs"]] if stored else []
            if live is not None and live["ok"] and row["mode"] == "traced":
                references.append({
                    key: reference_record(workload.check, record)
                    for key, record in live["records"].items()
                })
            for reference_runs in references:
                for key, reference in reference_runs.items():
                    record = row["records"].get(key)
                    if record is None or not matches(
                        workload.check, record, reference
                    ):
                        bad.add(key)
            if bad:
                problems.append(f"{row['mode']} run: {len(bad)} run(s) fail "
                                f"the {workload.check} check")
        wrong = operations if bad and workload.needs_baseline else len(bad)
        failed += min(row["errors"] + wrong, operations)

    counts = [r["counts"] for r in traced if r["ok"]]
    keys = sorted(set().union(*counts)) if counts else []
    differing = [k for k in keys if len({c.get(k, 0) for c in counts}) > 1]
    if differing:
        problems.append("work counters differ between runs at the same "
                        "seed: " + ", ".join(differing))
    return attempted, failed


def measure(runs: Runs, name: str, seed: int, seconds: float,
            trace: bool) -> Dict:
    """Every run of one invocation, checked; metrics and problems."""
    workload = WORKLOADS[name]
    prepared = runs.child(name, seed, "prepare", PREPARE_TIMEOUT_S)
    if not prepared["ok"]:
        raise SystemExit(f"perfbench: cannot prepare {name}:\n{prepared['error']}")
    wanted = timed_runs(workload, seconds)
    start = time.monotonic()
    timed: List[Dict] = []
    while len(timed) < wanted and time.monotonic() - start < START_LIMIT_S:
        timed.append(runs.child(name, seed, "timed"))
    extra: Dict[str, Dict] = {}
    if workload.needs_baseline:
        extra["baseline"] = runs.child(name, seed, "baseline")
    traced: List[Dict] = []
    if trace:
        traced = [runs.child(name, seed, "traced") for _ in range(TRACED_RUNS)]
        if workload.check == "memo":
            extra["reference"] = runs.child(name, seed, "reference")

    problems: List[str] = []
    stored = load_references().get(name, {}).get(str(seed))
    if stored is not None and stored["inputs"] != prepared["inputs"]:
        problems.append("stored reference is stale: the workload's inputs "
                        "changed; rerun with --make-references")
        stored = None
    live = extra.get("reference")
    attempted, failed = check_runs(
        runs.root, workload, seed, prepared, timed, traced, extra, stored,
        problems,
    )

    ok = [r for r in timed if r["ok"]]
    if not ok or (workload.needs_baseline and not extra["baseline"]["ok"]):
        raise SystemExit(f"perfbench: {name} has no result to report:\n"
                         + "\n".join(problems))
    traced_ok = [r for r in traced if r["ok"]]
    corrected(ok + traced_ok)
    metrics = end_to_end(ok, extra.get("baseline"))
    layers: Dict[str, float] = {}
    reported: Dict = {}
    if trace:
        traced_ok.sort(key=lambda r: r["host_s"])
        if not traced_ok:
            raise SystemExit(f"perfbench: every traced run of {name} "
                             "failed:\n" + "\n".join(problems))
        reported = traced_ok[len(traced_ok) // 2]
        spans = runs.out / f"{name}-seed{seed}.spans.json.gz"
        os.replace(reported.pop("spans_file"), spans)
        for row in traced_ok:
            if "spans_file" in row:
                os.unlink(row.pop("spans_file"))
        bare = statistics.median(r["host_s"] for r in ok)
        overhead = statistics.median(r["host_s"] for r in traced_ok) / bare - 1
        agreement = (
            decision_agreement(reported, live)
            if live is not None and live["ok"] else 1.0
        )
        layers = per_layer(reported, 100.0 * overhead, agreement)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "reference": "stored" if stored else ("live" if live else "none"),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "timed_runs": len(ok),
        "timed_runs_wanted": wanted,
        "metrics": metrics,
        "step_latency": step_latency(ok),
        "layers": layers,
        "span_table": reported.get("spans", {}),
        "rows": timed + traced + list(extra.values()),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(result: Dict, bench: Dict) -> None:
    name = result["workload"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    layers_doc = json.loads((HERE / "layers.json").read_text())
    print(f"== {name} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"reference={result['reference']}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    runs = f"{result['timed_runs']} timed runs"
    if result["timed_runs"] < result["timed_runs_wanted"]:
        runs += (f" of {result['timed_runs_wanted']}: none starts after "
                 f"{START_LIMIT_S:.0f} s")
    print(f"   -- end-to-end metrics over {runs}")
    for key, value in result["metrics"].items():
        print(f"   {key:<42} {value:>16.6g} {units[key]}")
    if result["step_latency"]:
        print(f"   ({result['step_latency']})")
    if not result["layers"]:
        return
    table = result["span_table"]
    wall = table[ROOT]["busy_s"]
    print(f"   -- span self time, share of {wall:.3f} s traced wall time")
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"   {span:<30} calls={row['calls']:<8} busy={row['busy_s']:9.4f} s"
              f"  self={row['self_s']:9.4f} s  {100 * row['self_s'] / wall:5.1f}%")
    print("   -- per-layer metrics (and the end-to-end metric each should move)")
    for key, value in result["layers"].items():
        doc = max((p for p in layers_doc if key.startswith(p)), key=len, default=None)
        moves = ", ".join(layers_doc[doc]["moves"]) if doc else ""
        print(f"   {key:<42} {value:>16.6g} {units[key]:<9} {moves}")


def write_rows(runs: Runs, result: Dict) -> Path:
    path = runs.out / (f"{result['workload']}-seed{result['seed']}"
                       f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def make_references(runs: Runs) -> None:
    """Rewrite ``references.json`` from each workload's reference tier."""
    references: Dict[str, Dict] = {}
    for name, workload in WORKLOADS.items():
        references[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            prepared = runs.child(name, seed, "prepare", PREPARE_TIMEOUT_S)
            row = runs.child(name, seed, "reference", PREPARE_TIMEOUT_S)
            for run in (prepared, row):
                if not run["ok"]:
                    raise SystemExit(f"perfbench: {run['mode']} run of "
                                     f"{name} failed:\n{run['error']}")
            references[name][str(seed)] = {
                "inputs": prepared["inputs"],
                "runs": {
                    key: reference_record(workload.check, record)
                    for key, record in sorted(row["records"].items())
                },
            }
            print(f"reference {name} seed={seed}: {len(row['records'])} run(s)")
    (HERE / "references.json").write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    runs = Runs(root)
    if args.make_references:
        make_references(runs)
        return 0
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = measure(runs, name, args.seed, seconds, bool(args.trace))
        print_report(result, bench)
        print(f"   rows: {write_rows(runs, result)}")
        values = result["layers"] if args.trace else result["metrics"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
