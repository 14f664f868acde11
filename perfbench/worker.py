"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script for every run it makes and reads the
JSON row it writes to ``--out``::

    python3 perfbench/worker.py --workload fig12-relaxed-fleet --seed 1 \\
        --mode timed --out row.json --scratch tmp/ --spans spans.json.gz

Modes: ``prepare`` imports everything, builds the compiled kernel and
describes the workload's inputs, so that later set-up times find the
kernel's on-disk cache and the bytecode populated; ``timed`` runs the
bare program, with nothing of the benchmark's wrapped around it;
``traced`` wraps every layer to count work and record spans (see
``probe.py``); ``reference`` runs the workload's reference tier;
``baseline`` runs the service script with max-frequency lanes, for the
service's degradation metrics.  Only ``timed`` rows carry times that
end-to-end metrics use.  Every mode samples the host's speed from the
start of :func:`main` on (see ``hostclock.py``); the row carries the samples
and the marks (``time.monotonic``) that ``run.py`` turns into seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

from hostclock import HostClock

MODES = ("prepare", "timed", "traced", "reference", "baseline")


def c_compiler():
    """The compiler the kernel build would pick, or None."""
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def percentiles(values) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": 0.0, "p99": 0.0}
    top = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "p99": ordered[top],
    }


def describe_host() -> dict:
    """The program's environment, as this process resolved it."""
    import numpy
    from repro.queueing.kernels import cext, warmup

    kernel = warmup()  # memoised: free if the workload warmed it up
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel": kernel.name,
        "kernel_compiled": kernel.compiled,
        "kernel_error": cext.build_error(),
        "c_compiler": c_compiler(),
    }


def main(clock: HostClock) -> None:
    clock_start = time.monotonic()
    clock.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = None
    if args.mode in ("prepare", "traced"):
        from probe import ROOT, Probe, install

        probe = Probe()
        install(probe)  # in prepare, only to import every wrapped module
    os.makedirs(args.scratch, exist_ok=True)
    state = workload.setup(args.seed, args.scratch, args.mode)
    row = {"mode": args.mode, "clock_start": clock_start,
           "setup_done": time.monotonic()}
    if args.mode == "prepare":
        row["inputs"] = workload.inputs(args.seed)
        row["operations"] = workload.operations(args.seed)
    else:
        if probe is not None:
            probe.reset()  # forget the set-up's calls
            root = probe.open(probe.name_id(ROOT))
        row["start"] = time.monotonic()
        output = workload.execute(state)
        row["end"] = time.monotonic()
        if probe is not None:
            probe.close(root)
        row["clock"] = clock.stop()
        row.update(workload.summarize(state, output))
        extra_counts = row.pop("extra_counts", {})
        if probe is not None:
            row["counts"] = {**probe.counts, **extra_counts}
            row["spans"] = probe.span_table(root)
            row["decide_us"] = percentiles(probe.decide_us)
            probe.write_spans(args.spans)
        row["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    if "clock" not in row:
        row["clock"] = clock.stop()
    row.update(describe_host())
    with open(args.out, "w") as handle:
        json.dump(row, handle)


if __name__ == "__main__":
    host_clock = HostClock()
    try:
        main(host_clock)
    finally:
        host_clock.stop()
