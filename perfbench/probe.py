"""Outside-in work counters and spans for the benchmark.

:func:`install` wraps the public entry points of each layer of the
``repro`` package with functions defined here; nothing under ``src/``
changes.  A :class:`Probe` counts work — solver calls and iterations,
memo lookups and served hits, FastCap evaluations, fleet ticks — and
records one span per wrapped call (name, start, end, parent) in
compact in-memory arrays, written out when the traced run ends.  Timed
runs install no probe at all.

Wrappers must not change which code path runs.  Two places need care:

* ``exhaustive_sb`` takes its batched path only while
  ``inner is solve_degradation``, so one wrapper object replaces that
  name in the governor and the algorithm module and in the searches'
  default arguments;
* ``ServerSimulator.run_steps`` returns a generator that its callers
  only ever ``send`` to, so the wrapper returns a proxy whose ``send``
  forwards to it.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The span a traced run opens around its timed region.  Its self time
#: is the part of the timed region no layer span covers.
ROOT = "bench"


class Probe:
    """Work counters and spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up's calls)."""
        self.counts: Dict[str, float] = defaultdict(float)
        #: Duration (µs) of each per-governor decide.
        self.decide_us = array("d")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._last_error: Optional[BaseException] = None

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def open(self, sid: int) -> int:
        index = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> float:
        end = time.perf_counter()
        self.span_end[index] = end
        self._stack.pop()
        return end - self.span_start[index]

    def convergence_error(self, exc: BaseException) -> None:
        # Nested solver wrappers see the same exception; count it once.
        if exc is not self._last_error:
            self._last_error = exc
            self.counts["queueing.convergence_errors"] += 1

    # ------------------------------------------------------------------
    def span_table(self, root: int) -> Dict[str, Dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name.

        Only span ``root`` and the spans recorded inside it count.
        """
        end = self.span_end[root]
        last = len(self.span_name)
        while last > root + 1 and self.span_start[last - 1] > end:
            last -= 1
        child = [0.0] * (last - root)
        for i in range(root + 1, last):
            duration = self.span_end[i] - self.span_start[i]
            child[self.span_parent[i] - root] += duration
        table: Dict[str, Dict[str, float]] = {}
        for i in range(root, last):
            row = table.setdefault(
                self.names[self.span_name[i]],
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0},
            )
            duration = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child[i - root]
        return table

    def write_spans(self, path: str) -> None:
        """Write every span (name, start, end, parent) as gzipped JSON."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        payload = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_us": [round((t - base) * 1e6, 3) for t in self.span_start],
            "end_us": [round((t - base) * 1e6, 3) for t in self.span_end],
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _wrapper(
    probe: Probe,
    original: Callable,
    name: str,
    after: Optional[Callable] = None,
    errors: Tuple[type, ...] = (),
) -> Callable:
    """Count and time calls to ``original``, each as a span.

    ``after(args, result, seconds)`` runs once a call returned.
    Exceptions of a type in ``errors`` are counted as convergence
    failures, then re-raised.
    """
    calls = f"{name}.calls"
    sid = probe.name_id(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = probe.open(sid)
        try:
            result = original(*args, **kwargs)
        except errors as exc:
            probe.convergence_error(exc)
            raise
        finally:
            seconds = probe.close(index)
        probe.counts[calls] += 1
        if after is not None:
            after(args, result, seconds)
        return result

    return wrapper


def _wrap(probe: Probe, owner, attr: str, name: str, after=None, errors=()):
    """Install :func:`_wrapper` over ``owner.attr`` (a class or module)."""
    wrapper = _wrapper(probe, vars(owner)[attr], name, after, errors)
    setattr(owner, attr, wrapper)
    return wrapper


class _Steps:
    """A run's step generator; each ``send`` is a span."""

    __slots__ = ("_gen", "_probe", "_sid")

    def __init__(self, gen, probe: Probe, sid: int) -> None:
        self._gen = gen
        self._probe = probe
        self._sid = sid

    def send(self, value):
        index = self._probe.open(self._sid)
        try:
            return self._gen.send(value)
        finally:
            self._probe.close(index)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def close(self) -> None:
        self._gen.close()


def install(probe: Probe) -> None:
    """Wrap every layer's public entry points (see the module docstring)."""
    from repro.campaign import runner as campaign_runner
    from repro.campaign.cache import ResultCache
    from repro.core import algorithm, governor
    from repro.core.policy_base import ModelDrivenPolicy
    from repro.errors import ConvergenceError
    from repro.policies.freq_par import FreqParPolicy
    from repro.queueing.fleet import FleetSolver
    from repro.queueing.mva import MVASolver
    from repro.service.asgi import InProcessClient
    from repro.service.session import Session
    from repro.sim.server import (
        FleetSimulator,
        MaxFrequencyPolicy,
        OpMemo,
        ServerSimulator,
    )

    count = probe.count

    # -- campaign ------------------------------------------------------
    _wrap(probe, campaign_runner.CampaignRunner, "run_campaign",
          "campaign.runner")
    _wrap(probe, ResultCache, "get", "campaign.cache.get")
    _wrap(probe, ResultCache, "put", "campaign.cache.put",
          lambda args, path, s: count("campaign.cache.put.bytes",
                                      path.stat().st_size))

    # -- sim -----------------------------------------------------------
    def run_done(args, result, seconds) -> None:
        count("sim.server.op_points", result.stats.get("op_solves", 0.0))

    _wrap(probe, campaign_runner, "execute_spec", "sim.server.run", run_done)

    def fleet_done(args, results, seconds) -> None:
        for result in results:
            run_done(args, result, seconds)
        stats = args[0].occupancy_stats
        count("sim.fleet.ticks", stats["fleet_ticks"])
        count("sim.fleet.lane_ticks", stats["fleet_lane_ticks"])
        count("sim.fleet.slot_ticks",
              stats["fleet_ticks"] * stats["fleet_width"])
        count("sim.fleet.backfills", stats["fleet_backfills"])

    _wrap(probe, FleetSimulator, "run", "sim.fleet.run", fleet_done)

    def serve_done(args, responses, seconds) -> None:
        # Service sessions drive their fleet one lockstep tick per call.
        count("sim.fleet.ticks", 1)
        count("sim.fleet.lane_ticks", len(args[1]))
        count("sim.fleet.slot_ticks", len(args[0].lanes))

    _wrap(probe, FleetSimulator, "serve", "sim.fleet.serve", serve_done)
    _wrap(probe, ServerSimulator, "synthesize_counters", "sim.server.counters")

    run_steps = vars(ServerSimulator)["run_steps"]
    step_sid = probe.name_id("sim.server.step")

    @functools.wraps(run_steps)
    def steps(self, *args, **kwargs):
        return _Steps(run_steps(self, *args, **kwargs), probe, step_sid)

    ServerSimulator.run_steps = steps

    _wrap(probe, OpMemo, "lookup", "sim.opmemo.lookup",
          lambda args, op, s: count("sim.opmemo.hits", op is not None))
    _wrap(probe, OpMemo, "store", "sim.opmemo.store")

    # -- queueing ------------------------------------------------------
    def solve_done(name: str):
        def done(args, solution, seconds) -> None:
            count(f"{name}.iterations", solution.iterations)

        return done

    def fleet_solve_done(name: str):
        def done(args, solutions, seconds) -> None:
            iters = [s.iterations for s in solutions if s is not None]
            count(f"{name}.lanes", len(iters))
            count(f"{name}.iterations", sum(iters))
            if iters:
                worst = max(iters)
                count(f"{name}.lockstep_iterations", worst * len(iters))
                key = f"{name}.iterations_max"
                probe.counts[key] = max(probe.counts[key], worst)

        return done

    for owner, attr, name, done in (
        (MVASolver, "solve", "queueing.mva.solve", solve_done),
        (MVASolver, "solve_relaxed", "queueing.mva.solve_relaxed", solve_done),
        (FleetSolver, "solve", "queueing.fleet.solve", fleet_solve_done),
        (FleetSolver, "solve_relaxed", "queueing.fleet.solve_relaxed",
         fleet_solve_done),
    ):
        _wrap(probe, owner, attr, name, done(name), (ConvergenceError,))

    # -- core / policies -----------------------------------------------
    def evaluated(policy) -> None:
        count("core.algorithm.decides", 1)
        count("core.algorithm.evaluations", policy.last_decision.evaluations)

    def decide_done(args, settings, seconds) -> None:
        probe.decide_us.append(seconds * 1e6)
        if getattr(args[0], "last_decision", None) is not None:
            evaluated(args[0])

    for cls in (ModelDrivenPolicy, FreqParPolicy, MaxFrequencyPolicy):
        _wrap(probe, cls, "decide", "core.decide", decide_done)

    def fleet_decide_done(args, settings, seconds) -> None:
        count("core.decide_fleet.lanes", len(args[0]))
        for policy, _ in args[0]:
            evaluated(policy)

    _wrap(probe, governor, "decide_fastcap_fleet", "core.decide_fleet",
          fleet_decide_done)

    inner = _wrapper(probe, governor.solve_degradation, "core.optimizer")
    governor.solve_degradation = inner
    algorithm.solve_degradation = inner
    for search in (algorithm.binary_search_sb, algorithm.exhaustive_sb):
        search.__defaults__ = (inner,)
    _wrap(probe, governor, "solve_degradation_grouped", "core.optimizer")
    _wrap(probe, algorithm, "solve_degradation_batch", "core.optimizer")
    _wrap(probe, algorithm, "solve_degradation_lanes", "core.optimizer")

    # -- service -------------------------------------------------------
    _wrap(probe, InProcessClient, "request", "service.request")
    _wrap(probe, Session, "advance", "service.session")
