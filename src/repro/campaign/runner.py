"""Campaign execution: fan-out, caching, and quick-mode scaling.

:func:`execute_spec` is the pure spec → :class:`RunResult` function
(no scaling, no caching); :class:`CampaignRunner` layers on top of it:

* **quick-mode scaling** — ``quick=True`` divides instruction quotas
  and epoch caps by ``quick_factor`` so campaigns finish at CI speed
  while keeping the same qualitative shapes;
* **in-memory memoisation** — repeated runs of the same (scaled) spec
  within one process return the same object, which is what lets one
  max-frequency baseline serve every policy on a workload/config;
* **persistent caching** — with ``cache_dir`` set, results are stored
  content-addressed by spec hash (:mod:`repro.campaign.cache`); a
  warm-cache campaign performs zero simulator runs;
* **parallel fan-out** — ``jobs > 1`` executes cache misses across a
  process pool.  Specs are deterministic given their seed, so the
  per-spec results are byte-identical to a serial run — except the
  per-epoch decision wall times, the one measured (non-simulated)
  quantity; set ``record_decision_time=False`` on a spec to zero
  those out and make results bit-reproducible everywhere;
* **fleet batching** — ``batch="fleet"`` groups cache-miss specs that
  share a network shape (core count × controller count) and advances
  each group's runs in lockstep through one
  :class:`~repro.sim.server.FleetSimulator`, so the FastCap decision
  bisections batch across runs instead of looping
  :func:`execute_spec`.  Solves do not batch on the exact tier: each
  run's AMVA solve is its own compiled scalar solve, exactly as on the
  scalar path (relaxed-tier solves share one batched C call).
  Per-spec results stay byte-identical to the scalar path (the
  golden-parity suite gates this) with the same caveat as the worker
  fan-out — decision wall times are measured, never batched, for
  specs that record them — so fleet and scalar runs share one cache.
  Composes with ``jobs``: each fleet chunk becomes one worker task.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache, open_result_cache
from repro.campaign.campaign import Campaign, CampaignResult
from repro.campaign.spec import MEMO_MODES, PARITY_TIERS, RunSpec
from repro.errors import ConfigurationError
from repro.policies.registry import format_policy_name, make_policy, parse_policy_name
from repro.queueing.kernels import warmup
from repro.sim.config import SystemConfig, table2_config
from repro.sim.server import OpMemo, RunResult, ServerSimulator
from repro.units import MS

#: Spec batching strategies for campaign cache misses.
BATCH_MODES = ("scalar", "fleet")

logger = logging.getLogger("repro.campaign")


def config_for_spec(spec: RunSpec) -> SystemConfig:
    """Table II preset for a spec, with noise overrides applied."""
    config = table2_config(
        n_cores=spec.n_cores,
        ooo=spec.ooo,
        n_controllers=spec.n_controllers,
        controller_skew=spec.controller_skew,
        epoch_s=spec.epoch_ms * MS,
    )
    if spec.counter_noise is not None or spec.power_noise is not None:
        noise = config.noise
        if spec.counter_noise is not None:
            noise = replace(noise, counter_rel_sigma=spec.counter_noise)
        if spec.power_noise is not None:
            noise = replace(noise, power_rel_sigma=spec.power_noise)
        config = config.with_updates(noise=noise)
    return config


def resolved_policy_name(spec: RunSpec) -> str:
    """The spec's policy name with ``search``/``memory_mode`` merged in.

    ``RunSpec(policy="fastcap", search="exhaustive")`` and
    ``RunSpec(policy="fastcap:search=exhaustive")`` resolve to the same
    parameterized name.
    """
    base, params = parse_policy_name(spec.policy)
    if spec.search is not None:
        params["search"] = spec.search
    if spec.memory_mode is not None:
        params["memory_mode"] = spec.memory_mode
    return format_policy_name(base, params)


def simulator_for_spec(
    spec: RunSpec, op_memo: Optional[OpMemo] = None
) -> ServerSimulator:
    """The simulator that runs ``spec`` (see :func:`execute_spec`)."""
    from repro.workloads import get_workload  # local: keeps import cheap

    return ServerSimulator(
        config_for_spec(spec),
        get_workload(spec.workload),
        seed=spec.seed,
        engine=spec.engine,
        parity=spec.parity,
        memo=spec.memo,
        op_memo=op_memo,
    )


def execute_spec(
    spec: RunSpec, op_memo: Optional[OpMemo] = None
) -> RunResult:
    """Simulate one spec exactly as written (no scaling, no caching).

    ``op_memo`` optionally injects a shared operating-point memo into
    the simulator (only consulted when ``spec.memo == "op"``); the
    simulator namespaces its keys by a config/routing token, so one
    store can safely serve heterogeneous specs and repeated runs.
    """
    sim = simulator_for_spec(spec, op_memo=op_memo)
    policy = make_policy(resolved_policy_name(spec))
    return sim.run(
        policy,
        budget_fraction=spec.budget_fraction,
        instruction_quota=spec.instruction_quota,
        max_epochs=spec.max_epochs,
        measure_decision_time=spec.record_decision_time,
    )


def predicted_epochs(spec: RunSpec) -> float:
    """Cheap pre-run estimate of a spec's length in epochs.

    Used only for scheduling (grouping fleet lanes by expected length
    and ordering the backfill queue longest-first), so it needs the
    right *ordering*, not accuracy: the instruction quota is divided by
    the slowest application's max-frequency IPS — capped runs retire
    slower, so real runs are somewhat longer, uniformly so within a
    shape group.  Unbounded live-control specs predict ``inf``.
    """
    bounds: List[float] = []
    if spec.max_epochs is not None:
        bounds.append(float(spec.max_epochs))
    if spec.instruction_quota is not None:
        from repro.workloads import get_workload  # local: keeps import cheap

        config = config_for_spec(spec)
        apps = get_workload(spec.workload).instantiate(spec.n_cores)
        slowest_ips = min(
            config.core_dvfs.f_max_hz / app.cpi_exe for app in apps
        )
        per_epoch = slowest_ips * config.epoch.epoch_s
        bounds.append(spec.instruction_quota / max(per_epoch, 1e-300))
    return min(bounds) if bounds else float("inf")


def _build_lane(
    spec: RunSpec, op_memo: Optional[OpMemo] = None
) -> "FleetLane":
    from repro.sim.server import FleetLane

    return FleetLane(
        simulator=simulator_for_spec(spec, op_memo=op_memo),
        policy=make_policy(resolved_policy_name(spec)),
        budget_fraction=spec.budget_fraction,
        instruction_quota=spec.instruction_quota,
        max_epochs=spec.max_epochs,
        measure_decision_time=spec.record_decision_time,
    )


def execute_fleet(
    specs: Sequence[RunSpec], fleet_width: Optional[int] = None
) -> List[RunResult]:
    """Simulate several shape-compatible specs in one lockstep fleet.

    The fleet twin of :func:`execute_spec`: each spec becomes one
    :class:`~repro.sim.server.FleetLane` and all lanes advance
    epoch-by-epoch through a :class:`~repro.sim.server.FleetSimulator`,
    batching the FastCap-family decisions of lanes that do not record
    decision wall times (exact-tier solves run on each lane's own
    solver; relaxed-tier solves batch).
    Results are returned in spec order and are byte-identical to
    ``[execute_spec(s) for s in specs]`` for deterministic specs
    (``record_decision_time=False``); specs that measure decision
    times get individually timed per-governor decides, so their
    simulated numbers are identical too and only the measured wall
    times vary — the same nondeterminism any timed run has.

    ``fleet_width`` bounds the lockstep width: the first ``width``
    specs become lanes and the rest wait in the fleet's pending queue
    (built lazily, admitted as lanes finish — see
    :class:`FleetSimulator` backfill).  ``None`` gives every spec its
    own lane, the historical behaviour.

    All specs must share the network shape — ``n_cores`` and
    ``n_controllers`` (:class:`FleetSimulator` validates).
    """
    results, _ = _execute_fleet_stats(specs, fleet_width)
    return results


def _execute_fleet_stats(
    specs: Sequence[RunSpec],
    fleet_width: Optional[int] = None,
    op_memo: Optional[OpMemo] = None,
) -> Tuple[List[RunResult], Dict[str, float]]:
    """:func:`execute_fleet` plus the fleet's occupancy telemetry."""
    from repro.sim.server import FleetSimulator

    specs = list(specs)
    width = len(specs) if fleet_width is None else max(int(fleet_width), 1)
    lanes = [_build_lane(spec, op_memo=op_memo) for spec in specs[:width]]
    # functools.partial rather than a lambda: free of the classic
    # late-binding-loop-variable trap.
    pending = [
        partial(_build_lane, spec, op_memo=op_memo)
        for spec in specs[width:]
    ]
    fleet = FleetSimulator(lanes, pending=pending)
    results = fleet.run()
    return results, fleet.occupancy_stats


def _execute_spec_json(spec_json: str) -> Dict:
    """Process-pool worker: JSON spec in, plain result dict out."""
    from repro.sim.results_io import run_result_to_dict

    return run_result_to_dict(execute_spec(RunSpec.from_json(spec_json)))


def _execute_unit_json(unit_json: str) -> Dict:
    """Process-pool worker for one execution unit (1 spec or a fleet).

    Payload: ``{"specs": [spec_json, ...], "width": int | None}``.
    Returns ``{"results": [result_dict, ...], "stats": {...}}`` —
    ``RunResult.stats`` is excluded from result serialization by
    contract, so the worker ships the unit's aggregate telemetry
    (operating-point solve counters, fleet occupancy) alongside.
    """
    from repro.sim.results_io import run_result_to_dict

    payload = json.loads(unit_json)
    specs = [RunSpec.from_json(text) for text in payload["specs"]]
    if len(specs) == 1:
        results = [execute_spec(specs[0])]
        stats: Dict[str, float] = {}
    else:
        results, stats = _execute_fleet_stats(specs, payload.get("width"))
    stats = dict(stats)
    stats["op_solves"] = sum(
        (getattr(r, "stats", None) or {}).get("op_solves", 0.0)
        for r in results
    )
    stats["op_memo_hits"] = sum(
        (getattr(r, "stats", None) or {}).get("op_memo_hits", 0.0)
        for r in results
    )
    return {
        "results": [run_result_to_dict(result) for result in results],
        "stats": stats,
    }


class CampaignRunner:
    """Runs specs and campaigns with memoisation, caching and fan-out.

    Also answers to its historical name ``ExperimentRunner`` (still
    exported from :mod:`repro.experiments.runner`).
    """

    def __init__(
        self,
        quick: bool = False,
        quick_factor: float = 5.0,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache_format: str = "json",
        batch: str = "scalar",
        fleet_width: int = 64,
        parity: Optional[str] = None,
        memo: Optional[str] = None,
        op_memo: Optional[OpMemo] = None,
    ) -> None:
        if batch not in BATCH_MODES:
            raise ConfigurationError(
                f"unknown batch mode {batch!r}; known: {list(BATCH_MODES)}"
            )
        if parity is not None and parity not in PARITY_TIERS:
            raise ConfigurationError(
                f"unknown parity tier {parity!r}; known: {list(PARITY_TIERS)}"
            )
        if memo is not None and memo not in MEMO_MODES:
            raise ConfigurationError(
                f"unknown memo mode {memo!r}; known: {list(MEMO_MODES)}"
            )
        self.quick = quick
        self.quick_factor = quick_factor
        self.jobs = max(int(jobs), 1)
        #: ``None`` runs every spec at its declared parity tier; a tier
        #: name rewrites specs to that tier in :meth:`scaled` (relaxed
        #: specs hash differently, so the two tiers cache separately).
        self.parity = parity
        #: ``None`` keeps every spec's declared memo mode; ``"op"`` /
        #: ``"off"`` rewrites specs in :meth:`scaled` (eventsim specs
        #: are left alone — the mva-only constraint lives on the spec).
        self.memo = memo
        #: ``"scalar"`` loops :func:`execute_spec` over cache misses;
        #: ``"fleet"`` groups shape-compatible misses into lockstep
        #: :func:`execute_fleet` batches (byte-identical results).
        self.batch = batch
        #: Lockstep width per fleet; larger groups feed the pending
        #: queue and backfill lanes as runs finish.
        self.fleet_width = max(int(fleet_width), 1)
        self.cache = (
            open_result_cache(cache_dir, fmt=cache_format)
            if cache_dir
            else None
        )
        self._memo: Dict[str, RunResult] = {}
        #: One operating-point memo shared by every simulator this
        #: runner builds in-process (``memo="op"`` runs only).  Keys
        #: carry a config/routing token, so heterogeneous specs share
        #: the store safely; a re-run campaign replays its stored
        #: fixed points (the "warm memo" regime).  Worker processes
        #: (``jobs > 1``) cannot share it and fall back to per-sim
        #: memos.  An explicit ``op_memo`` (e.g. one warmed by another
        #: runner) is adopted as-is, enabling warm-memo reruns.
        self._op_memo: Optional[OpMemo] = (
            op_memo
            if op_memo is not None
            else (OpMemo() if memo == "op" else None)
        )
        #: Results served from the persistent cache.
        self.cache_hits = 0
        #: Results served from the in-process memo.
        self.memo_hits = 0
        #: Specs actually handed to the simulator.
        self.runs_executed = 0
        #: Specs executed inside lockstep fleets (subset of runs_executed).
        self.fleet_runs = 0
        #: Operating-point solves across all executed runs, and how many
        #: of them the operating-point memo served (counters surfaced
        #: from ``RunResult.stats``).
        self.op_solves = 0
        self.op_memo_hits = 0
        #: Fleet lane-occupancy telemetry, accumulated across every
        #: fleet this runner executed (including worker-side fleets):
        #: lockstep ticks, lane-ticks actually served, lane-ticks the
        #: configured widths could have served, and pending-queue
        #: admissions.
        self.fleet_ticks = 0
        self.fleet_lane_ticks = 0
        self.fleet_slot_ticks = 0
        self.fleet_backfills = 0

    @property
    def op_memo(self) -> Optional[OpMemo]:
        """The shared operating-point memo (``None`` unless memoizing).

        Hand it to another runner's ``op_memo=`` to rerun a campaign
        against an already-warm store.
        """
        return self._op_memo

    @property
    def fleet_occupancy(self) -> float:
        """Fraction of lockstep lane slots that held a live run."""
        return (
            self.fleet_lane_ticks / self.fleet_slot_ticks
            if self.fleet_slot_ticks
            else 0.0
        )

    def _absorb_fleet_stats(self, stats: Dict[str, float]) -> None:
        ticks = int(stats.get("fleet_ticks", 0))
        self.fleet_ticks += ticks
        self.fleet_lane_ticks += int(stats.get("fleet_lane_ticks", 0))
        self.fleet_slot_ticks += ticks * int(stats.get("fleet_width", 0))
        self.fleet_backfills += int(stats.get("fleet_backfills", 0))

    # ------------------------------------------------------------------
    def scaled(self, spec: RunSpec) -> RunSpec:
        """Apply the runner's parity override and quick-mode scaling.

        Scaling shrinks work, never inflates it: the floors (5M
        instructions, 10 epochs) are capped at the spec's own declared
        values, so an explicitly tiny spec runs exactly as written.
        """
        if self.parity is not None and spec.parity != self.parity:
            spec = replace(spec, parity=self.parity)
        if (
            self.memo is not None
            and spec.memo != self.memo
            and (self.memo == "off" or spec.engine == "mva")
        ):
            spec = replace(spec, memo=self.memo)
        if not self.quick:
            return spec
        quota = spec.instruction_quota
        epochs = spec.max_epochs
        if quota is not None:
            quota = min(max(quota / self.quick_factor, 5e6), quota)
        if epochs is not None:
            epochs = min(max(int(epochs / self.quick_factor), 10), epochs)
        return replace(spec, instruction_quota=quota, max_epochs=epochs)

    def config_for(self, spec: RunSpec) -> SystemConfig:
        return config_for_spec(spec)

    # ------------------------------------------------------------------
    def _lookup(self, scaled: RunSpec) -> Optional[RunResult]:
        """Memo, then persistent cache; updates hit counters."""
        key = scaled.spec_hash()
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        if self.cache is not None:
            cached = self.cache.get(scaled)
            if cached is not None:
                self.cache_hits += 1
                self._memo[key] = cached
                return cached
        return None

    def _store(self, scaled: RunSpec, result: RunResult) -> None:
        stats = getattr(result, "stats", None) or {}
        self.op_solves += int(stats.get("op_solves", 0))
        self.op_memo_hits += int(stats.get("op_memo_hits", 0))
        self._memo[scaled.spec_hash()] = result
        if self.cache is not None:
            self.cache.put(scaled, result)

    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunResult:
        """Run one spec (quick-scaled), via memo and cache."""
        scaled = self.scaled(spec)
        found = self._lookup(scaled)
        if found is not None:
            return found
        result = execute_spec(scaled, op_memo=self._op_memo)
        self.runs_executed += 1
        self._store(scaled, result)
        return result

    def baseline(self, spec: RunSpec) -> RunResult:
        """Max-frequency baseline for a spec's workload/config (cached)."""
        return self.run(spec.baseline_spec())

    def run_with_baseline(self, spec: RunSpec) -> Tuple[RunResult, RunResult]:
        """Run a spec and return (run, matching baseline)."""
        return self.run(spec), self.baseline(spec)

    # ------------------------------------------------------------------
    def run_campaign(
        self, campaign: Campaign, include_baselines: bool = False
    ) -> CampaignResult:
        """Run every spec of a campaign, fanning misses out over jobs.

        With ``include_baselines=True`` the matching max-frequency
        baseline of every spec joins the batch (deduplicated — one
        baseline serves all policies on a workload/config/seed), so
        ``result.baseline(spec)`` and ``result.pair(spec)`` resolve.
        """
        originals: List[RunSpec] = list(campaign.specs)
        if include_baselines:
            originals.extend(spec.baseline_spec() for spec in campaign.specs)

        # Deduplicate by original hash, preserving declaration order.
        ordered: List[RunSpec] = []
        seen = set()
        for spec in originals:
            key = spec.spec_hash()
            if key not in seen:
                seen.add(key)
                ordered.append(spec)

        scaled = [self.scaled(spec) for spec in ordered]
        hits_before = self.cache_hits
        runs_before = self.runs_executed

        misses: List[Tuple[int, RunSpec]] = []
        results: Dict[int, RunResult] = {}
        for i, spec in enumerate(scaled):
            found = self._lookup(spec)
            if found is None:
                misses.append((i, spec))
            else:
                results[i] = found

        if misses:
            op_solves_before = self.op_solves
            op_hits_before = self.op_memo_hits
            slot_ticks_before = self.fleet_slot_ticks
            lane_ticks_before = self.fleet_lane_ticks
            backfills_before = self.fleet_backfills
            results.update(self._execute_misses(misses))
            solves = self.op_solves - op_solves_before
            hits = self.op_memo_hits - op_hits_before
            if any(spec.memo == "op" for _, spec in misses):
                logger.info(
                    "campaign: %d runs executed, %d operating-point solves, "
                    "%d served from the memo (%.1f%% hit rate)",
                    len(misses),
                    solves,
                    hits,
                    100.0 * hits / solves if solves else 0.0,
                )
            elif solves:
                logger.info(
                    "campaign: %d runs executed, %d operating-point solves",
                    len(misses),
                    solves,
                )
            slot_ticks = self.fleet_slot_ticks - slot_ticks_before
            if slot_ticks:
                logger.info(
                    "campaign: fleet lane occupancy %.1f%% "
                    "(%d backfills from the pending queue)",
                    100.0
                    * (self.fleet_lane_ticks - lane_ticks_before)
                    / slot_ticks,
                    self.fleet_backfills - backfills_before,
                )

        by_hash = {
            orig.spec_hash(): results[i] for i, orig in enumerate(ordered)
        }
        # Scaled hashes resolve too, so full-mode callers and code
        # holding already-scaled specs both find their results.
        for i, spec in enumerate(scaled):
            by_hash.setdefault(spec.spec_hash(), results[i])
        return CampaignResult(
            campaign,
            by_hash,
            cache_hits=self.cache_hits - hits_before,
            runs_executed=self.runs_executed - runs_before,
        )

    def _fleet_units(
        self, misses: List[Tuple[int, RunSpec]]
    ) -> List[List[Tuple[int, RunSpec]]]:
        """Group misses into execution units for fleet batching.

        Specs sharing a network shape (``n_cores``, ``n_controllers``)
        *and* a predicted-length band form one fleet; within a group,
        specs run longest-first (LPT) so the long runs occupy lanes
        from tick zero and the short ones backfill behind them.
        Groups keep first-appearance order and singletons run scalar.
        A unit may exceed ``fleet_width`` — execution backfills from
        the pending queue rather than draining, so one wide unit beats
        several sequential chunks.  Every unit is an independent work
        item for the serial loop or the process pool — with
        ``jobs > 1`` groups are split so each yields at least
        ~``jobs`` units, otherwise one maximal fleet would leave the
        rest of the pool idle.
        """
        estimates = {id(item[1]): predicted_epochs(item[1]) for item in misses}
        groups: Dict[Tuple[int, int, int], List[Tuple[int, RunSpec]]] = {}
        order: List[Tuple[int, int, int]] = []
        for item in misses:
            est = estimates[id(item[1])]
            band = (
                -1
                if est == float("inf")
                else max(int(est), 1).bit_length()
            )
            key = (item[1].n_cores, item[1].n_controllers, band)
            if key not in groups:
                order.append(key)
            groups.setdefault(key, []).append(item)
        units: List[List[Tuple[int, RunSpec]]] = []
        for key in order:
            members = groups[key]
            # LPT: longest predicted run first, stable on miss order.
            members = sorted(
                members, key=lambda item: -estimates[id(item[1])]
            )
            if self.jobs > 1 and len(members) > 1:
                per_worker = -(-len(members) // self.jobs)  # ceil div
                chunk = max(2, per_worker)
                for start in range(0, len(members), chunk):
                    units.append(members[start : start + chunk])
            else:
                units.append(members)
        return units

    def _execute_misses(
        self, misses: List[Tuple[int, RunSpec]]
    ) -> Dict[int, RunResult]:
        """Simulate cache misses, in-process or across a worker pool."""
        # Compile/load the C library once, up front, so the first run
        # (exact or relaxed) doesn't pay the warm-up inside its measured
        # wall time (workers warm up their own copies).
        warmup()
        if self.batch == "fleet":
            units = self._fleet_units(misses)
        else:
            units = [[item] for item in misses]

        out: Dict[int, RunResult] = {}
        if self.jobs > 1 and len(units) > 1:
            from concurrent.futures import ProcessPoolExecutor

            from repro.sim.results_io import run_result_from_dict

            workers = min(self.jobs, len(units))
            payloads = [
                json.dumps(
                    {
                        "specs": [spec.to_json() for _, spec in unit],
                        "width": self.fleet_width,
                    }
                )
                for unit in units
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                unit_payloads = list(pool.map(_execute_unit_json, payloads))
            for unit, payload in zip(units, unit_payloads):
                stats = payload["stats"]
                # Result serialization drops RunResult.stats by
                # contract, so the worker's aggregate telemetry rides
                # in the payload instead.
                self.op_solves += int(stats.get("op_solves", 0))
                self.op_memo_hits += int(stats.get("op_memo_hits", 0))
                self._absorb_fleet_stats(stats)
                for (i, spec), data in zip(unit, payload["results"]):
                    result = run_result_from_dict(data)
                    self.runs_executed += 1
                    if len(unit) > 1:
                        self.fleet_runs += 1
                    self._store(spec, result)
                    out[i] = result
        else:
            for unit in units:
                if len(unit) == 1:
                    i, spec = unit[0]
                    results = [execute_spec(spec, op_memo=self._op_memo)]
                else:
                    results, fleet_stats = _execute_fleet_stats(
                        [spec for _, spec in unit],
                        self.fleet_width,
                        op_memo=self._op_memo,
                    )
                    self._absorb_fleet_stats(fleet_stats)
                    self.fleet_runs += len(unit)
                for (i, spec), result in zip(unit, results):
                    self.runs_executed += 1
                    self._store(spec, result)
                    out[i] = result
        return out
