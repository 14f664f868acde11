"""Epoch-level many-core server simulator.

This is the testbed substitute for the paper's cycle-accurate
infrastructure.  Each epoch (default 5 ms):

1. a 300 µs **profiling window** runs at the previous epoch's
   frequencies; the simulator solves the closed queueing network for
   that operating point and synthesises performance counters (with
   sampling noise) — exactly the inputs the paper's OS collects;
2. the **policy** (FastCap or a baseline) decides new per-core and
   memory frequencies from those counters;
3. frequencies transition (cores pause briefly; memory halts), and the
   **remainder of the epoch** runs at the new operating point;
4. instruction progress, power draw, and per-epoch records accumulate.

A run ends when the slowest application has retired its instruction
quota (the paper's 100M-instruction convention) or when ``max_epochs``
elapses (used by the time-series figures).

Ground-truth performance comes from the AMVA solver over the
transfer-blocking network (:mod:`repro.queueing`); ground-truth power
from :mod:`repro.sim.cpu_power` and :mod:`repro.sim.dram_power`.  The
policy sees only :class:`repro.sim.counters.EpochCounters` — never the
ground-truth models.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.mva import MVASolution, MVASolver
from repro.queueing.network import zipf_bank_probs
from repro.sim import cpu_power, dram_power
from repro.sim.config import SystemConfig
from repro.sim.counters import ControllerCounters, CoreCounters, EpochCounters
from repro.sim.dram_timing import BankServiceModel
from repro.workloads.cache_sharing import effective_mpki, effective_wpki
from repro.workloads.mixes import Workload


@dataclass(frozen=True)
class FrequencySettings:
    """A policy's actuation decision for one epoch."""

    core_frequencies_hz: Tuple[float, ...]
    bus_frequency_hz: float

    @classmethod
    def all_max(cls, config: SystemConfig) -> "FrequencySettings":
        return cls(
            tuple(config.core_dvfs.f_max_hz for _ in range(config.n_cores)),
            config.mem_dvfs.f_max_hz,
        )

    @classmethod
    def all_min(cls, config: SystemConfig) -> "FrequencySettings":
        return cls(
            tuple(config.core_dvfs.f_min_hz for _ in range(config.n_cores)),
            config.mem_dvfs.f_min_hz,
        )

    def quantized(self, config: SystemConfig) -> "FrequencySettings":
        """Snap every frequency to its ladder."""
        return FrequencySettings(
            tuple(config.core_dvfs.quantize(f) for f in self.core_frequencies_hz),
            config.mem_dvfs.quantize(self.bus_frequency_hz),
        )


@dataclass(frozen=True)
class SystemView:
    """Static system knowledge available to an OS-level policy.

    This is the spec-sheet + boot-time-measurement information the
    paper assumes (ladders, topology, statically measured background
    power) — not the simulator's ground-truth models.
    """

    config: SystemConfig
    budget_fraction: float
    budget_watts: float
    #: Boot-time estimate of per-core leakage (W per core).
    core_static_estimate_w: float
    #: Boot-time estimate of non-bus-scaling memory power (all ctrls).
    memory_static_estimate_w: float
    #: Everything else that never varies (disks, NICs, fans...).
    other_static_estimate_w: float

    @property
    def n_cores(self) -> int:
        return self.config.n_cores

    @property
    def total_static_estimate_w(self) -> float:
        """The model's P_s: all frequency-independent power."""
        return (
            self.n_cores * self.core_static_estimate_w
            + self.memory_static_estimate_w
            + self.other_static_estimate_w
        )

    def bus_transfer_candidates_s(self) -> Tuple[float, ...]:
        """The M candidate bus transfer times, ascending (fast → slow
        is descending frequency; this list ascends in transfer time)."""
        return tuple(
            self.config.bus_transfer_s(f)
            for f in reversed(self.config.mem_dvfs.frequencies_hz)
        )


class CappingPolicy(Protocol):
    """Interface every power-capping policy implements."""

    name: str

    def initialize(self, view: SystemView) -> None:
        """Called once before the run starts."""

    def decide(self, counters: EpochCounters) -> FrequencySettings:
        """Map one epoch's counters to the next frequency settings."""


@dataclass(frozen=True)
class EpochRecord:
    """Everything measured during one epoch (ground truth, no noise)."""

    index: int
    start_time_s: float
    duration_s: float
    core_frequencies_hz: Tuple[float, ...]
    bus_frequency_hz: float
    total_power_w: float
    cpu_power_w: float
    memory_power_w: float
    per_core_ips: Tuple[float, ...]
    decision_time_s: float
    budget_watts: float

    @property
    def violation(self) -> bool:
        return self.total_power_w > self.budget_watts * 1.001

    @property
    def power_fraction_of_budget(self) -> float:
        return self.total_power_w / self.budget_watts


@dataclass
class RunResult:
    """Aggregate outcome of one (policy, workload, budget) run."""

    policy_name: str
    workload_name: str
    config_name: str
    budget_fraction: float
    budget_watts: float
    peak_power_w: float
    app_names: Tuple[str, ...]
    epochs: List[EpochRecord] = field(default_factory=list)
    instructions: Optional[np.ndarray] = None
    elapsed_s: float = 0.0
    #: In-memory run telemetry (operating-point memo hit rates, ...).
    #: Deliberately excluded from :mod:`repro.sim.results_io`
    #: serialization — and therefore from golden content hashes and
    #: the result cache — so measurement counters can evolve without
    #: invalidating fixtures.
    stats: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def _series(self) -> dict:
        """Per-epoch record columns as arrays, computed once (lazy).

        Every aggregate statistic below derives from these columns; the
        cache is invalidated when epochs are appended or the tail
        record changes (it is keyed on the epoch count and the identity
        of the last record — records themselves are frozen), so a
        result can be inspected mid-run and re-summarised after.
        """
        epochs = self.epochs
        key = (len(epochs), id(epochs[-1]) if epochs else None)
        cache = self.__dict__.get("_series_cache")
        if cache is None or cache["key"] != key:
            cache = {
                "key": key,
                "start_s": np.array([e.start_time_s for e in epochs]),
                "duration_s": np.array([e.duration_s for e in epochs]),
                "total_power_w": np.array([e.total_power_w for e in epochs]),
                "cpu_power_w": np.array([e.cpu_power_w for e in epochs]),
                "memory_power_w": np.array([e.memory_power_w for e in epochs]),
                "decision_time_s": np.array(
                    [e.decision_time_s for e in epochs]
                ),
            }
            self.__dict__["_series_cache"] = cache
        return cache

    def mean_power_w(self) -> float:
        """Time-weighted mean full-system power over the run."""
        s = self._series()
        total_time = float(s["duration_s"].sum())
        if total_time <= 0:
            return 0.0
        return float(np.dot(s["total_power_w"], s["duration_s"])) / total_time

    def max_epoch_power_w(self) -> float:
        """Highest single-epoch power; 0.0 for a run with no epochs."""
        if not self.epochs:
            return 0.0
        return float(self._series()["total_power_w"].max())

    def per_core_tpi_s(self) -> np.ndarray:
        """Wall-clock time per instruction for each core over the run.

        The normalized-performance metric of the figures is the ratio
        of this against the max-frequency baseline run (equivalent to
        CPI at the nominal clock).
        """
        if self.instructions is None:
            raise ConfigurationError(
                "run result carries no instruction accounting; "
                "per-core TPI is undefined"
            )
        return self.elapsed_s / np.maximum(self.instructions, 1.0)

    def mean_decision_time_s(self) -> float:
        times = self._series()["decision_time_s"]
        times = times[times > 0]
        return float(times.mean()) if times.size else 0.0

    def power_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(epoch start times, total power) series for the time plots.

        Returns copies of the cached epoch columns, so callers may
        mutate them freely.
        """
        s = self._series()
        return s["start_s"].copy(), s["total_power_w"].copy()


@dataclass(frozen=True)
class _OperatingPoint:
    """Ground-truth steady state for one (settings, phase) pair."""

    solution: MVASolution
    per_core_ips: np.ndarray
    per_core_activity: np.ndarray
    per_core_power_w: np.ndarray
    memory_power_w: float
    total_power_w: float
    row_hit_rate: float
    bank_service_s: np.ndarray  # per controller
    inst_per_blocking_miss: np.ndarray


@dataclass(frozen=True)
class SolveRequest:
    """A lane asking its driver for one AMVA solve.

    Emitted by the step generators at exactly the points where the
    inline code used to call ``self._solver.solve``; the lane's
    :class:`~repro.queueing.arrays.NetworkArrays` already hold the
    operating point's inputs when the request is yielded.  Both drivers
    answer with the lane's own solver: the scalar driver directly, the
    fleet driver by handing a tick's concurrent requests to one
    :class:`~repro.queueing.fleet.FleetSolver` call.
    """

    warm_start: np.ndarray
    tolerance: float


@dataclass(frozen=True)
class DecideRequest:
    """A lane asking its driver to run the policy decision.

    The driver answers with ``(FrequencySettings, wall_seconds)``.
    Routing decisions through the driver lets the fleet batch the
    FastCap-family degradation solves across lanes; the scalar driver
    simply calls ``policy.decide`` and times it.

    ``measure`` is True when the lane records decision wall times into
    its results: such decisions must be individually timed around one
    governor's decide (a share of a batched solve is not a decision
    latency), so the fleet driver only batches requests with
    ``measure=False``.
    """

    policy: CappingPolicy
    counters: EpochCounters
    measure: bool = True


@dataclass(frozen=True)
class EpochComplete:
    """Epoch-boundary marker yielded by :meth:`ServerSimulator.run_steps`.

    Emitted after each epoch's record has been appended to the run's
    :class:`RunResult`.  Drivers answer with ``None``; the marker is
    what gives external drivers — most importantly the long-running
    :mod:`repro.service` control plane — epoch-granular control: a
    driver can pause at the marker, mutate live state (budget, think
    scale, injected faults) and resume without ever re-entering
    mid-epoch arithmetic.
    """

    record: EpochRecord
    #: Per-core instructions retired so far (copy; safe to keep).
    instructions_retired: Tuple[float, ...]


@dataclass
class RunControl:
    """Live, mutable knobs an external driver can turn between epochs.

    Passed to :meth:`ServerSimulator.run_steps` (and :meth:`run`);
    consulted once at the top of every epoch:

    * ``budget_fraction`` — when set and different from the run's
      current fraction, the budget is re-derived and the policy is
      re-budgeted in place (power-model fits survive the change; see
      :meth:`repro.core.policy_base.ModelDrivenPolicy.update_budget`);
    * ``stop`` — finish the run gracefully after the current epoch.

    A run constructed with a control object may be *unbounded* (no
    instruction quota, no epoch cap): the control's ``stop`` flag is
    then the termination condition, which is exactly the service-mode
    contract (streaming load, operator-driven shutdown).
    """

    budget_fraction: Optional[float] = None
    stop: bool = False


#: Process-level memo for per-core routing matrices, keyed by the app
#: identity tuple + memory topology.  Workloads are registry singletons
#: with stable member identities, and the cached value keeps strong
#: references to the apps, so a key can never be reused by a different
#: object.  Cached arrays are treated as read-only by the simulator.
_ROUTING_CACHE: Dict[Tuple, Tuple[tuple, np.ndarray]] = {}

#: Process-level memo for compiled per-phase rate tables, keyed by
#: (app identity, cache pressure).  Same lifetime argument as above.
_PHASE_TABLE_CACHE: Dict[Tuple, Tuple[object, tuple]] = {}

#: FIFO bound on the memos above: registry campaigns need a few dozen
#: entries, but a long-lived process sweeping custom topologies or
#: registering synthetic applications would otherwise grow them (and
#: pin the referenced app objects) without limit.
_SIM_CACHE_LIMIT = 256


def _memo_put(cache: Dict, key: Tuple, value: Tuple) -> None:
    """Insert with FIFO eviction at :data:`_SIM_CACHE_LIMIT` entries."""
    if len(cache) >= _SIM_CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value


#: Floors of the per-core noisy counters, in synthesize_counters'
#: column order: instructions, LLC misses, busy time, cache time,
#: power, memory response.
_CORE_COUNTER_FLOORS = np.array([1.0, 1e-6, 1e-12, 1e-12, 1e-6, 1e-12])


#: Operating points solved before a memoized simulator may *serve* a
#: cached result (it stores from the first solve).  Two purposes: the
#: early transient — max-freq warm-up, the policy's first reactions —
#: is where phases still drift fast enough that a 2% IPS match can be
#: a different trajectory; and every golden-grid run (≤5 epochs = 10
#: operating points) finishes inside the window, so the exact tier's
#: byte-identity under ``memo="op"`` holds by construction.
_MEMO_WARMUP_OPS = 24

#: Relative IPS-feedback match radius for serving a memoized operating
#: point.  Measured on full-length campaigns: at 0.02 the served-vs-
#: solved drift stays ≤1e-4 on mean power (well inside the 1% counter
#: noise); 0.05 admits ~1e-2 drift, which leaks outside the contract.
_MEMO_IPS_TOLERANCE = 0.02

#: Key capacity of an :class:`OpMemo`.  Sized for campaign sharing: a
#: full-length 300-epoch run touches a few hundred distinct keys, and
#: a shared memo must keep one campaign's working set alive so the
#: next run over the same grid starts warm.  Entries are a few KB each
#: (one MVA solution + per-core vectors), so the worst case is tens of
#: MB — bounded, and far below one spec's epoch history.
_MEMO_MAX_KEYS = 4096


class OpMemo:
    """Bounded memo cache for steady-state operating points.

    Keyed exactly: ``(simulator token, core freqs, bus freq, phase
    parameter bytes, fixed-point iteration count)`` — everything the
    fixed point depends on *except* the continuous IPS-feedback
    estimate.  That last input is matched approximately: each key
    stores up to :data:`_PER_KEY` ``(ips, operating point)`` pairs,
    and a lookup is served when the max relative component distance to
    a stored vector is within :data:`_MEMO_IPS_TOLERANCE`.  Keys are
    LRU-bounded; per-key entry lists are append-only up to the cap
    (steady state revisits the same few feedback basins, so the first
    stored vectors are the ones that keep matching).

    One ``OpMemo`` may be shared by many simulators — the campaign
    runner holds one per campaign so repeated runs start warm.  The
    simulator token (a digest of the system config and the routing
    matrix) namespaces the keys, so two simulators can only serve each
    other's entries when their fixed points are the same function.
    """

    _PER_KEY = 8

    def __init__(
        self,
        max_keys: int = _MEMO_MAX_KEYS,
        tolerance: float = _MEMO_IPS_TOLERANCE,
    ) -> None:
        self._entries: "OrderedDict[Tuple, List[Tuple[np.ndarray, _OperatingPoint]]]" = (
            OrderedDict()
        )
        self._max_keys = max_keys
        self._tolerance = tolerance

    def lookup(
        self, key: Tuple, ips_estimate: np.ndarray
    ) -> Optional["_OperatingPoint"]:
        bucket = self._entries.get(key)
        if bucket is None:
            return None
        self._entries.move_to_end(key)
        for stored_ips, op in bucket:
            rel = np.max(
                np.abs(ips_estimate - stored_ips)
                / (np.abs(stored_ips) + 1e-300)
            )
            if rel < self._tolerance:
                return op
        return None

    def store(
        self, key: Tuple, ips_estimate: np.ndarray, op: "_OperatingPoint"
    ) -> None:
        bucket = self._entries.get(key)
        if bucket is None:
            if len(self._entries) >= self._max_keys:
                self._entries.popitem(last=False)
            self._entries[key] = [(ips_estimate, op)]
        elif len(bucket) < self._PER_KEY:
            bucket.append((ips_estimate, op))


class ServerSimulator:
    """Simulates one workload on one system configuration.

    ``engine`` selects the performance back end: ``"mva"`` (default)
    solves the queueing network analytically each epoch; ``"eventsim"``
    replays a short discrete-event window of the same network and uses
    its *measured* throughputs/queues instead — two orders of magnitude
    slower, used to validate that capping conclusions do not depend on
    the AMVA approximation (see the validation tests and ablations).
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        seed: int = 0,
        engine: str = "mva",
        eventsim_window_s: float = 40e-6,
        parity: str = "exact",
        memo: str = "off",
        op_memo: Optional["OpMemo"] = None,
    ) -> None:
        if engine not in ("mva", "eventsim"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        if parity not in ("exact", "relaxed"):
            raise ConfigurationError(f"unknown parity tier {parity!r}")
        if memo not in ("off", "op"):
            raise ConfigurationError(f"unknown memo mode {memo!r}")
        if memo == "op" and engine == "eventsim":
            # Event-driven windows are seeded per operating-point index;
            # serving a cached point would skip a window and shift every
            # later seed, silently changing the measured trajectory.
            raise ConfigurationError(
                "memo='op' requires the mva engine (eventsim windows "
                "are seeded per solve and cannot be skipped)"
            )
        self.config = config
        self.workload = workload
        self.engine = engine
        #: Numeric parity tier: ``"exact"`` serves every AMVA solve
        #: byte-reproducibly (numpy's gemv plus the compiled exact
        #: step); ``"relaxed"`` routes solves through the compiled C
        #: loop-nest (run-level ≤1e-8 relative agreement, see
        #: repro.queueing.kernels).
        self.parity = parity
        self._eventsim_window_s = eventsim_window_s
        self._run_seed = seed
        self._rng = np.random.default_rng(seed)
        self._apps = workload.instantiate(config.n_cores)
        self._pressure = workload.pressure()
        self._bank_model = BankServiceModel(
            timing=config.dram_timing,
            reference_bus_hz=config.mem_dvfs.f_max_hz,
        )
        self._routing = self._build_routing()
        self._visit_probs = self._controller_visits()
        self._visit_tuples = tuple(tuple(row) for row in self._visit_probs)
        # Counter noise, one slot per noisy value in synthesize_counters'
        # draw order: per core (instructions, misses, busy, cache,
        # power, response), per controller (q, u, s_m, bus, arrivals),
        # then memory and total power.  A slot whose sigma is <= 0
        # draws nothing.
        c_sig = config.noise.counter_rel_sigma
        p_sig = config.noise.power_rel_sigma
        sigmas = np.concatenate(
            (
                np.tile((c_sig,) * 4 + (p_sig, c_sig), config.n_cores),
                np.full(5 * config.memory.n_controllers, c_sig),
                (p_sig, p_sig),
            )
        )
        self._noise_drawn = ~(sigmas <= 0)
        self._noise_sigmas = sigmas[self._noise_drawn]
        # Frequency half of core power for the last core-frequency
        # tuple charged: (tuple, frequencies, cpu_power terms).
        self._core_terms: Tuple = ((), None, None)
        # Feedback state for the background-traffic fixed point.
        self._ips_estimate = np.array(
            [config.core_dvfs.f_max_hz / a.cpi_exe for a in self._apps]
        )
        self._intensity = np.array([a.intensity for a in self._apps])
        # Compiled network: structure (routing, topology, populations)
        # is static for the simulator's lifetime; think times, bank
        # service, bus transfer and background rates are written in
        # place every fixed-point iteration.  The solver's scratch is
        # likewise allocated once.
        topo = config.memory
        self._arrays = NetworkArrays(
            routing=self._routing,
            bank_service=np.ones(topo.n_controllers * topo.banks_per_controller),
            bus_transfer=np.ones(topo.n_controllers),
            bank_ctrl=np.repeat(
                np.arange(topo.n_controllers, dtype=np.int64),
                topo.banks_per_controller,
            ),
            population=np.ones(config.n_cores),
            think_s=np.zeros(config.n_cores),
            names=tuple(a.name for a in self._apps),
        )
        # Binding the solver loads the C library (building it once per
        # process), so compile cost never lands inside a measured epoch.
        self._solver = MVASolver(self._arrays)
        self._phase_tables = [self._cached_phase_table(a) for a in self._apps]
        #: Monotone operating-point counter: seeds the event-driven
        #: measurement windows deterministically (independent of how
        #: many draws other consumers took from ``self._rng``).
        self._op_index = 0
        # Operating-point memoization.  Every operating point counts
        # as a solve; with memo="op", past the warm-up window, solves
        # whose key matches and whose IPS feedback is within
        # _MEMO_IPS_TOLERANCE are served from a bounded cache and
        # count as hits.
        self.memo = memo
        self._op_solves = 0
        self._op_memo_hits = 0
        # ``op_memo`` lets a campaign runner share one memo across
        # simulators (and across repeated runs): the token namespaces
        # this simulator's keys by everything the fixed point depends
        # on that is not in the per-solve key — the full system config
        # and the workload's routing matrix.
        self._op_memo: Optional[OpMemo] = (
            (op_memo if op_memo is not None else OpMemo())
            if memo == "op"
            else None
        )
        self._memo_token: Optional[bytes] = (
            hashlib.sha256(
                repr(config).encode() + self._routing.tobytes()
            ).digest()
            if memo == "op"
            else None
        )
        # --- live-control hooks (service mode / fault injection) ------
        # All default to None so batch runs stay on the exact seed code
        # path (golden parity).  See `set_think_scale`,
        # `set_memory_power_scale`, and `repro.service.failures`.
        #: Streaming-load modulation: multiplies per-core think times.
        self._think_scale: Optional[Union[float, np.ndarray]] = None
        #: Per-controller ground-truth memory power multiplier (a
        #: degraded controller drawing excess current).
        self._mem_power_scale: Optional[np.ndarray] = None
        #: Maps the policy's decided settings to what the hardware
        #: actually applies (e.g. a stuck-frequency core).
        self.actuation_filter: Optional[
            Callable[[FrequencySettings], FrequencySettings]
        ] = None
        #: Transforms the synthesized counters before the policy sees
        #: them (e.g. a biased power sensor).  Ground truth unaffected.
        self.counter_filter: Optional[
            Callable[[EpochCounters], EpochCounters]
        ] = None

    # ------------------------------------------------------------------
    # Live-control hooks (service mode / fault injection)
    # ------------------------------------------------------------------
    @property
    def network_arrays(self) -> NetworkArrays:
        """The live compiled network (mutated in place every epoch).

        Exposed for the service layer's fault engine, which installs
        service-time multipliers on it; everyone else should treat it
        as read-only.
        """
        return self._arrays

    def set_think_scale(
        self, scale: Optional[Union[float, Sequence[float]]]
    ) -> None:
        """Scale per-core think times (streaming-load modulation).

        ``scale < 1`` shortens the compute interval between memory
        requests — heavier memory load, the "traffic ramps up" phase of
        a streaming workload; ``scale > 1`` lightens it.  Scalar or
        per-core vector; ``None`` (the default) restores the exact
        batch-mode code path.
        """
        if scale is None:
            self._think_scale = None
            return
        arr = np.asarray(scale, dtype=float)
        if arr.ndim not in (0, 1) or (
            arr.ndim == 1 and arr.shape != (self.config.n_cores,)
        ):
            raise ConfigurationError(
                "think scale must be a scalar or one value per core"
            )
        if not np.all(arr > 0):
            raise ConfigurationError("think scale must be positive")
        self._think_scale = float(arr) if arr.ndim == 0 else arr.copy()

    def set_memory_power_scale(
        self, scale: Optional[Union[float, Sequence[float]]]
    ) -> None:
        """Scale ground-truth per-controller memory power (faults).

        A degraded controller typically serves slower *and* draws more
        current; this multiplier models the power side.  Scalar or
        per-controller vector; ``None`` restores the healthy path.
        """
        if scale is None:
            self._mem_power_scale = None
            return
        n_ctrl = self.config.memory.n_controllers
        arr = np.broadcast_to(
            np.asarray(scale, dtype=float), (n_ctrl,)
        ).copy()
        if not np.all(arr > 0):
            raise ConfigurationError("memory power scale must be positive")
        self._mem_power_scale = None if np.all(arr == 1.0) else arr

    def reseed_noise(self, seed: int) -> None:
        """Reset the counter/power noise stream to a derived seed.

        The service layer calls this with a seed derived from
        ``(session seed, epoch index)`` before every epoch, so an
        epoch's noise draws never depend on how many draws earlier
        control-plane activity consumed — the per-epoch twin of the
        per-window eventsim seeding (:meth:`_eventsim_seed`).
        """
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def _build_routing(self) -> np.ndarray:
        """Per-core routing over all banks (controllers concatenated).

        Memoised process-wide: campaigns construct many simulators over
        the same registry workloads and Table II topologies, and the
        zipf evaluation per (core, app) dominated construction time.
        The cached array is shared and never written.
        """
        topo = self.config.memory
        key = (
            tuple(id(app) for app in self._apps),
            topo.n_controllers,
            topo.banks_per_controller,
            topo.controller_skew,
        )
        hit = _ROUTING_CACHE.get(key)
        if hit is not None:
            return hit[1]
        n_ctrl = topo.n_controllers
        banks_per = topo.banks_per_controller
        n = self.config.n_cores
        routing = np.zeros((n, n_ctrl * banks_per))
        for i, app in enumerate(self._apps):
            within = np.asarray(
                zipf_bank_probs(banks_per, app.bank_skew, shift=i), dtype=float
            )
            weights = self._controller_weights(i)
            for k in range(n_ctrl):
                routing[i, k * banks_per : (k + 1) * banks_per] = weights[k] * within
        _memo_put(_ROUTING_CACHE, key, (tuple(self._apps), routing))
        return routing

    def _controller_weights(self, core_index: int) -> np.ndarray:
        """Probability of core ``core_index`` using each controller."""
        topo = self.config.memory
        k = topo.n_controllers
        if k == 1:
            return np.ones(1)
        skew = topo.controller_skew
        home = core_index % k
        weights = np.full(k, (1.0 - skew) / k)
        weights[home] += skew
        return weights

    def _controller_visits(self) -> np.ndarray:
        return np.vstack(
            [self._controller_weights(i) for i in range(self.config.n_cores)]
        )

    # ------------------------------------------------------------------
    # Per-phase behaviour
    # ------------------------------------------------------------------
    def _cached_phase_table(self, app) -> Tuple[Tuple[float, ...], float, list]:
        """Process-wide memo around :meth:`_compile_phase_table`.

        The table is a pure function of (app profile, mix pressure);
        both are registry-owned singletons, so campaigns re-deriving
        the same workload across many simulators share one table.
        """
        key = (id(app), self._pressure)
        hit = _PHASE_TABLE_CACHE.get(key)
        if hit is not None:
            return hit[1]
        table = self._compile_phase_table(app)
        _memo_put(_PHASE_TABLE_CACHE, key, (app, table))
        return table

    def _compile_phase_table(self, app) -> Tuple[Tuple[float, ...], float, list]:
        """Precompute effective per-phase rates for one application.

        The phase-modulated effective rates only depend on *which*
        phase is active, so the (mpki, wpki, cpi_exe, row_hit) tuples
        can be evaluated once per phase at simulator construction by
        calling the real helpers (:func:`effective_mpki` and friends)
        at each phase's first instruction.  ``_phase_parameters`` then
        reduces to a phase lookup per core.
        """
        phases = app.phases
        if not phases:
            probes = [0.0]
            durations: Tuple[float, ...] = (float("inf"),)
            cycle = float("inf")
        else:
            durations = tuple(p.duration_instructions for p in phases)
            cycle = sum(p.duration_instructions for p in phases)
            # Probe each phase at its midpoint — far from the phase
            # boundaries, where the subtractive scan's floating-point
            # epsilon could land a probe in the neighbouring phase.
            offset = 0.0
            probes = []
            for duration in durations:
                probes.append(
                    offset + 0.5 * duration
                    if np.isfinite(duration)
                    else offset
                )
                offset += duration
        values = [
            (
                effective_mpki(app, self._pressure, probe),
                effective_wpki(app, self._pressure, probe),
                app.cpi_exe_at(probe),
                app.row_hit_rate_at(probe),
            )
            for probe in probes
        ]
        return (durations, cycle, values)

    def _phase_parameters(
        self, instructions_retired: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Effective (mpki, wpki, cpi_exe, row_hit) per core right now."""
        n = self.config.n_cores
        mpki = np.empty(n)
        wpki = np.empty(n)
        cpi = np.empty(n)
        row = np.empty(n)
        for i in range(n):
            durations, cycle, values = self._phase_tables[i]
            if len(values) == 1:
                entry = values[0]
            else:
                # Same subtractive scan as ApplicationProfile.phase_at,
                # so boundary-epsilon behaviour is preserved exactly.
                pos = float(instructions_retired[i]) % cycle
                entry = values[-1]
                for j, duration in enumerate(durations):
                    if pos < duration:
                        entry = values[j]
                        break
                    pos -= duration
            mpki[i], wpki[i], cpi[i], row[i] = entry
        return mpki, wpki, cpi, row

    # ------------------------------------------------------------------
    # Operating-point solve (ground truth)
    # ------------------------------------------------------------------
    def _serve_solve(self, request: "SolveRequest") -> MVASolution:
        """Serve one solve request on this simulator's parity tier."""
        if self.parity == "relaxed":
            return self._solver.solve_relaxed(
                initial_throughput=request.warm_start,
                tolerance=request.tolerance,
            )
        return self._solver.solve(
            initial_throughput=request.warm_start,
            tolerance=request.tolerance,
        )

    def _memo_live(self) -> bool:
        """Whether the operating-point memo may serve right now.

        Any live-control mutation — streaming-load think scaling,
        fault-injected memory power, service-time multipliers installed
        on the arrays — changes the fixed point without changing the
        memo key, so the memo stands down (solves run, nothing is
        served or stored) whenever a hook is active.
        """
        return (
            self._op_memo is not None
            and self._think_scale is None
            and self._mem_power_scale is None
            and self._arrays.service_scales == (None, None)
        )

    @property
    def operating_point_stats(self) -> Dict[str, float]:
        """Operating-point solves and memo hits served, simulator lifetime."""
        solves = self._op_solves
        return {
            "op_solves": float(solves),
            "op_memo_hits": float(self._op_memo_hits),
            "op_memo_hit_rate": (
                self._op_memo_hits / solves if solves else 0.0
            ),
        }

    def solve_operating_point(
        self,
        settings: FrequencySettings,
        instructions_retired: np.ndarray,
        fixed_point_iterations: int = 3,
    ) -> _OperatingPoint:
        """Steady state at given frequencies and execution positions.

        Drives :meth:`_operating_point_steps` with the simulator's own
        scalar solver; :class:`FleetSimulator` drives the same
        generator and serves its solves through a fleet solver.
        """
        gen = self._operating_point_steps(
            settings, instructions_retired, fixed_point_iterations
        )
        solution: Optional[MVASolution] = None
        while True:
            try:
                request = gen.send(solution)
            except StopIteration as stop:
                return stop.value
            solution = self._serve_solve(request)

    def _operating_point_steps(
        self,
        settings: FrequencySettings,
        instructions_retired: np.ndarray,
        fixed_point_iterations: int = 3,
    ):
        """Operating-point fixed point as a driver-agnostic generator.

        Yields a :class:`SolveRequest` wherever the inline code used to
        call the MVA kernel and receives the :class:`MVASolution` back
        via ``send``; everything else — phase parameters, background
        feedback, power accounting — is the single shared code path, so
        scalar and fleet execution cannot diverge.  Runs entirely on
        the simulator's compiled :class:`NetworkArrays` — per-iteration
        inputs are written in place and the preallocated MVA kernel
        re-solved, so no spec objects (`JobClassSpec`,
        `ControllerSpec`, `BackgroundFlow`) are ever constructed here.
        """
        cfg = self.config
        mpki, wpki, cpi_exe, row_hit = self._phase_parameters(instructions_retired)
        memo = self._op_memo if self._memo_live() else None
        memo_key: Optional[Tuple] = None
        memo_ips: Optional[np.ndarray] = None
        self._op_solves += 1
        if memo is not None:
            # The key is exact in everything the fixed point depends on
            # except the IPS feedback, which is matched within
            # _MEMO_IPS_TOLERANCE against stored vectors.  Serving
            # consumes no RNG draws (counter noise is synthesized by the
            # caller), so noise streams stay aligned with the unmemoized
            # run.
            memo_key = (
                self._memo_token,
                settings.core_frequencies_hz,
                settings.bus_frequency_hz,
                mpki.tobytes(),
                wpki.tobytes(),
                cpi_exe.tobytes(),
                row_hit.tobytes(),
                fixed_point_iterations,
            )
            if self._op_index >= _MEMO_WARMUP_OPS:
                cached = memo.lookup(memo_key, self._ips_estimate)
                if cached is not None:
                    self._op_memo_hits += 1
                    self._ips_estimate = cached.per_core_ips.copy()
                    self._op_index += 1
                    return cached
            memo_ips = self._ips_estimate.copy()

        base_blocking = cfg.ooo.blocking_fraction if cfg.ooo.enabled else 1.0
        blocking_fraction: Optional[float] = None

        if self._core_terms[0] != settings.core_frequencies_hz:
            core_freqs = np.asarray(settings.core_frequencies_hz, dtype=float)
            self._core_terms = (
                settings.core_frequencies_hz,
                core_freqs,
                cpu_power.core_frequency_terms(cfg.core_dvfs, cfg.power, core_freqs),
            )
        _, core_freqs, core_terms = self._core_terms
        bus_freq = settings.bus_frequency_hz
        s_b = cfg.bus_transfer_s(bus_freq)
        cache_time = cfg.cache.l2_hit_time_s

        topo = cfg.memory
        banks_per = topo.banks_per_controller
        n_ctrl = topo.n_controllers

        ips = self._ips_estimate.copy()
        solution: Optional[MVASolution] = None
        row_hit_avg = float(np.mean(row_hit))
        s_m = self._bank_model.effective_service_s(row_hit_avg)

        # OoO needs an extra pass or two for the window-backpressure
        # feedback below to settle.
        iterations = max(fixed_point_iterations, 1)
        if cfg.ooo.enabled:
            iterations = max(iterations, 4)

        arrays = self._arrays
        for _ in range(iterations):
            # Out-of-order window backpressure: the instruction window
            # can only hide misses while the memory keeps up.  As the
            # bus approaches saturation the window fills and previously
            # hidden misses become core stalls — the effective blocking
            # fraction rises toward 1.  Without this, "non-blocking"
            # traffic would be an open flow that can saturate the bus
            # with no flow control, which no real core does.
            fraction = base_blocking
            if cfg.ooo.enabled and solution is not None:
                rho = float(np.max(solution.bus_utilization))
                pressure = max(0.0, (rho - 0.6) / 0.4) ** 2
                fraction = min(
                    base_blocking + (1.0 - base_blocking) * pressure, 1.0
                )
            if fraction != blocking_fraction:
                # These move only with the blocking fraction.
                blocking_fraction = fraction
                blocking_mpki = mpki * blocking_fraction
                inst_per_miss = 1000.0 / np.maximum(blocking_mpki, 1e-9)
                think = inst_per_miss * cpi_exe / core_freqs
                if self._think_scale is not None:
                    think = think * self._think_scale
                think_total = think + cache_time
            if solution is None:
                warm_start = np.minimum(
                    ips * blocking_mpki / 1000.0, 1.0 / (think_total + s_m)
                )

            # Arrival-weighted row-buffer hit rate and bank service.
            miss_rates = ips * mpki / 1000.0
            total_rate = miss_rates.sum()
            if total_rate > 0:
                row_hit_avg = float((miss_rates * row_hit).sum() / total_rate)
            activation_rate = (
                total_rate * (1.0 - row_hit_avg) / max(banks_per * n_ctrl, 1)
            )
            s_m = self._bank_model.effective_service_s(
                row_hit_avg, activation_rate
            )

            # Background traffic: writebacks plus OoO non-blocking misses.
            wb_rates = ips * wpki / 1000.0
            nonblocking = ips * mpki * (1.0 - blocking_fraction) / 1000.0
            bg_per_core = wb_rates + nonblocking
            bg_per_bank = bg_per_core @ self._routing

            arrays.update(
                think=think_total,
                s_m=s_m,
                s_b=s_b,
                bg_rates=bg_per_bank,
            )
            # 1e-8 relative tolerance is far below the 1% counter
            # noise; the default 1e-10 would just burn iterations.
            solution = yield SolveRequest(warm_start, 1e-8)
            warm_start = solution.throughput_per_s
            # Damp the IPS feedback: background rates and the OoO
            # blocking fraction both derive from it, and an undamped
            # update can cycle at saturated operating points.
            ips = 0.5 * ips + 0.5 * solution.throughput_per_s * inst_per_miss

        assert solution is not None
        self._op_index += 1

        if self.engine == "eventsim":
            solution = self._measure_with_eventsim(arrays, solution, think_total)

        # Accounting uses the final converged solution, not the damped
        # feedback value.
        ips = solution.throughput_per_s * inst_per_miss
        self._ips_estimate = ips

        # --- Ground-truth power ---------------------------------------
        activity = np.minimum(think / solution.turnaround_s, 1.0)
        core_powers = cpu_power.core_power_from_terms(
            cfg.power, core_terms, activity, self._intensity
        )
        bank_service_per_ctrl = np.full(n_ctrl, s_m)
        arrivals = solution.controller_arrival_per_s.tolist()
        bank_util = (
            solution.bank_utilization.reshape(n_ctrl, banks_per).mean(axis=1).tolist()
        )
        bus_util = solution.bus_utilization.tolist()
        # One controller at a time, summed in order from 0.0 (the seed's
        # loop, bit for bit).
        mem_power = 0.0
        for k in range(n_ctrl):
            power_k = dram_power.memory_subsystem_power_w(
                topology=topo,
                currents=cfg.dram_currents,
                timing=cfg.dram_timing,
                calibration=cfg.power,
                mem_ladder=cfg.mem_dvfs,
                bus_frequency_hz=bus_freq,
                access_rate_per_s=arrivals[k],
                row_hit_rate=row_hit_avg,
                bank_utilization=bank_util[k],
                bus_utilization=bus_util[k],
            )
            if self._mem_power_scale is not None:
                # Fault injection: a degraded controller draws excess
                # power in ground truth (the policy only sees counters).
                power_k *= float(self._mem_power_scale[k])
            mem_power += power_k
        total = float(core_powers.sum() + mem_power + cfg.power.other_static_w)

        op = _OperatingPoint(
            solution=solution,
            per_core_ips=ips,
            per_core_activity=activity,
            per_core_power_w=core_powers,
            memory_power_w=mem_power,
            total_power_w=total,
            row_hit_rate=row_hit_avg,
            bank_service_s=bank_service_per_ctrl,
            inst_per_blocking_miss=inst_per_miss,
        )
        if memo is not None:
            assert memo_key is not None and memo_ips is not None
            memo.store(memo_key, memo_ips, op)
        return op

    # ------------------------------------------------------------------
    # Event-driven measurement overlay (engine="eventsim")
    # ------------------------------------------------------------------
    def _eventsim_seed(self) -> int:
        """Deterministic seed for the current operating-point window.

        Derived from the run seed and the operating-point counter, so
        event-driven measurements do not depend on how many draws other
        consumers (counter noise, future samplers) took from the shared
        ``self._rng`` — runs are reproducible regardless of call order.
        """
        seq = np.random.SeedSequence((self._run_seed, self._op_index))
        return int(seq.generate_state(1)[0])

    def _measure_with_eventsim(
        self,
        arrays: NetworkArrays,
        analytic: MVASolution,
        think_plus_cache: np.ndarray,
    ) -> MVASolution:
        """Replace the analytic estimates with event-driven measurements.

        Runs the final network arrays of the fixed point through the
        discrete-event simulator for a short window and overlays the
        measured throughputs, response times and utilisations onto the
        solution object.  Quantities the event simulator does not
        export per-class/per-bank (controller responses, bank queues)
        are rescaled from the analytic profile by the measured ratio.
        """
        from dataclasses import replace as dc_replace

        from repro.queueing.eventsim import simulate_network

        window = self._eventsim_window_s
        measured = simulate_network(
            arrays,
            horizon_s=window,
            warmup_s=0.25 * window,
            seed=self._eventsim_seed(),
        )
        throughput = np.where(
            measured.completions > 0,
            measured.throughput_per_s,
            analytic.throughput_per_s,
        )
        response = np.where(
            np.isfinite(measured.memory_response_s),
            measured.memory_response_s,
            analytic.memory_response_s,
        )
        ratio_num = float(np.nanmean(response))
        ratio_den = float(np.mean(analytic.memory_response_s))
        response_ratio = ratio_num / ratio_den if ratio_den > 0 else 1.0
        return dc_replace(
            analytic,
            throughput_per_s=throughput,
            memory_response_s=response,
            turnaround_s=think_plus_cache + response,
            bank_utilization=measured.bank_utilization,
            bus_utilization=np.minimum(measured.bus_utilization, 0.999),
            bank_queue=analytic.bank_queue * response_ratio,
            controller_response_s=analytic.controller_response_s
            * response_ratio,
        )

    # ------------------------------------------------------------------
    # Counter synthesis
    # ------------------------------------------------------------------
    def synthesize_counters(
        self,
        epoch_index: int,
        op: _OperatingPoint,
        settings: FrequencySettings,
    ) -> EpochCounters:
        """Build the noisy profiling-window sample a real OS would read.

        Each noisy value is ``value * (1.0 + sigma * z)``, then floored;
        power readings use ``power_rel_sigma``, everything else
        ``counter_rel_sigma``.  One ``standard_normal`` draw per epoch
        supplies every ``z``, in this order: per core, instructions,
        LLC misses, busy time, cache time, power and memory response;
        per controller, Q, U, s_m, bus utilisation and arrival rate;
        then memory power and total power.  A value whose sigma is
        <= 0 draws nothing and keeps its value.

        This is, bit for bit, the stream of one scalar
        ``rng.normal(0.0, sigma)`` per value in the same order: numpy
        computes ``normal(0, s)`` as ``0.0 + s * standard_normal()`` on
        the same stream, and ``1.0 + (0.0 + s*z) == 1.0 + s*z`` for
        every ``z``.
        """
        cfg = self.config
        window = cfg.epoch.profiling_s
        sol = op.solution
        s_b = cfg.bus_transfer_s(settings.bus_frequency_hz)
        n = cfg.n_cores
        banks_per = cfg.memory.banks_per_controller

        # A quiet value's factor stays exactly 1.0, and x * 1.0 == x.
        drawn = self._noise_drawn
        factors = np.ones(drawn.size)
        factors[drawn] = 1.0 + self._noise_sigmas * self._rng.standard_normal(
            self._noise_sigmas.size
        )

        values = np.empty((n, 6))
        values[:, 0] = op.per_core_ips
        values[:, 1] = sol.throughput_per_s
        values[:, 2] = op.per_core_activity
        values[:, :3] *= window
        values[:, 3] = cfg.cache.l2_hit_time_s
        values[:, 4] = op.per_core_power_w
        values[:, 5] = sol.memory_response_s
        noisy = np.maximum(
            values * factors[: 6 * n].reshape(n, 6), _CORE_COUNTER_FLOORS
        ).tolist()
        cores = tuple(
            CoreCounters(
                instructions=row[0],
                llc_misses=row[1],
                busy_time_s=row[2],
                window_s=window,
                cache_time_s=row[3],
                frequency_hz=float(freq),
                power_w=row[4],
                memory_response_s=row[5],
                controller_visits=visits,
            )
            for row, freq, visits in zip(
                noisy, settings.core_frequencies_hz, self._visit_tuples
            )
        )

        rest = factors[6 * n :].tolist()
        controllers = []
        x = sol.throughput_per_s
        for k in range(len(op.bank_service_s)):
            f_q, f_u, f_s, f_bus, f_rate = rest[5 * k : 5 * k + 5]
            bank_slice = slice(k * banks_per, (k + 1) * banks_per)
            # Arrival-weighted mean response at this controller.
            visit_weights = x * self._visit_probs[:, k]
            wsum = float(visit_weights.sum())
            if wsum > 0:
                r_mean = float(
                    (visit_weights * sol.controller_response_s[:, k]).sum() / wsum
                )
            else:
                r_mean = float(op.bank_service_s[k] + s_b)
            # Paper's Q: queue incl. the arriving request, averaged over
            # banks (arrival-weighted, excluding the arrival's own mean
            # contribution via the (N-1)/N factor).
            n_eff = max(cfg.n_cores, 2)
            queue_avg = float(np.mean(sol.bank_queue[bank_slice]))
            q = 1.0 + queue_avg * (n_eff - 1) / n_eff
            s_m = float(op.bank_service_s[k])
            # Paper's U: bus backlog per departure, chosen so that
            # R = Q (s_m + U s_b) is exact at the current operating
            # point — this is what the MemScale counters measure.
            u = (r_mean / q - s_m) / s_b
            u = min(max(u, 1.0), float(cfg.n_cores))
            controllers.append(
                ControllerCounters(
                    q=max(q * f_q, 1.0),
                    u=max(u * f_u, 1.0),
                    bank_service_s=max(s_m * f_s, 1e-12),
                    bus_utilization=float(
                        min(max(sol.bus_utilization[k] * f_bus, 0.0), 1.0)
                    ),
                    arrival_rate_per_s=max(
                        float(sol.controller_arrival_per_s[k]) * f_rate, 0.0
                    ),
                )
            )

        return EpochCounters(
            epoch_index=epoch_index,
            cores=cores,
            controllers=tuple(controllers),
            memory_power_w=max(op.memory_power_w * rest[-2], 0.0),
            total_power_w=max(op.total_power_w * rest[-1], 0.0),
            bus_frequency_hz=settings.bus_frequency_hz,
        )

    # ------------------------------------------------------------------
    # System view for policies
    # ------------------------------------------------------------------
    def system_view(self, budget_fraction: float) -> SystemView:
        cfg = self.config
        # Boot-time static measurements: idle memory background power
        # and per-core leakage at a mid-range voltage.
        mc_width = cfg.memory.channels_per_controller / 4.0
        idle_bg = (
            dram_power.background_power_w(cfg.memory, cfg.dram_currents, 0.0)
            + dram_power.refresh_power_w(
                cfg.memory, cfg.dram_currents, cfg.dram_timing
            )
            + cfg.power.mc_static_w * mc_width
        ) * cfg.memory.n_controllers
        core_static = cpu_power.core_static_power_w(
            cfg.core_dvfs, cfg.power, 0.9 * cfg.core_dvfs.f_max_hz
        )
        return SystemView(
            config=cfg,
            budget_fraction=budget_fraction,
            budget_watts=cfg.budget_watts(budget_fraction),
            core_static_estimate_w=core_static,
            memory_static_estimate_w=idle_bg,
            other_static_estimate_w=cfg.power.other_static_w,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        policy: CappingPolicy,
        budget_fraction: float,
        instruction_quota: Optional[float] = 100e6,
        max_epochs: Optional[int] = None,
        measure_decision_time: bool = True,
        control: Optional[RunControl] = None,
    ) -> RunResult:
        """Run the workload under ``policy`` at the given budget.

        ``measure_decision_time=False`` records every per-epoch
        decision time as exactly 0.0 instead of the measured wall
        time — the one non-deterministic quantity in a run — so
        results become bit-reproducible across hosts and workers.

        This is the scalar driver of :meth:`run_steps`: it serves each
        yielded request with the simulator's own solver and a direct
        ``policy.decide`` call.  :class:`FleetSimulator` drives many
        ``run_steps`` generators in lockstep instead, batching the
        FastCap decisions (and relaxed-tier solves) across runs; exact
        solves run on each lane's own solver there too.
        """
        gen = self.run_steps(
            policy,
            budget_fraction,
            instruction_quota=instruction_quota,
            max_epochs=max_epochs,
            measure_decision_time=measure_decision_time,
            control=control,
        )
        response = None
        while True:
            try:
                request = gen.send(response)
            except StopIteration as stop:
                return stop.value
            if isinstance(request, SolveRequest):
                response = self._serve_solve(request)
            elif isinstance(request, DecideRequest):
                t0 = time.perf_counter()
                settings = request.policy.decide(request.counters)
                response = (settings, time.perf_counter() - t0)
            else:  # EpochComplete: batch drivers just acknowledge.
                response = None

    def run_steps(
        self,
        policy: CappingPolicy,
        budget_fraction: float,
        instruction_quota: Optional[float] = 100e6,
        max_epochs: Optional[int] = None,
        measure_decision_time: bool = True,
        control: Optional[RunControl] = None,
    ):
        """The full run loop as a driver-agnostic generator.

        Yields :class:`SolveRequest` (answer: :class:`MVASolution`),
        :class:`DecideRequest` (answer: ``(FrequencySettings,
        wall_seconds)``) and — after each epoch's accounting — an
        :class:`EpochComplete` marker (answer: ``None``), and returns
        the finished :class:`RunResult` via ``StopIteration``.  All
        simulation state — epoch clocks, instruction accounting,
        counter synthesis, power integration — lives in this one code
        path regardless of who drives it.

        ``control`` (a :class:`RunControl`) enables live driving: the
        budget may be changed between epochs and the run stopped
        gracefully; with a control object the run may be unbounded
        (no quota, no epoch cap).
        """
        if instruction_quota is None and max_epochs is None and control is None:
            raise ConfigurationError(
                "need an instruction quota, an epoch cap, or a live "
                "RunControl to terminate"
            )
        cfg = self.config
        view = self.system_view(budget_fraction)
        policy.initialize(view)

        settings = FrequencySettings.all_max(cfg)
        instructions = np.zeros(cfg.n_cores)
        now = 0.0
        op_solves_before = self._op_solves
        op_hits_before = self._op_memo_hits
        result = RunResult(
            policy_name=policy.name,
            workload_name=self.workload.name,
            config_name=cfg.name,
            budget_fraction=budget_fraction,
            budget_watts=view.budget_watts,
            peak_power_w=cfg.power.peak_power_w,
            app_names=tuple(a.name for a in self._apps),
        )

        epoch_index = 0
        while True:
            if control is not None:
                if control.stop:
                    break
                target = control.budget_fraction
                if target is not None and target != budget_fraction:
                    # Live budget change: re-derive the view and
                    # re-budget the policy in place (fits survive when
                    # the policy supports it).
                    budget_fraction = target
                    view = self.system_view(budget_fraction)
                    rebudget = getattr(policy, "update_budget", None)
                    if rebudget is not None:
                        rebudget(view)
                    else:
                        policy.initialize(view)
            if max_epochs is not None and epoch_index >= max_epochs:
                break
            if (
                instruction_quota is not None
                and float(instructions.min()) >= instruction_quota
            ):
                break

            # --- profiling window at the old settings ----------------
            op_profile = yield from self._operating_point_steps(
                settings, instructions
            )
            window = cfg.epoch.profiling_s
            instructions = instructions + op_profile.per_core_ips * window
            counters = self.synthesize_counters(epoch_index, op_profile, settings)
            if self.counter_filter is not None:
                # Sensor faults: the policy reads doctored counters;
                # ground-truth accounting below is untouched.
                counters = self.counter_filter(counters)

            # --- decision ---------------------------------------------
            proposed, measured_s = yield DecideRequest(
                policy, counters, measure_decision_time
            )
            decision_time = measured_s if measure_decision_time else 0.0
            new_settings = proposed.quantized(cfg)
            if self.actuation_filter is not None:
                # Actuation faults: the hardware applies something other
                # than what the policy asked for (e.g. a stuck core).
                new_settings = self.actuation_filter(new_settings).quantized(cfg)

            # --- transition overhead ----------------------------------
            transition = 0.0
            if new_settings.core_frequencies_hz != settings.core_frequencies_hz:
                transition = max(transition, cfg.epoch.core_transition_s)
            if new_settings.bus_frequency_hz != settings.bus_frequency_hz:
                transition = max(transition, cfg.epoch.memory_transition_s)

            # --- main segment at the new settings ---------------------
            main_span = cfg.epoch.epoch_s - window - transition
            op_main = yield from self._operating_point_steps(
                new_settings, instructions
            )
            instructions = instructions + op_main.per_core_ips * main_span

            # --- epoch accounting --------------------------------------
            epoch_power = (
                op_profile.total_power_w * window
                + op_main.total_power_w * (main_span + transition)
            ) / cfg.epoch.epoch_s
            cpu_w = (
                op_profile.per_core_power_w.sum() * window
                + op_main.per_core_power_w.sum() * (main_span + transition)
            ) / cfg.epoch.epoch_s
            mem_w = (
                op_profile.memory_power_w * window
                + op_main.memory_power_w * (main_span + transition)
            ) / cfg.epoch.epoch_s
            result.epochs.append(
                EpochRecord(
                    index=epoch_index,
                    start_time_s=now,
                    duration_s=cfg.epoch.epoch_s,
                    core_frequencies_hz=new_settings.core_frequencies_hz,
                    bus_frequency_hz=new_settings.bus_frequency_hz,
                    total_power_w=epoch_power,
                    cpu_power_w=cpu_w,
                    memory_power_w=mem_w,
                    per_core_ips=tuple(float(v) for v in op_main.per_core_ips),
                    decision_time_s=decision_time,
                    budget_watts=view.budget_watts,
                )
            )
            yield EpochComplete(
                record=result.epochs[-1],
                instructions_retired=tuple(float(v) for v in instructions),
            )

            settings = new_settings
            now += cfg.epoch.epoch_s
            epoch_index += 1

        result.instructions = instructions
        result.elapsed_s = now
        # Per-run memo telemetry: diff the simulator-lifetime counters
        # against their values when this run started.
        solves = self._op_solves - op_solves_before
        hits = self._op_memo_hits - op_hits_before
        result.stats = {
            "op_solves": float(solves),
            "op_memo_hits": float(hits),
            "op_memo_hit_rate": hits / solves if solves else 0.0,
        }
        if self._op_memo is not None:
            # Tells a memo run that served nothing from a memo-off run.
            result.stats["op_memo_enabled"] = 1.0
        return result


class MaxFrequencyPolicy:
    """No capping: everything at maximum frequency (the baseline runs)."""

    name = "max-freq"

    def __init__(self) -> None:
        self._view: Optional[SystemView] = None

    def initialize(self, view: SystemView) -> None:
        self._view = view

    def decide(self, counters: EpochCounters) -> FrequencySettings:
        assert self._view is not None, "initialize() must run first"
        return FrequencySettings.all_max(self._view.config)


# ----------------------------------------------------------------------
# Fleet execution: many independent runs in lockstep
# ----------------------------------------------------------------------
@dataclass
class FleetLane:
    """One independent run inside a :class:`FleetSimulator`.

    Mirrors the arguments of :meth:`ServerSimulator.run` — a lane is
    exactly one (simulator, policy, budget, termination) run; the fleet
    changes how its solves are *scheduled*, not what they compute.
    """

    simulator: ServerSimulator
    policy: CappingPolicy
    budget_fraction: float
    instruction_quota: Optional[float] = 100e6
    max_epochs: Optional[int] = None
    measure_decision_time: bool = True
    #: Optional live-control handle (service mode); see RunControl.
    control: Optional[RunControl] = None


class FleetSimulator:
    """Advances R independent runs epoch-by-epoch in lockstep.

    Each lane's entire simulation logic runs through its own
    :meth:`ServerSimulator.run_steps` generator — the exact code the
    scalar path executes — while this driver serves the yielded
    requests fleet-wide: concurrent :class:`SolveRequest`\\ s go to one
    :class:`repro.queueing.fleet.FleetSolver` call, which runs each exact
    lane's own compiled scalar solve (relaxed lanes share one batched C
    call), and concurrent FastCap-family :class:`DecideRequest`\\ s
    batch their Theorem-1 degradation bisections across lanes ×
    candidates.  Lanes keep their own epoch clocks and finish
    independently (a lane that hits its instruction quota simply
    leaves the lockstep); per-lane results are therefore byte-identical
    to running each lane alone, up to the same caveat the multiprocess
    fan-out has: decision wall times are measured, not simulated.
    Lanes that *record* those times never join a batched decision —
    each gets an individually timed per-governor decide, exactly like
    the scalar path — so fleet-executed results are as cache-valid as
    worker-executed ones (runs meant to be bit-reproducible set
    ``measure_decision_time=False``, which records 0.0 on both paths
    and lets FastCap decisions batch).

    Lanes must share the network shape (core count, bank count,
    controller count); everything else — workload, policy, budget,
    seed, engine, termination — may differ per lane.

    ``pending`` holds extra work beyond the initial lockstep width:
    when a lane finishes, its slot is *backfilled* from the queue
    instead of draining, so batches stay wide when short runs (quick
    baselines) share a fleet with long ones.  Entries are
    :class:`FleetLane` objects or zero-argument callables returning one
    (lazy construction — a pending simulator is only built when its
    slot opens).  Results come back in admission order: the initial
    lanes first, then pending entries in queue order.  Per-lane
    results remain byte-identical to scalar execution — a backfilled
    lane joins the lockstep with its own solver, and the PR-5 parity
    contract is per lane, not per batch.
    """

    def __init__(
        self,
        lanes: Sequence[FleetLane],
        pending: Sequence[Union[FleetLane, Callable[[], FleetLane]]] = (),
    ) -> None:
        if not lanes:
            raise ConfigurationError("a fleet needs at least one lane")
        self.lanes = tuple(lanes)
        self._pending: "deque[Union[FleetLane, Callable[[], FleetLane]]]" = (
            deque(pending)
        )
        self._rebuild_solver()
        n = self.lanes[0].simulator.config.n_cores
        self._warm = np.zeros((len(self.lanes), n))
        # Lane-occupancy telemetry (accumulated by run()): how full the
        # lockstep stayed, and how many pending lanes were admitted.
        self._ticks = 0
        self._lane_ticks = 0
        self._backfills = 0

    def _rebuild_solver(self) -> None:
        from repro.queueing.fleet import FleetSolver

        # Validates shape compatibility via FleetArrays.
        self._fleet_solver = FleetSolver(
            [lane.simulator._solver for lane in self.lanes]
        )

    @property
    def occupancy_stats(self) -> Dict[str, float]:
        """Lockstep occupancy telemetry from the last :meth:`run`."""
        width = len(self.lanes)
        denom = self._ticks * width
        return {
            "fleet_ticks": float(self._ticks),
            "fleet_lane_ticks": float(self._lane_ticks),
            "fleet_width": float(width),
            "fleet_backfills": float(self._backfills),
            "fleet_occupancy": self._lane_ticks / denom if denom else 0.0,
        }

    def _start(self, lane: FleetLane):
        return lane.simulator.run_steps(
            lane.policy,
            lane.budget_fraction,
            instruction_quota=lane.instruction_quota,
            max_epochs=lane.max_epochs,
            measure_decision_time=lane.measure_decision_time,
            control=lane.control,
        )

    def _admit(self, slot: int, lane: FleetLane) -> None:
        """Install a pending lane into a finished slot."""
        self.lanes = self.lanes[:slot] + (lane,) + self.lanes[slot + 1 :]
        self._rebuild_solver()
        self._warm[slot] = 0.0
        self._backfills += 1

    # ------------------------------------------------------------------
    def run(self) -> List[RunResult]:
        """Run every lane (and the pending queue) to completion."""
        generators = [self._start(lane) for lane in self.lanes]
        n_slots = len(self.lanes)
        #: Which result index each slot is currently computing.
        slot_result = list(range(n_slots))
        results: List[Optional[RunResult]] = [None] * (
            n_slots + len(self._pending)
        )
        next_result = n_slots
        responses: Dict[int, object] = {i: None for i in range(n_slots)}
        while responses:
            requests: Dict[int, object] = {}
            for i in sorted(responses):
                try:
                    requests[i] = generators[i].send(responses[i])
                except StopIteration as stop:
                    results[slot_result[i]] = stop.value
                    # Backfill the freed slot from the pending queue.
                    # The inner loop absorbs lanes that finish on their
                    # very first step (e.g. a zero-epoch run).
                    while self._pending:
                        pending = self._pending.popleft()
                        lane = pending() if callable(pending) else pending
                        self._admit(i, lane)
                        generators[i] = self._start(lane)
                        slot_result[i] = next_result
                        next_result += 1
                        try:
                            requests[i] = generators[i].send(None)
                            break
                        except StopIteration as stop_now:
                            results[slot_result[i]] = stop_now.value
            if requests:
                self._ticks += 1
                self._lane_ticks += len(requests)
            responses = self._serve(requests)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def serve(self, requests: Dict[int, object]) -> Dict[int, object]:
        """Serve one lockstep tick's worth of lane requests.

        Public so external epoch-stepping drivers (the service layer's
        fleet sessions) can reuse the batching machinery; the semantics
        are exactly those of :meth:`run`'s inner loop.
        """
        return self._serve(requests)

    def _serve(self, requests: Dict[int, object]) -> Dict[int, object]:
        """Serve one lockstep tick's worth of lane requests."""
        responses: Dict[int, object] = {}
        solves = {
            i: req
            for i, req in requests.items()
            if isinstance(req, SolveRequest)
        }
        self._serve_solves(solves, responses)
        decides = {
            i: req
            for i, req in requests.items()
            if isinstance(req, DecideRequest)
        }
        self._serve_decides(decides, responses)
        for i, req in requests.items():
            if i not in responses and isinstance(req, EpochComplete):
                responses[i] = None
        return responses

    def _serve_solves(
        self, solves: Dict[int, SolveRequest], responses: Dict[int, object]
    ) -> None:
        # Group by (tolerance, parity tier).  Tolerance is uniform in
        # practice — every lane's operating-point solve uses the same
        # constant — and parity partitions lanes between the exact
        # per-lane solves and the relaxed batched kernel, so a mixed
        # fleet serves each tier's lanes on that tier's contract.
        groups: Dict[Tuple[float, str], List[int]] = {}
        for i, req in solves.items():
            key = (req.tolerance, self.lanes[i].simulator.parity)
            groups.setdefault(key, []).append(i)
        for (tolerance, parity), lane_ids in groups.items():
            relaxed = parity == "relaxed"
            if relaxed and len(lane_ids) == 1:
                i = lane_ids[0]
                responses[i] = self.lanes[i].simulator._serve_solve(solves[i])
                continue
            mask = np.zeros(len(self.lanes), dtype=bool)
            for i in lane_ids:
                mask[i] = True
                self._warm[i] = solves[i].warm_start
            solve = (
                self._fleet_solver.solve_relaxed
                if relaxed
                else self._fleet_solver.solve
            )
            solutions = solve(
                tolerance=tolerance,
                initial_throughput=self._warm,
                lanes=mask,
            )
            for i in lane_ids:
                responses[i] = solutions[i]

    def _serve_decides(
        self, decides: Dict[int, DecideRequest], responses: Dict[int, object]
    ) -> None:
        from repro.core.governor import FastCapGovernor, decide_fastcap_fleet

        # Only lanes that do NOT record decision wall times batch:
        # a share of one batched lanes×candidates solve is not a
        # per-governor decision latency, and cached results must never
        # feed amortised times into the timing-sensitive experiments.
        batchable = [
            i
            for i, req in decides.items()
            if not req.measure
            and isinstance(req.policy, FastCapGovernor)
            and req.policy.supports_fleet_decide()
        ]
        if len(batchable) >= 2:
            settings = decide_fastcap_fleet(
                [(decides[i].policy, decides[i].counters) for i in batchable]
            )
            # Batched lanes never record decision times (measure=False
            # is an admission requirement), so no timing is taken here.
            for i, s in zip(batchable, settings):
                responses[i] = (s, 0.0)
        for i, req in decides.items():
            if i in responses:
                continue
            t0 = time.perf_counter()
            proposed = req.policy.decide(req.counters)
            responses[i] = (proposed, time.perf_counter() - t0)
