"""First-class run specifications.

A :class:`RunSpec` is the complete, *serializable* description of one
simulated run: workload, policy (optionally parameterized), budget,
every configuration axis the paper's evaluation varies (core count,
out-of-order mode, memory controllers, epoch length), the simulation
engine, measurement-noise overrides, and the termination condition.

Because a spec is plain data, it has a canonical JSON form and a stable
content hash — the key the on-disk result cache is addressed by.  Two
specs with the same hash describe byte-identical simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Engines understood by :class:`repro.sim.server.ServerSimulator`.
ENGINES = ("mva", "eventsim")

#: Numeric parity tiers (see README "Performance"): ``"exact"`` pins
#: every reduction order for byte-identical results; ``"relaxed"``
#: allows the compiled fixed-point kernel, gated at run-level ≤1e-8
#: relative agreement with the exact tier.
PARITY_TIERS = ("exact", "relaxed")

#: Operating-point memoization modes: ``"off"`` solves every operating
#: point; ``"op"`` lets :class:`repro.sim.server.ServerSimulator` serve
#: steady-state operating points from a bounded in-run memo cache once
#: past the warm-up window (mva engine only).
MEMO_MODES = ("off", "op")

#: Fields that must be present in every spec dict.
_REQUIRED_FIELDS = ("workload", "policy", "budget_fraction")


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one simulated run.

    The first block mirrors the historical (pre-campaign) spec; the
    second block holds the axes promoted to first-class status by the
    campaign API:

    * ``engine`` — performance back end (``"mva"`` or ``"eventsim"``);
    * ``search`` / ``memory_mode`` — FastCap-family policy overrides,
      merged into the policy's parameter list (equivalent to the
      parameterized name ``"fastcap:search=exhaustive"``);
    * ``counter_noise`` / ``power_noise`` — relative-sigma overrides
      for the profiling-window noise model (``None`` keeps the
      configuration default);
    * ``record_decision_time`` — when ``False``, per-epoch decision
      wall times are recorded as 0.0 so results are bit-reproducible
      across hosts and worker processes.
    """

    workload: str
    policy: str
    budget_fraction: float
    n_cores: int = 16
    ooo: bool = False
    n_controllers: int = 1
    controller_skew: float = 0.0
    epoch_ms: float = 5.0
    seed: int = 1
    instruction_quota: Optional[float] = 100e6
    max_epochs: Optional[int] = None
    engine: str = "mva"
    search: Optional[str] = None
    memory_mode: Optional[str] = None
    counter_noise: Optional[float] = None
    power_noise: Optional[float] = None
    record_decision_time: bool = True
    parity: str = "exact"
    memo: str = "off"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {list(ENGINES)}"
            )
        if self.parity not in PARITY_TIERS:
            raise ConfigurationError(
                f"unknown parity tier {self.parity!r}; "
                f"known: {list(PARITY_TIERS)}"
            )
        if self.memo not in MEMO_MODES:
            raise ConfigurationError(
                f"unknown memo mode {self.memo!r}; known: {list(MEMO_MODES)}"
            )
        if self.memo == "op" and self.engine != "mva":
            raise ConfigurationError(
                "memo='op' requires the mva engine (eventsim measurement "
                "windows are seeded per solve and cannot be skipped)"
            )
        if not self.workload:
            raise ConfigurationError("spec needs a workload name")
        if not self.policy:
            raise ConfigurationError("spec needs a policy name")

    # -- legacy keys (kept for compatibility with pre-campaign code) ----
    def config_key(self) -> Tuple:
        return (
            self.n_cores,
            self.ooo,
            self.n_controllers,
            self.controller_skew,
            self.epoch_ms,
        )

    def baseline_key(self) -> Tuple:
        return self.config_key() + (
            self.workload,
            self.seed,
            self.instruction_quota,
            self.max_epochs,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (canonical order).

        ``parity`` is omitted when it holds its ``"exact"`` default:
        the canonical JSON of an exact-tier spec is then byte-identical
        to the pre-parity format, so golden-fixture keys and every
        existing cache entry's content hash stay valid.  Relaxed-tier
        specs serialize the field and therefore hash differently —
        correct, since their results may differ within the relaxed
        tolerance.  ``memo`` follows the same rule: ``"off"`` is
        omitted, memoized specs hash differently.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if data["parity"] == "exact":
            del data["parity"]
        if data["memo"] == "off":
            del data["memo"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Build a spec from a dict; unknown keys are an error.

        Fields beyond the required (workload, policy, budget_fraction)
        may be omitted and take their defaults, so hand-written
        campaign files stay short.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(f"spec must be a dict, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown spec fields {unknown}; known: {sorted(known)}"
            )
        missing = [name for name in _REQUIRED_FIELDS if name not in data]
        if missing:
            raise ConfigurationError(f"spec is missing required fields {missing}")
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable content hash (16 hex chars) of the canonical JSON.

        This is the cache key: every field participates, so any change
        to what a spec would simulate changes the hash.
        """
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    # -- derived specs --------------------------------------------------
    def baseline_spec(self) -> "RunSpec":
        """The max-frequency baseline run that normalizes this spec.

        All policies on the same workload/config/seed share one
        baseline, so policy parameters are cleared along with the
        policy name; noise and engine are kept (the baseline must be
        measured under the same conditions as the capped run).
        """
        return replace(
            self,
            policy="max-freq",
            budget_fraction=1.0,
            search=None,
            memory_mode=None,
        )

    def replace(self, **changes: Any) -> "RunSpec":
        """Functional update (frozen dataclass ``replace`` wrapper)."""
        return replace(self, **changes)
