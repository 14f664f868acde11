"""Typed request/response schemas for the control-plane API.

Every mutating endpoint parses its JSON body through one of these
dataclasses; validation happens here (unknown fields, types, ranges)
so route handlers and the session engine only ever see well-formed
values.  Schemas are plain dataclasses with explicit ``from_payload``
constructors — the service layer deliberately has no hard third-party
dependency — and raise :class:`~repro.service.asgi.ApiError` (HTTP
400) with a field-level message on bad input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.asgi import ApiError

#: Engines understood by the simulator (mirrors campaign.spec.ENGINES).
_ENGINES = ("mva", "eventsim")

#: Numeric parity tiers (mirrors campaign.spec.PARITY_TIERS).
_PARITY_TIERS = ("exact", "relaxed")

#: Fault types understood by the failure engine.
FAULT_TYPES = (
    "degraded-memory-controller",
    "failed-memory-controller",
    "stuck-core-frequency",
    "power-sensor-bias",
)


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _reject_unknown(payload: Dict, known: Sequence[str], where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ApiError(
            400, f"unknown field(s) {unknown} in {where}", {"known": list(known)}
        )


def _get(
    payload: Dict,
    name: str,
    types,
    default: Any = None,
    required: bool = False,
):
    if name not in payload or payload[name] is None:
        if required:
            raise ApiError(400, f"missing required field {name!r}")
        return default
    value = payload[name]
    # bool is an int subclass; reject it for numeric fields explicitly.
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ApiError(400, f"field {name!r} must not be a boolean")
    if not isinstance(value, types):
        wanted = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise ApiError(
            400, f"field {name!r} must be {wanted}, got {type(value).__name__}"
        )
    return value


def _positive(value, name: str):
    if value is not None and value <= 0:
        raise ApiError(400, f"field {name!r} must be positive")
    return value


def _fraction(value, name: str):
    if value is not None and not 0.0 < value <= 1.0:
        raise ApiError(400, f"field {name!r} must be in (0, 1]")
    return value


# ----------------------------------------------------------------------
# Session creation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaneSpec:
    """Per-lane overrides inside a fleet session.

    ``None`` fields inherit the session-level value.
    """

    workload: str
    policy: Optional[str] = None
    budget_fraction: Optional[float] = None
    seed: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict, index: int) -> "LaneSpec":
        where = f"lanes[{index}]"
        if not isinstance(payload, dict):
            raise ApiError(400, f"{where} must be an object")
        _reject_unknown(
            payload, ("workload", "policy", "budget_fraction", "seed"), where
        )
        fraction = payload.get("budget_fraction")
        return cls(
            workload=_get(payload, "workload", str, required=True),
            policy=_get(payload, "policy", str),
            budget_fraction=_fraction(
                (
                    None
                    if fraction is None
                    else float(_get(payload, "budget_fraction", (int, float)))
                ),
                "budget_fraction",
            ),
            seed=_get(payload, "seed", int),
        )


@dataclass(frozen=True)
class SessionCreate:
    """``POST /sessions`` body.

    Without ``lanes`` the session owns one :class:`ServerSimulator`;
    with ``lanes`` it owns a lockstep fleet (one simulator per lane,
    batched FastCap decisions).  ``max_epochs=None`` makes the session
    unbounded — it runs until stopped or deleted, the service-mode
    default.
    """

    workload: str
    policy: str = "fastcap"
    budget_fraction: float = 0.6
    n_cores: int = 16
    ooo: bool = False
    n_controllers: int = 1
    controller_skew: float = 0.0
    epoch_ms: float = 5.0
    seed: int = 1
    engine: str = "mva"
    max_epochs: Optional[int] = None
    instruction_quota: Optional[float] = None
    telemetry_capacity: int = 2048
    record_decision_time: bool = False
    parity: str = "exact"
    lanes: Tuple[LaneSpec, ...] = ()

    _FIELDS = (
        "workload",
        "policy",
        "budget_fraction",
        "n_cores",
        "ooo",
        "n_controllers",
        "controller_skew",
        "epoch_ms",
        "seed",
        "engine",
        "max_epochs",
        "instruction_quota",
        "telemetry_capacity",
        "record_decision_time",
        "parity",
        "lanes",
    )

    @classmethod
    def from_payload(cls, payload: Dict) -> "SessionCreate":
        _reject_unknown(payload, cls._FIELDS, "session spec")
        lanes_raw = _get(payload, "lanes", list, [])
        lanes = tuple(
            LaneSpec.from_payload(lane, i) for i, lane in enumerate(lanes_raw)
        )
        workload = _get(
            payload, "workload", str, required=not lanes
        ) or (lanes[0].workload if lanes else "")
        engine = _get(payload, "engine", str, "mva")
        if engine not in _ENGINES:
            raise ApiError(
                400, f"unknown engine {engine!r}", {"known": list(_ENGINES)}
            )
        parity = _get(payload, "parity", str, "exact")
        if parity not in _PARITY_TIERS:
            raise ApiError(
                400,
                f"unknown parity tier {parity!r}",
                {"known": list(_PARITY_TIERS)},
            )
        return cls(
            workload=workload,
            policy=_get(payload, "policy", str, "fastcap"),
            budget_fraction=_fraction(
                float(_get(payload, "budget_fraction", (int, float), 0.6)),
                "budget_fraction",
            ),
            n_cores=_positive(_get(payload, "n_cores", int, 16), "n_cores"),
            ooo=_get(payload, "ooo", bool, False),
            n_controllers=_positive(
                _get(payload, "n_controllers", int, 1), "n_controllers"
            ),
            controller_skew=float(
                _get(payload, "controller_skew", (int, float), 0.0)
            ),
            epoch_ms=_positive(
                float(_get(payload, "epoch_ms", (int, float), 5.0)), "epoch_ms"
            ),
            seed=_get(payload, "seed", int, 1),
            engine=engine,
            max_epochs=_positive(
                _get(payload, "max_epochs", int), "max_epochs"
            ),
            instruction_quota=_positive(
                _get(payload, "instruction_quota", (int, float)),
                "instruction_quota",
            ),
            telemetry_capacity=_positive(
                _get(payload, "telemetry_capacity", int, 2048),
                "telemetry_capacity",
            ),
            record_decision_time=_get(
                payload, "record_decision_time", bool, False
            ),
            parity=parity,
            lanes=lanes,
        )


# ----------------------------------------------------------------------
# Stepping / pacing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StepRequest:
    """``POST /sessions/{id}/step`` body: advance N epochs, now."""

    epochs: int = 1

    @classmethod
    def from_payload(cls, payload: Dict) -> "StepRequest":
        _reject_unknown(payload, ("epochs",), "step request")
        return cls(
            epochs=_positive(_get(payload, "epochs", int, 1), "epochs")
        )


@dataclass(frozen=True)
class RunRequest:
    """``POST /sessions/{id}/run`` body: stream epochs in background."""

    epochs: Optional[int] = None  # None = until paused/stopped
    pace_s: float = 0.0

    @classmethod
    def from_payload(cls, payload: Dict) -> "RunRequest":
        _reject_unknown(payload, ("epochs", "pace_s"), "run request")
        pace = float(_get(payload, "pace_s", (int, float), 0.0))
        if pace < 0:
            raise ApiError(400, "field 'pace_s' must be non-negative")
        return cls(
            epochs=_positive(_get(payload, "epochs", int), "epochs"),
            pace_s=pace,
        )


# ----------------------------------------------------------------------
# Live budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorGroupSpec:
    """Socket-level budgets (the paper's §III-B extension), live."""

    membership: Tuple[int, ...]
    budgets_w: Tuple[float, ...]

    @classmethod
    def from_payload(cls, payload: Dict) -> "ProcessorGroupSpec":
        if not isinstance(payload, dict):
            raise ApiError(400, "processor_groups must be an object")
        _reject_unknown(
            payload, ("membership", "budgets_w"), "processor_groups"
        )
        membership = _get(payload, "membership", list, required=True)
        budgets = _get(payload, "budgets_w", list, required=True)
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in membership):
            raise ApiError(400, "membership must be a list of socket indices")
        if not all(
            isinstance(b, (int, float)) and not isinstance(b, bool)
            for b in budgets
        ):
            raise ApiError(400, "budgets_w must be a list of watts")
        if any(b <= 0 for b in budgets):
            raise ApiError(400, "socket budgets must be positive")
        return cls(tuple(membership), tuple(float(b) for b in budgets))


@dataclass(frozen=True)
class BudgetUpdate:
    """``POST /sessions/{id}/budget`` body.

    Exactly one of ``budget_fraction`` / ``budget_watts`` sets the
    server-wide cap (watts are converted against the config's peak
    power); ``processor_groups`` additionally layers/replaces socket
    caps (FastCap-family policies only); ``lane`` targets one lane of
    a fleet session (default: every lane).
    """

    budget_fraction: Optional[float] = None
    budget_watts: Optional[float] = None
    processor_groups: Optional[ProcessorGroupSpec] = None
    clear_processor_groups: bool = False
    lane: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict) -> "BudgetUpdate":
        _reject_unknown(
            payload,
            (
                "budget_fraction",
                "budget_watts",
                "processor_groups",
                "clear_processor_groups",
                "lane",
            ),
            "budget update",
        )
        fraction = _get(payload, "budget_fraction", (int, float))
        watts = _get(payload, "budget_watts", (int, float))
        if fraction is not None and watts is not None:
            raise ApiError(
                400, "give budget_fraction or budget_watts, not both"
            )
        groups_raw = _get(payload, "processor_groups", dict)
        update = cls(
            budget_fraction=_fraction(
                None if fraction is None else float(fraction),
                "budget_fraction",
            ),
            budget_watts=_positive(
                None if watts is None else float(watts), "budget_watts"
            ),
            processor_groups=(
                None
                if groups_raw is None
                else ProcessorGroupSpec.from_payload(groups_raw)
            ),
            clear_processor_groups=_get(
                payload, "clear_processor_groups", bool, False
            ),
            lane=_get(payload, "lane", int),
        )
        if (
            update.budget_fraction is None
            and update.budget_watts is None
            and update.processor_groups is None
            and not update.clear_processor_groups
        ):
            raise ApiError(400, "budget update changes nothing")
        return update


# ----------------------------------------------------------------------
# Streaming load phases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadPhase:
    """One phase of streaming load.

    ``think_scale`` modulates per-core think times (< 1 = heavier
    memory traffic); ``budget_fraction`` optionally re-budgets for the
    phase; ``duration_epochs=None`` makes the phase hold until
    replaced (only valid for the last phase of a schedule).
    """

    duration_epochs: Optional[int]
    think_scale: float = 1.0
    budget_fraction: Optional[float] = None

    @classmethod
    def from_payload(cls, payload: Dict, index: int) -> "LoadPhase":
        where = f"phases[{index}]"
        if not isinstance(payload, dict):
            raise ApiError(400, f"{where} must be an object")
        _reject_unknown(
            payload,
            ("duration_epochs", "think_scale", "budget_fraction"),
            where,
        )
        scale = float(_get(payload, "think_scale", (int, float), 1.0))
        if scale <= 0:
            raise ApiError(400, f"{where}.think_scale must be positive")
        return cls(
            duration_epochs=_positive(
                _get(payload, "duration_epochs", int), "duration_epochs"
            ),
            think_scale=scale,
            budget_fraction=_fraction(
                (
                    None
                    if payload.get("budget_fraction") is None
                    else float(
                        _get(payload, "budget_fraction", (int, float))
                    )
                ),
                "budget_fraction",
            ),
        )


@dataclass(frozen=True)
class PhaseSchedule:
    """``POST /sessions/{id}/phases`` body: a streaming load schedule."""

    phases: Tuple[LoadPhase, ...]
    replace: bool = True
    lane: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict) -> "PhaseSchedule":
        _reject_unknown(payload, ("phases", "replace", "lane"), "phase schedule")
        raw = _get(payload, "phases", list, required=True)
        if not raw:
            raise ApiError(400, "phase schedule needs at least one phase")
        phases = tuple(
            LoadPhase.from_payload(p, i) for i, p in enumerate(raw)
        )
        for i, phase in enumerate(phases[:-1]):
            if phase.duration_epochs is None:
                raise ApiError(
                    400,
                    f"phases[{i}] has no duration but is not the last phase",
                )
        return cls(
            phases=phases,
            replace=_get(payload, "replace", bool, True),
            lane=_get(payload, "lane", int),
        )


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultCreate:
    """``POST /sessions/{id}/faults`` body.

    ``type`` picks the failure model (:data:`FAULT_TYPES`); ``target``
    is the controller index (memory faults) or core index (stuck
    frequency); ``magnitude`` is the fault-specific intensity (service
    scale / stuck frequency in Hz / sensor bias fraction);
    ``duration_epochs=None`` holds the fault until resolved.
    """

    type: str
    target: Optional[int] = None
    magnitude: Optional[float] = None
    power_scale: Optional[float] = None
    duration_epochs: Optional[int] = None
    jitter: float = 0.0
    lane: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict) -> "FaultCreate":
        _reject_unknown(
            payload,
            (
                "type",
                "target",
                "magnitude",
                "power_scale",
                "duration_epochs",
                "jitter",
                "lane",
            ),
            "fault spec",
        )
        fault_type = _get(payload, "type", str, required=True)
        if fault_type not in FAULT_TYPES:
            raise ApiError(
                400,
                f"unknown fault type {fault_type!r}",
                {"known": list(FAULT_TYPES)},
            )
        jitter = float(_get(payload, "jitter", (int, float), 0.0))
        if not 0.0 <= jitter < 1.0:
            raise ApiError(400, "field 'jitter' must be in [0, 1)")
        magnitude = _get(payload, "magnitude", (int, float))
        if magnitude is not None:
            magnitude = float(magnitude)
            if fault_type != "power-sensor-bias" and magnitude <= 0:
                raise ApiError(400, "field 'magnitude' must be positive")
            if fault_type == "power-sensor-bias" and not -0.9 <= magnitude <= 10:
                raise ApiError(400, "sensor bias must be in [-0.9, 10]")
        return cls(
            type=fault_type,
            target=_get(payload, "target", int),
            magnitude=magnitude,
            power_scale=_positive(
                (
                    None
                    if payload.get("power_scale") is None
                    else float(_get(payload, "power_scale", (int, float)))
                ),
                "power_scale",
            ),
            duration_epochs=_positive(
                _get(payload, "duration_epochs", int), "duration_epochs"
            ),
            jitter=jitter,
            lane=_get(payload, "lane", int),
        )


# ----------------------------------------------------------------------
# Cross-session budget groups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupCreate:
    """``POST /groups`` body: a shared budget over several sessions.

    The group's total watts are split across member sessions in
    proportion to each server's peak power and applied as live budget
    updates; when a member leaves (or its session is deleted) the
    total is re-split over the remaining members.
    """

    name: str
    total_watts: float
    members: Tuple[str, ...] = ()

    @classmethod
    def from_payload(cls, payload: Dict) -> "GroupCreate":
        _reject_unknown(
            payload, ("name", "total_watts", "members"), "group spec"
        )
        name = _get(payload, "name", str, required=True)
        if not name or "/" in name:
            raise ApiError(400, "group name must be non-empty and slash-free")
        total = float(_get(payload, "total_watts", (int, float), required=True))
        if total <= 0:
            raise ApiError(400, "field 'total_watts' must be positive")
        members = _get(payload, "members", list, [])
        if not members:
            raise ApiError(400, "group needs at least one member session")
        if not all(isinstance(m, str) for m in members):
            raise ApiError(400, "members must be session ids (strings)")
        if len(set(members)) != len(members):
            raise ApiError(400, "duplicate session in group members")
        return cls(name=name, total_watts=total, members=tuple(members))


@dataclass(frozen=True)
class GroupUpdate:
    """``PATCH /groups/{name}`` body: change the shared total."""

    total_watts: float

    @classmethod
    def from_payload(cls, payload: Dict) -> "GroupUpdate":
        _reject_unknown(payload, ("total_watts",), "group update")
        total = float(_get(payload, "total_watts", (int, float), required=True))
        if total <= 0:
            raise ApiError(400, "field 'total_watts' must be positive")
        return cls(total_watts=total)
