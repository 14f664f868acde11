"""Array-native network representation: the simulation fast path.

:class:`~repro.queueing.network.QueueingNetwork` is the public,
validated, declarative spec — ideal for constructing networks and for
tests, but expensive to rebuild thousands of times per run.  The
per-epoch hot path (``ServerSimulator.solve_operating_point``) only
ever changes four quantities between fixed-point iterations: per-class
think times, the per-bank service time, the bus transfer time, and the
per-bank background rates.  Everything else — routing, topology,
populations — is static for the lifetime of a simulator.

:class:`NetworkArrays` is the compiled form: every per-class/per-bank/
per-controller quantity as a preallocated ``float64`` array, derived
once (``QueueingNetwork.to_arrays()`` or built directly) and then
mutated in place via :meth:`NetworkArrays.update`.  The MVA solver
(:class:`repro.queueing.mva.MVASolver`) and the event simulator both
consume it directly, so one epoch of simulation constructs zero spec
objects.

The arrays are intentionally *not* re-validated on update — the
constructor validates structure once; `update` is the per-iteration
hot call and trusts its caller (the seed path validated every rebuilt
spec, which was pure overhead for programmatically generated values).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError


class NetworkArrays:
    """Mutable array view of a closed transfer-blocking network.

    Index conventions match :class:`QueueingNetwork`: classes are rows,
    banks are concatenated across controllers in controller order, and
    ``bank_ctrl[b]`` maps bank ``b`` to its controller.
    """

    __slots__ = (
        "routing",
        "bank_service",
        "bus_transfer",
        "bank_ctrl",
        "bg_rates",
        "population",
        "think_s",
        "names",
        "n_classes",
        "total_banks",
        "n_controllers",
        "_visit",
        "_ctrl_bank_index",
        "_version",
        "_bank_scale",
        "_bus_scale",
    )

    def __init__(
        self,
        routing: np.ndarray,
        bank_service: np.ndarray,
        bus_transfer: np.ndarray,
        bank_ctrl: np.ndarray,
        bg_rates: Optional[np.ndarray] = None,
        population: Optional[np.ndarray] = None,
        think_s: Optional[np.ndarray] = None,
        names: Optional[Tuple[str, ...]] = None,
    ) -> None:
        # Every buffer is a private copy: `update` mutates bank_service
        # / bus_transfer / bg_rates / think_s in place, and the derived
        # structure cached below assumes routing / bank_ctrl never
        # change — aliasing caller arrays would break both.
        self.routing = np.array(routing, dtype=float, order="C")
        if self.routing.ndim != 2:
            raise ConfigurationError("routing must be (n_classes, total_banks)")
        n, n_banks = self.routing.shape
        if n < 1 or n_banks < 1:
            raise ConfigurationError("network needs classes and banks")

        self.bank_service = np.array(bank_service, dtype=float, order="C")
        self.bus_transfer = np.array(bus_transfer, dtype=float, order="C")
        self.bank_ctrl = np.array(bank_ctrl, dtype=np.int64, order="C")
        if self.bank_service.shape != (n_banks,):
            raise ConfigurationError("bank_service must have one entry per bank")
        if self.bank_ctrl.shape != (n_banks,):
            raise ConfigurationError("bank_ctrl must have one entry per bank")
        n_controllers = int(self.bus_transfer.shape[0])
        if n_controllers < 1:
            raise ConfigurationError("network needs at least one controller")
        if self.bank_ctrl.min() < 0 or self.bank_ctrl.max() >= n_controllers:
            raise ConfigurationError("bank_ctrl indexes a missing controller")

        self.bg_rates = (
            np.zeros(n_banks)
            if bg_rates is None
            else np.array(bg_rates, dtype=float, order="C")
        )
        self.population = (
            np.ones(n)
            if population is None
            else np.array(population, dtype=float, order="C")
        )
        self.think_s = (
            np.zeros(n)
            if think_s is None
            else np.array(think_s, dtype=float, order="C")
        )
        for name, arr, size in (
            ("bg_rates", self.bg_rates, n_banks),
            ("population", self.population, n),
            ("think_s", self.think_s, n),
        ):
            if arr.shape != (size,):
                raise ConfigurationError(f"{name} has the wrong length")

        self.names = names if names is not None else tuple(
            f"class{i}" for i in range(n)
        )
        self.n_classes = n
        self.total_banks = n_banks
        self.n_controllers = n_controllers

        # Static derived structure (routing and the bank→controller map
        # never change for a given NetworkArrays instance).
        self._ctrl_bank_index = tuple(
            np.flatnonzero(self.bank_ctrl == k) for k in range(n_controllers)
        )
        visit = np.zeros((n, n_controllers))
        for k in range(n_controllers):
            visit[:, k] = self.routing[:, self.bank_ctrl == k].sum(axis=1)
        self._visit = visit
        #: Bumped on every `update`; lets solvers cache derived state.
        self._version = 0
        # Fault-injection multipliers (see `set_service_scale`): None
        # means "no fault active" and keeps `update` on the exact seed
        # code path, so healthy networks stay bit-identical.
        self._bank_scale: Optional[np.ndarray] = None
        self._bus_scale: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network) -> "NetworkArrays":
        """Compile a validated :class:`QueueingNetwork` into arrays.

        Every derived array is computed exactly as the seed MVA solver
        computed it from the spec, so solving the arrays reproduces
        solving the network bit for bit.
        """
        return cls(
            routing=network.routing_matrix(),
            bank_service=network.bank_service_vector(),
            bus_transfer=network.bus_transfer_vector(),
            bank_ctrl=network.bank_controller_map(),
            bg_rates=network.background_rate_vector(),
            population=np.array(
                [c.population for c in network.classes], dtype=float
            ),
            think_s=np.array(
                [c.think_time_s + c.cache_time_s for c in network.classes],
                dtype=float,
            ),
            names=tuple(c.name for c in network.classes),
        )

    # ------------------------------------------------------------------
    @property
    def total_population(self) -> float:
        return float(self.population.sum())

    @property
    def visit_matrix(self) -> np.ndarray:
        """(n_classes, n_controllers) visit probabilities (static)."""
        return self._visit

    @property
    def controller_bank_index(self) -> Tuple[np.ndarray, ...]:
        """Per-controller global bank indices (static)."""
        return self._ctrl_bank_index

    @property
    def has_background(self) -> bool:
        return bool(np.any(self.bg_rates > 0))

    # ------------------------------------------------------------------
    def set_service_scale(
        self,
        bank_scale: Optional[Union[float, np.ndarray]] = None,
        bus_scale: Optional[Union[float, np.ndarray]] = None,
    ) -> "NetworkArrays":
        """Install persistent service-time multipliers (fault injection).

        ``bank_scale`` multiplies the per-bank service time and
        ``bus_scale`` the per-controller bus transfer time on *every*
        subsequent :meth:`update` that writes those fields — the hook
        the :mod:`repro.service.failures` engine uses to degrade a live
        memory controller without touching the simulator's fixed-point
        code.  Scalars broadcast; passing ``None`` (or an all-ones
        vector) clears that multiplier and restores the healthy path.
        Scales must be positive.  Returns ``self`` for chaining.
        """
        for label, value, size in (
            ("bank_scale", bank_scale, self.total_banks),
            ("bus_scale", bus_scale, self.n_controllers),
        ):
            if value is None:
                scale = None
            else:
                scale = np.broadcast_to(
                    np.asarray(value, dtype=float), (size,)
                ).copy()
                if not np.all(scale > 0):
                    raise ConfigurationError(f"{label} must be positive")
                if np.all(scale == 1.0):
                    scale = None
            if label == "bank_scale":
                self._bank_scale = scale
            else:
                self._bus_scale = scale
        self._version += 1
        return self

    @property
    def service_scales(
        self,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Current (bank, bus) fault multipliers (None = healthy)."""
        return self._bank_scale, self._bus_scale

    # ------------------------------------------------------------------
    def update(
        self,
        think: Optional[Union[float, np.ndarray]] = None,
        s_m: Optional[Union[float, np.ndarray]] = None,
        s_b: Optional[Union[float, np.ndarray]] = None,
        bg_rates: Optional[Union[float, np.ndarray]] = None,
    ) -> "NetworkArrays":
        """In-place per-iteration mutation of the dynamic quantities.

        Scalars broadcast (``s_m`` fills every bank, ``s_b`` every
        controller); arrays are copied element-wise into the existing
        buffers.  ``think`` is the *total* per-class out-of-memory time
        (execute think + cache time), matching what the MVA fixed point
        consumes.  Returns ``self`` for chaining.
        """
        if think is not None:
            self.think_s[...] = think
        if s_m is not None:
            self.bank_service[...] = s_m
            if self._bank_scale is not None:
                self.bank_service *= self._bank_scale
        if s_b is not None:
            self.bus_transfer[...] = s_b
            if self._bus_scale is not None:
                self.bus_transfer *= self._bus_scale
        if bg_rates is not None:
            self.bg_rates[...] = bg_rates
        self._version += 1
        return self
