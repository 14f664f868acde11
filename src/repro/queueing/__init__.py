"""Closed queueing network with transfer blocking (paper Section III-A).

The network has one job class per core (a core's single outstanding
blocking miss — or several for idealised out-of-order mode), a set of
memory-bank FCFS stations grouped by memory controller, and one
transfer bus per controller.  A bank cannot start its next request
until its current request's data has crossed the bus ("transfer
blocking", Fig. 1).

Two solvers are provided:

* :mod:`repro.queueing.mva` — an approximate Mean Value Analysis
  fixed point, the simulator's fast path;
* :mod:`repro.queueing.eventsim` — a discrete-event simulation of the
  same network, used to validate the AMVA approximation.

:mod:`repro.queueing.fleet` layers cross-run batching on top of the
MVA path: R same-shape networks stack into ``(R, n, B)`` tensors
(:meth:`NetworkArrays.stack`) and solve in lockstep with per-lane
convergence masks (:class:`FleetSolver`), bit-identical per lane to
the scalar solver.

:mod:`repro.queueing.kernels` provides the relaxed parity tier's
compiled fixed-point kernel (a C loop-nest loaded via ctypes, with the
exact numpy path as the fallback), reached through
:meth:`MVASolver.solve_relaxed` and :meth:`FleetSolver.solve_relaxed`.
"""

from repro.queueing import kernels
from repro.queueing.arrays import NetworkArrays
from repro.queueing.fleet import FleetArrays, FleetSolver
from repro.queueing.network import (
    BackgroundFlow,
    ControllerSpec,
    JobClassSpec,
    QueueingNetwork,
)
from repro.queueing.mva import MVASolution, MVASolver, solve_mva
from repro.queueing.eventsim import EventSimResult, simulate_network

__all__ = [
    "BackgroundFlow",
    "ControllerSpec",
    "EventSimResult",
    "FleetArrays",
    "FleetSolver",
    "JobClassSpec",
    "MVASolution",
    "MVASolver",
    "NetworkArrays",
    "QueueingNetwork",
    "kernels",
    "simulate_network",
    "solve_mva",
]
