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

:mod:`repro.queueing.fleet` serves R same-shape networks behind one
solver (:class:`FleetSolver`): an exact fleet solve runs each
participating lane's own compiled scalar solve, so lane ``k`` is that
solve bit for bit, and a relaxed fleet solve stacks the lanes into
``(R, n, B)`` tensors (:class:`FleetArrays`) for one batched C call.

:mod:`repro.queueing.kernels` provides the compiled fixed-point code
of both parity tiers (one C library loaded via ctypes, with the numpy
loop as the fallback): the exact tier's byte-identical step behind
:meth:`MVASolver.solve`, and the relaxed tier's loop-nest behind
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
