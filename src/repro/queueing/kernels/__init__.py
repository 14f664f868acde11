"""The compiled AMVA fixed-point code of both parity tiers, and the decide.

:mod:`repro.queueing.kernels.cext` is one C library, built with the
host's C compiler at first use, that serves both tiers and FastCap's
Theorem-1 solve:

* the **exact** tier (the default) keeps numpy's gemv ``x @ routing``
  and runs the rest of each fixed-point iteration as one call of the
  exact step, which reproduces numpy's op order and reduction orders
  bit for bit (the golden fixture is unchanged);
* the **relaxed** tier (``parity="relaxed"``, run-level ≤1e-8
  relative agreement) runs the whole fixed point as one C loop-nest,
  single-lane and batched ``(R, n, B)``, with its own reduction order;
* every **FastCap decide** keeps numpy's ``power`` and runs the rest of
  each Theorem-1 bisection step as one call of the decide step, bit for
  bit (:mod:`repro.core.optimizer`).

When the library cannot be built or loaded, exact solves run the numpy
loop, relaxed solves run the exact tier instead and decides run the
numpy row kernel — all bit-identical to the compiled paths of the
exact tier — and the process logs one warning naming the reason.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.queueing.kernels import cext


class Backend(NamedTuple):
    """Which engine serves this process's AMVA solves and decides."""

    name: str
    compiled: bool


_CC = Backend("cc", True)
_NUMPY = Backend("numpy", False)


def warmup() -> Backend:
    """Build or load the C library now and report which backend runs.

    ``("cc", True)``: exact solves run the compiled step, relaxed
    solves the C loop-nest and decides the compiled decide step.
    ``("numpy", False)``: both tiers run the numpy loop and decides the
    numpy row kernel.  The build is memoised per process; every
    :class:`~repro.queueing.mva.MVASolver` loads the library when it
    is built, and campaign runners call this up front, so no compile
    lands inside a measured epoch.
    """
    return _CC if cext.load() is not None else _NUMPY


__all__ = ["Backend", "warmup"]
