"""The relaxed parity tier's compiled AMVA fixed-point kernel.

The exact parity tier pins every reduction order for byte-identical
results, which forbids fusing the fixed point's ~30 numpy ops per
iteration.  The relaxed tier (``parity="relaxed"``, run-level ≤1e-8
relative agreement) lifts that constraint: :mod:`repro.queueing.kernels.cext`
runs the whole iteration as one C loop-nest, single-lane and batched
``(R, n, B)``, built with the host's C compiler at first use.

When the library cannot be built or loaded, relaxed solves run the
exact numpy path instead — bit-identical to the exact tier and exactly
as fast — and the process logs one warning naming the reason.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.queueing.kernels import cext


class Backend(NamedTuple):
    """Which engine serves this process's relaxed-tier solves."""

    name: str
    compiled: bool


_CC = Backend("cc", True)
_NUMPY = Backend("numpy", False)


def warmup() -> Backend:
    """Build or load the C kernel now and report which backend runs.

    The build is memoised per process, so campaign runners call this
    up front and no compile lands inside a measured epoch.
    """
    return _CC if cext.load() is not None else _NUMPY


__all__ = ["Backend", "warmup"]
