"""The relaxed tier's AMVA fixed point as one C loop-nest.

The embedded C source below is the statement of the fused iteration:
one damped fixed-point step of
:meth:`repro.queueing.mva.MVASolver._fixed_point` written as explicit
loops, with no temporaries and no per-op dispatch.  The update
formulas, the initial damping, the ``iteration % 300`` damping-decay
schedule and the stopping rule are the exact kernel's, so a relaxed
solve shadows the exact trajectory; only reduction orders differ
(sequential accumulation here vs numpy's pairwise/BLAS orders), which
keeps the divergence at rounding noise.  No ``-ffast-math``: the
arithmetic stays strict IEEE.

Contract: the caller initialises ``x`` (per-class throughput) and
``q`` (per-class × per-bank queue estimate) exactly as
:meth:`MVASolver.solve` does; the kernel advances them in place,
writes the final per-class bank responses into ``r_bank`` and returns
``(iterations, last_rel_change, damping)``.  ``iterations`` is the
converged 1-based iteration index, or ``0`` when the budget ran out,
in which case the caller raises
:class:`~repro.errors.ConvergenceError` with the returned state.

The library is built with the host's C compiler (``$CC``, else
``cc``/``gcc``/``clang``) and loaded through :mod:`ctypes`.  Build
products are content-addressed by source hash under
``$FASTCAP_KERNEL_CACHE`` (default ``~/.cache/fastcap-repro``), so a
process pays the compile once per source version and later processes
just ``dlopen``.  When the build or the load fails, :func:`load`
returns None, :func:`build_error` says why, and one warning per
process on logger ``repro.queueing.kernels`` names the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

logger = logging.getLogger("repro.queueing.kernels")

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define RHO_CAP 0.995
#define BG_RHO_CAP 0.95

/* One lane's damped AMVA fixed point.
 * Returns the converged 1-based iteration index, or 0 on failure.
 * scratch must hold 3*B + 3*M doubles. */
int64_t fastcap_mva_solve_lane(
    const double *routing,       /* n * B */
    const double *bank_service,  /* B */
    const double *bus_transfer,  /* M */
    const int64_t *bank_ctrl,    /* B */
    const double *bg_rates,      /* B */
    const double *population,    /* n */
    const double *think,         /* n */
    double *x,                   /* n, in/out */
    double *q,                   /* n * B, in/out */
    double *r_bank,              /* n * B, out */
    double *scratch,             /* 3*B + 3*M */
    int64_t n, int64_t n_banks, int64_t n_ctrl,
    int64_t first_iteration, int64_t max_iterations,
    double tolerance, double damping,
    double *out_rel, double *out_damping)
{
    double *rates = scratch;
    double *s_fg = scratch + n_banks;
    double *bank_q = scratch + 2 * n_banks;
    double *ctrl_rates = scratch + 3 * n_banks;
    double *bus_wait = scratch + 3 * n_banks + n_ctrl;
    double *wait_cap = scratch + 3 * n_banks + 2 * n_ctrl;

    double total_pop = 0.0;
    for (int64_t i = 0; i < n; i++) total_pop += population[i];
    double pop_m1 = total_pop - 1.0;
    if (pop_m1 < 0.0) pop_m1 = 0.0;
    for (int64_t k = 0; k < n_ctrl; k++)
        wait_cap[k] = pop_m1 * bus_transfer[k];
    int has_bg = 0;
    for (int64_t b = 0; b < n_banks; b++) {
        if (bg_rates[b] > 0.0) { has_bg = 1; break; }
    }

    double retained = 1.0 - damping;
    double last_rel = INFINITY;
    for (int64_t iteration = first_iteration;
         iteration <= max_iterations; iteration++) {
        if (iteration % 300 == 0) {
            damping *= 0.5;
            retained = 1.0 - damping;
        }

        for (int64_t b = 0; b < n_banks; b++) rates[b] = bg_rates[b];
        for (int64_t i = 0; i < n; i++) {
            const double xi = x[i];
            const double *row = routing + i * n_banks;
            for (int64_t b = 0; b < n_banks; b++) rates[b] += xi * row[b];
        }

        for (int64_t k = 0; k < n_ctrl; k++) ctrl_rates[k] = 0.0;
        for (int64_t b = 0; b < n_banks; b++)
            ctrl_rates[bank_ctrl[b]] += rates[b];
        for (int64_t k = 0; k < n_ctrl; k++) {
            double rho = ctrl_rates[k] * bus_transfer[k];
            if (rho > RHO_CAP) rho = RHO_CAP;
            double wait = bus_transfer[k] * rho / (2.0 * (1.0 - rho));
            if (wait > wait_cap[k]) wait = wait_cap[k];
            bus_wait[k] = wait;
        }

        for (int64_t b = 0; b < n_banks; b++) {
            const int64_t k = bank_ctrl[b];
            double s_eff = bank_service[b] + bus_wait[k] + bus_transfer[k];
            if (has_bg) {
                double rho_bg = bg_rates[b] * s_eff;
                if (rho_bg > BG_RHO_CAP) rho_bg = BG_RHO_CAP;
                s_eff = s_eff / (1.0 - rho_bg);
            }
            s_fg[b] = s_eff;
        }

        for (int64_t b = 0; b < n_banks; b++) bank_q[b] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double *qi = q + i * n_banks;
            for (int64_t b = 0; b < n_banks; b++) bank_q[b] += qi[b];
        }

        last_rel = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double inv_pop = 1.0 / population[i];
            const double *row = routing + i * n_banks;
            double *qi = q + i * n_banks;
            double *ri = r_bank + i * n_banks;
            double r_mem = 0.0;
            for (int64_t b = 0; b < n_banks; b++) {
                double seen = bank_q[b] - qi[b] * inv_pop;
                if (seen < 0.0) seen = 0.0;
                const double r_new = s_fg[b] * (1.0 + seen);
                ri[b] = r_new;
                r_mem += row[b] * r_new;
            }
            const double x_new = population[i] / (think[i] + r_mem);
            const double x_damped = damping * x_new + retained * x[i];
            for (int64_t b = 0; b < n_banks; b++)
                qi[b] = retained * qi[b]
                      + damping * x_damped * row[b] * ri[b];
            double den = fabs(x[i]);
            if (den < 1e-300) den = 1e-300;
            const double diff = fabs(x_damped - x[i]) / den;
            if (diff > last_rel) last_rel = diff;
            x[i] = x_damped;
        }

        if (last_rel < tolerance) {
            *out_rel = last_rel;
            *out_damping = damping;
            return iteration;
        }
    }
    *out_rel = last_rel;
    *out_damping = damping;
    return 0;
}

/* R stacked lanes, each run to its own convergence (iters[r] = 0 on
 * failure).  bank_ctrl is shared across lanes. */
void fastcap_mva_solve_lanes(
    const double *routing,       /* R * n * B */
    const double *bank_service,  /* R * B */
    const double *bus_transfer,  /* R * M */
    const int64_t *bank_ctrl,    /* B */
    const double *bg_rates,      /* R * B */
    const double *population,    /* R * n */
    const double *think,         /* R * n */
    double *x,                   /* R * n */
    double *q,                   /* R * n * B */
    double *r_bank,              /* R * n * B */
    double *scratch,             /* 3*B + 3*M */
    int64_t *iters, double *rels, double *damps,
    int64_t n_lanes, int64_t n, int64_t n_banks, int64_t n_ctrl,
    int64_t first_iteration, int64_t max_iterations,
    double tolerance, double damping)
{
    for (int64_t r = 0; r < n_lanes; r++) {
        double rel = 0.0, damp = 0.0;
        iters[r] = fastcap_mva_solve_lane(
            routing + r * n * n_banks,
            bank_service + r * n_banks,
            bus_transfer + r * n_ctrl,
            bank_ctrl,
            bg_rates + r * n_banks,
            population + r * n,
            think + r * n,
            x + r * n,
            q + r * n * n_banks,
            r_bank + r * n * n_banks,
            scratch,
            n, n_banks, n_ctrl,
            first_iteration, max_iterations,
            tolerance, damping,
            &rel, &damp);
        rels[r] = rel;
        damps[r] = damp;
    }
}
"""

_lib: Optional[ctypes.CDLL] = None
_build_attempted = False
_build_error: Optional[str] = None


def _cache_dir() -> Path:
    env = os.environ.get("FASTCAP_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "fastcap-repro"


def _compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _build(cc: str, cache: Path) -> Path:
    """Compile the shared library (content-addressed; atomic install)."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    target = cache / f"fastcap_mva_{digest}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    src = cache / f"fastcap_mva_{digest}.c"
    src.write_text(_SOURCE)
    fd, tmp_out = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp_out, str(src), "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_out, target)
    finally:
        if os.path.exists(tmp_out):
            os.unlink(tmp_out)
    return target


def load() -> Optional[ctypes.CDLL]:
    """The loaded library, building it on first call; None if unavailable."""
    global _lib, _build_attempted, _build_error
    if _lib is not None or _build_attempted:
        return _lib
    _build_attempted = True
    lib = None
    cc = _compiler()
    if cc is None:
        _build_error = "no C compiler found (set $CC or install cc/gcc/clang)"
    else:
        try:
            lib = ctypes.CDLL(str(_build(cc, _cache_dir())))
        except (OSError, subprocess.SubprocessError) as exc:
            _build_error = f"kernel build failed: {exc}"
    if lib is None:
        logger.warning(
            "relaxed-tier C kernel unavailable, relaxed solves run the "
            "exact numpy path: %s",
            _build_error,
        )
        return None
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    lib.fastcap_mva_solve_lane.restype = i64
    lib.fastcap_mva_solve_lane.argtypes = (
        [p_f64] * 3 + [p_i64] + [p_f64] * 7 + [i64] * 5 + [f64] * 2 + [p_f64] * 2
    )
    lib.fastcap_mva_solve_lanes.restype = None
    lib.fastcap_mva_solve_lanes.argtypes = (
        [p_f64] * 3
        + [p_i64]
        + [p_f64] * 7
        + [p_i64, p_f64, p_f64]
        + [i64] * 6
        + [f64] * 2
    )
    _lib = lib
    return _lib


def build_error() -> Optional[str]:
    """Why the library is unavailable (None when it loaded or untried)."""
    return _build_error


def _ptr_f64(a: np.ndarray):
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous float64")
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _ptr_i64(a: np.ndarray):
    if a.dtype != np.int64 or not a.flags.c_contiguous:
        raise ValueError("kernel index arrays must be C-contiguous int64")
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def solve_lane(
    routing,
    bank_service,
    bus_transfer,
    bank_ctrl,
    bg_rates,
    population,
    think,
    x,
    q,
    r_bank,
    first_iteration,
    max_iterations,
    tolerance,
    damping,
) -> Tuple[int, float, float]:
    """Advance one lane's fixed point in place (see the module contract)."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"cc kernel unavailable: {_build_error}")
    n, n_banks = routing.shape
    n_ctrl = bus_transfer.shape[0]
    scratch = np.empty(3 * n_banks + 3 * n_ctrl)
    out_rel = ctypes.c_double(0.0)
    out_damping = ctypes.c_double(0.0)
    iterations = lib.fastcap_mva_solve_lane(
        _ptr_f64(routing),
        _ptr_f64(bank_service),
        _ptr_f64(bus_transfer),
        _ptr_i64(bank_ctrl),
        _ptr_f64(bg_rates),
        _ptr_f64(population),
        _ptr_f64(think),
        _ptr_f64(x),
        _ptr_f64(q),
        _ptr_f64(r_bank),
        _ptr_f64(scratch),
        n,
        n_banks,
        n_ctrl,
        first_iteration,
        max_iterations,
        tolerance,
        damping,
        ctypes.byref(out_rel),
        ctypes.byref(out_damping),
    )
    return int(iterations), out_rel.value, out_damping.value


def solve_lanes(
    routing,
    bank_service,
    bus_transfer,
    bank_ctrl,
    bg_rates,
    population,
    think,
    x,
    q,
    r_bank,
    iters,
    rels,
    damps,
    first_iteration,
    max_iterations,
    tolerance,
    damping,
) -> None:
    """Run R stacked lanes, each to its own convergence, in place.

    Per-lane outcomes land in ``iters`` / ``rels`` / ``damps``.
    """
    lib = load()
    if lib is None:
        raise RuntimeError(f"cc kernel unavailable: {_build_error}")
    n_lanes, n, n_banks = routing.shape
    n_ctrl = bus_transfer.shape[1]
    scratch = np.empty(3 * n_banks + 3 * n_ctrl)
    lib.fastcap_mva_solve_lanes(
        _ptr_f64(routing),
        _ptr_f64(bank_service),
        _ptr_f64(bus_transfer),
        _ptr_i64(bank_ctrl),
        _ptr_f64(bg_rates),
        _ptr_f64(population),
        _ptr_f64(think),
        _ptr_f64(x),
        _ptr_f64(q),
        _ptr_f64(r_bank),
        _ptr_f64(scratch),
        _ptr_i64(iters),
        _ptr_f64(rels),
        _ptr_f64(damps),
        n_lanes,
        n,
        n_banks,
        n_ctrl,
        first_iteration,
        max_iterations,
        tolerance,
        damping,
    )
