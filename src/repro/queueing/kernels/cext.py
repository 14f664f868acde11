"""One C library for both parity tiers' AMVA fixed point and the decide.

The embedded C source below holds three things.

**The relaxed tier's loop-nest** (``fastcap_mva_solve_lane`` and its
batched twin ``fastcap_mva_solve_lanes``): one damped fixed-point step
of :meth:`repro.queueing.mva.MVASolver._fixed_point` written as
explicit loops, with no temporaries and no per-op dispatch.  The update
formulas, the initial damping, the ``iteration % 300`` damping-decay
schedule and the stopping rule are the exact kernel's, so a relaxed
solve shadows the exact trajectory; only reduction orders differ
(sequential accumulation here vs numpy's pairwise/BLAS orders), which
keeps the divergence at rounding noise.

Contract: the caller initialises ``x`` (per-class throughput) and
``q`` (per-class × per-bank queue estimate) exactly as
:meth:`MVASolver.solve` does; the kernel advances them in place,
writes the final per-class bank responses into ``r_bank`` and returns
``(iterations, last_rel_change, damping)``.  ``iterations`` is the
converged 1-based iteration index, or ``0`` when the budget ran out,
in which case the caller raises
:class:`~repro.errors.ConvergenceError` with the returned state.

**The exact tier's step** (``fastcap_mva_exact_step``): everything one
iteration of :meth:`MVASolver._numpy_fixed_point` does after
``np.matmul(x, routing, out=fg)``, in numpy's op order, so that the
state after each iteration is the numpy loop's to the bit.  The gemv
stays in numpy because OpenBLAS's accumulation order depends on its
kernel.  :meth:`MVASolver._compiled_fixed_point` keeps the iteration
loop, the damping schedule and the stopping test in Python; each call
advances ``x`` and ``q`` in place, writes the bank responses into
``r_bank[slot]`` (the numpy loop's double buffer, alternating) and
returns the largest relative throughput change.  Its arguments are
one :class:`ExactStepArgs` block per solver, bound once by
:func:`bind_exact_step`.  The rules it follows, each checked against
numpy 2.4:

* elementwise ops: the same IEEE op in the same order and grouping,
  e.g. ``x_new*d + x*(1-d)`` and ``((x*routing)*r_new)*d``; the
  ``np.minimum``/``np.maximum`` clamps are comparisons that propagate
  NaN like numpy; in the one-controller branch Python's ``min(a, b)``
  is ``b < a ? b : a``;
* ``np.bincount(bank_ctrl, weights=rates)``: sequential from 0.0, in
  bank order;
* ``np.add.reduce(q, axis=0)``: sequential over classes from 0.0 —
  except with one bank, where numpy squeezes the unit axis and the
  reduction becomes contiguous and pairwise;
* ``np.add.reduce(routing*r_new, axis=1)``: ``0.0 + pairwise(row)``
  with numpy's ``pairwise_sum`` (sequential below 8 elements; 8
  strided accumulators combined as
  ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` then the tail, up to 128;
  above that, split at n/2 rounded down to a multiple of 8);
* ``np.maximum.reduce(dx)``: any order (max is exact), NaN-propagating.

**The Theorem-1 decide step** (``fastcap_decide_step``): everything
:func:`repro.core.optimizer._solve_degradation_rows` does except
``ratios**alpha``, for K rows of N cores at once — the degradation
floor and its clamps, the clipped think times and their power ratios,
each row's power sum, the infeasible and slack tests, the ``lo``/``hi``
updates with the per-row freeze, and the final think times, achieved
D and power.  It is a phase machine over one workspace that
:func:`bind_decide_step` allocates and fills per solve; the caller
runs ``np.power(ratios, alpha, powed)`` between calls, 36 of them for
an interior solve (the floor, full speed, 33 bisection steps and the
final point).  ``power`` stays in numpy because numpy's float64
``power`` runs its own SIMD path (AVX-512 on x86-64 hosts that have
it), which differs from libm ``pow`` in the last bit on ~5% of draws;
its result does not depend on an element's position, so one call over
all K rows is safe.  The rules the rest follows, each checked against
numpy 2.4 by ``tests/core/test_decide_kernel.py``:

* ``np.clip(x, lo, hi)``: ``maximum`` then ``minimum``, each keeping a
  NaN ``x`` first, i.e. ``x != x ? x : (x > lo ? x : lo)`` and then
  the same against ``hi`` with ``<``, so a NaN in any operand
  propagates and a tie between zeros keeps the bound;
* elementwise ops as above, e.g. ``(t_bar/d - cache) - r`` and
  ``(power + mem_power) + static_w``; ``np.maximum(z, 1e-300)`` and the
  floor's clamps propagate NaN;
* ``np.sum(p_max * powed, axis=1)``: per row ``0.0 + pairwise(row)``,
  numpy's ``pairwise_sum`` as above;
* ``np.min(..., axis=1)``: NaN-propagating; min is exact, so the order
  only decides which zero a row mixing ``+0.0`` and ``-0.0`` returns
  (the C loop keeps the later one, as numpy does on rows of up to 8
  cores, where its SIMD lanes do not yet take part; the floor's clamp
  erases the sign, and positive turnarounds never give a zero
  achieved D).

All three are built strict IEEE: ``-ffp-contract=off`` keeps
multiply-adds from fusing into FMAs, and no ``-ffast-math``/``-Ofast``
(see ``_FLAGS``).

The library is built with the host's C compiler (``$CC``, else
``cc``/``gcc``/``clang``) and loaded through :mod:`ctypes`.  Build
products are content-addressed by the compile command and the source
under ``$FASTCAP_KERNEL_CACHE`` (default ``~/.cache/fastcap-repro``),
so a process pays the compile once per source and flag version and
later processes just ``dlopen``.  When the build or the load fails,
:func:`load` returns None, :func:`build_error` says why, and one
warning per process on logger ``repro.queueing.kernels`` names the
reason: relaxed solves then run the exact tier, exact solves the
numpy loop and decides the numpy row kernel.
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
from typing import Callable, NamedTuple, Optional, Tuple

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

/* ------------------------------------------------------------------
 * The exact tier's step: everything in one iteration of
 * MVASolver._numpy_fixed_point after numpy's gemv fg = x @ routing, in
 * numpy's op order (the module docstring lists the rules each loop
 * below follows).
 * ------------------------------------------------------------------ */

/* numpy's pairwise_sum over n contiguous doubles (PW_BLOCKSIZE 128). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.minimum / np.maximum on two doubles (NaN-propagating). */
static inline double np_min(double a, double b)
{
    return (a <= b || a != a) ? a : b;
}

static inline double np_max(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

/* One solver's buffers, bound once (NetworkArrays.update and the
 * solver write every one of them in place).  ExactStepArgs in the
 * Python module mirrors this layout. */
typedef struct {
    const double *routing;       /* n * B */
    const double *bank_service;  /* B */
    const double *bus_transfer;  /* M */
    const double *bg_rates;      /* B */
    const double *population;    /* n */
    const double *think;         /* n */
    const double *fg;            /* B: x @ routing, from numpy */
    double *x;                   /* n, in/out */
    double *q;                   /* n * B, in/out */
    double *rates;               /* B scratch */
    double *bus_wait;            /* M scratch */
    double *s_fg;                /* B scratch */
    double *bank_q;              /* B scratch */
    double *r_prod;              /* n * B scratch */
    double *r_bank[2];           /* n * B each: the double buffer */
    const int64_t *bank_ctrl;    /* B */
    int64_t n, n_banks, n_ctrl;
    int64_t unit_pop;            /* all populations 1.0 (per solver) */
    int64_t has_bg;              /* any(bg_rates > 0) (per solve) */
    double pop_wait;             /* max(sum(population) - 1, 0) (per solve) */
} fastcap_exact_args;

/* Advances x and q in place, writes the bank responses into
 * r_bank[slot] and returns the largest relative throughput change. */
double fastcap_mva_exact_step(
    const fastcap_exact_args *s, int64_t slot,
    double damping, double retained)
{
    const int64_t n = s->n, nb = s->n_banks, nc = s->n_ctrl;
    const double *routing = s->routing, *bt = s->bus_transfer;
    const int64_t *bank_ctrl = s->bank_ctrl;
    double *rates = s->rates, *s_fg = s->s_fg, *bank_q = s->bank_q;
    double *bus_wait = s->bus_wait, *x = s->x, *q = s->q;
    double *r_new = s->r_bank[slot];

    for (int64_t b = 0; b < nb; b++) rates[b] = s->fg[b] + s->bg_rates[b];

    if (nc == 1) {
        /* Python floats: min(a, b) is (b < a ? b : a). */
        double ctrl0 = 0.0;
        for (int64_t b = 0; b < nb; b++) ctrl0 += rates[b];
        const double bt0 = bt[0];
        double rho0 = ctrl0 * bt0;
        rho0 = RHO_CAP < rho0 ? RHO_CAP : rho0;
        double wait0 = bt0 * rho0 / (2.0 * (1.0 - rho0));
        const double cap0 = s->pop_wait * bt0;
        wait0 = cap0 < wait0 ? cap0 : wait0;
        for (int64_t b = 0; b < nb; b++)
            s_fg[b] = (s->bank_service[b] + wait0) + bt0;
    } else {
        /* np.bincount: sequential from 0.0 in bank order. */
        for (int64_t k = 0; k < nc; k++) bus_wait[k] = 0.0;
        for (int64_t b = 0; b < nb; b++) bus_wait[bank_ctrl[b]] += rates[b];
        for (int64_t k = 0; k < nc; k++) {
            const double rho = np_min(bus_wait[k] * bt[k], RHO_CAP);
            const double wait = (bt[k] * rho) / (2.0 * (1.0 - rho));
            bus_wait[k] = np_min(wait, s->pop_wait * bt[k]);
        }
        for (int64_t b = 0; b < nb; b++) {
            const int64_t k = bank_ctrl[b];
            s_fg[b] = (s->bank_service[b] + bus_wait[k]) + bt[k];
        }
    }
    if (s->has_bg) {
        for (int64_t b = 0; b < nb; b++) {
            const double rho_bg = np_min(s->bg_rates[b] * s_fg[b], BG_RHO_CAP);
            s_fg[b] = s_fg[b] / (1.0 - rho_bg);
        }
    }

    /* np.add.reduce(q, axis=0): sequential over classes from 0.0,
     * except that numpy squeezes a unit bank axis and sums the
     * (then contiguous) column pairwise. */
    if (nb == 1) {
        bank_q[0] = 0.0 + pairwise_sum(q, n);
    } else {
        for (int64_t b = 0; b < nb; b++) bank_q[b] = 0.0;
        for (int64_t i = 0; i < n; i++)
            for (int64_t b = 0; b < nb; b++) bank_q[b] += q[i * nb + b];
    }

    double last_rel = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = routing + i * nb;
        const double pop = s->population[i];
        double *qi = q + i * nb, *ri = r_new + i * nb;
        double *pi = s->r_prod + i * nb;
        for (int64_t b = 0; b < nb; b++) {
            double seen = s->unit_pop ? bank_q[b] - qi[b]
                                      : bank_q[b] - qi[b] / pop;
            seen = np_max(seen, 0.0);
            ri[b] = s_fg[b] * (1.0 + seen);
            pi[b] = row[b] * ri[b];
        }
        /* np.add.reduce(r_prod, axis=1): 0.0 + pairwise(row). */
        const double r_mem = 0.0 + pairwise_sum(pi, nb);
        const double x_new = pop / (s->think[i] + r_mem);
        const double x_damped = x_new * damping + x[i] * retained;
        for (int64_t b = 0; b < nb; b++)
            qi[b] = qi[b] * retained + ((x_damped * row[b]) * ri[b]) * damping;
        const double rel = fabs(x_damped - x[i]) / np_max(fabs(x[i]), 1e-300);
        last_rel = i == 0 ? rel : np_max(last_rel, rel);
        x[i] = x_damped;
    }
    return last_rel;
}

/* ------------------------------------------------------------------
 * The Theorem-1 decide step: everything in
 * repro.core.optimizer._solve_degradation_rows except ratios**alpha,
 * in numpy's op order (the module docstring lists the rules).  Each
 * call consumes the powers numpy left in `powed` (the first call has
 * none), advances every row and writes the next `ratios`.  It returns
 * 1 while the caller must run np.power(ratios, alpha, out=powed) and
 * call again, and 0 once the outputs are written.
 * ------------------------------------------------------------------ */

/* The workspace: a header, then K-long per-row sections, then K*N
 * per-core sections, in these orders (_DECIDE_* in the Python module
 * mirror them).  The caller fills the header and the inputs. */
enum { DH_PHASE, DH_STEPS, DH_MAX_STEPS, DH_TOL, DH_K, DH_N, DH_COUNT };
enum { DR_AVAILABLE, DR_MEM_POWER, DR_STATIC_W, DR_INFEASIBLE,
       DR_ACHIEVED, DR_POWER, DR_D_FLOOR, DR_SLACK, DR_ACTIVE, DR_LO,
       DR_HI, DR_MID, DR_COUNT };
enum { DC_R, DC_T_BAR, DC_Z_MIN, DC_Z_MAX, DC_CACHE, DC_P_MAX,
       DC_ALPHA, DC_RATIOS, DC_POWED, DC_Z, DC_COUNT };
/* What the pending powers belong to. */
enum { PH_START, PH_FLOOR, PH_FULL, PH_BISECT, PH_FINAL };

typedef struct {
    int64_t n;
    double *row[DR_COUNT];
    double *core[DC_COUNT];
} decide_ws;

/* np.clip(x, lo, hi): max then min, each keeping a NaN first operand. */
static inline double np_clip(double x, double lo, double hi)
{
    x = (x != x) ? x : (x > lo ? x : lo);
    return (x != x) ? x : (x < hi ? x : hi);
}

/* Row i's think times and power ratios at D = d:
 * z = clip((t_bar / d - cache) - r, z_min, z_max), stored when
 * z_out is set, and ratios = z_min / maximum(z, 1e-300). */
static void decide_point(const decide_ws *w, int64_t i, double d,
                         double *z_out)
{
    const int64_t o = i * w->n;
    const double *t_bar = w->core[DC_T_BAR] + o, *cache = w->core[DC_CACHE] + o;
    const double *r = w->core[DC_R] + o, *z_min = w->core[DC_Z_MIN] + o;
    const double *z_max = w->core[DC_Z_MAX] + o;
    double *ratios = w->core[DC_RATIOS] + o;
    for (int64_t j = 0; j < w->n; j++) {
        const double z = np_clip((t_bar[j] / d - cache[j]) - r[j],
                                 z_min[j], z_max[j]);
        if (z_out) z_out[o + j] = z;
        ratios[j] = z_min[j] / np_max(z, 1e-300);
    }
}

/* np.sum(p_max * powed, axis=1) for row i: 0.0 + pairwise(row). */
static double decide_row_power(const decide_ws *w, int64_t i)
{
    const int64_t o = i * w->n;
    const double *p_max = w->core[DC_P_MAX] + o;
    double *powed = w->core[DC_POWED] + o;
    for (int64_t j = 0; j < w->n; j++) powed[j] = p_max[j] * powed[j];
    return 0.0 + pairwise_sum(powed, w->n);
}

/* np.min(t_bar / ((x + cache) + r), axis=1) for row i (n >= 1). */
static double decide_min_quotient(const decide_ws *w, int64_t i,
                                  const double *x)
{
    const int64_t o = i * w->n;
    const double *t_bar = w->core[DC_T_BAR] + o, *cache = w->core[DC_CACHE] + o;
    const double *r = w->core[DC_R] + o;
    double m = 0.0;
    for (int64_t j = 0; j < w->n; j++) {
        const double q = t_bar[j] / ((x[o + j] + cache[j]) + r[j]);
        m = j == 0 ? q : np_min(q, m);
    }
    return m;
}

int64_t fastcap_decide_step(double *ws)
{
    const int64_t k = (int64_t)ws[DH_K], n = (int64_t)ws[DH_N];
    decide_ws w;
    w.n = n;
    for (int s = 0; s < DR_COUNT; s++) w.row[s] = ws + DH_COUNT + s * k;
    for (int s = 0; s < DC_COUNT; s++)
        w.core[s] = ws + DH_COUNT + DR_COUNT * k + s * k * n;
    double *available = w.row[DR_AVAILABLE], *infeasible = w.row[DR_INFEASIBLE];
    double *d_floor = w.row[DR_D_FLOOR], *slack = w.row[DR_SLACK];
    double *active = w.row[DR_ACTIVE], *mid = w.row[DR_MID];
    double *lo = w.row[DR_LO], *hi = w.row[DR_HI];

    switch ((int64_t)ws[DH_PHASE]) {
    case PH_START:
        /* The degradation floor: every core at its slowest. */
        for (int64_t i = 0; i < k; i++) {
            const double d = decide_min_quotient(&w, i, w.core[DC_Z_MAX]);
            d_floor[i] = np_min(np_max(d, 1e-9), 1.0);
            decide_point(&w, i, d_floor[i], 0);
        }
        ws[DH_PHASE] = PH_FLOOR;
        return 1;
    case PH_FLOOR:
        for (int64_t i = 0; i < k; i++) {
            infeasible[i] = decide_row_power(&w, i) > available[i];
            decide_point(&w, i, 1.0, 0);
        }
        ws[DH_PHASE] = PH_FULL;
        return 1;
    case PH_FULL:
        for (int64_t i = 0; i < k; i++) {
            slack[i] = decide_row_power(&w, i) <= available[i];
            active[i] = !(infeasible[i] != 0.0 || slack[i] != 0.0);
            lo[i] = d_floor[i];
            hi[i] = 1.0;
        }
        break;
    case PH_BISECT:
        /* Frozen rows keep lo and hi, as np.copyto(where=active) does. */
        for (int64_t i = 0; i < k; i++) {
            if (active[i] == 0.0) continue;
            if (decide_row_power(&w, i) > available[i])
                hi[i] = mid[i];
            else
                lo[i] = mid[i];
            if (hi[i] - lo[i] <= ws[DH_TOL] * hi[i]) active[i] = 0.0;
        }
        ws[DH_STEPS] += 1.0;
        break;
    default: { /* PH_FINAL */
        const double *mem_power = w.row[DR_MEM_POWER];
        const double *static_w = w.row[DR_STATIC_W];
        for (int64_t i = 0; i < k; i++) {
            w.row[DR_POWER][i] =
                (decide_row_power(&w, i) + mem_power[i]) + static_w[i];
            w.row[DR_ACHIEVED][i] = decide_min_quotient(&w, i, w.core[DC_Z]);
        }
        return 0;
    }
    }

    /* The next midpoint while a row is active, else the final point. */
    int any_active = 0;
    for (int64_t i = 0; i < k; i++) any_active |= active[i] != 0.0;
    if (any_active && ws[DH_STEPS] < ws[DH_MAX_STEPS]) {
        for (int64_t i = 0; i < k; i++) {
            mid[i] = 0.5 * (lo[i] + hi[i]);
            decide_point(&w, i, mid[i], 0);
        }
        ws[DH_PHASE] = PH_BISECT;
        return 1;
    }
    for (int64_t i = 0; i < k; i++) {
        const double d = infeasible[i] != 0.0 ? d_floor[i]
                       : slack[i] != 0.0      ? 1.0
                                              : lo[i];
        decide_point(&w, i, d, w.core[DC_Z]);
    }
    ws[DH_PHASE] = PH_FINAL;
    return 1;
}
"""

#: Strict IEEE: -ffp-contract=off keeps a*b + c from fusing into an FMA
#: (clang contracts by default on arm64), which the exact step's
#: bit-identity needs.  Never -ffast-math or -Ofast: besides reordering
#: arithmetic they link crtfastmath, which flushes denormals to zero
#: for the whole process.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)

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
    """Compile the shared library (content-addressed; atomic install).

    The name hashes the whole compile command with the source, so a
    changed flag builds a new library instead of reusing the old one.
    """
    command = [cc, *_FLAGS]
    key = "\0".join([*command, *_LIBS, _SOURCE])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
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
            [*command, "-o", tmp_out, str(src), *_LIBS],
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
            "C kernel unavailable, relaxed solves run the exact numpy path, "
            "exact solves run the numpy loop and FastCap decides run the "
            "numpy row kernel: %s",
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
    lib.fastcap_mva_exact_step.restype = f64
    lib.fastcap_mva_exact_step.argtypes = [
        ctypes.POINTER(ExactStepArgs), i64, f64, f64
    ]
    lib.fastcap_decide_step.restype = i64
    lib.fastcap_decide_step.argtypes = [ctypes.c_void_p]
    _lib = lib
    return _lib


def build_error() -> Optional[str]:
    """Why the library is unavailable (None when it loaded or untried)."""
    return _build_error


#: ``fastcap_exact_args``' single-array fields, in declaration order.
_EXACT_ARRAYS = (
    "routing", "bank_service", "bus_transfer", "bg_rates", "population",
    "think", "fg", "x", "q", "rates", "bus_wait", "s_fg", "bank_q", "r_prod",
)
_P_F64 = ctypes.POINTER(ctypes.c_double)


class ExactStepArgs(ctypes.Structure):
    """The C ``fastcap_exact_args`` block: one solver's buffers."""

    _fields_ = [
        *((name, _P_F64) for name in _EXACT_ARRAYS),
        ("r_bank", _P_F64 * 2),
        ("bank_ctrl", ctypes.POINTER(ctypes.c_int64)),
        *(
            (name, ctypes.c_int64)
            for name in ("n", "n_banks", "n_ctrl", "unit_pop", "has_bg")
        ),
        ("pop_wait", ctypes.c_double),
    ]


class ExactStep(NamedTuple):
    """``fastcap_mva_exact_step`` bound to one solver's buffers.

    One iteration is ``call(ref, slot, damping, retained)``; ``ref``
    is ``byref(args)``, made once because a fresh one costs more than
    the rest of the call's argument conversion.
    """

    call: Callable[..., float]
    args: ExactStepArgs
    ref: object


def bind_exact_step(arrays, **buffers: np.ndarray) -> Optional[ExactStep]:
    """Bind ``fastcap_mva_exact_step`` to one solver's buffers.

    ``arrays`` is the solver's :class:`~repro.queueing.arrays.NetworkArrays`;
    ``buffers`` names the block's other array fields (``fg``, ``x``,
    ``q``, the scratch, and ``r_bank``, the pair of response buffers).
    Returns None when the library is unavailable.  The block holds raw
    addresses, so the caller keeps every buffer alive and writes them
    only in place; it sets the per-solve fields ``has_bg`` and
    ``pop_wait`` before each solve.
    """
    lib = load()
    if lib is None:
        return None
    a = arrays
    fields = dict(
        buffers,
        routing=a.routing,
        bank_service=a.bank_service,
        bus_transfer=a.bus_transfer,
        bg_rates=a.bg_rates,
        population=a.population,
        think=a.think_s,
    )
    args = ExactStepArgs()
    for name in _EXACT_ARRAYS:
        setattr(args, name, _ptr_f64(fields[name]))
    args.r_bank[0], args.r_bank[1] = map(_ptr_f64, fields["r_bank"])
    args.bank_ctrl = _ptr_i64(a.bank_ctrl)
    args.n, args.n_banks = a.routing.shape
    args.n_ctrl = a.n_controllers
    args.unit_pop = bool(np.all(a.population == 1.0))
    return ExactStep(lib.fastcap_mva_exact_step, args, ctypes.byref(args))


#: ``fastcap_decide_step``'s workspace sections, in the C enums' order:
#: the header, then K doubles per row section and K*N per core section.
#: The caller fills the header and the sections up to the inputs; C
#: writes the rest.
_DECIDE_HEADER = ("phase", "steps", "max_steps", "tol", "k", "n")
_DECIDE_ROWS = (
    "available", "mem_power", "static_w", "infeasible", "achieved", "power",
    "d_floor", "slack", "active", "lo", "hi", "mid",
)
_DECIDE_CORES = (
    "r", "t_bar", "z_min", "z_max", "cache", "p_max", "alpha", "ratios",
    "powed", "z",
)
_DECIDE_ROW_INPUTS = _DECIDE_ROWS[:3]
_DECIDE_CORE_INPUTS = _DECIDE_CORES[:7]


class DecideStep(NamedTuple):
    """``fastcap_decide_step`` bound to one solve's fresh workspace.

    The solve is ``while call(address): np.power(ratios, alpha,
    powed)``, over flat views of the three ``(K, N)`` sections (C never
    reads ``alpha``; it sits in the workspace, expanded to every row,
    because same-shape contiguous operands make numpy's call cheapest).
    The other fields view the outputs, valid once ``call`` returns 0.
    """

    call: Callable[[int], int]
    address: int
    alpha: np.ndarray
    ratios: np.ndarray
    powed: np.ndarray
    infeasible: np.ndarray
    achieved: np.ndarray
    power: np.ndarray
    z: np.ndarray


def bind_decide_step(max_steps: int, tol: float, **inputs) -> Optional[DecideStep]:
    """Bind ``fastcap_decide_step`` to a workspace filled with ``inputs``.

    ``inputs`` names every input section: ``r`` is ``(K, N)``, the
    other per-core inputs broadcast to it, and the per-row inputs
    (``available``, ``mem_power``, ``static_w``) to ``(K,)``.  The
    workspace is allocated here, C-contiguous float64, so C never sees
    a caller's buffer, and the broadcast assignments reject a shape
    that does not fit.  Returns None when the library is unavailable.
    """
    lib = load()
    if lib is None:
        return None
    k, n = inputs["r"].shape
    head = len(_DECIDE_HEADER)
    per_row = len(_DECIDE_ROWS) * k
    ws = np.empty(head + per_row + len(_DECIDE_CORES) * k * n)
    ws[:head] = (0.0, 0.0, max_steps, tol, k, n)
    rows = ws[head : head + per_row].reshape(len(_DECIDE_ROWS), k)
    cores = ws[head + per_row :].reshape(len(_DECIDE_CORES), k, n)
    for section, name in zip(rows, _DECIDE_ROW_INPUTS):
        section[...] = inputs[name]
    for section, name in zip(cores, _DECIDE_CORE_INPUTS):
        section[...] = inputs[name]
    alpha, ratios, powed = cores.reshape(len(_DECIDE_CORES), k * n)[6:9]
    infeasible, achieved, power = rows[3:6]
    return DecideStep(
        lib.fastcap_decide_step, ws.ctypes.data,
        alpha, ratios, powed, infeasible, achieved, power, z=cores[9],
    )


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
