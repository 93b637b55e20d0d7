"""Time-stepping kernel: one vectorized numpy sweep.

One kernel serves both layouts.  A buffer is 1-D (N,) or 2-D (N, m); each
column of a 2-D buffer is one independent source, stepped alongside the
others.  A half-line buffer covers the indices j = 1-r .. N-r, so row idx
holds u_{idx+1-r}: ghosts live in idx < r and the interior starts at
idx = r.  A whole-line buffer is the same array whose r bottom rows follow
the zero boundary rule (p_b = 0), so they hold zeros; out-of-buffer values
are zero on both sides.

Each step updates and flushes (below) the interior rows r .. top, keeps the
top p rows of the buffer at zero, then refills the ghosts from the new
interior and flushes them.  A single column steps as a 1-D buffer.  The
live window top is computed from the buffer: with hi the highest row that
is nonzero at entry (-1 if none), step s updates rows up to
min(hi + r s, N - p - 1).  The support grows by at most r rows a step, so
every row above the window is zero and would be written as +0.0 by a full
sweep; the kernel stores +0.0 there (rows above hi are cleared at entry).

A buffer may be a view of a larger one whose edge rows hold nonzero true
values.  The kernel then writes wrong values into its edges: zeros into the
top p rows each step and, at the bottom, ghosts from the half-line rule or
zeros from the whole-line one into the r bottom rows at entry and each
step.  A wrong row reaches at most p rows further down and r rows further
up per step, so after c steps only the top p c and bottom r (c + 1) rows
can be wrong, plus the spread of any row that was wrong at entry; the
caller keeps the cells it reads out of those margins
(`evolution._recorded`).  A whole buffer sized so that the support never
reaches its top p rows has no wrong row.

Underflow is flushed: after every step, every stored cell with |u| below
tiny = 2^-1022 (`np.finfo(float).tiny`) is stored as +0.0.  The interior is
flushed first, then the ghosts are refilled from the flushed interior and
flushed in turn; the ghosts filled at entry are flushed the same way, so a
run split into several calls is bitwise the run in one call.  Without the
rule the Green's functions' fronts decay into subnormals, which the stencil
(its weights sum to 1) carries along instead of letting them die out, and
arithmetic on subnormals is one to two orders of magnitude slower.  Each
flush moves a cell by less than 2^-1022, and a ghost by less than
(1 + max_i sum_k |b_ik|) 2^-1022 with the flushes of the cells it reads;
T^k then carries that perturbation like any other, so after n steps a cell
differs from the pure IEEE sweep by at most
(1 + max_i sum_k |b_ik|) 2^-1022 sum_{k<n} ||T^k||_inf, plus the rounding
of the perturbed sums: below 10^-298 for n = 2000 when both 1 + sum |b|
and every ||T^k||_inf are below 10^3.

Every cell accumulates its stencil terms as acc = a_-r u_-r, then
acc += a_k u_k in ascending k, and every ghost as val = b_i1 u_1, then
val += b_ik u_k in ascending k, then the flush.  Starting from the first
term rather than from 0.0 changes at most the sign of a zero, which the
flush stores as +0.0, so each column is bitwise the scalar per-cell loop on
that column alone (acc = 0.0, the terms, the flush), whatever the window,
the number of columns or the split of nsteps into several calls.
"""

import numpy as np

__all__ = ["HAVE_NUMBA", "evolve_half", "evolve_whole"]

# no jit path here, so always False: the benchmark's environment record
# reads it
HAVE_NUMBA = False


_TINY = np.finfo(float).tiny


def _refill(u, b, r, p_b):
    # ghost rows from the interior rows above them, ascending k per cell,
    # each flushed (a ghost of a 1-D buffer is a scalar); the zero rule
    # (p_b = 0) stores zeros
    if p_b == 0:
        u[:r] = 0.0
        return
    for i in range(r):
        val = b[i, 0] * u[r]
        for k in range(2, p_b + 1):
            val += b[i, k - 1] * u[r - 1 + k]
        if u.ndim == 1:
            val = 0.0 if abs(val) < _TINY else val
        else:
            val[np.abs(val) < _TINY] = 0.0
        u[r - 1 - i] = val


def _sweep_numpy(cur, a, b, r, p, p_b, nsteps, hi):
    # Vectorized over the rows of the window and the columns of a 1-D or
    # 2-D buffer; each cell accumulates in ascending k, then is flushed.
    N = cur.shape[0]
    nxt = np.zeros_like(cur)
    scratch = np.empty_like(cur)
    small = np.empty(cur.shape, dtype=bool)
    for s in range(1, nsteps + 1):
        top = min(hi + r * s, N - p - 1)
        core = nxt[r:top + 1]
        term = scratch[r:top + 1]
        np.multiply(a[0], cur[:top + 1 - r], out=core)
        for k in range(1 - r, p + 1):
            np.multiply(a[k + r], cur[r + k:top + 1 + k], out=term)
            core += term
        np.abs(core, out=term)
        flush = small[r:top + 1]
        np.less(term, _TINY, out=flush)
        np.copyto(core, 0.0, where=flush)
        if s == 2:
            # the entry buffer, the only one whose top p rows can be
            # nonzero (a full sweep never writes them)
            nxt[N - p:] = 0.0
        if p_b:
            # the zero rule's ghosts stay as _evolve stored them
            _refill(nxt, b, r, p_b)
        cur, nxt = nxt, cur
    return cur


def _evolve(sweep, u0, a, b, r, p, p_b, nsteps):
    """Copy u0, clear it above its live top, fill the ghosts and run the
    sweep; a single column steps as a 1-D buffer."""
    cur = np.array(u0, dtype=float)
    live = np.flatnonzero(cur)    # row-major flat indices
    hi = int(live[-1]) // (cur.size // cur.shape[0]) if live.size else -1
    cur[hi + 1:] = 0.0
    if cur.size == cur.shape[0]:
        cur = cur.reshape(-1)
    _refill(cur, b, r, p_b)
    return sweep(cur, a, b, r, p, p_b, nsteps, hi).reshape(np.shape(u0))


def _zero_rule(r):
    # the whole-line boundary: r bottom rows, no interior weights
    return np.zeros((r, 0))


def evolve_half(u0, a, b, r, p, p_b, nsteps):
    """nsteps of T on a half-line buffer."""
    return _evolve(_sweep_numpy, u0, a, b, r, p, p_b, nsteps)


def evolve_whole(u0, a, r, p, nsteps):
    """nsteps of L on a whole-line buffer."""
    return _evolve(_sweep_numpy, u0, a, _zero_rule(r), r, p, 0, nsteps)
