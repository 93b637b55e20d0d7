"""Time-stepping kernel: one vectorized numpy sweep.

One kernel serves both layouts.  A buffer is 1-D (N,) or 2-D (N, m); each
column of a 2-D buffer is one independent source, stepped alongside the
others.  A half-line buffer covers the indices j = 1-r .. N-r, so row idx
holds u_{idx+1-r}: ghosts live in idx < r and the interior starts at
idx = r.  A whole-line buffer is the same array whose r bottom rows follow
the zero boundary rule (p_b = 0), so they hold zeros; out-of-buffer values
are zero on both sides.

Each step updates the interior rows r .. top, then forces the top p rows of
the buffer to zero, then refills the ghosts from the new interior.  The
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

Every cell accumulates its stencil terms as acc = 0.0, then acc += a_k u_k
in ascending k, and every ghost as val = 0.0, then val += b_ik u_k in
ascending k, so each column is bitwise the scalar per-cell loop on that
column alone, whatever the window, the number of columns or the split of
nsteps into several calls.
"""

import numpy as np

__all__ = ["HAVE_NUMBA", "evolve_half", "evolve_whole"]

# no jit path here, so always False: the benchmark's environment record
# reads it
HAVE_NUMBA = False


def _refill(u, b, r, p_b):
    # ghost rows from the interior rows above them, ascending k per cell
    for i in range(r):
        val = 0.0
        for k in range(1, p_b + 1):
            val += b[i, k - 1] * u[r - 1 + k]
        u[r - 1 - i] = val


def _sweep_numpy(cur, a, b, r, p, p_b, nsteps, hi):
    # Vectorized over the rows of the window and the columns of a 1-D or
    # 2-D buffer; each cell accumulates in ascending k.
    N = cur.shape[0]
    nxt = np.zeros_like(cur)
    scratch = np.empty_like(cur)
    for s in range(1, nsteps + 1):
        top = min(hi + r * s, N - p - 1)
        core = nxt[r:top + 1]
        term = scratch[r:top + 1]
        core[:] = 0.0
        for k in range(-r, p + 1):
            np.multiply(a[k + r], cur[r + k:top + 1 + k], out=term)
            core += term
        nxt[N - p:] = 0.0
        _refill(nxt, b, r, p_b)
        cur, nxt = nxt, cur
    return cur


def _evolve(sweep, u0, a, b, r, p, p_b, nsteps):
    """Copy u0, clear it above its live top, fill the ghosts and run the
    sweep."""
    cur = np.array(u0, dtype=float)
    live = np.flatnonzero(cur)    # row-major flat indices
    hi = int(live[-1]) // (cur.size // cur.shape[0]) if live.size else -1
    cur[hi + 1:] = 0.0
    _refill(cur, b, r, p_b)
    return sweep(cur, a, b, r, p, p_b, nsteps, hi)


def _zero_rule(r):
    # the whole-line boundary: r bottom rows, no interior weights
    return np.zeros((r, 0))


def evolve_half(u0, a, b, r, p, p_b, nsteps):
    """nsteps of T on a half-line buffer."""
    return _evolve(_sweep_numpy, u0, a, b, r, p, p_b, nsteps)


def evolve_whole(u0, a, r, p, nsteps):
    """nsteps of L on a whole-line buffer."""
    return _evolve(_sweep_numpy, u0, a, _zero_rule(r), r, p, 0, nsteps)
