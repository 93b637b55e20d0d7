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
window is fixed for the whole call, so that its slices and stencil views
are built once per call for each of the two buffers: with hi the highest
row that is nonzero at entry (-1 if none), every step updates rows up to
min(hi + r nsteps, N - p - 1).  The caller sets how many steps a call
takes (`evolution._recorded`, at most `evolution._CHUNK`), so that the
window follows the live top.  The support grows by at most r rows a step,
so at step s every row above hi + r s is zero, and a full sweep would
write +0.0 there.  The kernel stores +0.0 there too: the rows above
hi + r s that it updates read only rows above hi + r (s - 1), which hold
+0.0, so their products are zeros of either sign, their sum is a zero,
and the flush stores it as +0.0.  Rows above the window are never written
(rows above hi are cleared at entry).

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

How a step stores them.  The interior's flush is one mask, |core| < tiny,
stored by `np.putmask(core, mask, 0.0)`.  `np.copyto(core, 0.0,
where=mask)` stores the same zeros but walks the mask as runs, and the
masks of a 2-D buffer are interleaved: each column's front ends at its own
row, so a row's mask can be true in some columns only.  On a 1400 x 4
window with growth's four fronts it took 9.3-14.8 us a store against
4.5-6.4 us for putmask (two runs, best of 7, one core of a 2-core VM).
The ghosts are refilled in Python floats from the new interior rows (one
`tolist` per step, b converted once per call), the same IEEE products and
sums in the same order, each flushed as a scalar: a ghost is a row of m
cells, too short for numpy's per-call cost, so no ghost array is allocated
per step.  Their cost grows with m and passes that of numpy rows near
m = 10 (o3's rule, same machine); the default jobs step at most 5 columns.
"""

import numpy as np

__all__ = ["HAVE_NUMBA", "evolve_half", "evolve_whole"]

# no jit path here, so always False: the benchmark's environment record
# reads it
HAVE_NUMBA = False


_TINY = float(np.finfo(float).tiny)


def _refill(u, b, r, p_b):
    # ghost rows from the interior rows above them in Python floats, b
    # indexed as b[i][k]: per cell val = b_i1 u_1, val += b_ik u_k in
    # ascending k, then the flush (see the module notes); the zero rule
    # (p_b = 0) stores zeros
    if p_b == 0:
        u[:r] = 0.0
        return
    rows = u[r:r + p_b].tolist()
    cols = [rows] if u.ndim == 1 else list(zip(*rows))
    for i in range(r):
        bi = b[i]
        ghost = []
        for col in cols:
            val = bi[0] * col[0]
            for k in range(1, p_b):
                val += bi[k] * col[k]
            ghost.append(0.0 if abs(val) < _TINY else val)
        u[r - 1 - i] = ghost[0] if u.ndim == 1 else ghost


def _sweep_numpy(cur, a, b, r, p, p_b, nsteps, hi):
    # Vectorized over the rows of the window and the columns of a 1-D or
    # 2-D buffer; each cell accumulates in ascending k, then is flushed.
    # The window and its views are fixed for the call, one set for each of
    # the two buffer parities.
    N = cur.shape[0]
    entry, nxt = cur, np.zeros_like(cur)
    top = min(hi + r * nsteps, N - p - 1)
    term = np.empty_like(cur[r:top + 1])
    flush = np.empty(term.shape, dtype=bool)
    # 0-d arrays: the same products as scalars, with cheaper ufunc dispatch
    w = [np.array(x, dtype=float) for x in a]
    tiny = np.array(_TINY)
    # the ghost weights as Python floats, converted once per call
    rule = np.asarray(b, dtype=float).tolist()
    views = []
    for src, dst in ((cur, nxt), (nxt, cur)):
        st = [src[r + k:top + 1 + k] for k in range(-r, p + 1)]
        views.append((dst, dst[r:top + 1], st[0], list(zip(w[1:], st[1:]))))
    for s in range(1, nsteps + 1):
        dst, core, first, terms = views[(s - 1) % 2]
        np.multiply(w[0], first, out=core)
        for wk, uk in terms:
            np.multiply(wk, uk, out=term)
            core += term
        np.abs(core, out=term)
        np.less(term, tiny, out=flush)
        np.putmask(core, flush, 0.0)
        if s == 2:
            # the only buffer whose top p rows can be nonzero (a full
            # sweep never writes them)
            entry[N - p:] = 0.0
        if p_b:
            # the zero rule's ghosts stay as _evolve stored them
            _refill(dst, rule, r, p_b)
    return (cur, nxt)[nsteps % 2]


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
