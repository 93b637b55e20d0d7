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
The ghosts are refilled in Python floats from the new interior rows, the
same IEEE products and sums in the same order, each flushed as a scalar: a
ghost is a row of m cells, too short for numpy's per-call cost, so no
ghost array is allocated per step.  The rule is written once (`_ghost`,
through `_refiller`), for the entry fill and every step alike; per call, b
is converted and each parity's view of the rows the ghosts read is built
once, each step reads it with one `tolist`, and a 1-D buffer stores each
ghost as one Python float.  Their cost grows with m and passes that of
numpy rows near m = 10 (o3's rule, same machine); the default jobs step at
most 5 columns.  The step's ufuncs take their output positionally, which
numpy parses faster than `out=`: with the ghost view built once, a 1-D
step of about 350 rows went 5.3-5.4 -> 4.9-5.0 us (lfr) and 6.3 -> 5.8 us
(o3), interleaved best of 15, same machine.
"""

import numpy as np

__all__ = ["HAVE_NUMBA", "evolve_half", "evolve_whole"]

# no jit path here, so always False: the benchmark's environment record
# reads it
HAVE_NUMBA = False


_TINY = float(np.finfo(float).tiny)


def _ghost(bi, col):
    # one ghost cell from the interior values col = (u_1, ..., u_{p_b})
    # above it, in Python floats: val = b_i1 u_1, val += b_ik u_k in
    # ascending k, then the flush (see the module notes)
    val = bi[0] * col[0]
    for k in range(1, len(bi)):
        val += bi[k] * col[k]
    return 0.0 if abs(val) < _TINY else val


def _refiller(u, b, r, p_b):
    """The ghost refill of buffer u (p_b >= 1) as a function of no
    arguments: the view of the interior rows the ghosts read and b as
    Python floats are built once, the rows are read with one `tolist` per
    refill, and a 1-D buffer stores each ghost as one Python float."""
    rule = np.asarray(b, dtype=float).tolist()
    src = u[r:r + p_b]
    if u.ndim == 1:
        def refill():
            col = src.tolist()
            for i, bi in enumerate(rule):
                u[r - 1 - i] = _ghost(bi, col)
    else:
        def refill():
            cols = src.T.tolist()
            for i, bi in enumerate(rule):
                u[r - 1 - i] = [_ghost(bi, col) for col in cols]
    return refill


def _refill(u, b, r, p_b):
    """Fill u's ghost rows once from its interior rows; the zero rule
    (p_b = 0) stores zeros."""
    if p_b:
        _refiller(u, b, r, p_b)()
    else:
        u[:r] = 0.0


def _sweep_numpy(cur, a, b, r, p, p_b, nsteps, hi):
    # Vectorized over the rows of the window and the columns of a 1-D or
    # 2-D buffer; each cell accumulates in ascending k, then is flushed.
    # The window, its views and the ghost refill are fixed for the call,
    # one set for each of the two buffer parities.
    N = cur.shape[0]
    entry, nxt = cur, np.zeros_like(cur)
    top = min(hi + r * nsteps, N - p - 1)
    term = np.empty_like(cur[r:top + 1])
    flush = np.empty(term.shape, dtype=bool)
    # 0-d arrays: the same products as scalars, with cheaper ufunc dispatch
    w = [np.array(x, dtype=float) for x in a]
    tiny = np.array(_TINY)
    views = []
    for src, dst in ((cur, nxt), (nxt, cur)):
        st = [src[r + k:top + 1 + k] for k in range(-r, p + 1)]
        # the zero rule's ghosts stay as _evolve stored them
        refill = _refiller(dst, b, r, p_b) if p_b else None
        views.append((dst[r:top + 1], st[0], list(zip(w[1:], st[1:])),
                      refill))
    for s in range(1, nsteps + 1):
        core, first, terms, refill = views[(s - 1) % 2]
        np.multiply(w[0], first, core)
        for wk, uk in terms:
            np.multiply(wk, uk, term)
            np.add(core, term, core)
        np.abs(core, term)
        np.less(term, tiny, flush)
        np.putmask(core, flush, 0.0)
        if s == 2:
            # the only buffer whose top p rows can be nonzero (a full
            # sweep never writes them)
            entry[N - p:] = 0.0
        if refill:
            refill()
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
