"""Time-stepping kernel, jitted when numba is available.

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
Callers size the buffer so the support never reaches the top p rows.

Every cell accumulates its stencil terms as acc = 0.0, then acc += a_k u_k
in ascending k, and every ghost as val = 0.0, then val += b_ik u_k in
ascending k: the jit path, the numpy fallback and the plain-Python
reference `_evolve_*_loops` do the same IEEE operations per cell, so their
results are bitwise identical, whatever the window, the number of columns
or the split of nsteps into several calls.

Set HALFLAB_DISABLE_NUMBA=1 to force the numpy fallback even when numba is
installed (used by the kernel benchmark).
"""

import os
import warnings

import numpy as np

__all__ = [
    "HAVE_NUMBA", "evolve_half", "evolve_whole",
    "evolve_half_numpy", "evolve_whole_numpy",
]

_DISABLED = os.environ.get("HALFLAB_DISABLE_NUMBA", "") == "1"
HAVE_NUMBA = False
if not _DISABLED:
    try:
        from numba import njit
        HAVE_NUMBA = True
    except ImportError:
        warnings.warn("numba could not be imported; evolution kernels fall "
                      "back to vectorized numpy", RuntimeWarning)


def _sweep_loops(cur, a, b, r, p, p_b, nsteps, hi):
    # Scalar loops on a 2-D buffer; the jit path compiles exactly this
    # function.  cur holds the entry state with its ghosts filled.
    N, m = cur.shape
    nxt = np.zeros((N, m))
    for s in range(1, nsteps + 1):
        top = min(hi + r * s, N - p - 1)
        for idx in range(r, top + 1):
            for c in range(m):
                acc = 0.0
                for k in range(-r, p + 1):
                    acc += a[k + r] * cur[idx + k, c]
                nxt[idx, c] = acc
        for idx in range(N - p, N):
            for c in range(m):
                nxt[idx, c] = 0.0
        for i in range(r):
            for c in range(m):
                val = 0.0
                for k in range(1, p_b + 1):
                    val += b[i, k - 1] * nxt[r - 1 + k, c]
                nxt[r - 1 - i, c] = val
        cur, nxt = nxt, cur
    return cur


def _refill(u, b, r, p_b):
    # ghost rows from the interior rows above them, ascending k per cell
    for i in range(r):
        val = 0.0
        for k in range(1, p_b + 1):
            val += b[i, k - 1] * u[r - 1 + k]
        u[r - 1 - i] = val


def _sweep_numpy(cur, a, b, r, p, p_b, nsteps, hi):
    # Vectorized over the rows of the window and the columns of a 1-D or
    # 2-D buffer; each cell sees the accumulation order of _sweep_loops.
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


def _columns(sweep):
    # the loop sweep indexes (row, column): a 1-D buffer is one column
    def run(cur, *args):
        return sweep(cur.reshape(cur.shape[0], -1), *args).reshape(cur.shape)
    return run


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


def _evolve_half_loops(u0, a, b, r, p, p_b, nsteps):
    """Plain-Python reference for evolve_half (slow; tests only)."""
    return _evolve(_columns(_sweep_loops), u0, a, b, r, p, p_b, nsteps)


def _evolve_whole_loops(u0, a, r, p, nsteps):
    """Plain-Python reference for evolve_whole (slow; tests only)."""
    return _evolve(_columns(_sweep_loops), u0, a, _zero_rule(r), r, p, 0,
                   nsteps)


def evolve_half_numpy(u0, a, b, r, p, p_b, nsteps):
    """nsteps of T on a half-line buffer, numpy path."""
    return _evolve(_sweep_numpy, u0, a, b, r, p, p_b, nsteps)


def evolve_whole_numpy(u0, a, r, p, nsteps):
    """nsteps of L on a whole-line buffer, numpy path."""
    return _evolve(_sweep_numpy, u0, a, _zero_rule(r), r, p, 0, nsteps)


if HAVE_NUMBA:
    _sweep_jit = _columns(njit(cache=True)(_sweep_loops))

    def evolve_half(u0, a, b, r, p, p_b, nsteps):
        """nsteps of T on a half-line buffer, jit path."""
        return _evolve(_sweep_jit, u0, a, b, r, p, p_b, nsteps)

    def evolve_whole(u0, a, r, p, nsteps):
        """nsteps of L on a whole-line buffer, jit path."""
        return _evolve(_sweep_jit, u0, a, _zero_rule(r), r, p, 0, nsteps)
else:
    evolve_half = evolve_half_numpy
    evolve_whole = evolve_whole_numpy
