"""Time-stepping kernels, jitted when numba is available.

Two layouts share one convention.  A half-line buffer of length N covers the
indices j = 1-r .. N-r, so cell idx holds u_{idx+1-r}: ghosts live in
idx < r and the interior starts at idx = r.  A whole-line buffer is the same
array with no ghost block; out-of-buffer values are zero on both sides.

The interior update accumulates the stencil terms in ascending k for every
cell, in the jit path and in the numpy fallback alike, so the two paths
produce bitwise-identical floats (same IEEE operation sequence per cell).
The top p cells of a half-line buffer are forced to zero each step: callers
size the buffer so the support, which grows by at most r cells per step,
never reaches them.

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


def _evolve_half_loops(u0, a, b, r, p, p_b, nsteps):
    # Scalar-loop reference; the jit path compiles exactly this function.
    N = u0.shape[0]
    cur = u0.copy()
    nxt = np.zeros(N)
    for i in range(r):
        val = 0.0
        for k in range(1, p_b + 1):
            val += b[i, k - 1] * cur[r - 1 + k]
        cur[r - 1 - i] = val
    for _ in range(nsteps):
        for idx in range(r, N - p):
            acc = 0.0
            for k in range(-r, p + 1):
                acc += a[k + r] * cur[idx + k]
            nxt[idx] = acc
        for idx in range(N - p, N):
            nxt[idx] = 0.0
        for i in range(r):
            val = 0.0
            for k in range(1, p_b + 1):
                val += b[i, k - 1] * nxt[r - 1 + k]
            nxt[r - 1 - i] = val
        cur, nxt = nxt, cur
    return cur


def _evolve_whole_loops(u0, a, r, p, nsteps):
    N = u0.shape[0]
    cur = u0.copy()
    nxt = np.zeros(N)
    for _ in range(nsteps):
        for idx in range(r, N - p):
            acc = 0.0
            for k in range(-r, p + 1):
                acc += a[k + r] * cur[idx + k]
            nxt[idx] = acc
        for idx in range(0, r):
            nxt[idx] = 0.0
        for idx in range(N - p, N):
            nxt[idx] = 0.0
        cur, nxt = nxt, cur
    return cur


def evolve_half_numpy(u0, a, b, r, p, p_b, nsteps):
    """Vectorized fallback; accumulation order matches the loop kernel."""
    N = u0.shape[0]
    cur = u0.copy()
    nxt = np.zeros(N)
    for i in range(r):
        val = 0.0
        for k in range(1, p_b + 1):
            val += b[i, k - 1] * cur[r - 1 + k]
        cur[r - 1 - i] = val
    for _ in range(nsteps):
        core = nxt[r:N - p]
        core[:] = 0.0
        for k in range(-r, p + 1):
            core += a[k + r] * cur[r + k:N - p + k]
        nxt[N - p:] = 0.0
        for i in range(r):
            val = 0.0
            for k in range(1, p_b + 1):
                val += b[i, k - 1] * nxt[r - 1 + k]
            nxt[r - 1 - i] = val
        cur, nxt = nxt, cur
    return cur


def evolve_whole_numpy(u0, a, r, p, nsteps):
    N = u0.shape[0]
    cur = u0.copy()
    nxt = np.zeros(N)
    for _ in range(nsteps):
        core = nxt[r:N - p]
        core[:] = 0.0
        for k in range(-r, p + 1):
            core += a[k + r] * cur[r + k:N - p + k]
        nxt[:r] = 0.0
        nxt[N - p:] = 0.0
        cur, nxt = nxt, cur
    return cur


if HAVE_NUMBA:
    evolve_half = njit(cache=True)(_evolve_half_loops)
    evolve_whole = njit(cache=True)(_evolve_whole_loops)
else:
    evolve_half = evolve_half_numpy
    evolve_whole = evolve_whole_numpy
