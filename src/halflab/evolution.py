"""Half-line and whole-line evolution, Green's functions, growth probes.

The half-line operator T acts on sequences (u_j)_{j >= 1-r} whose ghost
values u_j, j in {1-r..0}, satisfy the boundary extrapolation; one step is
the interior stencil update followed by a ghost refill from the new interior.
The whole-line operator L is the same stencil as a convolution on Z.  The
temporal Green's functions are the iterates of the Dirac masses,

    G(n, j0, .) = T^n delta_{j0},      Gt(n, .) = L^n delta_0,

and they carry the exact finite-support bound j - j0 in {-np, ..., nr}
(support spreads p cells left and r cells right per step).  Growth probes
evolve the flat data u_J = sum_{j0 <= J} delta_{j0} and record the ratio
||T^n u_J|| / ||u_J|| of l^q norms over the interior j >= 1, a lower bound
for the operator norm of T^n.  `apply_half_line` evolves arbitrary initial
data, given as a plain array with its ghosts.

Grids of sources are evolved in one sweep: the kernel steps a 2-D buffer
with one column per source (j0 or J).  A cell's value does not depend on
the buffer size, the other columns or the chunking (see `_kernels`), so
every value a sweep returns is bitwise that of the scalar per-cell loops
(acc = 0.0, the stencil terms in ascending k, the flush) run on that
source alone.  `_recorded` is the one driver, and every kernel call takes
at most `_CHUNK` steps on a view that stops p rows above the support's top
at the chunk's end: `growth_experiment` and `apply_half_line` read whole
columns, so each of their views runs from the buffer's bottom to that
cap, while `temporal_green_sweep`, `temporal_green_rows` and
`temporal_green_whole_sweep` take the cells their caller reads, step only
the views those cells depend on (the domain of dependence, bounded by the
finite support above), and return exactly those values.  Growth takes
each recorded snapshot's norms as one block, a row per J: the row max for
q = inf, and for a finite q one exactly rounded sum of |u|^q per row
(`_exact_sums`, bitwise math.fsum) before the root.  Times, sources and
cells are integers: a non-integral one is refused, not truncated
(`scheme._indices`).

Rows of G in the source come from the adjoint: G(n, j0, j) = (T^n)_{j,j0}
is the j0 entry of (T^T)^n delta_j, and the transpose T^T is itself a
half-line scheme (`adjoint_scheme`: stencil a_{-k}, r and p swapped, and
ghost weights that reproduce the transposed boundary block, returned with
the residual of the solve for those weights).  So `temporal_green_rows`
gives G(n, j0, j) at every j0 from one column per j, however many sources
are read; it agrees with `temporal_green_sweep` to roundoff, not bitwise,
since the two routes multiply out T^n in a different order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .scheme import SchemeDefinition, _indices

__all__ = [
    "GhostConsistencyError", "apply_half_line", "temporal_green_sweep",
    "temporal_green_whole_sweep", "adjoint_scheme", "temporal_green_rows",
    "growth_experiment", "GrowthResult", "loglog_slope",
]


class GhostConsistencyError(ValueError):
    """Initial data's ghost values do not satisfy the boundary extrapolation."""


# input ghosts may miss the boundary rule by this much of the field's scale
_GHOST_TOL = 1e-10


def _check_ghosts(scheme: SchemeDefinition, values: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(values))))
    r = scheme.r
    for i in range(r):
        want = 0.0
        for k in range(1, scheme.p_b + 1):
            if r - 1 + k < values.size:
                want += scheme.b[i, k - 1] * values[r - 1 + k]
        got = values[r - 1 - i]
        # not <=, so that a NaN miss fails too
        if not abs(got - want) <= _GHOST_TOL * scale:
            raise GhostConsistencyError(
                f"ghost value at j={-i} is {got!r}, boundary rule gives "
                f"{want!r} (tolerance {_GHOST_TOL:g} of scale {scale:g})")


def apply_half_line(scheme: SchemeDefinition, values,
                    nsteps: int = 1) -> np.ndarray:
    """T^nsteps u for u = values: the ghosts u_{1-r}, ..., u_0, then the
    interior u_1, u_2, ... (zero past the end), returned on j = 1-r up to
    the last stored cell plus r nsteps, past which T^nsteps u is zero.

    Every value must be finite, and the input ghosts must satisfy the
    boundary rule within _GHOST_TOL of the sup of values; the kernel
    recomputes them, never trusts them."""
    values = np.array(values, dtype=float)
    r, p = scheme.r, scheme.p
    if values.ndim != 1 or values.size < r + 1:
        raise ValueError("values must hold the ghosts and at least u_1")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"values must be finite, got {float(values[i])!r}"
                         f" at index {i} (j = {i + 1 - r})")
    nsteps, = _indices([nsteps], 0, "step counts").tolist()
    _check_ghosts(scheme, values)
    size = values.size + r * nsteps
    # the kernel zeroes the top p rows, which the support never reaches
    buf = np.zeros(size + p)
    buf[:values.size] = values
    # the ghosts from the rule, as the kernel fills them, also at 0 steps
    _kernels._refill(buf, scheme.b, r, scheme.p_b)
    *_, out = _recorded(buf, [nsteps], _half_step(scheme), r, p,
                        reads=(0, buf.size - 1))
    return out[:size]


# the most steps one kernel call takes: the kernel's window is the live top
# at entry plus r rows a step, and a narrowed view is the domain of
# dependence at the chunk's start, so a longer chunk sweeps more rows no
# read needs, and a shorter one makes more calls.  The optimum is
# flat: the four o3 sweeps of a default err-map and layers job took 139 /
# 134 / 151, 156 / 153 / 157 and 127 / 122 / 137 ms in all at 32 / 64 / 128
# steps in three runs of `benchmarks/bench_kernels.py` on a 2-core VM
_CHUNK = 64


def _recorded(buf, ns, step, r, p, reads, source=None):
    """Advance buf through the ascending times ns by step(view, nsteps), one
    kernel call on a view of buf's leading axis, yielding buf at each time,
    where the rows reads = (lo, hi) are exact.  This is the one place that
    sets how many steps a kernel call takes: at most _CHUNK, so that the
    kernel's window, fixed for a call, follows the live top and the view
    narrows as t grows.

    A row at time n depends on the rows at most r below and p above it per
    step back, so the rows exact at time t are those of the reads carried
    back from the last time, D(t) = [lo - r (ns[-1] - t), hi + p (ns[-1] - t)].
    A chunk of c steps ending at t runs on D(t) widened by an r (c + 1)-row
    bottom and a p (c + 1)-row top margin, which is D at the chunk's start
    widened by r rows down and p up.  Rows outside D at the chunk's start
    may be stale, and the kernel writes wrong values into the view's edges
    (zeros in its top p rows each step, ghosts or the zero rule in its
    bottom r rows); a wrong row spreads at most p rows down or r rows up
    per step, so after c steps it stays in the margins and D(t) is exact.
    A view clipped at the buffer's top, where the support never reaches,
    zeroes true zeros; on the whole line (source: the row of the unit
    source) the bottom rises to the support's lower edge source - p t - r,
    where the zero rule is exact, with no scan.

    The support's top is read once, as the highest row top0 of buf holding
    any bit at entry; it rises at most r rows a step.  So every view stops
    at top0 + r t + p for a chunk ending at t: the rows above that hold
    +0.0 at every step of the chunk (the kernel never writes them, and
    rows above a live top are +0.0), and the top p rows the kernel zeroes
    are true zeros.  A view of at most r + p rows, empty included, makes
    no kernel call: its rows above the r bottom ones lie above the
    support's top at t, and its bottom rows are margin, the zero rule's or
    (at the buffer's bottom) those of a buffer that is all zero, so every
    row D(t) holds there is already its exact zero.
    """
    size = buf.shape[0]
    # the highest row holding any bit at entry, -1 if none: a -0.0 counts,
    # so the kernel clears it to +0.0 as a call on the whole buffer did
    live = np.flatnonzero(buf.view(np.uint64))
    top0 = int(live[-1]) // (buf.size // size) if live.size else -1

    def view(t):
        # D at time t widened by the rows one step below and above it
        back = ns[-1] - t + 1
        return max(reads[0] - r * back, 0), min(reads[1] + p * back, size - 1)

    done = 0
    for n in ns:
        while done < n:
            lo, hi = view(done)
            c = min(_CHUNK, n - done)
            if source is not None:
                lo = max(lo, source - p * (done + c) - r)
            hi = min(hi, top0 + r * (done + c) + p)
            if hi - lo >= r + p:
                buf[lo:hi + 1] = step(buf[lo:hi + 1], c)
            done += c
        yield buf


def _half_step(scheme: SchemeDefinition):
    # the kernel is looked up at each call, where a tracer may wrap it
    return lambda u, k: _kernels.evolve_half(u, scheme.a, scheme.b, scheme.r,
                                             scheme.p, scheme.p_b, k)


def _check_times(ns) -> list:
    ns = _indices(ns, 0, "times").tolist()
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError("times must be ascending")
    return ns


def temporal_green_sweep(scheme: SchemeDefinition, ns, j0s, js) -> np.ndarray:
    """G(n, j0, j) at the cells j >= 1 - r of js, for every n of the
    ascending ns and every j0 >= 1 of j0s, as out[k, i, c] =
    G(ns[k], j0s[i], js[c]), from one sweep with a column per source over
    the rows those cells depend on.  Each value is bitwise that of the
    scalar per-cell loops run on the source's Dirac mass alone (the kernel
    notes in `_kernels`); at n = 0 it is the Dirac mass, with the ghosts
    the boundary rule gives it."""
    ns = _check_times(ns)
    j0s = _indices(j0s, 1, "sources")
    r, p = scheme.r, scheme.p
    rows = _indices(js, 1 - r, "cells") + r - 1
    buf = np.zeros((max(int(j0s.max()) + r * ns[-1] + p + r,
                        int(rows.max()) + 1), j0s.size))
    # a Dirac mass per column, its ghosts from the kernel's boundary rule
    buf[j0s + r - 1, np.arange(j0s.size)] = 1.0
    _kernels._refill(buf, scheme.b, r, scheme.p_b)
    snaps = _recorded(buf, ns, _half_step(scheme), r, p,
                      reads=(rows.min(), rows.max()))
    return np.array([snap[rows].T for snap in snaps])


def adjoint_scheme(scheme: SchemeDefinition) -> tuple:
    """The half-line scheme whose one-step operator is the transpose of
    scheme's on the interior j >= 1, and the relative residual of the solve
    that built it.

    Away from the boundary T^T is the stencil a'_k = a_{-k}, so r' = p and
    p' = r.  The ghost rule adds to rows 1..r of T the block

        C[jj, m] = sum_{k=-r}^{-jj} a_k b[-(jj+k), m-1],   m = 1..p_b,

    so T^T carries C^T in rows 1..p_b, columns 1..r.  The adjoint's ghosts
    u_{-i}, i = 0..p-1, read the first p_b' = r interior cells with weights
    b' chosen so that their block is C^T:

        sum_{i=0}^{p-m} a_{m+i} b'[i, jj-1] = C[jj, m],   m = 1..p,

    with C = 0 for m > p_b.  The system is anti-triangular with diagonal
    a_p != 0 and is solved from m = p down; a small |a_p| makes b' large
    and costs the adjoint's boundary block digits accordingly.  The
    residual max |sum_i a_{m+i} b'[i, .] - C[., m]| / max|a| of the solved
    system reports that loss: it is at roundoff (<= 1e-15) on the builtins.
    p_b' = r <= p' holds, so the adjoint is always a valid scheme.
    """
    r, p, a = scheme.r, scheme.p, scheme.a
    block = np.zeros((r, p))
    for jj in range(1, r + 1):
        for k in range(-r, -jj + 1):
            block[jj - 1, :scheme.p_b] += a[k + r] * scheme.b[-(jj + k)]
    bt = np.zeros((p, r))
    for m in range(p, 0, -1):
        # a[m + r:p + r] holds a_m .. a_{p-1}, the weights of bt[:p - m]
        bt[p - m] = (block[:, m - 1] - a[m + r:p + r] @ bt[:p - m]) / a[-1]
    residual = max(float(np.max(np.abs(a[m + r:] @ bt[:p - m + 1]
                                       - block[:, m - 1])))
                   for m in range(1, p + 1))
    adjoint = SchemeDefinition(r=p, p=r, a=a[::-1].copy(), p_b=r, b=bt,
                               lam=scheme.lam, v=-scheme.v,
                               name=f"{scheme.name}-adjoint")
    return adjoint, residual / float(np.max(np.abs(a)))


def temporal_green_rows(scheme: SchemeDefinition, ns, j0s, js) -> np.ndarray:
    """G(n, j0, j) laid out as `temporal_green_sweep`'s out[k, i, c], from
    one sweep of the adjoint scheme with a column per cell j: G(n, j0, j)
    is the j0 entry of (T^T)^n delta_j, so the cost grows with |js|, not
    with |j0s|.  Equal to `temporal_green_sweep` up to roundoff."""
    adjoint = adjoint_scheme(scheme)[0]
    return temporal_green_sweep(adjoint, ns, js, j0s).transpose(0, 2, 1)


def temporal_green_whole_sweep(scheme: SchemeDefinition, ns, js) -> np.ndarray:
    """Gt(n, j) at the cells j of js for every n of the ascending ns, as
    out[k, c] = Gt(ns[k], js[c]), from one sweep over the rows those cells
    depend on; each value is bitwise that of the scalar per-cell loops run
    on the unit source alone."""
    ns = _check_times(ns)
    js = _indices(js, -math.inf, "cells")
    r, p = scheme.r, scheme.p
    lo = min(-p * ns[-1] - r, int(js.min()))
    buf = np.zeros(max(r * ns[-1] + p, int(js.max())) - lo + 1)
    buf[-lo] = 1.0
    rows = js - lo
    snaps = _recorded(buf, ns, lambda u, k: _kernels.evolve_whole(
        u, scheme.a, r, p, k), r, p, reads=(rows.min(), rows.max()),
        source=-lo)
    return np.array([snap[rows] for snap in snaps])


# the row maxima _exact_sums splits; other rows go to fsum
_SPLIT_MIN, _SPLIT_MAX = 2.0 ** -900, 2.0 ** 900


def _exact_sums(x: np.ndarray) -> list:
    """math.fsum(row.tolist()) for each row of x, a 2-D array of
    nonnegative doubles, as Python floats, from a few vectorized passes.

    With M < 2^e the row's max and sigma = 2^(e + ceil(log2 n) + 1) for
    rows of n doubles, hi = (x + sigma) - sigma and lo = x - hi are exact
    (Rump, Ogita and Oishi's ExtractScalar).  Every hi is a multiple of
    u = ulp(sigma) and their sum is below sigma, so T = sum hi is exact in
    any order; R = sum lo is within E = n^2 u 2^-53 >= gamma_{n-1} n u / 2
    of its exact value.  TwoSum splits T + R into D + delta exactly, and D
    is the correctly rounded sum, fsum's value, when |delta| + E is below
    half the gap from D to its nearer neighbour: a rounded sum is below
    that power of two only when the exact one is, and the test is strict,
    so a tie fails it.  A row that fails it, or whose M is zero, not
    finite, below 2^-900 or above 2^900 (sigma near overflow), and every
    row of more than 2^26 doubles (where n^2 is no longer exact) goes to
    fsum, which keeps fsum's inf, nan and OverflowError."""
    k, n = x.shape
    tops = x.max(axis=1).tolist()
    out = [None] * k
    rows = [i for i, m in enumerate(tops) if _SPLIT_MIN <= m <= _SPLIT_MAX]
    if rows and n <= 2 ** 26:
        grow = (n - 1).bit_length() + 1
        es = [math.frexp(tops[i])[1] + grow for i in rows]
        y = x if len(rows) == k else x[rows]
        sigma = np.array([math.ldexp(1.0, e) for e in es])[:, None]
        # the high parts and their exact sums, then the low parts in place
        part = y + sigma
        part -= sigma
        highs = part.sum(axis=1).tolist()
        np.subtract(y, part, part)
        for i, e, t, s in zip(rows, es, highs, part.sum(axis=1).tolist()):
            d = t + s
            bp = d - t
            delta = abs((t - (d - bp)) + (s - bp))
            half = min(d - math.nextafter(d, 0.0),
                       math.nextafter(d, math.inf) - d) * 0.5
            if delta + math.ldexp(float(n * n), e - 105) < half:
                out[i] = d
    return [math.fsum(x[i].tolist()) if v is None else v
            for i, v in enumerate(out)]


def _row_norms(block: np.ndarray, q: float) -> list:
    """The l^q norm of each row of block, a 2-D array of |u|: the row max
    for q = inf, else the exactly rounded sum of |u|^q, then the root, as
    Python floats."""
    if q == math.inf:
        return block.max(axis=1).tolist()
    return [s ** (1.0 / q) for s in _exact_sums(block ** q)]


@dataclass(frozen=True)
class GrowthResult:
    """Operator-norm lower bounds ||T^n u_J|| / ||u_J|| on a (J, n) grid."""

    q: float
    ns: np.ndarray
    ratios: dict
    max_ratio: np.ndarray

    @property
    def columns(self):
        """The (J, n, ratio) table as three arrays, J-major then
        n-ascending."""
        Js = sorted(self.ratios)
        return (np.repeat(Js, self.ns.size), np.tile(self.ns, len(Js)),
                np.concatenate([self.ratios[J] for J in Js]))


def growth_experiment(scheme: SchemeDefinition, q_list, J_list,
                      n_max: int, record=None) -> list:
    """Evolve u_J = sum_{j0=1}^{J} delta_{j0} and record the norm ratios,
    one GrowthResult per exponent of q_list.

    All distinct J evolve in one sweep (a column each, a repeated J
    steps once) and every exponent reads the same snapshots: per snapshot,
    one block of |u| with a row per J, whose row max is the q = inf norm
    and whose exact row sums of |u|^q (`_exact_sums`) give the finite ones.
    The ratios lower-bound the operator norm of T^n on the j >= 1 space;
    they are never claimed as the exact norm.
    """
    n_max, = _indices([n_max], 1, "time horizons").tolist()
    Js = list(dict.fromkeys(_indices(J_list, 1, "J sizes").tolist()))
    qs = [float(q) for q in q_list]
    if not qs or not all(q >= 1 for q in qs):
        raise ValueError("need at least one norm exponent, each q >= 1")
    ns = np.arange(1, n_max + 1) if record is None else \
        np.asarray(sorted(set(_indices(record, 1, "recording times")
                              .tolist())), dtype=int)
    if ns[-1] > n_max:
        raise ValueError("recording times must lie in 1..n_max")
    r, J_top = scheme.r, max(Js)
    buf = np.zeros((J_top + r * n_max + scheme.p + r, len(Js)))
    for c, J in enumerate(Js):
        buf[r:r + J, c] = 1.0
    # ||u_J||_q = fsum of J ones, then the root
    denoms = [[1.0 if q == math.inf else float(J) ** (1.0 / q) for J in Js]
              for q in qs]
    vals = np.empty((len(qs), len(Js), ns.size))
    snaps = _recorded(buf, ns.tolist(), _half_step(scheme), r, scheme.p,
                      reads=(0, buf.shape[0] - 1))
    for pos, (n, snap) in enumerate(zip(ns.tolist(), snaps)):
        # a row per J over the interior up to the widest support; the rows
        # past a column's own support hold +0.0, which changes neither the
        # sup nor the exact sum
        block = np.abs(snap[r:r + J_top + r * n].T, order="C")
        for a, q in enumerate(qs):
            vals[a, :, pos] = [v / d for v, d in
                               zip(_row_norms(block, q), denoms[a])]
    results = []
    for a, q in enumerate(qs):
        ratios = {J: vals[a, c] for c, J in enumerate(Js)}
        max_ratio = np.max(np.stack([ratios[J] for J in Js]), axis=0)
        results.append(GrowthResult(q=q, ns=ns, ratios=ratios,
                                    max_ratio=max_ratio))
    return results


def loglog_slope(ns, vals, n_lo: int, n_hi: int) -> float:
    """Least-squares slope of log(vals) against log(ns) on [n_lo, n_hi]."""
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    mask = (ns >= n_lo) & (ns <= n_hi) & (vals > 0)
    if np.count_nonzero(mask) < 2:
        raise ValueError("need at least two positive samples in the fit window")
    x = np.log(ns[mask])
    y = np.log(vals[mask])
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0])
