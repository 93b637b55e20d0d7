"""Timing comparison of the jitted evolution kernel against the numpy
fallback.  The two paths are bitwise-identical by construction, so the only
question is speed.

Cell updates count the cells the kernel computes: each step updates the
rows of its live window (see `halflab._kernels`) in every column.  The
last two cases are the two routes to the err-map rows G(n, ., 1) of o3:
the forward sweep with one column per source j0, and one column of the
transposed scheme (`halflab.evolution.adjoint_scheme`) from delta_1, which
is what err-map runs.

Run:  python3 benchmarks/bench_kernels.py
Env:  HALFLAB_DISABLE_NUMBA=1 skips the jit column entirely.
"""

import time

import numpy as np

from halflab._kernels import (
    HAVE_NUMBA,
    evolve_half,
    evolve_half_numpy,
    evolve_whole,
    evolve_whole_numpy,
)
from halflab.evolution import adjoint_scheme
from halflab.scheme import SchemeDefinition

LFR = SchemeDefinition(r=1, p=1, a=[0.125, 0.25, 0.625], p_b=1, b=[[5.0]])
O3 = SchemeDefinition(r=1, p=2, a=[-1.0 / 16, 9.0 / 16, 9.0 / 16, -1.0 / 16],
                      p_b=2, b=[[1.2, -0.2]])
O3_T, _ = adjoint_scheme(O3)

CASES = [
    # (label, scheme, half line?, buffer N, columns, steps, source row);
    # source row None: a lone column at N/4, a batch over rows 50..1000
    ("half r1p1 N=4k n=500", LFR, True, 4_000, 1, 500, None),
    ("half r1p2 N=4k n=500", O3, True, 4_000, 1, 500, None),
    ("half r1p1 N=20k n=2000", LFR, True, 20_000, 1, 2_000, None),
    ("whole r1p2 N=20k n=2000", O3, False, 20_000, 1, 2_000, None),
    ("half o3 N=3k m=24 n=2000", O3, True, 3_000, 24, 2_000, None),
    # the row of delta_1 (j = 1) in the adjoint's buffer is r' = 2; the
    # buffer is the one temporal_green_rows sizes for n = 2000
    ("half o3^T N=4k m=1 n=2000", O3_T, True, 4_004, 1, 2_000, O3_T.r),
]


def _best_of(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _sources(N, m, row=None):
    # one unit source per column; a lone column sits at the given row (N/4
    # by default), a batch spreads over rows 50..1000 like the forward
    # err-map j0 grid
    u0 = np.zeros((N, m))
    row = N // 4 if row is None else row
    rows = [row] if m == 1 else np.linspace(50, 1000, m).astype(int)
    u0[rows, np.arange(m)] = 1.0
    return u0[:, 0] if m == 1 else u0


def _cell_updates(u0, r, p, steps):
    # rows r .. min(hi + r s, N - p - 1) at step s, in every column
    N = u0.shape[0]
    m = u0.size // N
    hi = int(np.flatnonzero(u0.reshape(N, m).any(axis=1))[-1])
    tops = np.minimum(hi + r * np.arange(1, steps + 1), N - p - 1)
    return int(np.maximum(tops - r + 1, 0).sum()) * m


def main():
    rows = []
    for label, sch, half, N, m, steps, src in CASES:
        a, b, r, p, p_b = sch.a, sch.b, sch.r, sch.p, sch.p_b
        u0 = _sources(N, m, src)
        if half:
            np_fn = lambda: evolve_half_numpy(u0, a, b, r, p, p_b, steps)
            jit_fn = lambda: evolve_half(u0, a, b, r, p, p_b, steps)
        else:
            np_fn = lambda: evolve_whole_numpy(u0, a, r, p, steps)
            jit_fn = lambda: evolve_whole(u0, a, r, p, steps)
        cells = _cell_updates(u0, r, p, steps)
        t_np, out_np = _best_of(np_fn)
        if HAVE_NUMBA:
            jit_fn()  # compile outside the timed region
            t_jit, out_jit = _best_of(jit_fn)
            same = np.array_equal(out_np, out_jit)
            rows.append((label, t_jit, t_np, cells, same))
        else:
            rows.append((label, None, t_np, cells, True))

    header = (f"{'case':28s} {'jit ms':>9s} {'numpy ms':>9s} {'speedup':>8s}"
              f" {'Mcells':>8s} {'jit Mc/s':>9s} {'np Mc/s':>8s} {'bitwise':>8s}")
    print("numba active" if HAVE_NUMBA else
          "numba disabled (HALFLAB_DISABLE_NUMBA or not installed)")
    print(header)
    print("-" * len(header))
    for label, t_jit, t_np, cells, same in rows:
        mc = cells / 1e6
        jit_s = f"{t_jit * 1e3:9.2f}" if t_jit is not None else "        -"
        spd_s = f"{t_np / t_jit:7.1f}x" if t_jit is not None else "       -"
        jit_r = f"{mc / t_jit:9.1f}" if t_jit is not None else "        -"
        print(f"{label:28s} {jit_s} {t_np * 1e3:9.2f} {spd_s} {mc:8.2f}"
              f" {jit_r} {mc / t_np:8.1f} {'yes' if same else 'NO':>8s}")


if __name__ == "__main__":
    main()
