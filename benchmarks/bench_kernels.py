"""Timings of the evolution kernel (`halflab._kernels.evolve_*`).

Cell updates count the cells the kernel computes: each step updates the
rows of its live window (see `halflab._kernels`) in every column.  The
last two cases are the two routes to the err-map rows G(n, ., 1) of o3:
the forward sweep with one column per source j0, and one column of the
transposed scheme (`halflab.evolution.adjoint_scheme`) from delta_1, which
is what err-map runs.

Run:  python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from halflab._kernels import evolve_half, evolve_whole
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
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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
            fn = lambda: evolve_half(u0, a, b, r, p, p_b, steps)
        else:
            fn = lambda: evolve_whole(u0, a, r, p, steps)
        rows.append((label, _best_of(fn), _cell_updates(u0, r, p, steps)))

    header = f"{'case':28s} {'ms':>9s} {'Mcells':>8s} {'Mc/s':>8s}"
    print(header)
    print("-" * len(header))
    for label, t, cells in rows:
        mc = cells / 1e6
        print(f"{label:28s} {t * 1e3:9.2f} {mc:8.2f} {mc / t:8.1f}")


if __name__ == "__main__":
    main()
