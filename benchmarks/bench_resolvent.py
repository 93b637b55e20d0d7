"""Timing of the resolvent evaluations.

Ring table: the two routes to the half-line values of a contour table, the
residue sums over the characteristic roots (what `inverse_laplace_table`
runs) against the core-plus-tail solve from the stable roots (its route for
nodes whose residue sums the rounding bound refuses, here run on every node
as an independent check).  Each case is one default oracle ring: the
default lfr or o3 scheme, r0 from the default r0 list, and the upper
half-ring of the size the n_max = 50 table settles at, on the default j0
and j grids.  The root route is split into its two
layers: the batched root solve with the Lopatinskii guard (`_guard_ring`)
and the residue sums with the coefficient solve (`_root_values`).  The
last column is the largest distance between the two routes over the ring,
in units of max |G|.

Pointwise table: best-of-five wall time of one call of each public
evaluator, including the double unstable root z* of the o3 scheme, where
the whole line sums the root pair on a circle and the half line takes the
core solve, and two lfr nodes near z = 1 where a stable and an unstable
root nearly collide across the unit circle.  It uses only the public
functions, so it also runs against an older checkout, and prints the
error class of a call that raises:

    PYTHONPATH=<checkout>/src python3 -c \
        "import bench_resolvent as b; b.pointwise()"   (from benchmarks/)

Run:  python3 benchmarks/bench_resolvent.py
"""

import math
import time

import numpy as np

from halflab import resolvent
from halflab.cli import _load_scheme

J0S = np.array([1, 5, 10, 20, 30])
JS = np.array([1, 3, 7, 15, 30])
N_MAX = 50
R0S = (0.02, 0.05, 0.2)
# P(kappa; z*) of the default o3 scheme has a double root at 4.5244...
Z_STAR = 1.814273803656083
# near z = 1 on lfr(alpha, 0.5, 0) with alpha = -0.005 or -0.002, a stable
# and an unstable root lie 0.02 or 0.015 apart across the unit circle
Z_CROSS = math.exp(1e-5)


def _best_of(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def rings():
    rows = []
    for name in ("lfr", "o3"):
        scheme = _load_scheme({"scheme": {"builtin": name}})
        for r0 in R0S:
            N = resolvent.inverse_laplace_table(scheme, N_MAX, J0S, JS,
                                                r0=r0).nodes
            zs = resolvent._ring(r0, N)[:N // 2 + 1]
            t_guard, nodes = _best_of(
                lambda: resolvent._guard_ring(scheme, zs))
            t_sums, (G, *_) = _best_of(lambda: resolvent._root_values(
                scheme, zs, nodes.roots, J0S, JS))
            t_core, G_core = _best_of(lambda: resolvent._core_solve(
                scheme, zs, nodes.kappas, J0S, JS))
            diff = float(np.max(np.abs(G - G_core)) / np.max(np.abs(G)))
            rows.append((f"{name} r0={r0} N={N}", zs.size, t_guard, t_sums,
                         t_core, diff))

    header = (f"{'case':22s} {'nodes':>6s} {'guard ms':>9s} {'sums ms':>8s}"
              f" {'roots kn/s':>11s} {'core ms':>8s} {'core kn/s':>10s}"
              f" {'speedup':>8s} {'max diff':>9s}")
    print(header)
    print("-" * len(header))
    for label, n, t_guard, t_sums, t_core, diff in rows:
        t_root = t_guard + t_sums
        print(f"{label:22s} {n:6d} {t_guard * 1e3:9.2f} {t_sums * 1e3:8.2f}"
              f" {n / t_root / 1e3:11.1f} {t_core * 1e3:8.2f}"
              f" {n / t_core / 1e3:10.1f} {t_core / t_root:7.1f}x"
              f" {diff:9.1e}")


def pointwise():
    lfr, o3 = (_load_scheme({"scheme": {"builtin": name}})
               for name in ("lfr", "o3"))
    cross = {alpha: _load_scheme({"scheme": {"builtin": "lfr", "alpha": alpha,
                                             "D": 0.5, "b": 0.0}})
             for alpha in (-0.005, -0.002)}
    cases = [
        ("spatial_green_whole lfr z=2 |j|<=40",
         lambda: resolvent.spatial_green_whole(lfr, 2.0, 40)),
        ("spatial_green_whole o3 z=2 |j|<=40",
         lambda: resolvent.spatial_green_whole(o3, 2.0, 40)),
        ("spatial_green_half o3 z=2 j0=5",
         lambda: resolvent.spatial_green_half(o3, 2.0, 5)),
        ("r_function o3 z=1.001 j0=50 j<=12",
         lambda: resolvent.r_function(o3, 1.001, 50, np.arange(1, 13))),
        ("whole-line reconstruct o3 n=6 j=-2",
         lambda: resolvent.inverse_laplace_reconstruct(o3, 6, 1, -2,
                                                       whole_line=True)),
        ("z* spatial_green_whole |j|<=40",
         lambda: resolvent.spatial_green_whole(o3, Z_STAR, 40)),
        ("z* spatial_green_half j0=5",
         lambda: resolvent.spatial_green_half(o3, Z_STAR, 5)),
        ("z* table ring n<=10",
         lambda: resolvent.inverse_laplace_table(o3, 10, [1, 4], [2, 6],
                                                 r0=math.log(Z_STAR))),
        ("cross-split half lfr a=-0.005 j0=1",
         lambda: resolvent.spatial_green_half(cross[-0.005], Z_CROSS, 1)),
        ("cross-split half lfr a=-0.002 j0=1",
         lambda: resolvent.spatial_green_half(cross[-0.002], Z_CROSS, 1)),
    ]
    header = f"{'call':38s} {'ms':>8s}"
    print(header)
    print("-" * len(header))
    for label, fn in cases:
        try:
            fn()    # warm-up: an older checkout loads scipy here
        except (resolvent.NearSpectrumError, resolvent.QuadratureError) as exc:
            print(f"{label:38s} {type(exc).__name__:>8s}")
            continue
        print(f"{label:38s} {_best_of(fn, 5)[0] * 1e3:8.3f}")


if __name__ == "__main__":
    rings()
    print()
    pointwise()
