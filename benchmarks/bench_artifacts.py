"""Timings of the artifact writers `halflab.cli._csv`,
`halflab.svg.line_chart` and `halflab.svg.heatmap` on the table shapes the
seed-7 benchmark jobs write:

- oracle.csv: 3825 rows x 7 (r0, n, j0, j and three floats), the default
  oracle job's 3 r0 x 5 j0 x 51 n x 5 j table;
- check_symbol.csv: 720 rows x 4 floats, and its 720-point linear chart;
- growth: 928 rows x 3 (J, n, ratio), 8 J x 116 recorded times, and its
  8-series log-log chart;
- err_map.svg: the heatmap of 4 n x 21 j0 scaled errors, with its
  64-cell colour bar legend.

The data are synthetic, drawn from a seeded generator with the dtypes and
magnitudes of the real tables; each line is the best of k calls writing
into a temporary directory.

Run:  PYTHONPATH=src python3 benchmarks/bench_artifacts.py [--repeats K]
"""

import argparse
import math
import os
import tempfile
import time

import numpy as np

from halflab import cli, svg
from halflab.scheme import builtin_lfr, symbol_eval


def _best_of(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def oracle_columns(rng):
    r0s, j0s, js, ns = [0.02, 0.05, 0.2], [1, 5, 10, 20, 30], \
        [1, 3, 7, 15, 30], np.arange(51)
    shape = (len(j0s), ns.size, len(js))
    ts = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 0, shape)
    recon = ts + rng.standard_normal((len(r0s),) + shape) * 1e-13
    i0, n, i = np.indices(shape).reshape(3, -1)
    k = len(r0s)
    return (np.repeat(r0s, ts.size), np.tile(n, k),
            np.tile(np.take(j0s, i0), k), np.tile(np.take(js, i), k),
            recon.ravel(), np.tile(ts.ravel(), k),
            np.abs(recon - ts).ravel())


def symbol_columns():
    t = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    f = symbol_eval(builtin_lfr(-0.5, 0.75, 5.0), np.exp(1j * t))
    return t, f.real, f.imag, np.abs(f)


def growth_columns(rng):
    ns = np.array(sorted(set(np.geomspace(1, 2000, 160).astype(int).tolist())
                         | {2000}))
    Js = [125, 250, 375, 500, 625, 750, 875, 1000]
    ratios = [np.sqrt(ns) * (1.0 + 0.01 * rng.standard_normal(ns.size))
              for _ in Js]
    return ns, Js, ratios


def err_map_values(rng):
    """j0 values, n values and the (n, j0) grid of scaled errors, spread
    over the 1e-16..1 of the default err-map jobs."""
    return (np.linspace(50.0, 1000.0, 21), np.array([250.0, 500.0, 1000.0,
                                                      2000.0]),
            10.0 ** rng.uniform(-16.0, 0.0, (4, 21)))


def rows(repeats, out_dir):
    """(label, table shape, best seconds) per timed call."""
    rng = np.random.default_rng(7)
    oracle = oracle_columns(rng)
    symbol = symbol_columns()
    ns, Js, ratios = growth_columns(rng)
    j0s, err_ns, heat = err_map_values(rng)
    growth = (np.repeat(Js, ns.size), np.tile(ns, len(Js)),
              np.concatenate(ratios))
    svg_path = os.path.join(out_dir, "chart.svg")
    cases = [
        ("csv oracle", "3825 x 7", lambda: cli._csv(
            out_dir, "oracle.csv", ("r0", "n", "j0", "j", "reconstructed",
                                    "time_stepped", "abs_err"), oracle)),
        ("csv check_symbol", "720 x 4", lambda: cli._csv(
            out_dir, "check_symbol.csv", ("t", "re_f", "im_f", "abs_f"),
            symbol)),
        ("csv growth", "928 x 3", lambda: cli._csv(
            out_dir, "growth.csv", ("J", "n", "ratio"), growth)),
        ("svg check_symbol", "1 x 720 pts", lambda: svg.line_chart(
            svg_path, [("abs F", symbol[0], symbol[3])])),
        ("svg growth log-log", "8 x 116 pts", lambda: svg.line_chart(
            svg_path, [(f"J={J}", ns, v) for J, v in zip(Js, ratios)],
            logx=True, logy=True)),
        ("svg err_map heatmap", "4 x 21 cells", lambda: svg.heatmap(
            svg_path, j0s, err_ns, heat, title="n^{1/2mu} sup_j |Err|",
            xlabel="j0", ylabel="n")),
    ]
    return [(label, shape, _best_of(fn, repeats))
            for label, shape, fn in cases]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="calls per case; the best is printed")
    args = parser.parse_args(argv)
    header = f"{'writer':20s} {'shape':>12s} {'best ms':>9s}"
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as tmp:
        for label, shape, t in rows(args.repeats, tmp):
            print(f"{label:20s} {shape:>12s} {t * 1e3:9.3f}")


if __name__ == "__main__":
    main()
