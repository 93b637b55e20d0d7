"""Timings of the evolution kernel (`halflab._kernels.evolve_*`).

Every case runs in kernel calls of at most `evolution._CHUNK` steps, as
`halflab.evolution._recorded` makes them in the jobs.  Cell updates count
the cells the kernel computes: each step updates the rows of its call's
window (see `halflab._kernels`) in every column.  Each time is also given
per kernel step (us/st), which shows the per-step overhead of the narrow
1-D sweeps.  The fifth and sixth cases are the two routes to the err-map
rows G(n, ., 1) of o3: the forward sweep with one column per source j0,
and one column of the transposed scheme (`halflab.evolution.adjoint_scheme`)
from delta_1, which is what err-map runs.  The last two rows replay the
kernel calls of the default growth jobs on lfr and o3 (one column per
J = 125, 250, 500, 1000; the 116 distinct times of a 160-point log grid
up to n = 2000, as `halflab.cli` records them) through
`halflab.evolution._recorded`.  The last column counts the cells in
(0, tiny) of the final buffer, tiny = 2^-1022: the kernel flushes
underflowed cells to +0.0, so it reads 0.

The second table replays the four o3 sweeps of a default err-map and
layers job through `halflab.evolution._recorded`: whole, reading the whole
buffer (each view still stops p rows above the support's top), and
windowed, on the rows the read cells depend on, which is what the jobs
run; both chunk by chunk.  It prints the time, time per step and cell
updates of each route, the windowed one at several chunk lengths
(`evolution._CHUNK`, 64 in the jobs).

The third table times the q = inf and q = 2 norms of the default growth
jobs on lfr and o3 on the snapshots of one replay: one math.fsum per
column over its nonzero span, as growth took them before, against one
block of |u| with a row per J, its row max and `evolution._exact_sums`,
as `growth_experiment` takes them.  Each route's time is summed over the
116 records (best of 3), with its time per record and whether the two
routes agree bitwise.

Run:  python3 benchmarks/bench_kernels.py
"""

import inspect
import math
import time

import numpy as np

from halflab import _kernels, cli, evolution
from halflab.evolution import (adjoint_scheme, growth_experiment,
                               temporal_green_rows, temporal_green_sweep,
                               temporal_green_whole_sweep)
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


def _subnormal_cells(u):
    tiny = np.finfo(float).tiny
    return int(np.count_nonzero((u != 0.0) & (np.abs(u) < tiny)))


def _cell_updates(u0, r, p, steps):
    # rows r .. min(hi + r steps, N - p - 1) at every step of one call, in
    # every column
    N = u0.shape[0]
    m = u0.size // N
    live = np.flatnonzero(u0.reshape(N, m).any(axis=1))
    hi = int(live[-1]) if live.size else -1
    top = min(hi + r * steps, N - p - 1)
    return max(top - r + 1, 0) * steps * m


def _in_chunks(kernel, u0, *args):
    """kernel(u0, *args), its last argument the step count, run as calls of
    at most `evolution._CHUNK` steps; kernel is a name of `_kernels`, looked
    up at each call, where `_counted` may wrap it."""
    *args, steps = args
    u = u0
    for done in range(0, steps, evolution._CHUNK):
        u = getattr(_kernels, kernel)(u, *args,
                                      min(evolution._CHUNK, steps - done))
    return u


# the default err-map grid (with the o3 activation fronts) and layers job
ERRMAP_NS = (250, 500, 1000, 2000)
ERRMAP_J0S = sorted(set(range(50, 1001, 50)) | {125, 250, 500, 1000})
LAYERS_NS, LAYERS_J0, LAYERS_JS = (500, 1000), 50, np.arange(1, 26)

SWEEPS = [
    ("o3 err-map half (adjoint)",
     lambda: temporal_green_rows(O3, ERRMAP_NS, ERRMAP_J0S, [1])),
    ("o3 err-map whole",
     lambda: temporal_green_whole_sweep(O3, ERRMAP_NS,
                                        np.arange(1 - 1000, 1 - 50 + 1))),
    ("o3 layers half",
     lambda: temporal_green_sweep(O3, LAYERS_NS, [LAYERS_J0], LAYERS_JS)),
    ("o3 layers whole",
     lambda: temporal_green_whole_sweep(O3, LAYERS_NS,
                                        LAYERS_JS - LAYERS_J0)),
]


def _recorded_calls(sweep):
    """The arguments of every `_recorded` call sweep() makes, by name as
    `_recorded`'s signature binds them, its buffer copied before the run."""
    seen, orig = [], evolution._recorded
    sig = inspect.signature(orig)

    def capture(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        seen.append({**call.arguments, "buf": call.arguments["buf"].copy()})
        return orig(*args, **kwargs)
    evolution._recorded = capture
    try:
        sweep()
    finally:
        evolution._recorded = orig
    return seen


def _replay(call, **change):
    """The snapshots of a captured `_recorded` call on a fresh copy of its
    buffer, with the arguments in change replaced."""
    return evolution._recorded(**{**call, "buf": call["buf"].copy(),
                                  **change})


def _counted(run):
    """run()'s kernel cell updates, from the window rule of each call, and
    its kernel steps."""
    cells, steps = [0], [0]
    origs = _kernels.evolve_half, _kernels.evolve_whole

    def counting(kernel):
        def call(u0, *args):
            r, p = args[-4:-2] if kernel is origs[0] else args[-3:-1]
            cells[0] += _cell_updates(u0, r, p, args[-1])
            steps[0] += args[-1]
            return kernel(u0, *args)
        return call
    _kernels.evolve_half, _kernels.evolve_whole = map(counting, origs)
    try:
        run()
    finally:
        _kernels.evolve_half, _kernels.evolve_whole = origs
    return cells[0], steps[0]


# the default growth job: its J grid and recorded times
GROWTH_JS, GROWTH_N = [125, 250, 500, 1000], 2000
GROWTH_RECORD = sorted(set(np.geomspace(1, GROWTH_N, 160).astype(int)
                           .tolist()) | {GROWTH_N})


def _growth_call(name):
    """The `_recorded` call of the default growth job on the builtin name,
    and the scheme."""
    sch = cli._load_scheme({"scheme": {"builtin": name}})
    call, = _recorded_calls(
        lambda: growth_experiment(sch, [np.inf], GROWTH_JS, GROWTH_N,
                                  record=GROWTH_RECORD))
    return call, sch


def _growth_sweep(name):
    """The kernel calls of the default growth job on the builtin name, as
    a callable returning the final buffer."""
    call, _ = _growth_call(name)

    def run():
        for snap in _replay(call):
            pass
        return snap
    return run


def _column_norms(snap, r, n, q):
    # one fsum per column over its nonzero span, as growth took them
    # before the block sums
    out = []
    for c, J in enumerate(GROWTH_JS):
        col = snap[r:r + J + r * n, c]
        nz = np.flatnonzero(col)
        col = np.abs(col[nz[0]:nz[-1] + 1] if nz.size else col[:0])
        out.append(math.fsum((col ** q).tolist()) ** (1.0 / q)
                   if q != math.inf else
                   float(np.max(col)) if col.size else 0.0)
    return out


def _block_norms(snap, r, n, q):
    # one block of |u| with a row per J, as growth_experiment takes it
    block = np.abs(snap[r:r + max(GROWTH_JS) + r * n].T, order="C")
    return evolution._row_norms(block, q)


def growth_norm_rows(repeats=3):
    """(label, per-column fsum s, block sum s, records, bitwise?) for the
    q = inf and q = 2 norms of the default growth job on lfr and o3: both
    routes timed on the same snapshots, summed over the records."""
    rows = []
    for name in ("lfr", "o3"):
        call, sch = _growth_call(name)
        r, ns = sch.r, call["ns"]
        best, same = [np.inf, np.inf], True
        for _ in range(repeats):
            spent = [0.0, 0.0]
            for n, snap in zip(ns, _replay(call)):
                outs = []
                for k, route in enumerate((_column_norms, _block_norms)):
                    t0 = time.perf_counter()
                    outs.append([route(snap, r, n, q) for q in (math.inf, 2)])
                    spent[k] += time.perf_counter() - t0
                same &= np.array(outs[0]).tobytes() == \
                    np.array(outs[1]).tobytes()
            best = [min(b, t) for b, t in zip(best, spent)]
        rows.append((f"growth norms {name}", *best, len(ns), same))
    return rows


CHUNKS = (32, 64, 128)


def _chunked(run, chunk):
    def go():
        orig, evolution._CHUNK = evolution._CHUNK, chunk
        try:
            run()
        finally:
            evolution._CHUNK = orig
    return go


def sweep_rows():
    """(label, whole s, cells and steps, then windowed s, cells and steps at
    each chunk length of CHUNKS)."""
    out = []
    for label, sweep in SWEEPS:
        call, = _recorded_calls(sweep)
        whole = (0, len(call["buf"]) - 1)
        routes = [lambda: list(_replay(call, reads=whole, source=None))]
        routes += [_chunked(lambda: list(_replay(call)), c) for c in CHUNKS]
        out.append((label, *[(_best_of(run), *_counted(run))
                             for run in routes]))
    return out


def case_rows():
    """(label, s, cells, steps, subnormal cells at the end) for each of
    CASES, then for the default growth sweeps."""
    rows = []
    for label, sch, half, N, m, steps, src in CASES:
        a, b, r, p, p_b = sch.a, sch.b, sch.r, sch.p, sch.p_b
        u0 = _sources(N, m, src)
        if half:
            fn = lambda: _in_chunks("evolve_half", u0, a, b, r, p, p_b, steps)
        else:
            fn = lambda: _in_chunks("evolve_whole", u0, a, r, p, steps)
        rows.append((label, _best_of(fn), *_counted(fn),
                     _subnormal_cells(fn())))
    for name in ("lfr", "o3"):
        run = _growth_sweep(name)
        rows.append((f"growth {name} m=4 n={GROWTH_N}", _best_of(run),
                     *_counted(run), _subnormal_cells(run())))
    return rows


def main():
    header = (f"{'case':28s} {'ms':>9s} {'us/st':>7s} {'Mcells':>8s} "
              f"{'Mc/s':>8s} {'subnormal':>9s}")
    print(header)
    print("-" * len(header))
    for label, t, cells, steps, sub in case_rows():
        mc = cells / 1e6
        print(f"{label:28s} {t * 1e3:9.2f} {t / steps * 1e6:7.2f} "
              f"{mc:8.2f} {mc / t:8.1f} {sub:9d}")

    print()
    header = (f"{'sweep':28s} {'whole ms':>9s} {'us/st':>7s} {'Mcells':>8s}"
              + "".join(f" {f'c={c} ms':>9s} {'us/st':>7s} {'Mcells':>8s}"
                        for c in CHUNKS))
    print(header)
    print("-" * len(header))
    for label, *routes in sweep_rows():
        print(f"{label:28s}" + "".join(
            f" {t * 1e3:9.2f} {t / steps * 1e6:7.2f} {cells / 1e6:8.2f}"
            for t, cells, steps in routes))

    print()
    header = (f"{'norms':28s} {'fsum ms':>9s} {'us/rec':>7s} {'block ms':>9s}"
              f" {'us/rec':>7s} {'bitwise':>8s}")
    print(header)
    print("-" * len(header))
    for label, column, block, records, same in growth_norm_rows():
        print(f"{label:28s} {column * 1e3:9.2f} {column / records * 1e6:7.1f}"
              f" {block * 1e3:9.2f} {block / records * 1e6:7.1f}"
              f" {'yes' if same else 'NO':>8s}")


if __name__ == "__main__":
    main()
