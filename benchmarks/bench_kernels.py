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
J = 125, 250, 500, 1000; 160 recorded times up to n = 2000, as
`halflab.cli` records them) through `halflab.evolution._recorded`.  The
last column counts the cells in (0, tiny) of the final buffer,
tiny = 2^-1022: the kernel flushes underflowed cells to +0.0, so it reads
0.

The second table replays the four o3 sweeps of a default err-map and
layers job through `halflab.evolution._recorded`: whole, on the whole
buffer, and windowed, on the rows the read cells depend on, which is what
the jobs run; both chunk by chunk.  It prints the time, time per step and
cell updates of each route, the windowed one at several chunk lengths
(`evolution._CHUNK`, 64 in the jobs).

Run:  python3 benchmarks/bench_kernels.py
"""

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
    """The arguments of every `_recorded` call sweep() makes, its buffer
    copied before the run."""
    seen, orig = [], evolution._recorded

    def capture(buf, ns, step, r, p, reads, source=None):
        seen.append((buf.copy(), ns, step, r, p, reads, source))
        return orig(buf, ns, step, r, p, reads, source)
    evolution._recorded = capture
    try:
        sweep()
    finally:
        evolution._recorded = orig
    return seen


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


def _growth_sweep(name):
    """The kernel calls of the default growth job on the builtin name, as
    a callable returning the final buffer."""
    sch = cli._load_scheme({"scheme": {"builtin": name}})
    (buf, ns, step, r, p, reads, _), = _recorded_calls(
        lambda: growth_experiment(sch, [np.inf], GROWTH_JS, GROWTH_N,
                                  record=GROWTH_RECORD))

    def run():
        for snap in evolution._recorded(buf.copy(), ns, step, r, p, reads):
            pass
        return snap
    return run


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
        (buf, ns, step, r, p, reads, source), = _recorded_calls(sweep)
        whole = (0, len(buf) - 1)
        routes = [lambda: list(evolution._recorded(buf.copy(), ns, step,
                                                   r, p, whole))]
        routes += [_chunked(lambda: list(evolution._recorded(
            buf.copy(), ns, step, r, p, reads, source)), c) for c in CHUNKS]
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


if __name__ == "__main__":
    main()
