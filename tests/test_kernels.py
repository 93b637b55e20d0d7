"""The evolution kernel against a plain-Python reference sweep."""

import functools
import re
import zlib

import numpy as np
import pytest

from halflab import _kernels as K
from halflab import evolution

TINY = np.finfo(float).tiny


def _no_subnormal(u):
    # the flush rule: no stored cell in (0, tiny) in magnitude
    return not np.any((u != 0.0) & (np.abs(u) < TINY))


# --- plain-Python reference: scalar loops, the same IEEE operations per cell,
# then the flush

def _sweep_loops(cur, a, b, r, p, p_b, nsteps, hi):
    # Scalar loops on a 2-D buffer.  cur holds the entry state with its
    # ghosts filled.
    N, m = cur.shape
    nxt = np.zeros((N, m))
    for s in range(1, nsteps + 1):
        top = min(hi + r * s, N - p - 1)
        for idx in range(r, top + 1):
            for c in range(m):
                acc = 0.0
                for k in range(-r, p + 1):
                    acc += a[k + r] * cur[idx + k, c]
                if abs(acc) < TINY:
                    acc = 0.0
                nxt[idx, c] = acc
        for idx in range(N - p, N):
            for c in range(m):
                nxt[idx, c] = 0.0
        for i in range(r):
            for c in range(m):
                val = 0.0
                for k in range(1, p_b + 1):
                    val += b[i, k - 1] * nxt[r - 1 + k, c]
                if abs(val) < TINY:
                    val = 0.0
                nxt[r - 1 - i, c] = val
        cur, nxt = nxt, cur
    return cur


def _columns(sweep):
    # the loop sweep indexes (row, column): a 1-D buffer is one column
    def run(cur, *args):
        return sweep(cur.reshape(cur.shape[0], -1), *args).reshape(cur.shape)
    return run


def _evolve_half_loops(u0, a, b, r, p, p_b, nsteps):
    """Plain-Python reference for evolve_half."""
    return K._evolve(_columns(_sweep_loops), u0, a, b, r, p, p_b, nsteps)


def _evolve_whole_loops(u0, a, r, p, nsteps):
    """Plain-Python reference for evolve_whole."""
    return K._evolve(_columns(_sweep_loops), u0, a, K._zero_rule(r), r, p, 0,
                     nsteps)


def loop_green_sweep(scheme, ns, j0s, js):
    """G(n, j0, j) laid out as `temporal_green_sweep`'s out[k, i, c], from
    the loops on a buffer with a Dirac column per source that the support
    never fills, advanced from each time of the ascending ns to the next."""
    r, p = scheme.r, scheme.p
    rows = np.asarray(js) + r - 1
    buf = np.zeros((max(max(j0s) + r * ns[-1] + p + r, rows.max() + 1),
                    len(j0s)))
    buf[np.asarray(j0s) + r - 1, range(len(j0s))] = 1.0
    out, done = [], 0
    for n in ns:
        buf = _evolve_half_loops(buf, scheme.a, scheme.b, r, p, scheme.p_b,
                                 n - done)
        out.append(buf[rows].T)
        done = n
    return np.array(out)


def loop_green_whole_sweep(scheme, ns, js):
    """Gt(n, j) laid out as `temporal_green_whole_sweep`'s out[k, c], from
    the loops on the unit source, as above."""
    r, p = scheme.r, scheme.p
    js = np.asarray(js)
    lo = min(-p * ns[-1] - r, js.min())
    buf = np.zeros(max(r * ns[-1] + p, js.max()) - lo + 1)
    buf[-lo] = 1.0
    out, done = [], 0
    for n in ns:
        buf = _evolve_whole_loops(buf, scheme.a, r, p, n - done)
        out.append(buf[js - lo])
        done = n
    return np.array(out)


@pytest.fixture
def rng(request):
    # a stream of its own for each test and case, the same at every call
    # length, so that each call length steps the same data
    case = re.sub(r"-block\d+", "", request.node.name)
    return np.random.default_rng([20240817, zlib.crc32(case.encode())])


CASES = [
    # (r, p, p_b) stencil shapes covering both builtins and a wide one
    (1, 1, 1),
    (1, 2, 2),
    (2, 3, 2),
]


# call lengths besides the driver's chunk: odd and even, so that calls end
# on either buffer parity and most runs end in a partial call
BLOCKS = (1, 2, 5)


def blocks(argnames, cases):
    """Parametrize argnames over cases and a call length: each case in
    calls of `evolution._CHUNK` steps, as the driver makes them, under its
    plain id, then in calls of each of BLOCKS steps; the test splits its
    runs with `_split`."""
    ids = ["-".join(map(str, c)) for c in cases]
    params = [pytest.param(*c, evolution._CHUNK, id=i)
              for c, i in zip(cases, ids)]
    params += [pytest.param(*c, n, id=f"{i}-block{n}")
               for n in BLOCKS for c, i in zip(cases, ids)]
    return pytest.mark.parametrize(argnames + ",block", params)


def _split(kernel, block):
    """kernel(u0, ..., nsteps) run as calls of at most block steps, each
    on the last one's result: the kernel fixes one window per call."""
    def run(u, *args):
        *args, nsteps = args
        u = kernel(u, *args, min(block, nsteps))
        for done in range(block, nsteps, block):
            u = kernel(u, *args, min(block, nsteps - done))
        return u
    return run


def _coeffs(rng, r, p, p_b):
    a = rng.uniform(-0.5, 0.5, size=p + r + 1)
    a[0] = a[0] or 0.1
    a[-1] = a[-1] or 0.1
    b = rng.uniform(-2.0, 2.0, size=(r, p_b))
    return a, b


@blocks("r,p,p_b", CASES)
def test_half_kernel_paths_bitwise_equal(rng, r, p, p_b, block):
    half = _split(K.evolve_half, block)
    a, b = _coeffs(rng, r, p, p_b)
    nsteps = 37
    u0 = np.zeros(60 + r * nsteps + p + r)
    u0[r + 3:r + 23] = rng.standard_normal(20)
    ref = _evolve_half_loops(u0.copy(), a, b, r, p, p_b, nsteps)
    out = half(u0.copy(), a, b, r, p, p_b, nsteps)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


@blocks("r,p", [(1, 1), (1, 2), (2, 3)])
def test_whole_kernel_paths_bitwise_equal(rng, r, p, block):
    whole = _split(K.evolve_whole, block)
    a = rng.uniform(-0.5, 0.5, size=p + r + 1)
    nsteps = 41
    u0 = np.zeros(40 + (r + p) * nsteps + r + p)
    mid = u0.size // 2
    u0[mid:mid + 9] = rng.standard_normal(9)
    ref = _evolve_whole_loops(u0.copy(), a, r, p, nsteps)
    out = whole(u0.copy(), a, r, p, nsteps)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


# --- 2-D buffers: one column per source ------------------------------------

CASES_2D = [(1, 1, 1), (1, 2, 2), (2, 2, 1)]


def _full_sweep_half(u0, a, b, r, p, p_b, nsteps, flush=True):
    # every interior row on every step, as before the live window: the
    # window must not change a bit.  Without the flush it is the pure IEEE
    # sweep, the oracle the flushed kernel is bounded against.
    def stored(x):
        return 0.0 if flush and abs(x) < TINY else x

    def refill(u):
        for i in range(r):
            val = 0.0
            for k in range(1, p_b + 1):
                val += b[i, k - 1] * u[r - 1 + k]
            u[r - 1 - i] = stored(val)

    N = u0.shape[0]
    cur = u0.copy()
    nxt = np.zeros(N)
    refill(cur)
    for _ in range(nsteps):
        for idx in range(r, N - p):
            acc = 0.0
            for k in range(-r, p + 1):
                acc += a[k + r] * cur[idx + k]
            nxt[idx] = stored(acc)
        nxt[N - p:] = 0.0
        refill(nxt)
        cur, nxt = nxt, cur
    return cur


def _sources(rng, N, m, lo, hi):
    # m columns with random data in rows lo..hi-1 (one column all zero
    # when m > 2), far below the buffer top N
    u0 = np.zeros((N, m))
    for c in range(m):
        if m > 2 and c == 1:
            continue
        start = int(rng.integers(lo, hi - 3))
        stop = int(rng.integers(start + 1, hi))
        u0[start:stop, c] = rng.standard_normal(stop - start)
    return u0


@pytest.mark.parametrize("m", [1, 5])
@blocks("r,p,p_b", CASES_2D)
def test_half_kernel_columns_bitwise(rng, r, p, p_b, block, m):
    half = _split(K.evolve_half, block)
    a, b = _coeffs(rng, r, p, p_b)
    nsteps = 24
    N = 40 + r * nsteps + p + r + 150      # rows far above the support
    u0 = _sources(rng, N, m, r, 40)
    u0[:r] = rng.standard_normal((r, m))  # garbage ghosts, refilled
    u0[-60:-30] = -0.0                    # a full sweep writes +0.0 here
    out = half(u0, a, b, r, p, p_b, nsteps)
    assert out.shape == u0.shape
    for c in range(m):
        ref = _evolve_half_loops(u0[:, c].copy(), a, b, r, p, p_b, nsteps)
        full = _full_sweep_half(u0[:, c].copy(), a, b, r, p, p_b, nsteps)
        assert np.array_equal(ref.view(np.uint64), full.view(np.uint64))
        assert np.array_equal(out[:, c].view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("m", [1, 4])
@blocks("r,p,p_b", CASES_2D)
def test_whole_kernel_columns_bitwise(rng, r, p, p_b, block, m):
    whole = _split(K.evolve_whole, block)
    a = rng.uniform(-0.5, 0.5, size=p + r + 1)
    nsteps = 19
    N = 30 + (r + p) * nsteps + r + p + 120
    u0 = _sources(rng, N, m, r + p * nsteps, r + p * nsteps + 30)
    out = whole(u0, a, r, p, nsteps)
    no_rule = np.zeros((r, 0))
    for c in range(m):
        ref = _evolve_whole_loops(u0[:, c].copy(), a, r, p, nsteps)
        full = _full_sweep_half(u0[:, c].copy(), a, no_rule, r, p, 0, nsteps)
        assert np.array_equal(ref.view(np.uint64), full.view(np.uint64))
        assert np.array_equal(out[:, c].view(np.uint64), ref.view(np.uint64))


@blocks("r,p,p_b", CASES_2D)
def test_half_kernel_chunks_bitwise(rng, r, p, p_b, block):
    # advancing in chunks (the recorded sweeps) equals one call
    half = _split(K.evolve_half, block)
    a, b = _coeffs(rng, r, p, p_b)
    u0 = _sources(rng, 40 + r * 30 + p + r + 50, 3, r, 40)
    one = K.evolve_half(u0, a, b, r, p, p_b, 30)
    buf = u0
    for chunk in (7, 0, 11, 12):
        buf = half(buf, a, b, r, p, p_b, chunk)
    assert np.array_equal(buf.view(np.uint64), one.view(np.uint64))


@pytest.mark.parametrize("m", [1, 2])
@blocks("r,p,p_b", CASES_2D)
def test_half_kernel_crosses_blocks(rng, r, p, p_b, block, m):
    # 135 steps: in calls of 64 steps two full calls and a partial one of
    # 7 steps.  The buffer is short, so the window reaches N - p - 1 within
    # the run and the later calls' tops are clipped there.
    half = _split(K.evolve_half, block)
    a, b = _coeffs(rng, r, p, p_b)
    nsteps = 135
    N = 40 + r * 60 + p + r
    u0 = _sources(rng, N, m, r, 40)
    hi = np.flatnonzero(u0.any(axis=1))[-1]
    assert hi + r * nsteps > N - p - 1
    out = half(u0, a, b, r, p, p_b, nsteps)
    ref = _evolve_half_loops(u0, a, b, r, p, p_b, nsteps)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


# --- underflow: cells that cross 2^-1022 are stored as +0.0 ----------------

def _underflowing(rng, N, m, lo, hi, scale=2.0 ** -1000):
    # sources so small that the fronts cross tiny within a few steps
    return _sources(rng, N, m, lo, hi) * scale


@pytest.mark.parametrize("m", [1, 3])
@blocks("r,p,p_b", CASES)
def test_half_kernel_underflow_bitwise(rng, r, p, p_b, block, m):
    half = _split(K.evolve_half, block)
    a, b = _coeffs(rng, r, p, p_b)
    nsteps = 37
    u0 = _underflowing(rng, 40 + r * nsteps + p + r, m, r, 30)
    out = half(u0, a, b, r, p, p_b, nsteps)
    ref = _evolve_half_loops(u0, a, b, r, p, p_b, nsteps)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert _no_subnormal(out)
    # the case is real: the pure IEEE sweep keeps subnormal cells
    ieee = np.stack([_full_sweep_half(u0[:, c], a, b, r, p, p_b, nsteps,
                                      flush=False) for c in range(m)], 1)
    assert not _no_subnormal(ieee)
    buf = u0
    for chunk in (1, 0, 13, 23):
        buf = half(buf, a, b, r, p, p_b, chunk)
        assert chunk == 0 or _no_subnormal(buf)
    assert np.array_equal(buf.view(np.uint64), out.view(np.uint64))


@pytest.mark.parametrize("m", [1, 2])
@blocks("r,p", [(1, 1), (1, 2), (2, 3)])
def test_whole_kernel_underflow_bitwise(rng, r, p, block, m):
    whole = _split(K.evolve_whole, block)
    a = rng.uniform(-0.5, 0.5, size=p + r + 1)
    nsteps = 29
    N = 40 + (r + p) * nsteps + r + p
    u0 = _underflowing(rng, N, m, r + p * nsteps, r + p * nsteps + 30)
    out = whole(u0, a, r, p, nsteps)
    ref = _evolve_whole_loops(u0, a, r, p, nsteps)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert _no_subnormal(out)
    no_rule = np.zeros((r, 0))
    ieee = _full_sweep_half(u0[:, 0], a, no_rule, r, p, 0, nsteps,
                            flush=False)
    assert not _no_subnormal(ieee)


@pytest.mark.parametrize("m", [1, 2])
def test_ghosts_read_the_flushed_interior(m):
    # lfr's rule u_0 = 5 u_1; after one step u_1 = tiny / 2, in
    # [tiny / 5, tiny): the ghost is refilled from the flushed u_1 (0, not
    # 2.5 tiny), as the next call's entry refill does, so a run split
    # after that step is bitwise the run in one call.  One column steps as
    # a 1-D buffer (scalar ghosts), two as a 2-D one (a row of ghosts).
    a = np.array([0.125, 0.25, 0.625])
    b = np.array([[5.0]])
    u0 = np.zeros((12, m))
    u0[1:3, 0] = [2 * TINY, -2 * TINY]   # ghost 10 tiny: 1.25 + 0.5 - 1.25
    if m > 1:
        u0[1:4, 1] = [1.0, 2.0, 3.0]     # a normal column alongside
    step = K.evolve_half(u0, a, b, 1, 1, 1, 1)
    assert step[1, 0] == 0.0 and step[0, 0] == 0.0
    assert _no_subnormal(step)
    one = K.evolve_half(u0, a, b, 1, 1, 1, 4)
    split = K.evolve_half(step, a, b, 1, 1, 1, 3)
    assert np.array_equal(split.view(np.uint64), one.view(np.uint64))
    ref = _evolve_half_loops(u0, a, b, 1, 1, 1, 4)
    assert np.array_equal(one.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("m", [1, 2])
def test_subnormal_ghosts_are_flushed(m):
    # the rule u_0 = u_1 / 4 turns u_1 = 2.25 tiny (after one step) into a
    # subnormal ghost: stored as +0.0 in the step and again by the entry
    # refill of the next call, so a split run is bitwise the run in one call
    a = np.array([0.125, 0.25, 0.625])
    b = np.array([[0.25]])
    u0 = np.zeros((12, m))
    u0[1, :] = 8 * TINY                 # entry ghost 2 tiny, a normal
    step = K.evolve_half(u0, a, b, 1, 1, 1, 1)
    assert step[1, 0] == 2.25 * TINY and step[0, 0] == 0.0
    assert _no_subnormal(step)
    assert _no_subnormal(K.evolve_half(step, a, b, 1, 1, 1, 0))
    one = K.evolve_half(u0, a, b, 1, 1, 1, 4)
    split = K.evolve_half(step, a, b, 1, 1, 1, 3)
    assert np.array_equal(split.view(np.uint64), one.view(np.uint64))
    ref = _evolve_half_loops(u0, a, b, 1, 1, 1, 4)
    assert np.array_equal(one.view(np.uint64), ref.view(np.uint64))


# --- growth-shaped buffers: one column per J, fronts at far-apart rows -----

# (r, p, p_b, a, b): lfr, o3 and a damped r = 2, p_b = 2 rule, each with a
# first weight |a_-r| small enough that the fronts of flat data cross tiny
# within GROWTH_N steps (0.125^341, (1/16)^256 and 0.05^237 < 2^-1022)
GROWTH_RULES = {
    "lfr": (1, 1, 1, [0.125, 0.25, 0.625], [[5.0]]),
    "o3": (1, 2, 2, [-1 / 16, 9 / 16, 9 / 16, -1 / 16], [[1.2, -0.2]]),
    "r2pb2": (2, 2, 2, [0.05, 0.2, 0.4, 0.25, 0.1],
              [[0.5, 0.25], [0.25, 0.5]]),
}
# the growth job's J = 125 .. 1000 scaled down: the columns' supports end
# at rows far apart, so each step's flush mask is interleaved by column
GROWTH_JS = (3, 12, 40, 120)
GROWTH_N = 400


@functools.lru_cache(maxsize=None)
def _growth_case(name):
    # flat data u_J = 1 on j = 1..J in column J, and the loops' result
    r, p, p_b, a, b = GROWTH_RULES[name]
    u0 = np.zeros((max(GROWTH_JS) + r * GROWTH_N + p + r, len(GROWTH_JS)))
    for c, J in enumerate(GROWTH_JS):
        u0[r:r + J, c] = 1.0
    ref = _evolve_half_loops(u0, np.array(a), np.array(b), r, p, p_b,
                             GROWTH_N)
    # shared by every call length's case: read-only
    u0.setflags(write=False)
    ref.setflags(write=False)
    return u0, ref


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(GROWTH_RULES))
def test_half_kernel_growth_columns_bitwise(name, block):
    half = _split(K.evolve_half, block)
    r, p, p_b, a, b = GROWTH_RULES[name]
    u0, ref = _growth_case(name)
    out = half(u0, np.array(a), np.array(b), r, p, p_b, GROWTH_N)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert _no_subnormal(out)
    # the case is real: every front was flushed below its support edge
    # (row J + r n + r - 1), and the columns' live tops stay far apart
    tops = [int(np.flatnonzero(out[:, c])[-1])
            for c in range(len(GROWTH_JS))]
    edges = [J + r * GROWTH_N + r - 1 for J in GROWTH_JS]
    assert all(t < e for t, e in zip(tops, edges))
    assert all(hi - lo > 5 for lo, hi in zip(tops, tops[1:]))


@pytest.mark.parametrize("r,p,p_b,a,b", [
    (1, 1, 1, [0.125, 0.25, 0.625], [[0.25]]),
    # u_0 = u_1 / 4 flushes where u_-1 = 4 u_1 does not
    (2, 1, 2, [0.03125, 0.0625, 0.25, 0.65625], [[0.25, 0.0], [4.0, 0.0]]),
], ids=["r1", "r2"])
def test_ghosts_flush_in_some_columns(r, p, p_b, a, b):
    # columns of tiny, normal and zero data: after one step some ghosts of
    # a row fall below tiny and are stored as +0.0 while the others of
    # that row stay, and the run is bitwise the loops', split or not
    a, b = np.array(a), np.array(b)
    u0 = np.zeros((16, 5))
    u0[r, :] = [8 * TINY, 1.0, -8 * TINY, 0.0, 8 * TINY]
    u0[r + 1, 4] = 8 * TINY
    step = K.evolve_half(u0, a, b, r, p, p_b, 1)
    # each ghost before its flush, row i for u_-i, ascending k
    raw = b[:, :1] * step[r]
    for k in range(1, p_b):
        raw = raw + b[:, k:k + 1] * step[r + k]
    flushed = (raw != 0.0) & (np.abs(raw) < TINY)
    assert flushed[0].any() and not flushed.all(axis=1).any()
    ghosts = step[r - 1::-1]             # row i holds u_-i
    assert np.all(ghosts[flushed] == 0.0)
    assert np.array_equal(ghosts[~flushed], raw[~flushed])
    assert _no_subnormal(step)
    ref = _evolve_half_loops(u0, a, b, r, p, p_b, 1)
    assert np.array_equal(step.view(np.uint64), ref.view(np.uint64))
    one = K.evolve_half(u0, a, b, r, p, p_b, 6)
    split = K.evolve_half(step, a, b, r, p, p_b, 5)
    ref = _evolve_half_loops(u0, a, b, r, p, p_b, 6)
    assert np.array_equal(one.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(split.view(np.uint64), one.view(np.uint64))


def _flush_bound(a, b, r, p, p_b, N, nsteps, scale):
    """Per-cell bound on |flushed - IEEE| after nsteps, every |u| below
    scale: the error is carried by |T| (stencil and ghost weights in
    absolute value) and grows each step by one flush (< tiny) and the
    rounding of the perturbed sums."""
    eps = np.finfo(float).eps
    A, B = np.abs(a), np.abs(b)
    weight = max(A.sum(), B.sum(axis=1).max(initial=0.0))
    ops = 2 * (r + p + 1 + p_b)
    extra = TINY + ops * (eps * weight * scale + 2.0 ** -1074)
    E = np.zeros(N)
    for _ in range(nsteps):
        new = np.zeros(N)
        for k in range(-r, p + 1):
            new[r:N - p] += A[k + r] * E[r + k:N - p + k]
        new[r:N - p] += extra
        for i in range(r):
            new[r - 1 - i] = B[i] @ new[r:r + p_b] + extra
        E = new
    return E * (1 + 1e-9)


@pytest.mark.parametrize("name", ["lfr", "o3"])
def test_flush_within_bound_of_ieee_sweep(name, lfr, o3):
    # each flush moves a cell by less than tiny, and T^k carries that like
    # any perturbation: the kernel stays within the propagated bound of the
    # pure IEEE sweep, which is far below the data
    sch = {"lfr": lfr, "o3": o3}[name]
    a, b, r, p, p_b = sch.a, sch.b, sch.r, sch.p, sch.p_b
    nsteps, N = 40, 90
    u0 = np.zeros(N)
    u0[r + 2:r + 8] = 2.0 ** -980
    out = K.evolve_half(u0, a, b, r, p, p_b, nsteps)
    states = [u0]
    for _ in range(nsteps):
        states.append(_full_sweep_half(states[-1], a, b, r, p, p_b, 1,
                                       flush=False))
    ieee = states[-1]
    assert not _no_subnormal(ieee) and _no_subnormal(out)
    scale = 2 * max(np.abs(u).max() for u in states)
    bound = _flush_bound(a, b, r, p, p_b, N, nsteps, scale)
    assert np.all(np.abs(out - ieee) <= bound)
    assert bound.max() < 2.0 ** -12 * np.abs(ieee).max()


def test_entry_ghost_recompute(rng):
    # ghosts in the input buffer are overwritten from the interior before
    # stepping, so garbage ghosts cannot leak into the result
    a, b = _coeffs(rng, 1, 2, 2)
    u_good = np.zeros(120)
    u_good[1:40] = rng.standard_normal(39)
    u_bad = u_good.copy()
    u_bad[0] = 1e6
    out_good = K.evolve_half(u_good, a, b, 1, 2, 2, 11)
    out_bad = K.evolve_half(u_bad, a, b, 1, 2, 2, 11)
    assert np.array_equal(out_good, out_bad)


def test_top_cells_zeroed(rng):
    a, b = _coeffs(rng, 1, 2, 2)
    u0 = np.zeros(50)
    u0[1:10] = 1.0
    out = K.evolve_half(u0, a, b, 1, 2, 2, 5)
    assert np.all(out[-2:] == 0.0)
    # a view of a larger buffer may hold values in its top p rows at entry:
    # zero after every number of steps, as the loops store them
    u0 = rng.standard_normal(30)
    for n in (1, 2, 3):
        out = K.evolve_half(u0, a, b, 1, 2, 2, n)
        ref = _evolve_half_loops(u0, a, b, 1, 2, 2, n)
        assert np.all(out[-2:] == 0.0)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_half_support_growth(rng):
    # support grows at most r cells rightward per step
    r, p, p_b = 1, 2, 2
    a, b = _coeffs(rng, r, p, p_b)
    u0 = np.zeros(200)
    top = 30                          # last nonzero interior cell index
    u0[r:top + 1] = 1.0
    for n in (1, 3, 9):
        out = K.evolve_half(u0.copy(), a, b, r, p, p_b, n)
        nz = np.nonzero(out)[0]
        assert nz.size and nz[-1] <= top + r * n


def test_whole_support_growth(rng):
    # spreads at most p cells left and r cells right per step
    r, p = 1, 2
    a = rng.uniform(-0.5, 0.5, size=p + r + 1)
    u0 = np.zeros(200)
    lo, hi = 90, 100
    u0[lo:hi + 1] = 1.0
    out = K.evolve_whole(u0.copy(), a, r, p, 7)
    nz = np.nonzero(out)[0]
    assert nz[0] >= lo - p * 7 and nz[-1] <= hi + r * 7


def test_numba_flag_reported():
    # there is no jit path; the constant stays because the benchmark's
    # environment record reads it
    assert K.HAVE_NUMBA is False
