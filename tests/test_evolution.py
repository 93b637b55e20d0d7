import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import halflab as hl
from halflab import _kernels, evolution
from halflab.evolution import GhostConsistencyError, loglog_slope

from conftest import make_half_field, o3_marginal_pair
from test_kernels import (_evolve_half_loops, loop_green_sweep,
                          loop_green_whole_sweep)


def test_lfr_one_step_frozen(lfr):
    # u^1_1 = a_{-1} b u_1 + a_0 u_1 = 5/8 * ... = 7/8 for the delta at 1
    g = hl.temporal_green_sweep(lfr, [1], [1], [1])[0, 0]
    assert g[0] == pytest.approx(7 / 8, abs=1e-15)


def test_whole_line_two_steps_frozen(lfr):
    w = hl.temporal_green_whole_sweep(lfr, [2], [-2])[0]
    assert w[0] == pytest.approx(25 / 64, abs=1e-15)


def test_dirac_ghosts_follow_rule(lfr, o3):
    for s in (lfr, o3):
        ghosts = hl.temporal_green_sweep(s, [0], [1, 2, 5], [0])[0, :, 0]
        for j0, got in zip((1, 2, 5), ghosts):
            want = s.b[0, j0 - 1] if j0 <= s.p_b else 0.0
            assert got == want


def test_ghost_contract_enforced(lfr):
    bad = np.array([0.0, 1.0, 0.0])  # u_0 must be 5
    with pytest.raises(GhostConsistencyError):
        hl.apply_half_line(lfr, bad)


@pytest.mark.parametrize("values,where", [
    ([math.nan, 1.0], r"nan at index 0 \(j = 0\)"),
    ([5.0, math.nan], r"nan at index 1 \(j = 1\)"),
    ([5.0, 1.0, math.inf, math.nan], r"inf at index 2 \(j = 2\)"),
    ([-math.inf, 1.0], r"-inf at index 0 \(j = 0\)"),
], ids=["nan-ghost", "nan-interior", "inf-first", "inf-ghost"])
def test_apply_refuses_non_finite_values(lfr, values, where):
    # a NaN ghost used to pass the ghost check (NaN > tol is false) and a
    # NaN interior cell to give all-NaN values without an error
    with pytest.raises(ValueError, match="must be finite, got " + where):
        hl.apply_half_line(lfr, values, 2)


def test_apply_steps_in_driver_chunks(o3, monkeypatch):
    # apply_half_line steps through `_recorded`: kernel calls of at most
    # _CHUNK steps, bitwise the scalar loops; ghosts that miss the rule
    # within _GHOST_TOL come back as the rule gives them, also at 0 steps
    values = make_half_field(o3, [1.0, -2.0, 0.5, 3.0])
    values[:o3.r] += 1e-12
    steps = []

    def counted(u, *args):
        steps.append(args[-1])
        return kernel(u, *args)
    kernel = _kernels.evolve_half
    monkeypatch.setattr(_kernels, "evolve_half", counted)
    r, p, n = o3.r, o3.p, 130
    buf = np.zeros(values.size + r * n + p)
    buf[:values.size] = values
    for nsteps, calls in ((0, []), (n, [64, 64, 2])):
        steps.clear()
        got = hl.apply_half_line(o3, values, nsteps)
        ref = _evolve_half_loops(buf, o3.a, o3.b, r, p, o3.p_b, nsteps)
        assert steps == calls
        assert got.tobytes() == ref[:values.size + r * nsteps].tobytes()


def test_ghost_check_fails_on_nan_miss(lfr):
    # the check itself, behind the finiteness test: a NaN miss fails it
    with pytest.raises(GhostConsistencyError, match="ghost value at j=0"):
        evolution._check_ghosts(lfr, np.array([math.nan, 1.0]))


def test_finite_support_exact(lfr, o3):
    for s in (lfr, o3):
        for j0, n in ((1, 7), (4, 11)):
            js = np.arange(1 - s.r, j0 + s.r * n + s.p + 3)
            g = hl.temporal_green_sweep(s, [n], [j0], js)[0, 0]
            assert js[np.flatnonzero(g)].max() <= j0 + s.r * n
            assert g[j0 + s.r * n + 1 - js[0]] == 0.0


def test_whole_line_mass_conserved(lfr, o3):
    for s in (lfr, o3):
        g = hl.temporal_green_whole_sweep(
            s, [60], range(-60 * s.p - s.r, 60 * s.r + s.p + 1))[0]
        assert abs(np.sum(g) - 1.0) < 1e-12


def test_temporal_green_zero_steps(lfr):
    g = hl.temporal_green_sweep(lfr, [0], [4], [4, 1, 2, 3, 5, 6])[0, 0]
    assert g[0] == 1.0
    assert all(v == 0.0 for v in g[1:])


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       st.integers(1, 12))
def test_superposition(lfr, u_int, v_int, nsteps):
    u = make_half_field(lfr, u_int)
    v = make_half_field(lfr, v_int)
    m = max(len(u_int), len(v_int))
    w = make_half_field(lfr, np.pad(u_int, (0, m - len(u_int)))
                        + np.pad(v_int, (0, m - len(v_int))))
    # w is the longest of the three, and so is its evolution; zero past
    # the end of the others
    aw = hl.apply_half_line(lfr, w, nsteps)
    au, av = (np.pad(out, (0, aw.size - out.size)) for out in
              (hl.apply_half_line(lfr, f, nsteps) for f in (u, v)))
    r = lfr.r
    assert aw[r:] == pytest.approx(au[r:] + av[r:], abs=1e-12)


def test_green_superposition_identity(o3):
    # u^n_j = sum_{j0} u^0_{j0} G(n, j0, j) for finitely supported data
    rng = np.random.default_rng(5)
    interior = rng.standard_normal(6)
    n = 9
    direct = hl.apply_half_line(o3, make_half_field(o3, interior), n)
    js = np.arange(1, direct.size - o3.r + 1)
    greens = hl.temporal_green_sweep(o3, [n], range(1, 7), js)[0]
    for j, got in zip(js, direct[o3.r:]):
        total = sum(float(c) * g[j - 1] for c, g in zip(interior, greens))
        assert got == pytest.approx(total, abs=1e-12)


def test_exact_sums_values():
    # one exactly rounded sum per row: small integers, a row of zeros, and
    # the tie 1 + 2^-53, which rounds to even
    x = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0 ** -53, 0.0]])
    assert evolution._exact_sums(x) == [7.0, 0.0, 1.0]
    assert evolution._exact_sums(np.array([[0.1] * 10])) == \
        [math.fsum([0.1] * 10)] != [sum([0.1] * 10)]
    # the norms growth takes from them, a row per column
    block = np.abs(np.array([[3.0, -4.0], [0.0, 0.0]]))
    assert evolution._row_norms(block, math.inf) == [4.0, 0.0]
    assert evolution._row_norms(block, 2) == [5.0, 0.0]
    assert evolution._row_norms(block, 1) == [7.0, 0.0]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _rows(seed, k, n, lo, hi, zeros, repeats):
    # k rows of n nonnegative doubles, log-uniform over [10^lo, 10^hi]
    # (the lowest ones subnormal), a share of zeros, and a share of cells
    # that repeat an earlier cell of their row
    rng = np.random.default_rng(seed)
    x = rng.random((k, n)) * 10.0 ** rng.uniform(lo, hi, (k, n))
    x[rng.random((k, n)) < zeros] = 0.0
    for row in x:
        again = np.flatnonzero(rng.random(n) < repeats)
        row[again] = row[rng.integers(0, n, again.size)]
    return x


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 5000),
       st.floats(-320, 300), st.floats(0, 620), st.sampled_from([0, 0.3, 0.9]),
       st.sampled_from([0, 0.5]))
def test_exact_sums_equal_fsum_bitwise(seed, k, n, lo, span, zeros, repeats):
    x = _rows(seed, k, n, lo, min(lo + span, 300.0), zeros, repeats)
    want = [math.fsum(row.tolist()) for row in x]
    assert _bits(evolution._exact_sums(x)) == _bits(want)


@given(st.floats(1e-250, 1e250), st.integers(0, 3), st.integers(0, 40),
       st.randoms(use_true_random=False))
def test_exact_sums_on_constructed_ties(a, tips, zeros, rnd):
    # a + ulp(a) / 2 is a tie, which rounds to even; a term far below the
    # half ulp tips it up, and zeros change nothing
    half = math.ulp(a) / 2
    row = [a, half] + [half * 2.0 ** -60] * tips + [0.0] * zeros
    rnd.shuffle(row)
    x = np.array([row, row[::-1]])
    assert _bits(evolution._exact_sums(x)) == _bits([math.fsum(row)] * 2)


def _counted_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(values):
        calls.append(len(values))
        return fsum(values)
    monkeypatch.setattr(math, "fsum", counted)
    return calls


@pytest.mark.parametrize("row", [
    [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -200],
    [1.0, 2.0 ** -54, 2.0 ** -54], [2.0 ** 52, 0.5], [2.0 ** 52, 0.5, 1e-30],
    [1.0 + 2.0 ** -52, 2.0 ** -53], [2.0 ** -53, 1.0, 2.0 ** -53, 2.0 ** -53],
    [1.0, 1.5 * 2.0 ** -52 - 2.0 ** -104] + [0.45 * 2.0 ** -104] * 3,
    [5e-324, 1e-310], [0.0, 0.0], [2.0 ** 901, 1.0],
], ids=["tie", "near-tie", "split-tie", "big-tie", "big-near-tie", "odd-tie",
        "three-halves", "lo-roundoff", "subnormal", "zeros", "huge"])
def test_exact_sums_fall_back_to_fsum(monkeypatch, row):
    # ties and the rows the split cannot tell from one (those within
    # roundoff of a tie), rows whose max is zero or below 2^-900, and rows
    # whose max is above 2^900 go to fsum and still equal it bitwise; a
    # row with no rounding beside them takes the split sum.  In lo-roundoff
    # the low parts' rounded sum lies below the midpoint 1 + 1.5 ulp(1) and
    # the exact one above it, which the bound E on that rounding catches
    want = math.fsum(row)
    ordinary = [0.75 ** i for i in range(len(row))]
    calls = _counted_fsum(monkeypatch)
    got = evolution._exact_sums(np.array([ordinary, row]))
    assert calls == [len(row)]
    assert _bits(got) == _bits([math.fsum(ordinary), want])


@pytest.mark.parametrize("row", [[1.0, math.inf, 2.0], [math.nan, 1.0],
                                 [math.inf, math.nan], [math.inf]])
def test_exact_sums_keep_fsum_on_inf_and_nan(row):
    got, = evolution._exact_sums(np.array([row]))
    want = math.fsum(row)
    assert (math.isnan(got) and math.isnan(want)) or got == want


def test_exact_sums_raise_as_fsum_on_overflow():
    row = [1.7e308, 1.7e308]
    with pytest.raises(OverflowError):
        math.fsum(row)
    with pytest.raises(OverflowError):
        evolution._exact_sums(np.array([[1.0, 2.0], row]))


def test_growth_ratio_ignores_ghosts(lfr):
    # the norms are over the interior cells only: T delta_1 is 7/8 at
    # j = 1 and 1/8 at j = 2, while its ghost u_0 = 5 u_1 is 35/8
    res, = hl.growth_experiment(lfr, [math.inf], [1], 1)
    assert res.ratios[1][0] == pytest.approx(7 / 8, abs=1e-15)


def test_growth_experiment_shapes(lfr):
    res, = hl.growth_experiment(lfr, [2], [8, 16], 40, record=[10, 20, 40])
    assert set(res.ratios) == {8, 16}
    assert res.ns.tolist() == [10, 20, 40]
    assert res.max_ratio.shape == (3,)
    J, n, ratio = res.columns
    assert J.tolist() == [8] * 3 + [16] * 3
    assert n.tolist() == [10, 20, 40] * 2
    assert ratio.tolist() == res.ratios[8].tolist() + res.ratios[16].tolist()


@pytest.mark.parametrize("J_list", [[0, 16], [-3]])
def test_growth_experiment_rejects_sizes_below_one(lfr, J_list):
    with pytest.raises(ValueError, match="J sizes must be >= 1"):
        hl.growth_experiment(lfr, [math.inf], J_list, 30)


@pytest.mark.parametrize("q", [0.5, math.nan])
def test_growth_experiment_rejects_exponents_below_one(lfr, q):
    with pytest.raises(ValueError, match="each q >= 1"):
        hl.growth_experiment(lfr, [math.inf, q], [8], 30)


def test_growth_experiment_record_consistency(lfr):
    full, = hl.growth_experiment(lfr, [math.inf], [16], 30)
    sub, = hl.growth_experiment(lfr, [math.inf], [16], 30, record=[7, 30])
    i7 = np.where(full.ns == 7)[0][0]
    assert sub.ratios[16][0] == pytest.approx(full.ratios[16][i7], abs=0)
    assert sub.ratios[16][1] == pytest.approx(full.ratios[16][-1], abs=0)


def _lq(x, q):
    # the l^q norm: the sup, or the exact sum of |x|^q then the root
    if q == math.inf:
        return float(np.max(np.abs(x)))
    return math.fsum((np.abs(x) ** q).tolist()) ** (1.0 / q)


def test_growth_experiment_q_list_bitwise(lfr, o3):
    # one sweep for all J and every q against one-q runs, one-J runs and
    # the per-(J, n) evolution of the norm-ratio definition
    rec = [1, 4, 17, 40]
    qs = [math.inf, 2, 1, 1.5, 3]
    for scheme, Js in ((lfr, [9, 1, 30]), (o3, [12, 3])):
        every = hl.growth_experiment(scheme, qs, Js, 40, record=rec)
        assert [res.q for res in every] == qs
        for q, res in zip(qs, every):
            one_q, = hl.growth_experiment(scheme, [q], Js, 40, record=rec)
            assert one_q.max_ratio.tobytes() == res.max_ratio.tobytes()
            for J in Js:
                assert one_q.ratios[J].tobytes() == res.ratios[J].tobytes()
                one_J, = hl.growth_experiment(scheme, [q], [J], 40,
                                              record=rec)
                assert one_J.ratios[J].tobytes() == res.ratios[J].tobytes()
                start = make_half_field(scheme, np.ones(J))
                want = [_lq(hl.apply_half_line(scheme, start, n)
                            [scheme.r:], q) / _lq(np.ones(J), q)
                        for n in rec]
                assert np.array(want).tobytes() == res.ratios[J].tobytes()


def test_growth_experiment_steps_each_J_once(lfr, monkeypatch):
    # a repeated J steps one column, and the results are those of the
    # list without the repeat
    widths = []

    def counted(u, *args):
        widths.append(u.shape[1])
        return kernel(u, *args)
    kernel = _kernels.evolve_half
    monkeypatch.setattr(_kernels, "evolve_half", counted)
    got = hl.growth_experiment(lfr, [math.inf, 2], [9, 1, 9, 1], 30)
    assert set(widths) == {2}
    want = hl.growth_experiment(lfr, [math.inf, 2], [9, 1], 30)
    for g, w in zip(got, want):
        assert list(g.ratios) == [9, 1]
        assert g.max_ratio.tobytes() == w.max_ratio.tobytes()
        assert all(g.ratios[J].tobytes() == w.ratios[J].tobytes()
                   for J in (9, 1))


def test_growth_views_stop_at_the_support(lfr, o3, monkeypatch):
    # every kernel call steps a view from the buffer's bottom to at most p
    # rows above the support's top at the chunk's end, J_max + r t; the
    # early records are one step each
    record = list(range(1, 9)) + [20, 100, 150]
    for scheme in (lfr, o3):
        r, p, Js = scheme.r, scheme.p, [40, 7]
        calls, done = [], [0]

        def spied(u, *args):
            done[0] += args[-1]
            calls.append((_view_rows(u), done[0]))
            return kernel(u, *args)
        kernel = _kernels.evolve_half
        monkeypatch.setattr(_kernels, "evolve_half", spied)
        got = hl.growth_experiment(scheme, [math.inf, 2], Js, 150,
                                   record=record)
        monkeypatch.undo()
        assert [t for _, t in calls] == [1, 2, 3, 4, 5, 6, 7, 8, 20, 84,
                                         100, 150]
        for (lo, hi, size), t in calls:
            # the support's top row is r - 1 + J_max + r t
            assert lo == 0 and hi <= r - 1 + max(Js) + r * t + p
        assert calls[0][0][1] < calls[0][0][2] / 2
        for q, res in zip([math.inf, 2], got):
            for J in Js:
                start = make_half_field(scheme, np.ones(J))
                want = [_lq(hl.apply_half_line(scheme, start, n)
                            [r:], q) / _lq(np.ones(J), q) for n in record]
                assert np.array(want).tobytes() == res.ratios[J].tobytes()


def test_temporal_green_sweeps_bitwise(lfr, o3):
    ns, j0s = [0, 3, 3, 20, 41], [1, 2, 15, 4]
    for scheme in (lfr, o3):
        r, p = scheme.r, scheme.p
        # every cell of both supports at the last time, and a margin of
        # cells the support never reaches
        js = range(1 - r, 15 + r * ns[-1] + 4)
        ds = range(-p * ns[-1] - r - 3, r * ns[-1] + p + 4)
        greens = hl.temporal_green_sweep(scheme, ns, j0s, js)
        wholes = hl.temporal_green_whole_sweep(scheme, ns, ds)
        assert greens.shape == (len(ns), len(j0s), len(js))
        assert wholes.shape == (len(ns), len(ds))
        # the scalar per-cell loops
        ref = loop_green_sweep(scheme, ns, j0s, js)
        assert greens.view(np.uint64).tolist() == \
            ref.view(np.uint64).tolist()
        ref = loop_green_whole_sweep(scheme, ns, ds)
        assert wholes.view(np.uint64).tolist() == \
            ref.view(np.uint64).tolist()
    with pytest.raises(ValueError):
        hl.temporal_green_sweep(lfr, [5, 2], [1], [1])
    with pytest.raises(ValueError):
        hl.temporal_green_whole_sweep(lfr, [], [0])
    with pytest.raises(ValueError, match="cells"):
        hl.temporal_green_sweep(lfr, [5], [1], [-1])
    with pytest.raises(ValueError, match="cells"):
        hl.temporal_green_whole_sweep(lfr, [5], [])


@pytest.mark.parametrize("call", [
    lambda s: hl.temporal_green_sweep(s, [2.7], [1.9], [1.5, 2]),
    lambda s: hl.temporal_green_sweep(s, [2], [1.9], [1]),
    lambda s: hl.temporal_green_sweep(s, [2], [1], [1.5]),
    lambda s: hl.temporal_green_whole_sweep(s, [2.5], [0]),
    lambda s: hl.temporal_green_whole_sweep(s, [2], [math.nan]),
    lambda s: hl.growth_experiment(s, [2], [4], 10, record=[2.5]),
    lambda s: hl.growth_experiment(s, [2], [4.5], 10),
    lambda s: hl.growth_experiment(s, [math.inf], [4], 10.5),
    lambda s: hl.apply_half_line(s, [5.0, 1.0], 2.5),
], ids=["all", "sources", "cells", "whole-times", "whole-cells",
        "growth-record", "growth-sizes", "growth-horizon", "apply-steps"])
def test_sweeps_refuse_non_integral_input(lfr, call):
    # a time, source or cell is refused, not truncated to an integer
    with pytest.raises(ValueError, match="must be integers"):
        call(lfr)


def test_sweeps_take_integer_arrays(lfr):
    want = hl.temporal_green_sweep(lfr, [0, 2], [1, 3], [1, 2])
    for args in ((np.array([0, 2]), np.array([1, 3]), np.arange(1, 3)),
                 ([0.0, 2.0], [1.0, 3.0], [1.0, 2.0])):
        got = hl.temporal_green_sweep(lfr, *args)
        assert got.tobytes() == want.tobytes()
    assert hl.temporal_green_whole_sweep(lfr, np.array([3]), np.arange(
        -1, 2)).tobytes() == hl.temporal_green_whole_sweep(
        lfr, [3], [-1, 0, 1]).tobytes()


def _view_rows(u):
    # the first and last buffer row of a kernel call's view, or None for
    # a call on a whole buffer
    if u.base is None:
        return None
    start = u.__array_interface__["data"][0] \
        - u.base.__array_interface__["data"][0]
    lo = start // u.strides[0]
    return lo, lo + u.shape[0] - 1, u.base.shape[0]


def _poisoned(kernel, r, p, source=None):
    """kernel, except that after each call on a view every row the margin
    argument of `evolution._recorded` calls possibly wrong comes back NaN,
    and every row above the support's top must come back +0.0.

    The support's top at the end t of a chunk of c steps is top0 + r t,
    with top0 the highest row of the buffer holding any bit at the first
    call, and `_recorded` stops each view p rows above it.  The rows of a
    view above that top are true zeros that later views read, so they are
    asserted +0.0, not poisoned.  Poisoned are the top p (c + 1) rows of a
    view whose top lies below both the buffer's top and that cap (a view
    the domain of dependence clips), and the bottom r (c + 1) rows of a
    view above the buffer's bottom or, on the whole line, above the
    support's lower edge minus r at t.  t counts the steps of the calls
    seen (run.steps), so a caller checks that no chunk went without one."""
    top0 = []

    def run(u0, *args):
        c = args[-1]
        buf = u0 if u0.base is None else u0.base
        view = _view_rows(u0) or (0, len(buf) - 1, len(buf))
        if not top0:
            live = np.flatnonzero(buf.view(np.uint64))
            top0.append(int(live[-1]) // (buf.size // len(buf))
                        if live.size else -1)
        out = kernel(u0, *args)
        run.steps.append(c)
        run.views.append(view)
        t = sum(run.steps)
        lo, hi, size = view
        above = out[max(top0[0] + r * t + 1 - lo, 0):]
        assert not above.any() and not np.signbit(above).any()
        if hi < min(size - 1, top0[0] + r * t + p):
            out[-p * (c + 1):] = np.nan
        edge = 0 if source is None else source - p * t - r
        if lo > edge:
            out[:r * (c + 1)] = np.nan
        return out
    run.views, run.steps = [], []
    return run


def _narrower(views):
    # some call ran on a view of fewer rows than its buffer
    return any(v is not None and v[1] - v[0] + 1 < v[2] for v in views)


def _unwindowed(scheme, ns, j0s, half, whole):
    # the sweeps' values from one kernel call per time on a whole buffer
    # that the support never fills: Dirac columns on j = 1 - r .. (the
    # kernel fills their ghosts), and the unit source on the whole line
    r, p, a, n = scheme.r, scheme.p, scheme.a, ns[-1]
    rows = np.asarray(half) + r - 1
    buf = np.zeros((max(j0s) + r * n + p + r, len(j0s)))
    buf[np.asarray(j0s) + r - 1, range(len(j0s))] = 1.0
    lo = min(-p * n - r, min(whole))
    line = np.zeros(max(r * n + p, max(whole)) - lo + 1)
    line[-lo] = 1.0
    return (np.array([_kernels.evolve_half(buf, a, scheme.b, r, p,
                                           scheme.p_b, m)[rows].T
                      for m in ns]),
            np.array([_kernels.evolve_whole(line, a, r, p, m)
                      [np.asarray(whole) - lo] for m in ns]))


@pytest.mark.parametrize("scheme", ["lfr", "o3", "r2p3"])
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("where", ["boundary", "middle", "top", "front"])
def test_windowed_sweeps_never_read_the_margins(lfr, o3, monkeypatch,
                                                scheme, columns, where):
    # the rows the margin argument calls possibly wrong are poisoned after
    # every chunk; the read cells must still be those of an unwindowed run
    scheme = {"lfr": lfr, "o3": o3,
              "r2p3": _ADJOINT_CASES["r2p3pb3"]()}[scheme]
    r, p = scheme.r, scheme.p
    ns = [0, 7, 64, 65, 150, 150, 203]
    n = ns[-1]
    j0s = [3, 40, 12][:columns]
    # half-line cells, and whole-line offsets, for each read range; the
    # front is the whole line's lower support edge -p n
    top = max(j0s) + r * n
    cells = {"boundary": (range(1 - r, 4), range(-3, 3)),
             "middle": (range(60, 66), range(-60, -50)),
             "top": (range(top - 5, top + 2), range(r * n - 4, r * n + p)),
             "front": (range(1, 3), range(-p * n - 2, -p * n + 6))}[where]
    half, whole = cells
    want = hl.temporal_green_sweep(scheme, ns, j0s, half)
    want_whole = hl.temporal_green_whole_sweep(scheme, ns, whole)
    ref, ref_whole = _unwindowed(scheme, ns, j0s, half, whole)
    assert want.tobytes() == ref.tobytes()
    assert want_whole.tobytes() == ref_whole.tobytes()
    poisoned = _poisoned(_kernels.evolve_half, r, p)
    monkeypatch.setattr(_kernels, "evolve_half", poisoned)
    got = hl.temporal_green_sweep(scheme, ns, j0s, half)
    assert got.tobytes() == want.tobytes()
    assert _narrower(poisoned.views) and sum(poisoned.steps) == n
    # the whole line's source row: the buffer starts at -p n - r, or lower
    # to hold every read offset
    source = max(p * n + r, -min(whole))
    poisoned = _poisoned(_kernels.evolve_whole, r, p, source=source)
    monkeypatch.setattr(_kernels, "evolve_whole", poisoned)
    got = hl.temporal_green_whole_sweep(scheme, ns, whole)
    assert got.tobytes() == want_whole.tobytes()
    assert _narrower(poisoned.views) and sum(poisoned.steps) == n


@pytest.mark.parametrize("scheme", ["lfr", "o3", "r2p3"])
@pytest.mark.parametrize("reads", [(0, 5), (90, 100), (380, 400)])
def test_recorded_windows_1d_half_and_2d_whole_buffers(lfr, o3, scheme,
                                                       reads):
    # the driver on the buffer shapes the public sweeps do not make: a
    # 1-D half-line buffer and a 2-D whole-line one, poisoned as above,
    # against the same buffers advanced whole, which the driver splits
    # into calls of at most _CHUNK steps too
    scheme = {"lfr": lfr, "o3": o3,
              "r2p3": _ADJOINT_CASES["r2p3pb3"]()}[scheme]
    r, p, a, b, p_b = scheme.r, scheme.p, scheme.a, scheme.b, scheme.p_b
    ns = [5, 64, 130, 131, 190]
    size = 200 + (r + p) * ns[-1] + p + r
    half = np.zeros(size)
    half[r - 1 + np.array([1, 2, 30])] = [1.0, -0.5, 2.0]
    source = p * ns[-1] + r
    whole = np.zeros((size + source, 2))
    whole[source, 0] = 1.0
    whole[source:source + 3, 1] = [0.25, 1.0, -3.0]

    def half_step(kernel):
        return lambda u, k: kernel(u, a, b, r, p, p_b, k)

    def whole_step(kernel):
        return lambda u, k: kernel(u, a, r, p, k)
    lo, hi = reads
    for buf, kernel, step, src in (
            (half, _kernels.evolve_half, half_step, None),
            (whole, _kernels.evolve_whole, whole_step, source)):
        steps = []

        def counted(u, *args):
            steps.append(args[-1])
            return kernel(u, *args)
        want = [snap[lo:hi + 1].copy() for snap in evolution._recorded(
            buf.copy(), ns, step(counted), r, p, reads=(0, len(buf) - 1))]
        assert steps == [5, 59, 64, 2, 1, 59]
        poisoned = _poisoned(kernel, r, p, src)
        got = [snap[lo:hi + 1].copy() for snap in evolution._recorded(
            buf.copy(), ns, step(poisoned), r, p, reads=reads, source=src)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert not np.isnan(want).any()
        if poisoned.views:
            assert _narrower(poisoned.views) and sum(poisoned.steps) == ns[-1]
        else:
            # a view above the support makes no kernel call: here every
            # read row lies above the support's top at the last time
            top = np.flatnonzero(buf.reshape(len(buf), -1).any(axis=1))[-1]
            assert lo > top + r * ns[-1] and not np.any(want)


# inline schemes of every shape the adjoint changes: no ghost rule, a full
# ghost rule (p_b = p), and r > p, where the adjoint has fewer ghosts
_A23 = [0.05, 0.15, 0.3, 0.25, 0.15, 0.1]


def _o3_pair(alpha):
    return hl.builtin_o3(alpha, *o3_marginal_pair(alpha))


_ADJOINT_CASES = {
    "lfr": lambda: hl.builtin_lfr(-0.5, 0.75, 5.0),
    "o3_zero_rule": lambda: hl.builtin_o3(-0.5, 0.0, 0.0),
    "o3_pair": lambda: _o3_pair(-0.5),
    "r2p3pb0": lambda: hl.SchemeDefinition(r=2, p=3, a=_A23, p_b=0, b=[]),
    "r2p3pb3": lambda: hl.SchemeDefinition(
        r=2, p=3, a=_A23, p_b=3, b=[[0.5, -0.25, 0.125], [1.5, -1.0, 0.25]]),
    "r3p1pb1": lambda: hl.SchemeDefinition(
        r=3, p=1, a=[0.1, 0.2, 0.3, 0.25, 0.15], p_b=1,
        b=[[2.0], [-1.0], [0.5]]),
}


def _one_step_matrix(scheme, size):
    # M[j-1, l-1] = (T delta_l)_j = G(1, l, j): the sweep sizes its buffer
    # past the support, so this is the exact leading block of the infinite
    # matrix
    cells = range(1, size + 1)
    return hl.temporal_green_sweep(scheme, [1], cells, cells)[0].T


@pytest.mark.parametrize("case", sorted(_ADJOINT_CASES))
def test_adjoint_scheme_is_transpose(case):
    scheme = _ADJOINT_CASES[case]()
    adj, _ = hl.adjoint_scheme(scheme)
    assert (adj.r, adj.p, adj.p_b) == (scheme.p, scheme.r, scheme.r)
    assert adj.a.tobytes() == scheme.a[::-1].tobytes()
    T = _one_step_matrix(scheme, 40)
    Tt = _one_step_matrix(adj, 40)
    assert np.max(np.abs(Tt - T.T)) <= 1e-15 * np.max(np.abs(T))
    # a nonzero ghost rule really adds a block to row 1
    if np.any(scheme.b):
        assert np.any(T[0] != [scheme.coeff(l - 1) if l <= scheme.p + 1
                               else 0.0 for l in range(1, 41)])


def test_adjoint_residual_reports_the_solve():
    # at roundoff on the builtins; on a (r, p, p_b) = (2, 3, 3) rule with a
    # small a_p the back-substitution loses digits, and both the residual
    # and the adjoint's one-step matrix show it
    for case in ("lfr", "o3_zero_rule", "o3_pair"):
        _, residual = hl.adjoint_scheme(_ADJOINT_CASES[case]())
        assert 0.0 <= residual <= 1e-15
    for alpha in (-0.2, -0.8):
        _, residual = hl.adjoint_scheme(_o3_pair(alpha))
        assert residual <= 1e-15
    small = hl.SchemeDefinition(
        r=2, p=3, a=[-0.654, -0.13, 0.784, 1.493, -1.259, 0.041], p_b=3,
        b=[[1.346, 0.781, 0.264], [-0.314, 1.458, 1.96]])
    adj, residual = hl.adjoint_scheme(small)
    assert residual > 1e-14
    T = _one_step_matrix(small, 12)
    assert np.max(np.abs(_one_step_matrix(adj, 12) - T.T)) > \
        1e-15 * np.max(np.abs(T))


@pytest.mark.parametrize("case", ["lfr", "o3_zero_rule", "o3_pair_0.4",
                                  "o3_pair_0.8"])
def test_temporal_green_rows_match_forward_columns(case):
    scheme = {**_ADJOINT_CASES, "o3_pair_0.4": lambda: _o3_pair(-0.4),
              "o3_pair_0.8": lambda: _o3_pair(-0.8)}[case]()
    ns, js = [0, 30, 60, 60, 120], [1, 2, 5, 9]
    # every source that reaches j <= 9 by n = 120 (j - j0 >= -p n)
    j0s = list(range(1, js[-1] + scheme.p * ns[-1] + 1))
    rows = hl.temporal_green_rows(scheme, ns, j0s, js)
    cols = hl.temporal_green_sweep(scheme, ns, j0s, js)
    assert rows.shape == cols.shape == (len(ns), len(j0s), len(js))
    for k in range(len(ns)):
        for c in range(len(js)):
            got, want = rows[k, :, c], cols[k, :, c]
            assert np.max(np.abs(got - want)) <= \
                1e-13 * np.max(np.abs(want))


def test_growth_experiment_validation(lfr):
    with pytest.raises(ValueError):
        hl.growth_experiment(lfr, [2], [], 10)
    with pytest.raises(ValueError):
        hl.growth_experiment(lfr, [0.5], [4], 10)
    with pytest.raises(ValueError):
        hl.growth_experiment(lfr, [2], [4], 10, record=[0])


def test_loglog_slope_recovers_power():
    ns = np.arange(10, 200)
    vals = 3.0 * ns ** 0.75
    assert loglog_slope(ns, vals, 10, 199) == pytest.approx(0.75, abs=1e-12)


def test_apply_validation(lfr):
    f = make_half_field(lfr, [1.0])
    with pytest.raises(ValueError):
        hl.apply_half_line(lfr, f, -1)
    # no u_1 after the ghost, or not one sequence
    for bad in (np.zeros(lfr.r), np.zeros((3, 2))):
        with pytest.raises(ValueError):
            hl.apply_half_line(lfr, bad)
