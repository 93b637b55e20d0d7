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


def test_interior_lq_values():
    x = np.array([3.0, -4.0])
    assert evolution._interior_lq(x, math.inf) == 4.0
    assert evolution._interior_lq(x, 2) == pytest.approx(5.0, abs=1e-14)
    assert evolution._interior_lq(x, 1) == pytest.approx(7.0, abs=1e-14)


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
    # one sweep for all J and both q against one-q runs, one-J runs and the
    # per-(J, n) evolution of the norm-ratio definition
    rec = [1, 4, 17, 40]
    for scheme, Js in ((lfr, [9, 1, 30]), (o3, [12, 3])):
        both = hl.growth_experiment(scheme, [math.inf, 2], Js, 40, record=rec)
        assert [res.q for res in both] == [math.inf, 2]
        for q, res in zip([math.inf, 2], both):
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
    argument of `evolution._recorded` calls possibly wrong comes back NaN:
    the top p (c + 1) rows of a view below the buffer's top, and the bottom
    r (c + 1) rows of a view above the buffer's bottom or, on the whole
    line, above the support's lower edge minus r at the chunk's end."""
    done = [0]

    def run(u0, *args):
        c = args[-1]
        out = kernel(u0, *args)
        done[0] += c
        view = _view_rows(u0)
        run.views.append(view)
        if view is None:
            return out
        lo, hi, size = view
        if hi < size - 1:
            out[-p * (c + 1):] = np.nan
        edge = 0 if source is None else source - p * done[0] - r
        if lo > edge:
            out[:r * (c + 1)] = np.nan
        return out
    run.views = []
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
    assert _narrower(poisoned.views)
    # the whole line's source row: the buffer starts at -p n - r, or lower
    # to hold every read offset
    source = max(p * n + r, -min(whole))
    poisoned = _poisoned(_kernels.evolve_whole, r, p, source=source)
    monkeypatch.setattr(_kernels, "evolve_whole", poisoned)
    got = hl.temporal_green_whole_sweep(scheme, ns, whole)
    assert got.tobytes() == want_whole.tobytes()
    assert _narrower(poisoned.views)


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
        assert not np.isnan(want).any() and _narrower(poisoned.views)


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
