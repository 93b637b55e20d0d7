"""Boundary layers: analytic profiles, empirical extraction, error envelope."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from halflab import evolution, layers
from halflab.evolution import (adjoint_scheme, temporal_green_rows,
                               temporal_green_sweep,
                               temporal_green_whole_sweep)
from halflab.gaussian import GaussianParams
from halflab.layers import (
    err_bound_fit,
    err_field,
    rc_analytic,
    rc_empirical,
    ru_analytic,
    whole_line_asymptotic_check,
)
from halflab.scheme import builtin_lfr, builtin_o3, check_hypothesis_one
from halflab.spectral import characteristic_roots, check_hypothesis_two

from conftest import KAPPA_S_O3, o3_marginal_pair
from test_kernels import loop_green_sweep, loop_green_whole_sweep


def test_rc_analytic_lfr_frozen(lfr):
    # Rc(j) = 4 (1/5)^j for the marginal b = 5 scheme.
    prof = rc_analytic(lfr, 12)
    js = np.arange(1, 13)
    assert np.max(np.abs(prof.values - 4.0 * 0.2 ** js)) < 1e-12
    ratios = prof.values[1:] / prof.values[:-1]
    assert np.max(np.abs(ratios - 0.2)) < 1e-8
    assert prof.kind == "reflected"
    assert prof.provenance == "analytic"
    assert prof.j0_values is None


def test_rc_decay_fit_lfr(lfr):
    prof = rc_analytic(lfr, 20)
    assert abs(prof.decay_C - 4.0) < 1e-6
    assert abs(prof.decay_c - np.log(5.0)) < 1e-8


def test_rc_analytic_o3_vanishes(o3):
    # The rule sums to zero (B 1 = 0), so the reflected source is killed.
    prof = rc_analytic(o3, 10)
    assert np.max(np.abs(prof.values)) < 1e-12
    assert prof.decay_C < 1e-12


def test_layers_require_marginal():
    nonmarginal = builtin_lfr(-0.5, 0.75, 2.0)
    with pytest.raises(ValueError, match="no marginal boundary layer"):
        rc_analytic(nonmarginal, 5)
    with pytest.raises(ValueError, match="no marginal boundary layer"):
        ru_analytic(nonmarginal, 3, 5)


@pytest.mark.parametrize("scheme", [
    pytest.param(builtin_lfr(-0.5, 0.75, 5.0), id="lfr"),
    pytest.param(builtin_lfr(-0.5, 0.75, 2.0), id="lfr_b2"),
    pytest.param(builtin_o3(-0.5, 0.0, 0.0), id="o3_zero_rule"),
    *(pytest.param(builtin_o3(alpha, *o3_marginal_pair(alpha)),
                   id=f"o3_pair_{alpha}")
      for alpha in (-0.2, -0.4, -0.5, -0.6, -0.8))])
def test_marginal_is_the_boundary_zero(scheme):
    assert layers._AtOne(scheme).marginal == \
        check_hypothesis_two(scheme).boundary_zero


@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6),
       marginal=st.booleans(), b=st.floats(0.2, 6.0))
def test_marginal_is_the_boundary_zero_lfr_family(alpha, slack, marginal, b):
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    if marginal:
        # b = 1/kappa_s(1) puts the stable root in the boundary rule's kernel
        probe = builtin_lfr(alpha, D, 0.0)
        b = 1.0 / min(characteristic_roots(probe, 1.0), key=abs).real
    scheme = builtin_lfr(alpha, D, b)
    zero = check_hypothesis_two(scheme).boundary_zero
    assert layers._AtOne(scheme).marginal == zero
    if marginal:
        assert zero


def test_rc_analytic_validation(lfr):
    with pytest.raises(ValueError):
        rc_analytic(lfr, 0)
    with pytest.raises(ValueError):
        ru_analytic(lfr, 0, 5)


def test_ru_analytic_lfr_vanishes(lfr):
    # p = 1: no strictly unstable class at z = 1, the transmitted layer is 0.
    prof = ru_analytic(lfr, 4, 10)
    assert prof.values.shape == (4, 10)
    assert np.max(np.abs(prof.values)) == 0.0
    assert prof.kind == "transmitted"


def test_ru_analytic_o3_geometric_tail(o3):
    prof = ru_analytic(o3, 3, 10)
    assert prof.values.shape == (3, 10)
    row = prof.values[0]
    # Single stable root at z = 1, so consecutive entries scale by kappa_s.
    ratios = row[1:] / row[:-1]
    assert np.max(np.abs(ratios - KAPPA_S_O3)) < 1e-8
    assert abs(row[0] - 1.0152) < 1e-3


@pytest.mark.parametrize("j0", [1, 2, 3])
def test_ru_o3_against_time_stepping(o3, j0):
    # Past activation the remainder G - Gt - Ru (Rc = 0 here) collapses to
    # roundoff, which pins the transmitted profile empirically.
    f = err_field(o3, 500, j0, 8)
    assert f.indicator == 1
    assert np.max(np.abs(f.err)) < 1e-10


def test_rc_empirical_matches_analytic(lfr):
    emp, = rc_empirical(lfr, j0=50, ns=[500], window=25)
    ana = rc_analytic(lfr, 25)
    assert emp.provenance == "empirical"
    assert np.max(np.abs(emp.values - ana.values)) < 1e-3


def test_rc_empirical_warns_degenerate(lfr):
    with pytest.warns(UserWarning, match="degenerate extraction"):
        prof, = rc_empirical(lfr, j0=5, ns=[0], window=4)
    assert np.max(np.abs(prof.values)) == 0.0
    with pytest.warns(UserWarning, match="activation regime barely reached"):
        rc_empirical(lfr, j0=50, ns=[100], window=4)


def test_rc_empirical_warns_per_time(lfr):
    # each time of the list is checked on its own: n = 0 and n = 100 warn,
    # n = 500 does not, and its profile is the one a call at 500 alone gives
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zero, _, late = rc_empirical(lfr, j0=50, ns=(0, 100, 500), window=4)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert messages[0].startswith("degenerate extraction at n = 0")
    assert messages[1].startswith("activation regime barely reached (n = 100 ")
    assert np.max(np.abs(zero.values)) == 0.0
    alone, = rc_empirical(lfr, j0=50, ns=[500], window=4)
    assert late.values.tobytes() == alone.values.tobytes()


def test_rc_empirical_validation(lfr):
    with pytest.raises(ValueError):
        rc_empirical(lfr, j0=0, ns=[10], window=4)
    with pytest.raises(ValueError):
        rc_empirical(lfr, j0=1, ns=[-1], window=4)
    with pytest.raises(ValueError, match="ascending"):
        rc_empirical(lfr, j0=1, ns=[20, 10], window=4)


def test_err_field_at_n_zero(lfr):
    f = err_field(lfr, 0, 3, 6)
    assert f.indicator == 0
    assert f.activation == 0.0
    assert np.max(np.abs(f.err)) == 0.0
    assert f.green[2] == 1.0


def test_err_field_before_boundary_contact(lfr):
    # n p < j0: the half-line and whole-line kernels agree identically and
    # the activation factor is still exponentially small.
    f = err_field(lfr, 3, 10, 8)
    assert f.indicator == 0
    assert np.max(np.abs(f.green - f.whole)) < 1e-15
    assert np.max(np.abs(f.err)) < 1e-9


def test_err_field_validation(lfr):
    with pytest.raises(ValueError):
        err_field(lfr, -1, 1, 4)
    with pytest.raises(ValueError):
        err_field(lfr, 1, 0, 4)
    with pytest.raises(ValueError):
        err_field(lfr, 1, 1, 0)


def test_err_bound_fit_small_grid(lfr):
    fit = err_bound_fit(lfr, n_list=(100, 200, 400), j0_list=(10, 20, 40),
                        j_list=(1, 2), c0_list=(0.01, 0.05, 0.2))
    assert fit.adjoint_residual == adjoint_scheme(lfr)[1]
    assert fit.mu == 1
    assert fit.sups.shape == (3, 3)
    assert fit.heat.shape == (3, 3)
    assert np.all(np.isfinite(fit.sups))
    assert fit.best_c0 > 0.0


@pytest.mark.parametrize("case", ["lfr", "o3", "o3_pair"])
def test_err_bound_fit_sweeps_bitwise(lfr, monkeypatch, case):
    # the recorded sweeps against the scalar per-cell loops: the adjoint
    # sweep against the loops on the adjoint scheme with a column per j,
    # the whole-line sweep against the loops on the unit source
    scheme = {"lfr": lambda: lfr,
              "o3": lambda: builtin_o3(-0.5, 0.0, 0.0),
              "o3_pair": lambda: builtin_o3(-0.4, *o3_marginal_pair(-0.4)),
              }[case]()
    kw = dict(n_list=(30, 60, 60, 120), j0_list=(1, 2, 7, 25, 50, 90),
              j_list=(1, 2, 5, 9), c0_list=(0.01, 0.05, 0.2, 1.0))
    fit = err_bound_fit(scheme, **kw)
    monkeypatch.setattr(evolution, "temporal_green_sweep", loop_green_sweep)
    monkeypatch.setattr(layers, "temporal_green_whole_sweep",
                        loop_green_whole_sweep)
    ref = err_bound_fit(scheme, **kw)
    assert fit.heat.tobytes() == ref.heat.tobytes()
    assert fit.sups.tobytes() == ref.sups.tobytes()
    assert fit.best_c0 == ref.best_c0
    assert np.any(fit.heat > 0)


def _cell_loop_fit(scheme, ns, j0s, js, c0s):
    # heat and sups of err_bound_fit assembled one (n, j0) cell at a time
    # from the same sweeps and layers, with scalar activations and weights
    rep = check_hypothesis_one(scheme)
    mu = rep.mu
    expo = 2.0 * mu / (2.0 * mu - 1.0)
    params = GaussianParams(rep.mu, rep.beta)
    window = int(js[-1])
    if layers._AtOne(scheme).marginal:
        rc = rc_analytic(scheme, window).values
        ru_all = ru_analytic(scheme, int(j0s[-1]), window).values
    else:
        rc = np.zeros(window)
        ru_all = np.zeros((int(j0s[-1]), window))
    green = temporal_green_rows(scheme, ns, j0s, js)
    d0 = js[0] - j0s[-1]
    wholes = temporal_green_whole_sweep(scheme, ns,
                                        np.arange(d0, js[-1] - j0s[0] + 1))
    abs_err = np.empty((ns.size, j0s.size, js.size))
    args = np.empty((ns.size, j0s.size))
    for k, n in enumerate(ns):
        for i, j0 in enumerate(j0s):
            g = green[k, i]
            gt = wholes[k, js - j0 - d0]
            ind = 1 if n * scheme.p >= j0 else 0
            x = (int(j0) + int(n) * rep.alpha) / int(n) ** (1.0 / (2 * mu))
            act = float(layers.gaussian_e(x, params))
            err = g - gt - ind * ru_all[j0 - 1, js - 1] - act * rc[js - 1]
            abs_err[k, i] = np.abs(err)
            args[k, i] = (abs(n * rep.alpha + j0)
                          / n ** (1.0 / (2 * mu))) ** expo
    scale_n = ns.astype(float) ** (1.0 / (2 * mu))
    heat = scale_n[:, None] * abs_err.max(axis=2)
    sups = np.empty((c0s.size, ns.size))
    for a, c0 in enumerate(c0s):
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = (abs_err * np.exp(c0 * js)[None, None, :]
                        * np.exp(c0 * args)[:, :, None]
                        * scale_n[:, None, None])
        weighted = np.where(np.isnan(weighted), 0.0, weighted)
        sups[a] = weighted.max(axis=(1, 2))
    return heat, sups


@pytest.mark.parametrize("case", ["lfr", "o3", "o3_pair"])
def test_err_bound_fit_matches_the_cell_loop(lfr, case):
    # the array expressions against the per-cell loop, bitwise, with the
    # default trial rates: on the default (n, j0) grid with several cells
    # j, and on grids of one source, where each supremum reads the weight
    # of a single (n, j0) cell, so that a weight rounded otherwise shows
    scheme = {"lfr": lambda: lfr,
              "o3": lambda: builtin_o3(-0.5, 0.0, 0.0),
              "o3_pair": lambda: builtin_o3(-0.4, *o3_marginal_pair(-0.4)),
              }[case]()
    grids = [dict(j_list=(1, 2, 5, 9))] + [
        dict(n_list=range(20, 420, 10), j0_list=(j0,), j_list=(1, 3))
        for j0 in (5, 60, 150)]
    for kw in grids:
        fit = err_bound_fit(scheme, **kw)
        heat, sups = _cell_loop_fit(scheme, fit.n_values, fit.j0_values,
                                    fit.j_values, fit.c0_values)
        assert fit.heat.tobytes() == heat.tobytes()
        assert fit.sups.tobytes() == sups.tobytes()


@pytest.mark.parametrize("name", ["lfr", "o3"])
def test_err_bound_fit_adjoint_route_keeps_verdict(lfr, o3, monkeypatch,
                                                   name):
    # the adjoint rows against the forward sweep with a column per j0 (the
    # route err_bound_fit took before): same best_c0, and the bound holds.
    # At alpha = -0.5 the default j0 grid carries the activation fronts
    # n|alpha|, so it is the acceptance gate's grid as well.
    scheme = {"lfr": lfr, "o3": o3}[name]
    gate = sorted(set(range(50, 1001, 50)) | {125, 250, 500, 1000})
    fit = err_bound_fit(scheme)
    assert fit.j0_values.tolist() == gate
    j0s = fit.j0_values

    monkeypatch.setattr(layers, "temporal_green_rows", temporal_green_sweep)
    ref = err_bound_fit(scheme, j0_list=j0s)
    assert fit.best_c0 == ref.best_c0
    assert fit.best_c0 > 0.0
    np.testing.assert_allclose(fit.heat, ref.heat, rtol=0, atol=1e-12)


def test_err_bound_fit_validation(lfr):
    with pytest.raises(ValueError):
        err_bound_fit(lfr, n_list=())
    with pytest.raises(ValueError):
        err_bound_fit(lfr, n_list=(10,), j0_list=(), j_list=(1,))
    # j = 0 would read the layers at the far end of the window
    with pytest.raises(ValueError, match="cells must be >= 1"):
        err_bound_fit(lfr, n_list=(50, 100), j0_list=(10, 20), j_list=(0, 2))
    with pytest.raises(ValueError, match="sources must be >= 1"):
        err_bound_fit(lfr, n_list=(50, 100), j0_list=(0, 20), j_list=(1,))


@pytest.mark.parametrize("c0_list", [[-1.0], [math.nan, 0.01], []],
                         ids=["negative", "nan", "empty"])
def test_err_bound_fit_refuses_bad_trial_rates(lfr, c0_list):
    # each would give a verdict: best_c0 -1.0, a NaN row read as zero sups,
    # and best_c0 0.0 from no rate tried
    with pytest.raises(ValueError, match="trial rates"):
        err_bound_fit(lfr, n_list=(50, 100), j0_list=(10, 20), j_list=(1,),
                      c0_list=c0_list)


@pytest.mark.parametrize("growth_tol", [math.nan, math.inf, -1.0, 0.0],
                         ids=["nan", "inf", "negative", "zero"])
def test_err_bound_fit_refuses_bad_growth_tol(lfr, growth_tol):
    # nan and -1.0 used to give best_c0 0.0 as a verdict (every rate read
    # as growing), where the default tolerance gives 0.05
    with pytest.raises(ValueError, match="growth_tol"):
        err_bound_fit(lfr, n_list=(50, 100), j0_list=(10, 20), j_list=(1,),
                      c0_list=(0.01, 0.05), growth_tol=growth_tol)


@pytest.mark.parametrize("call", [
    lambda s: err_bound_fit(s, n_list=(50.9, 100.2), j0_list=(10, 20),
                            j_list=(1, 2)),
    lambda s: err_bound_fit(s, n_list=(50, 100), j0_list=(10.5, 20),
                            j_list=(1, 2)),
    lambda s: err_bound_fit(s, n_list=(50, 100), j0_list=(10, 20),
                            j_list=(1.7, 2)),
    lambda s: whole_line_asymptotic_check(s, [50.5]),
    lambda s: rc_analytic(s, 3.5),
    lambda s: ru_analytic(s, 2.5, 4),
    lambda s: ru_analytic(s, 2, math.nan),
    lambda s: err_field(s, 10.5, 3, 4),
    lambda s: err_field(s, 10, 3, 4.2),
    lambda s: rc_empirical(s, 3.5, [10], 4),
    lambda s: rc_empirical(s, 3, [10.5], 4),
    lambda s: rc_empirical(s, 3, [10], 4.5),
], ids=["fit-times", "fit-sources", "fit-cells", "whole-line-times",
        "rc-bound", "ru-bound", "ru-nan", "err-time", "err-window",
        "rc-source", "rc-times", "rc-window"])
def test_layers_refuse_non_integral_input(lfr, call):
    # a time, source, cell or bound is refused, not truncated to an integer
    with pytest.raises(ValueError, match="must be integers"):
        call(lfr)


def test_layers_take_integral_floats(lfr):
    assert rc_analytic(lfr, 4.0).values.tobytes() == \
        rc_analytic(lfr, 4).values.tobytes()
    kw = dict(j0_list=(10, 20), c0_list=(0.05, 0.2))
    got = err_bound_fit(lfr, n_list=(50.0, np.int64(100)), j_list=(1.0, 2),
                        **kw)
    want = err_bound_fit(lfr, n_list=(50, 100), j_list=(1, 2), **kw)
    assert got.sups.tobytes() == want.sups.tobytes()


@pytest.mark.parametrize("name", ["lfr", "o3"])
def test_shared_residue_data_is_bitwise(lfr, o3, name):
    # one _AtOne object through every layer function gives the bytes each
    # function gives on its own, and one extraction over n and 2n gives
    # those of one call per n
    scheme = {"lfr": lfr, "o3": o3}[name]
    at_one = layers._AtOne(scheme)
    pairs = [
        (rc_analytic(scheme, 12, at_one=at_one), rc_analytic(scheme, 12)),
        (ru_analytic(scheme, 5, 12, at_one=at_one),
         ru_analytic(scheme, 5, 12)),
    ]
    both = rc_empirical(scheme, 40, (200, 400), 12, at_one=at_one)
    for n, got in zip((200, 400), both):
        pairs.append((got, *rc_empirical(scheme, 40, [n], 12)))
    for got, want in pairs:
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.decay_C, got.decay_c) == (want.decay_C, want.decay_c)
    for n, j0 in ((0, 3), (30, 10), (300, 40)):
        got = err_field(scheme, n, j0, 8, at_one=at_one)
        want = err_field(scheme, n, j0, 8)
        assert got.err.tobytes() == want.err.tobytes()
    kw = dict(n_list=(50, 100), j0_list=(10, 40), j_list=(1, 3),
              c0_list=(0.05, 0.2))
    got = err_bound_fit(scheme, **kw, at_one=at_one)
    want = err_bound_fit(scheme, **kw)
    assert got.sups.tobytes() == want.sups.tobytes()
    assert got.heat.tobytes() == want.heat.tobytes()
    with pytest.raises(ValueError, match="another scheme"):
        rc_analytic(builtin_lfr(-0.5, 0.75, 5.0), 12, at_one=at_one)


def test_whole_line_asymptotic_check(lfr):
    rows = whole_line_asymptotic_check(lfr, [50, 200, 800])
    ns = [r[0] for r in rows]
    assert ns == [50, 200, 800]
    sups = [r[1] for r in rows]
    assert sups[-1] < sups[0]
    scaled = [r[2] for r in rows]
    assert scaled[-1] < scaled[0]


def test_whole_line_asymptotic_check_validation(lfr):
    with pytest.raises(ValueError):
        whole_line_asymptotic_check(lfr, [0])
    with pytest.raises(ValueError, match="nonempty"):
        whole_line_asymptotic_check(lfr, [])
