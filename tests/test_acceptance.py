"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test line in `pytest -v` is the pass/fail record for its criterion.
Module-scoped fixtures cache the expensive grids so criteria can share them.
"""

import json
import math
import time

import numpy as np
import pytest

from halflab.cli import main as cli_main
from halflab.evolution import (
    apply_half_line,
    growth_experiment,
    loglog_slope,
    temporal_green_sweep,
    temporal_green_whole_sweep,
)
from halflab.gaussian import GaussianParams, appendix_f, gaussian_e, gaussian_h
from halflab.layers import rc_analytic, rc_empirical, ru_analytic, err_bound_fit
from halflab.resolvent import inverse_laplace_table, r_function
from halflab.scheme import symbol_eval
from halflab.spectral import characteristic_roots, projector_set, spectral_split

from conftest import KAPPA_S_O3, KAPPA_U_O3, make_half_field

VERDICT_LFR = "ℓ¹-stable, ℓ^q-unstable for q>1"
VERDICT_O3 = "ℓ^q-stable for all q"


# --- shared expensive computations -----------------------------------------

def _record_grid(n_max: int):
    return sorted(set(np.geomspace(1, n_max, 160).astype(int).tolist())
                  | {n_max})


@pytest.fixture(scope="module")
def growth_lfr(lfr):
    rec = _record_grid(2000)
    J = [125, 250, 500, 1000]
    res_inf, res_2 = growth_experiment(lfr, [math.inf, 2.0], J, 2000,
                                       record=rec)
    return {"inf": res_inf, "2": res_2}


@pytest.fixture(scope="module")
def growth_o3(o3):
    # bounded regime: J large enough that the transported indicator is not
    # absorbed at the boundary before n_max, else the l2 ratio tail decays
    rec = _record_grid(2000)
    J = [10000]
    res_inf, res_2 = growth_experiment(o3, [math.inf, 2.0], J, 2000,
                                       record=rec)
    return {"inf": res_inf, "2": res_2}


# --- criterion 1: characteristic roots and their unit-circle split ----------

def _sample_ring(radius: float, count: int, exclude_near_one: bool):
    if exclude_near_one:
        angles = np.linspace(0.15, 2.0 * math.pi - 0.15, count)
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return radius * np.exp(1j * angles)


def test_criterion_1_root_split(lfr, o3):
    frozen = {
        id(lfr): [0.2, 1.0],
        id(o3): [KAPPA_S_O3, 1.0, KAPPA_U_O3],
    }
    for scheme in (lfr, o3):
        roots1 = np.sort_complex(characteristic_roots(scheme, 1.0))
        want = np.array(frozen[id(scheme)], dtype=complex)
        assert np.max(np.abs(roots1 - want)) < 1e-10, \
            f"{scheme.name}: roots at z=1 off by " \
            f"{np.max(np.abs(roots1 - want)):.2e}"
        zs = np.concatenate([
            _sample_ring(1.0, 50, exclude_near_one=True),
            _sample_ring(1.05, 50, exclude_near_one=False),
            _sample_ring(1.25, 50, exclude_near_one=False),
            _sample_ring(2.5, 50, exclude_near_one=False),
        ])
        assert zs.size == 200
        for z in zs:
            split = spectral_split(scheme, complex(z))
            # spectral_split itself enforces the r/0/p layout outside; the
            # region must actually be outside for every sample
            assert split.region == "outside", \
                f"{scheme.name}: z={z:.4f} classified {split.region}"
            assert len(split.stable) == scheme.r
            assert len(split.unstable) == scheme.p
            res = max(abs(symbol_eval(scheme, k) - z) for k in split.roots)
            assert res < 1e-10, \
                f"{scheme.name}: root residual {res:.2e} at z={z:.4f}"


# --- criterion 2: hypothesis checker verdicts -------------------------------

def test_criterion_2_check_verdicts(tmp_path, capsys, o3):
    cfg_l = tmp_path / "lfr.json"
    cfg_l.write_text(json.dumps({"scheme": {"builtin": "lfr"}}))
    code = cli_main(["check", "--config", str(cfg_l),
                     "--out", str(tmp_path / "lfr")])
    out_l = capsys.readouterr().out
    assert code == 0
    assert VERDICT_LFR in out_l

    cfg_o = tmp_path / "o3.json"
    cfg_o.write_text(json.dumps({"scheme": {"builtin": "o3"}}))
    code = cli_main(["check", "--config", str(cfg_o),
                     "--out", str(tmp_path / "o3")])
    out_o = capsys.readouterr().out
    assert code == 0
    assert VERDICT_O3 in out_o

    # marginal pair normalization: the ghost weights sum to one
    assert abs(1.0 - float(o3.b[0].sum())) < 1e-10


# --- criterion 3: norm-ratio growth rates -----------------------------------

def test_criterion_3_growth_rates(growth_lfr, growth_o3):
    res_inf = growth_lfr["inf"]
    slope_inf = loglog_slope(res_inf.ns, res_inf.max_ratio, 200, 2000)
    assert abs(slope_inf - 1.0) < 0.1, f"sup-norm slope {slope_inf:.3f}"
    res_2 = growth_lfr["2"]
    slope_2 = loglog_slope(res_2.ns, res_2.max_ratio, 200, 2000)
    assert abs(slope_2 - 0.5) < 0.1, f"l2 slope {slope_2:.3f}"
    for tag, res in growth_o3.items():
        tail = res.max_ratio[res.ns >= 500]
        variation = float((tail.max() - tail.min()) / tail.mean())
        assert variation < 0.05, f"o3 q={tag} tail variation {variation:.3f}"


# --- criterion 4: reflected layer, analytic vs extracted --------------------

def test_criterion_4_reflected_layer(lfr):
    ana = rc_analytic(lfr, 25)
    emp, emp2 = rc_empirical(lfr, j0=50, ns=(500, 1000), window=25)
    sup_500 = float(np.max(np.abs(emp.values - ana.values)))
    assert sup_500 < 1e-3, f"sup error at n=500 is {sup_500:.2e}"
    sup_1000 = float(np.max(np.abs(emp2.values - ana.values)))
    assert sup_1000 <= max(sup_500 / 2.0, 1e-12), \
        f"sup error {sup_500:.2e} -> {sup_1000:.2e} did not halve"
    ratios = ana.values[1:] / ana.values[:-1]
    assert np.max(np.abs(ratios - 0.2)) < 1e-8


# --- criterion 5: Gaussian-weighted error envelope --------------------------

def test_criterion_5_error_envelope(lfr, o3):
    # the sup is attained at the activation front j0 = n|alpha|; the grid
    # must contain those cells at every n or the n-comparison is vacuous
    j0s = sorted(set(range(50, 1001, 50)) | {125, 250, 500, 1000})
    fit_l = err_bound_fit(lfr, j0_list=j0s)
    assert fit_l.mu == 1
    assert fit_l.best_c0 > 0.0, "no admissible rate for the b=5 scheme"
    row = fit_l.sups[np.searchsorted(fit_l.c0_values, fit_l.best_c0)]
    assert np.all(row[1:] <= (1.0 + fit_l.growth_tol) * row[:-1])
    fit_o = err_bound_fit(o3, j0_list=j0s)
    assert fit_o.mu == 2
    assert fit_o.best_c0 > 0.0, "no admissible rate for the third-order rule"


# --- criterion 6: special-function identities -------------------------------

def test_criterion_6_gaussian_identities():
    p1 = GaussianParams(mu=1, beta=0.25)
    p2 = GaussianParams(mu=2, beta=3.0 / 128.0)
    assert abs(gaussian_h(0.0, p1) - 1.0 / math.sqrt(math.pi)) < 1e-8
    xs = np.linspace(0.0, 5.0, 6)
    for p in (p1, p2):
        assert abs(gaussian_e(0.0, p) - 0.5) < 1e-8
        total = gaussian_e(xs, p) + gaussian_e(-xs, p)
        assert np.max(np.abs(total - 1.0)) < 1e-8
        for s in (0.3, 0.7):
            fx = appendix_f(np.array([0.5, 1.5]), s, p)
            ex = gaussian_e(np.array([0.5, 1.5]), p)
            assert np.max(np.abs(-fx / (2.0 * math.pi) - ex)) < 1e-6


# --- criterion 7: inverse Laplace equals time stepping ----------------------

def test_criterion_7_reconstruction_equivalence(lfr, o3):
    t0 = time.perf_counter()
    j0s = list(range(1, 31))
    js = list(range(1, 31))
    for scheme in (lfr, o3):
        # time stepping, n = 0..50: out[n, i0, j] -> stepped[i0, n, j]
        stepped = temporal_green_sweep(scheme, range(51), j0s,
                                       js).transpose(1, 0, 2)
        tab_a = inverse_laplace_table(scheme, 50, j0s, js, r0=0.05)
        err = float(np.max(np.abs(tab_a.values - stepped)))
        assert err < 1e-8, f"{scheme.name}: reconstruction error {err:.2e}"
        tab_b = inverse_laplace_table(scheme, 50, j0s, js, r0=0.2)
        spread = float(np.max(np.abs(tab_a.values - tab_b.values)))
        assert spread < 1e-8, f"{scheme.name}: contour spread {spread:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"reconstruction sweep took {elapsed:.0f}s"


# --- criterion 8: structural identities -------------------------------------

def test_criterion_8_structural_identities(lfr, o3):
    for scheme in (lfr, o3):
        r, p = scheme.r, scheme.p
        # G(10, 5, .) and Gt(10, .) on their support bounds and a margin
        js = np.arange(1 - r, 5 + 10 * r + p + 3)
        g = temporal_green_sweep(scheme, [10], [5], js)[0, 0]
        assert js[np.nonzero(g)[0]].max() <= 5 + scheme.r * 10
        assert g[5 + scheme.r * 10 + 1 - js[0]] == 0.0
        ds = np.arange(-10 * p - r - 3, 10 * r + p + 4)
        gw = temporal_green_whole_sweep(scheme, [10], ds)[0]
        support = ds[np.nonzero(gw)[0]]
        assert support.min() >= -10 * scheme.p
        assert support.max() <= 10 * scheme.r
        assert gw[-10 * scheme.p - 1 - ds[0]] == 0.0
        assert gw[10 * scheme.r + 1 - ds[0]] == 0.0
        assert abs(float(np.sum(gw)) - 1.0) < 1e-12

        ps = projector_set(scheme, 1.0)
        dim = scheme.p + scheme.r
        eye = np.eye(dim)
        assert np.max(np.abs(ps.pi_ss + ps.pi_c + ps.pi_su - eye)) < 1e-10
        for proj in (ps.pi_ss, ps.pi_c, ps.pi_su):
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        want = -(scheme.a[-1] / scheme.v) * np.ones(dim)
        got = ps.pi_c @ ps.e.astype(complex)
        assert np.max(np.abs(got - want)) < 1e-10, \
            f"{scheme.name}: pi_c e off by {np.max(np.abs(got - want)):.2e}"

        rng = np.random.default_rng(20260816)
        interior = rng.standard_normal(12)
        field = make_half_field(scheme, interior)
        evolved = apply_half_line(scheme, field, nsteps=7)
        js = np.arange(1, evolved.size - r + 1)
        greens = temporal_green_sweep(scheme, [7], range(1, 13), js)[0]
        superposed = np.zeros(js.size)
        for weight, gr in zip(interior, greens):
            superposed += weight * gr
        direct = evolved[r:]
        assert np.max(np.abs(direct - superposed)) < 1e-12


# --- criterion 9: resolvent boundedness and the residue limit ---------------

def _central_root(scheme, z: complex) -> complex:
    roots = characteristic_roots(scheme, z)
    return complex(roots[np.argmin(np.abs(roots - 1.0))])


def test_criterion_9_resolvent_limit(lfr, o3):
    j0 = 50
    js = np.arange(1, 13)
    for scheme in (lfr, o3):
        target = (rc_analytic(scheme, 12).values
                  + ru_analytic(scheme, j0, 12).values[j0 - 1])
        vals = {}
        for eps in (1e-2, 1e-3, 1e-4):
            z = 1.0 + eps
            rv = r_function(scheme, z, j0, js)
            bound = float(np.max(np.abs(eps * rv)))
            assert bound < 10.0, \
                f"{scheme.name}: |(z-1)R| = {bound:.2f} at eps={eps:g}"
            kappa = _central_root(scheme, z)
            vals[eps] = eps * rv * kappa ** j0
        # kappa(1+eps)^{j0} divides out the O(eps j0) drift of the
        # activation front; Richardson in eps then kills the linear term.
        limit = (10.0 * vals[1e-4] - vals[1e-3]) / 9.0
        err = float(np.max(np.abs(limit - target)))
        assert err < 1e-4, f"{scheme.name}: limit misses layers by {err:.2e}"
