import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import halflab as hl
from halflab import scheme
from halflab.scheme import scheme_from_json, scheme_to_json

from conftest import NEAR_TOUCH_INLINE, WIDE, o3_marginal_pair

# the sampled reference for the dissipativity margin: |F| on GRID uniform
# circle points with |t| <= the series radius left out
GRID = 100_000
H = 2.0 * math.pi / GRID


def test_lfr_coefficients(lfr):
    assert lfr.r == 1 and lfr.p == 1 and lfr.p_b == 1
    np.testing.assert_allclose(lfr.a, [0.125, 0.25, 0.625], atol=0)
    assert lfr.coeff(-1) == 0.125 and lfr.coeff(1) == 0.625
    np.testing.assert_allclose(lfr.b, [[5.0]], atol=0)


def test_o3_coefficients(o3):
    assert o3.r == 1 and o3.p == 2 and o3.p_b == 2
    np.testing.assert_allclose(
        o3.a, [-1 / 16, 9 / 16, 9 / 16, -1 / 16], atol=1e-15)
    # the marginal ghost weights satisfy 1 - b1 - b2 = 0 exactly in algebra
    assert abs(1.0 - o3.b[0, 0] - o3.b[0, 1]) < 1e-10


def test_symbol_consistency(lfr, o3):
    for s in (lfr, o3):
        assert abs(hl.symbol_eval(s, 1.0) - 1.0) < 1e-14


def test_symbol_laurent_values(lfr):
    # F(kappa) = 1/(8 kappa) + 1/4 + 5 kappa/8
    for kappa in (2.0, -0.5, 0.3 + 0.4j):
        want = 0.125 / kappa + 0.25 + 0.625 * kappa
        assert abs(hl.symbol_eval(lfr, kappa) - want) < 1e-14


def _symbol_zero_start(scheme, kappa):
    # symbol_eval's Horner loop before _horner: started from a zero array
    kappa = np.asarray(kappa, dtype=complex)
    out = np.zeros_like(kappa)
    for c in scheme.a[::-1]:
        out = out * kappa + c
    out = out * kappa ** (-scheme.r)
    return complex(out) if out.ndim == 0 else out


def test_symbol_bitwise_matches_zero_start_horner(lfr, o3):
    # _horner starts from c[-1] + 0 kappa, polyval's order; the values keep
    # every bit, signed zeros included, on check's circle, on scalars and
    # on random kappa
    rng = np.random.default_rng(38)
    t = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    nodes = [np.exp(1j * t), 1.0, -0.5, 0.3 + 0.4j, 2j, np.complex128(-3.0),
             rng.standard_normal(200) + 1j * rng.standard_normal(200),
             rng.standard_normal((4, 5)), np.exp(2j * t[::7]) * 1e-3]
    for s in (lfr, o3, WIDE):
        for kappa in nodes:
            got, want = hl.symbol_eval(s, kappa), _symbol_zero_start(s, kappa)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_symbol_rejects_zero(lfr):
    with pytest.raises(ValueError):
        hl.symbol_eval(lfr, 0.0)


def test_hypothesis_one_lfr(lfr):
    rep = hl.check_hypothesis_one(lfr)
    assert rep.satisfied
    assert abs(rep.alpha + 0.5) < 1e-12
    assert rep.mu == 1
    assert abs(rep.beta - 0.25) < 1e-12
    assert rep.dissipativity_margin > 0


def test_hypothesis_one_o3(o3):
    rep = hl.check_hypothesis_one(o3)
    assert rep.satisfied
    assert abs(rep.alpha + 0.5) < 1e-12
    assert rep.mu == 2
    assert abs(rep.beta - 3.0 / 128.0) < 1e-12


def test_hypothesis_one_diffusivity_failure():
    # D < alpha^2 flips the sign of beta; the series check sees it first
    D, al = 0.2, -0.5
    a = np.array([(D + al) / 2.0, 1.0 - D, (D - al) / 2.0])
    s = hl.SchemeDefinition(r=1, p=1, a=a, p_b=1, b=np.array([[1.0]]))
    rep = hl.check_hypothesis_one(s)
    assert not rep.satisfied
    assert "diffusivity" in rep.failure


def test_hypothesis_one_dissipativity_failure():
    # positive beta near t = 0 but |F| exceeds 1 near t = pi, so only the
    # margin beyond the series cut can catch it
    a = np.array([0.125, 0.1, 0.925, -0.15])
    s = hl.SchemeDefinition(r=1, p=2, a=a, p_b=0, b=np.zeros((1, 0)))
    rep = hl.check_hypothesis_one(s)
    assert not rep.satisfied
    assert "dissipativity" in rep.failure
    assert rep.witness_t is not None
    assert rep.beta.real > 0


def test_hypothesis_one_drift_failure():
    # symmetric stencil has zero drift
    a = np.array([0.25, 0.5, 0.25])
    s = hl.SchemeDefinition(r=1, p=1, a=a, p_b=1, b=np.array([[1.0]]))
    rep = hl.check_hypothesis_one(s)
    assert not rep.satisfied
    assert "drift" in rep.failure


@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6))
def test_lfr_family_diffusivity(alpha, slack):
    # beta = (D - alpha^2)/2 exactly for the three-point family
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    # D = -alpha zeroes a_{-1}, which builtin_lfr rejects
    assume(D != -alpha)
    s = hl.builtin_lfr(alpha, D, 1.0)
    rep = hl.check_hypothesis_one(s)
    assert rep.satisfied
    assert rep.mu == 1
    assert abs(rep.alpha - alpha) < 1e-10
    assert abs(rep.beta - (D - alpha * alpha) / 2.0) < 1e-10


def sampled_margin(s):
    t = np.linspace(-math.pi, math.pi, GRID, endpoint=False)
    t = t[np.abs(t) > scheme._SERIES_RADIUS]
    return float(1.0 - np.max(np.abs(hl.symbol_eval(s, np.exp(1j * t)))))


def assert_certified_within_sampling_bound(s):
    # the sampled max lies below the true one, by at most H times Bernstein's
    # bound sum |k a_k| on d|F|/dt (the nearest sample to any |t| >= the
    # radius is within H); both sides carry the rounding of one evaluation
    certified = hl.check_hypothesis_one(s).dissipativity_margin
    bound = H * np.sum(np.abs(np.arange(-s.r, s.p + 1) * s.a))
    gap = sampled_margin(s) - certified
    assert -1e-15 <= gap <= bound + 1e-15


def inline_lfr(alpha: Fraction, D: Fraction, b: str = "0"):
    """The scan's dissipativity-failure rule: lfr coefficients with exact
    rational alpha and D, inline."""
    a = [str((D + alpha) / 2), str(1 - D), str((D - alpha) / 2)]
    return scheme_from_json(json.dumps(
        {"r": 1, "p": 1, "a": a, "p_b": 1, "b": [[b]]}))


# one scheme of each class of the stability scan; the ghost weight b does
# not enter the first hypothesis, it only places the lfr rule in its class
SCAN_CLASSES = {
    "lfr-marginal": hl.builtin_lfr(-0.35, 0.6, 0.95 / 0.25),
    "lfr-unstable": hl.builtin_lfr(-0.7, 0.8, 1.9),
    "lfr-stable": hl.builtin_lfr(-0.25, 0.3, -0.6),
    **{f"o3-marginal{al}": hl.builtin_o3(al, *o3_marginal_pair(al))
       for al in (-0.2, -0.4, -0.6, -0.8)},
    "o3-perturbed": hl.builtin_o3(-0.3, 1.4, -0.4),
    "lfr-D1.05": inline_lfr(Fraction(-4, 20), Fraction(21, 20), "-9/10"),
    "lfr-D1.45": inline_lfr(Fraction(-16, 20), Fraction(29, 20), "3/10"),
}


def test_certified_margin_builtins_against_sampling(lfr, o3):
    for s in (lfr, o3):
        assert_certified_within_sampling_bound(s)
        # the max sits at the cut: |F| decreases away from t = 0
        cut = np.exp(1j * np.array([-1.0, 1.0]) * scheme._SERIES_RADIUS)
        assert hl.check_hypothesis_one(s).dissipativity_margin == \
            1.0 - np.max(np.abs(hl.symbol_eval(s, cut)))


@pytest.mark.parametrize("name", sorted(SCAN_CLASSES))
def test_certified_margin_scan_classes_against_sampling(name):
    assert_certified_within_sampling_bound(SCAN_CLASSES[name])


@given(alpha=st.floats(-0.85, -0.15), D=st.floats(0.0, 1.45))
def test_certified_margin_lfr_family_against_sampling(alpha, D):
    # D above 1 makes |F(-1)| = 2D - 1 > 1: failures are bounded as well
    assume(alpha * alpha + 1e-3 < D and abs(D + alpha) > 1e-3)
    a = np.array([(D + alpha) / 2.0, 1.0 - D, (D - alpha) / 2.0])
    assert_certified_within_sampling_bound(
        hl.SchemeDefinition(r=1, p=1, a=a, p_b=0, b=np.zeros((1, 0))))


@pytest.mark.parametrize("alpha, D", [(Fraction(-4, 20), Fraction(21, 20)),
                                      (Fraction(-9, 20), Fraction(25, 20)),
                                      (Fraction(-16, 20), Fraction(29, 20))])
def test_lfr_above_d_one_fails_at_pi(alpha, D):
    rep = hl.check_hypothesis_one(inline_lfr(alpha, D))
    assert not rep.satisfied
    assert "dissipativity" in rep.failure
    # |F(-1)| = 2D - 1 is the max, at the critical point w = -1
    assert abs(abs(rep.witness_t) - math.pi) < 1e-12
    assert abs(rep.dissipativity_margin - (2.0 - 2.0 * float(D))) < 1e-15


def near_touch_peak(s, lo=2.0, hi=2.2):
    """The maximiser of |F(e^{it})| in [lo, hi], by bisection on the sign of
    d|F|^2/dt = 2 Re(conj(F) dF/dt), with dF/dt = sum i k a_k e^{ikt}."""
    ks = np.arange(-s.r, s.p + 1)

    def slope(t):
        w = np.exp(1j * ks * t)
        return (np.conj(np.sum(s.a * w)) * np.sum(1j * ks * s.a * w)).real

    assert slope(lo) > 0 > slope(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_near_touch_between_grid_points_fails():
    s = scheme_from_json(json.dumps(NEAR_TOUCH_INLINE))
    t_star = near_touch_peak(s)
    peak = abs(hl.symbol_eval(s, np.exp(1j * t_star)))
    assert 0.0 < peak - 1.0 < 2e-12
    # the grid's nearest points straddle the peak, below 1
    assert sampled_margin(s) > 1e-10
    rep = hl.check_hypothesis_one(s)
    assert rep.mu == 1 and rep.beta.real > 0
    assert not rep.satisfied
    assert "dissipativity" in rep.failure
    assert abs(abs(rep.witness_t) - t_star) < 1e-8
    assert -2e-12 < rep.dissipativity_margin < 0.0


def test_boundary_matrix_lfr(lfr):
    B = hl.boundary_matrix(lfr)
    np.testing.assert_allclose(B, [[-5.0, 1.0]], atol=0)
    assert abs((B @ np.ones(2))[0] + 4.0) < 1e-14


def test_boundary_matrix_o3(o3):
    B = hl.boundary_matrix(o3)
    b1, b2 = o3.b[0]
    np.testing.assert_allclose(B, [[-b2, -b1, 1.0]], atol=0)
    assert abs((B @ np.ones(3))[0]) < 1e-10


def test_builtin_guards():
    with pytest.raises(ValueError):
        hl.builtin_lfr(-0.5, 0.2, 5.0)      # D <= alpha^2
    with pytest.raises(ValueError):
        hl.builtin_lfr(-0.5, 0.5, 5.0)      # D = -alpha kills the left edge
    with pytest.raises(ValueError):
        hl.builtin_o3(0.5, 0.0, 0.0)        # alpha outside ]-1, 0[


def test_definition_validation():
    with pytest.raises(ValueError):
        hl.SchemeDefinition(r=1, p=1, a=np.array([1.0, 1.0]), p_b=0,
                            b=np.zeros((1, 0)))
    with pytest.raises(ValueError):
        hl.SchemeDefinition(r=1, p=1, a=np.array([0.0, 0.5, 0.5]), p_b=0,
                            b=np.zeros((1, 0)))
    with pytest.raises(ValueError):
        hl.SchemeDefinition(r=1, p=1, a=np.array([0.5, 0.0, 0.5]), p_b=2,
                            b=np.array([[1.0, 1.0]]))


def test_json_round_trip(lfr, o3):
    for s in (lfr, o3):
        back = scheme_from_json(scheme_to_json(s))
        np.testing.assert_array_equal(back.a, s.a)
        np.testing.assert_array_equal(back.b, s.b)
        assert (back.r, back.p, back.p_b) == (s.r, s.p, s.p_b)


@pytest.mark.parametrize("key", ["B", "lam", "P_b"])
def test_json_unknown_key_is_refused(lfr, key):
    doc = json.loads(scheme_to_json(lfr))
    doc[key] = doc.get(key.lower(), 1)
    with pytest.raises(ValueError, match=f"unknown scheme key '{key}'"):
        scheme_from_json(json.dumps(doc))


def test_json_rational_strings():
    doc = {"r": 1, "p": 2, "p_b": 2,
           "a": ["-1/16", "9/16", "9/16", "-1/16"],
           "b": [["0", "0"]]}
    s = scheme_from_json(json.dumps(doc))
    np.testing.assert_allclose(s.a, [-1 / 16, 9 / 16, 9 / 16, -1 / 16],
                               atol=0)


def test_ghost_coeffs_indexing(o3):
    np.testing.assert_array_equal(o3.ghost_coeffs(0), o3.b[0])
    with pytest.raises(IndexError):
        o3.ghost_coeffs(1)
    with pytest.raises(IndexError):
        o3.coeff(3)
