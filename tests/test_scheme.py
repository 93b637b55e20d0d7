import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import halflab as hl
from halflab.scheme import scheme_from_json, scheme_to_json


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
    # circle sampling can catch it
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
