import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import halflab as hl
from halflab import spectral
from halflab.scheme import _horner, boundary_matrix
from halflab.spectral import (EigenConditioningError, MultiplicityError,
                              RootSolveError, companion_matrix, projector_set)

from conftest import KAPPA_S_O3, KAPPA_U_O3, WIDE, o3_marginal_pair


def test_roots_at_one_lfr(lfr):
    roots = np.sort_complex(hl.characteristic_roots(lfr, 1.0))
    np.testing.assert_allclose(roots, [0.2, 1.0], atol=1e-10)


def test_roots_at_one_o3(o3):
    roots = hl.characteristic_roots(o3, 1.0)
    want = np.array([KAPPA_S_O3, 1.0, KAPPA_U_O3])
    got = np.sort(roots.real)
    np.testing.assert_allclose(got, np.sort(want), atol=1e-10)
    assert np.max(np.abs(roots.imag)) < 1e-10


def test_roots_at_two_lfr(lfr):
    # 5 k^2 / 8 + (1/4 - 2) k + 1/8 = 0  =>  k = (14 +- sqrt(176)) / 10
    roots = np.sort_complex(hl.characteristic_roots(lfr, 2.0))
    want = np.array([(14 - math.sqrt(176)) / 10, (14 + math.sqrt(176)) / 10])
    np.testing.assert_allclose(roots.real, want, atol=1e-12)


def test_companion_determinant_z_independent(lfr, o3):
    # det M(z) = (-1)^{p+r} a_{-r} / a_p regardless of z
    for s in (lfr, o3):
        want = (-1.0) ** (s.p + s.r) * s.a[0] / s.a[-1]
        for z in (1.0, 2.0, 0.5 + 1.2j):
            det = np.linalg.det(companion_matrix(s, z))
            assert det == pytest.approx(want, abs=1e-12)
    assert (-1.0) ** 2 * lfr.a[0] / lfr.a[-1] == pytest.approx(0.2, abs=0)


def test_companion_matrix_is_the_stacked_slice(lfr, o3):
    # one builder: the one-node companion matrix is its node of the stack
    zs = np.array([2.0, 0.5 + 1.2j, 1.0])
    for s in (lfr, o3, WIDE):
        stack = spectral._companions(spectral._char_coeffs(s, zs))
        for z, M in zip(zs, stack):
            assert np.array_equal(companion_matrix(s, z).view(float),
                                  M.view(float))


def test_companion_eigenvectors_vandermonde(o3):
    z = 1.7 + 0.3j
    M = companion_matrix(o3, z)
    for k in hl.characteristic_roots(o3, z):
        v = k ** np.arange(o3.p + o3.r - 1, -1, -1)
        np.testing.assert_allclose(M @ v, k * v, atol=1e-9)


def test_characteristic_roots_solve_symbol(lfr, o3):
    # each root satisfies F(kappa) = z
    for s in (lfr, o3):
        for z in (1.3, 2.0 - 0.7j):
            for k in hl.characteristic_roots(s, z):
                assert abs(hl.symbol_eval(s, k) - z) < 1e-10


def test_spectral_split_regions(lfr):
    out = hl.spectral_split(lfr, 2.0)
    assert out.region == "outside"
    assert len(out.stable) == 1 and len(out.unstable) == 1
    one = hl.spectral_split(lfr, 1.0)
    assert one.region == "at_one"
    assert len(one.stable) == 1 and len(one.central) == 1
    # z = F(e^{it}) halfway between two of 8192 curve samples: 2.4e-4 from
    # the nearest sample, yet on the curve, where a root lies on |kappa| = 1
    z = complex(hl.symbol_eval(lfr, np.exp(2j * np.pi * 1000.5 / 8192)))
    assert _winding_scalar(_sampled_curve(lfr), z)[1] > 1e-4
    assert hl.spectral_split(lfr, z).region == "on_curve"
    with pytest.raises(MultiplicityError, match="'on_curve'"):
        hl.lopatinskii(lfr, z)


def test_spectral_split_counts_sampled(lfr, o3):
    for s in (lfr, o3):
        for rad in (1.05, 1.25, 2.5):
            for ang in np.linspace(0, 2 * math.pi, 17, endpoint=False):
                z = rad * np.exp(1j * ang)
                out = hl.spectral_split(s, z)
                assert out.region == "outside"
                assert len(out.stable) == s.r
                assert len(out.unstable) == s.p


def test_stable_basis_rejected_inside(lfr):
    # the LFR symbol curve is the ellipse 0.25 + 0.75 cos t + 0.5 i sin t,
    # so its center is strictly inside; no pinned stable count there
    z = 0.25 + 0.0j
    split = hl.spectral_split(lfr, z)
    assert split.region == "inside"
    assert split.winding != 0
    with pytest.raises(MultiplicityError):
        hl.lopatinskii(lfr, z)


def test_lopatinskii_frozen_values(lfr):
    # Delta(z) = 1 - 5 kappa_s(z)
    val1 = hl.lopatinskii(lfr, 1.0)
    assert abs(val1.value) < 1e-10
    val2 = hl.lopatinskii(lfr, 2.0)
    ks = (14 - math.sqrt(176)) / 10
    assert val2.value == pytest.approx(1 - 5 * ks, abs=1e-10)
    assert abs(val2.value - 0.63324958) < 1e-6


_DPRIME_H = 1e-5


def _dprime_reference(scheme, h=_DPRIME_H):
    # an independent route to Delta'(1), no root tracking: the second-order
    # one-sided difference of Delta at 1, 1 + h, 1 + 2h.  Its O(h^2) error
    # grows as the branch point of kappa_s nears z = 1 (0.019 away on the
    # lfr family at alpha = -0.15): 9e-6 relative there at h = 1e-4, 9e-8 at
    # h = 1e-5
    v = hl.lopatinskii_values(scheme, [1.0, 1.0 + h, 1.0 + 2.0 * h])
    return complex((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h))


def _dprime_roundoff(scheme, h=_DPRIME_H):
    # the difference's roundoff: each Delta value is off by up to delta, and
    # the stencil weights (3 + 4 + 1) / (2h) carry that into the quotient.
    # Delta = det(B V(kappa_s)) with |kappa_s| <= 1, so every entry of B V
    # is at most beta, the largest row sum of |B|, and the r! products of
    # the determinant at most beta^r each; delta is 4 ulps of that size
    beta = np.abs(boundary_matrix(scheme)).sum(axis=1).max()
    delta = 4.0 * np.finfo(float).eps * math.factorial(scheme.r) \
        * beta ** scheme.r
    return (3.0 + 4.0 + 1.0) / (2.0 * h) * delta


def _assert_dprime_matches_reference(scheme):
    # relative to Delta'(1), plus the roundoff, which dominates where
    # Delta'(1) is tiny (kappa_s near 0: 6e-7 at alpha = -0.85, D = 0.85)
    d = hl.lopatinskii_derivative_at_one(scheme)
    assert math.isfinite(abs(d)) and d != 0
    assert abs(d - _dprime_reference(scheme)) \
        <= 1e-6 * abs(d) + _dprime_roundoff(scheme)
    return d


def test_lopatinskii_derivative_at_one(lfr, o3):
    # Delta'(1) = -b kappa_s'(1) with kappa_s'(1) = -2/5 for the 3-point
    # scheme: 5 * 2/5 = 2
    d = hl.lopatinskii_derivative_at_one(lfr)
    assert d == pytest.approx(2.0, rel=1e-14, abs=0)
    do3 = _assert_dprime_matches_reference(o3)
    assert abs(do3) > 1e-3     # z = 1 is a simple zero for the paper choice


_LFR_STENCIL = np.array([0.125, 0.25, 0.625])


@pytest.mark.parametrize("a, b", [
    # the lfr stencil convolved with itself (r = p = 2), and twice (r = p = 3)
    (np.convolve(_LFR_STENCIL, _LFR_STENCIL), [[0.3, -0.2], [0.5, 0.1]]),
    (np.convolve(np.convolve(_LFR_STENCIL, _LFR_STENCIL), _LFR_STENCIL),
     [[0.3, -0.2, 0.1], [0.5, 0.1, 0.0], [1.0, -0.4, 0.2]]),
])
def test_lopatinskii_derivative_several_stable_roots(a, b):
    # r >= 2: Jacobi's formula sums one determinant per stable root
    r = len(b)
    s = hl.SchemeDefinition(r=r, p=r, a=a, p_b=r, b=np.array(b))
    assert len(hl.lopatinskii(s, 1.0).kappas) == r
    _assert_dprime_matches_reference(s)


@settings(max_examples=20)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6),
       b=st.floats(0.2, 6.0), sign=st.sampled_from([-1.0, 1.0]))
# D = 0.85 + 9.3e-7, so kappa_s(1) = 5.5e-7 and Delta'(1) = -6.4e-7; the
# difference is off by 3.7e-12, 5.8e-6 of it, well inside the roundoff
# bound of 7.1e-10
@example(alpha=-0.85, slack=0.45946281049216675, b=1.0, sign=-1.0)
def test_lopatinskii_derivative_lfr_family(alpha, slack, b, sign):
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    s = hl.builtin_lfr(alpha, D, sign * b)
    d = _assert_dprime_matches_reference(s)
    # Delta = 1 - b kappa_s and P(kappa; 1) = -a_1 (kappa - 1)(kappa - ks)
    ks = s.a[0] / s.a[-1]
    want = -sign * b * ks / (s.a[-1] * (ks - 1.0))
    assert d == pytest.approx(want, rel=1e-12)


def _scheme_with_roots_at_one(r, roots, c, b):
    # the stencil whose P(kappa; 1) is c prod (kappa - root)
    Q = c * npoly.polyfromroots(roots)
    a = -Q
    a[r] += 1.0
    return hl.SchemeDefinition(r=r, p=len(roots) - r, a=a, p_b=len(b[0]),
                               b=np.array(b))


def test_lopatinskii_derivative_stable_collision_raises():
    s = _scheme_with_roots_at_one(2, [0.5, 0.5, 1.0], 1.0, [[0.7], [0.2]])
    with pytest.raises(MultiplicityError, match="stable roots nearly collide"):
        hl.lopatinskii_derivative_at_one(s)


def test_near_double_stable_roots_are_refused():
    # the root solve splits a double root of P(.; 1) into a pair about
    # sqrt(eps) apart (3e-8 here), so the double root at 0.5 and the pair
    # 0.5, 0.5 + 1e-12 both pass a fixed 1e-8 gap test and would give
    # Delta'(1) ~ 1e8; the error bound of each root rejects them, while
    # 1e-6 apart the roots are resolved
    b = [[0.3], [0.2]]
    for roots in ([0.5, 0.5, 1.0], [0.5, 0.5 + 1e-12, 1.0]):
        s = _scheme_with_roots_at_one(2, roots, -0.3, b)
        with pytest.raises(MultiplicityError,
                           match="stable roots nearly collide"):
            hl.lopatinskii_derivative_at_one(s)
    s = _scheme_with_roots_at_one(2, [0.5, 0.5 + 1e-6, 1.0], -0.3, b)
    # the exact value, from the roots of these float coefficients at 50
    # digits; roundoff in the roots, about 1e-10 against a gap of 1e-6,
    # leaves about 6e-5 of it
    want = 2499775.5682754283
    assert abs(hl.lopatinskii_derivative_at_one(s) - want) < 1e-3 * want


def test_lopatinskii_derivative_near_double_unstable_root():
    # only the stable roots enter Delta'(1): unstable roots 3 and 3 + 1e-7
    # that the root solve does not resolve (they come out 1.45e-7 apart)
    # change nothing
    s = _scheme_with_roots_at_one(1, [0.5, 1.0, 3.0, 3.0 + 1e-7], -1.0,
                                  [[0.7, -0.1]])
    unstable = [k for k in hl.characteristic_roots(s, 1.0) if abs(k) > 2.0]
    assert abs(abs(unstable[0] - unstable[1]) - 1e-7) > 1e-9
    _assert_dprime_matches_reference(s)


def test_scheme_rescaling_leaves_roots(lfr):
    # multiplying the ghost weight changes Delta but not the roots
    other = hl.builtin_lfr(-0.5, 0.75, 2.0)
    np.testing.assert_allclose(
        np.sort_complex(hl.characteristic_roots(other, 2.0)),
        np.sort_complex(hl.characteristic_roots(lfr, 2.0)), atol=1e-12)


def test_projector_set_structure(lfr, o3):
    for s in (lfr, o3):
        ps = projector_set(s, 1.0)
        dim = s.p + s.r
        eye = np.eye(dim)
        total = ps.pi_ss + ps.pi_c + ps.pi_su
        np.testing.assert_allclose(total, eye, atol=1e-10)
        for P in (ps.pi_ss, ps.pi_c, ps.pi_su):
            np.testing.assert_allclose(P @ P, P, atol=1e-10)
        np.testing.assert_allclose(ps.pi_c @ ps.pi_ss,
                                   np.zeros((dim, dim)), atol=1e-10)
        assert np.linalg.matrix_rank(ps.pi_c, tol=1e-8) == 1
        assert abs(ps.central - 1.0) < 1e-10


def test_central_projection_of_source(lfr, o3):
    # pi_c(1) e = -(a_p / alpha) * ones; the sign comes from the residue of
    # the geometric series at kappa = 1
    for s in (lfr, o3):
        rep = hl.check_hypothesis_one(s)
        ps = projector_set(s, 1.0)
        want = -(s.a[-1] / rep.alpha) * np.ones(s.p + s.r)
        np.testing.assert_allclose(ps.pi_c @ ps.e, want, atol=1e-10)


def test_central_projection_frozen_constants(lfr, o3):
    ps = projector_set(lfr, 1.0)
    np.testing.assert_allclose((ps.pi_c @ ps.e).real, 1.25 * np.ones(2),
                               atol=1e-10)
    ps3 = projector_set(o3, 1.0)
    np.testing.assert_allclose((ps3.pi_c @ ps3.e).real,
                               -0.125 * np.ones(3), atol=1e-10)


def test_residue_condition(lfr, o3):
    assert hl.residue_condition(lfr) is False
    assert hl.residue_condition(o3) is True


def test_residue_condition_dichotomy_family():
    # along the marginal line Delta(1) = 0 the reflected layer vanishes
    # exactly at the paper pair b2 = -1/kappa_s
    k = KAPPA_S_O3
    for delta in (-0.8, -0.3, 0.3, 0.8):
        b2 = -1.0 / k + delta
        b1 = (1.0 - b2 * k * k) / k
        s = hl.builtin_o3(-0.5, b1, b2)
        assert abs(hl.lopatinskii(s, 1.0).value) < 1e-10
        assert hl.residue_condition(s) is False
    b1, b2 = o3_marginal_pair()
    assert hl.residue_condition(hl.builtin_o3(-0.5, b1, b2)) is True


def test_hypothesis_two_verdicts(lfr, o3):
    rep = hl.check_hypothesis_two(lfr)
    assert rep.satisfied and rep.boundary_zero and rep.residue_ok is False
    assert rep.verdict == "ℓ¹-stable, ℓ^q-unstable for q>1"
    rep3 = hl.check_hypothesis_two(o3)
    assert rep3.satisfied and rep3.boundary_zero and rep3.residue_ok is True
    assert rep3.verdict == "ℓ^q-stable for all q"


def test_hypothesis_two_violation_witness():
    # ghost weight tuned so Delta vanishes at z = 2, an eigenvalue outside
    # the unit disk; the sweep needs a circle through 2 to see it
    ks = (14 - math.sqrt(176)) / 10
    bad = hl.builtin_lfr(-0.5, 0.75, 1.0 / ks)
    rep = hl.check_hypothesis_two(bad, radii=(1.0, 1.05, 1.25, 2.0, 2.5))
    assert not rep.satisfied
    assert rep.witness_z is not None
    assert abs(rep.witness_z - 2.0) < 1e-6
    assert rep.verdict.startswith("unstable")


def _stable_root(scheme, z):
    # kappa_s(z): the one root of P(.; z) in the open unit disk (r = 1)
    return hl.characteristic_roots(scheme, z)[0]


def _assert_zeros_vanish(scheme, rep):
    # the second route: Delta from the stable root at each named zero
    for w in rep.zeros:
        assert w["margin"] == abs(w["z"]) - 1.0 >= -w["bound"]
        assert abs(w["z"] - 1.0) > w["bound"]
        assert abs(hl.lopatinskii(scheme, w["z"]).value) < 1e-12 * max(
            1.0, float(np.abs(scheme.b).sum()))


@pytest.mark.parametrize("b2, want", [
    (59.0, []), (73.0, [1.0298084]), (579.0, [2.0429165]),
    (707.0, [2.2030986, -1.0782754])])
def test_root_route_counts_the_o3_zeros(b2, want):
    # along o3 b1 = 0 zeros enter |z| > 1 at b2 ~ 66 and ~ 643; the zero
    # at 1.0298 (b2 = 73) lies between the default sweep circles
    s = hl.builtin_o3(-0.5, 0.0, b2)
    rep = hl.check_hypothesis_two(s)
    got = [w["z"] for w in rep.zeros]
    np.testing.assert_allclose(got, want, atol=1e-7)
    assert all(z.imag == 0.0 for z in got)
    assert rep.satisfied is not want
    _assert_zeros_vanish(s, rep)


@settings(max_examples=20)
@given(modulus=st.floats(1.02, 3.0), angle=st.floats(0.05, math.pi - 0.05))
@example(modulus=1.2, angle=0.9).via("a pair of ROADMAP item 1")
@example(modulus=1.05, angle=2.5).via("a pair of ROADMAP item 1")
@example(modulus=3.0, angle=0.3).via("a pair of ROADMAP item 1")
def test_root_route_lists_a_planted_complex_pair(o3, modulus, angle):
    # b1 = 2 Re(1/k1), b2 = -1/|k1|^2 make Q(kappa) = (1 - kappa/k1)
    # (1 - kappa/conj(k1)), k1 = kappa_s(z1): zeros at z1 and conj(z1)
    z1 = modulus * complex(math.cos(angle), math.sin(angle))
    k1 = _stable_root(o3, z1)
    s = hl.builtin_o3(-0.5, 2.0 * (1.0 / k1).real, -1.0 / abs(k1) ** 2)
    rep = hl.check_hypothesis_two(s)
    # the two moduli differ by rounding, so either may come first
    got = sorted((w["z"] for w in rep.zeros), key=lambda z: -z.imag)
    assert len(got) == 2
    for w, z in zip(got, (z1, z1.conjugate())):
        assert abs(w - z) < 1e-9 * modulus
    assert rep.witness_z == rep.zeros[0]["z"] and not rep.satisfied
    _assert_zeros_vanish(s, rep)


@settings(max_examples=20)
@given(alpha=st.floats(-0.9, -0.1), c=st.floats(-0.9, 0.9))
@example(alpha=-0.5, c=0.0).via("the default o3 pair")
def test_root_route_counts_no_zero_on_marginal_and_perturbed_o3(alpha, c):
    # the marginal pairs (kappa0 = kappa_s(1), where F = 1 up to rounding)
    # and the rules u_0 = (1 + c) u_1 - c u_2 with sum b = 1, whose Q has
    # the root kappa = 1 (Delta = (1 - kappa_s)(1 - c kappa_s)): the
    # boundary zero, or none, but no zero off z = 1
    marginal = hl.builtin_o3(alpha, *o3_marginal_pair(alpha))
    for s in (marginal, hl.builtin_o3(alpha, 1.0 + c, -c)):
        rep = hl.check_hypothesis_two(s)
        assert rep.zeros == () and rep.satisfied
    assert rep.boundary_zero is False
    assert hl.check_hypothesis_two(marginal).boundary_zero


@settings(max_examples=20)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6))
def test_root_route_keeps_the_marginal_lfr_verdict(alpha, slack):
    # b = (D - alpha)/(D + alpha) = 1/kappa_s(1): F(1/b) = 1 up to rounding
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    rep = hl.check_hypothesis_two(
        hl.builtin_lfr(alpha, D, (D - alpha) / (D + alpha)))
    assert rep.zeros == () and rep.boundary_zero
    assert rep.verdict == "ℓ¹-stable, ℓ^q-unstable for q>1"


def test_root_route_makes_no_sweep(lfr, o3, monkeypatch):
    # for r = 1 only the z = 1 node is evaluated, whatever the radii
    nodes = []
    evaluate = spectral._evaluate

    def counted(scheme, zs):
        nodes.append(np.size(zs))
        return evaluate(scheme, zs)

    monkeypatch.setattr(spectral, "_evaluate", counted)
    for s in (lfr, o3):
        hl.check_hypothesis_two(s, radii=(1.0, 1.5, 3.0), annulus_samples=512)
    assert nodes == [1, 1]


def test_eigen_conditioning_guard():
    # the symmetric stencil has a double root kappa = 1 at z = 1; the
    # projector builder must refuse rather than return garbage
    s = hl.SchemeDefinition(r=1, p=1, a=np.array([0.25, 0.5, 0.25]),
                            p_b=1, b=np.array([[1.0]]))
    with pytest.raises((EigenConditioningError, MultiplicityError)):
        projector_set(s, 1.0)


@given(st.floats(1.08, 3.0), st.floats(0.0, 2 * math.pi))
def test_split_counts_outside_property(lfr, rad, ang):
    z = rad * np.exp(1j * ang)
    out = hl.spectral_split(lfr, z)
    assert out.region == "outside"
    assert len(out.stable) == 1 and len(out.unstable) == 1


# --- the batched evaluator against the one-node path -------------------------

def _roots_scalar(c):
    # the roots of one polynomial (ascending coefficients) as the batched
    # solver finds those of each row: the companion eigenvalues of np.roots,
    # then three Newton polish steps; kept as the reference
    dc = npoly.polyder(c)
    x = np.roots(c[::-1])
    for _ in range(3):
        Pp = npoly.polyval(x, dc)
        good = Pp != 0
        x[good] = x[good] - npoly.polyval(x[good], c) / Pp[good]
    return x[np.lexsort((np.angle(x), np.abs(x)))]


def _sampled_curve(scheme):
    # the symbol curve at 8192 points of the unit circle: the sampled route
    # to the region, which the evaluator takes from the roots instead
    t = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    return hl.symbol_eval(scheme, np.exp(1j * t))


def _winding_scalar(curve, z):
    # the winding number of the sampled curve around z and the distance
    # from z to the samples
    rel = curve - z
    dist = float(np.min(np.abs(rel)))
    ang = np.unwrap(np.angle(rel))
    closing = np.angle(rel[0]) - ang[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    return int(round((ang[-1] - ang[0] + closing) / (2.0 * np.pi))), dist


def _delta_scalar(scheme, z, curve):
    # Delta one node at a time: scalar roots, the winding over every curve
    # sample, det(B V); None where the split or the basis is rejected
    c = -scheme.a.astype(complex)
    c[scheme.r] += z
    roots = _roots_scalar(c)
    mods = np.abs(roots)
    ks = roots[mods < 1.0 - 1e-8]
    wind, dist = _winding_scalar(curve, z)
    if abs(z - 1.0) > 1e-12 and (dist < 1e-7 or wind != 0
                                 or ks.size != scheme.r):
        return None
    V = ks[None, :] ** np.arange(scheme.p + scheme.r - 1, -1, -1)[:, None]
    return complex(np.linalg.det(hl.boundary_matrix(scheme) @ V))


def _sweep_nodes(radii, samples, exclusion=0.06):
    return [rho * complex(math.cos(th), math.sin(th)) for rho in radii
            for th in np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
            if not (abs(rho - 1.0) < 1e-12
                    and abs(math.remainder(th, 2.0 * math.pi)) < exclusion)]


def _assert_batch_matches_pointwise(scheme, radii=(1.0, 1.05, 1.25, 2.5),
                                    samples=64):
    # the sweep nodes of check_hypothesis_two plus the CLI's real-axis
    # profile, batched against the one-node path and the scalar reference
    sweep = _sweep_nodes(radii, samples)
    zs = sweep + list(1.0 + np.linspace(0, 1, 51))
    got = hl.lopatinskii_values(scheme, zs)
    curve = _sampled_curve(scheme)
    want = np.array([_delta_scalar(scheme, z, curve) for z in zs],
                    dtype=complex)
    one = np.array([hl.lopatinskii(scheme, z).value for z in zs])
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(got.view(float), one.view(float))
    rep = hl.check_hypothesis_two(scheme, annulus_samples=samples,
                                  radii=radii)
    assert rep.delta_at_one == _delta_scalar(scheme, 1.0, curve)
    if scheme.r >= 2:
        # the sweep (r >= 2) redone from the one-node values
        min_mod, witness = math.inf, None
        for z, v in zip(sweep, one):
            if abs(complex(v)) < min_mod:
                min_mod = abs(complex(v))
                if min_mod < 1e-6:
                    witness = z
        assert rep.min_modulus == min_mod
        assert rep.witness_z == witness
    return rep


def _lfr_b_zero_at_two():
    ks = (14 - math.sqrt(176)) / 10
    return hl.builtin_lfr(-0.5, 0.75, 1.0 / ks)


def _lfr2(b):
    # the lfr stencil convolved with itself: r = p = 2, dissipative, two
    # stable roots at z = 1
    return hl.SchemeDefinition(r=2, p=2,
                               a=np.convolve(_LFR_STENCIL, _LFR_STENCIL),
                               p_b=2, b=np.array(b))


LFR2 = _lfr2([[0.3, -0.2], [0.5, 0.1]])


def _lfr2_zero_at_two():
    # the ghost rule u_0 = b1 u_1 + b2 u_2, u_-1 = 0: row 0 of B V(kappa) is
    # kappa (1 - b1 kappa - b2 kappa^2), which vanishes at both stable
    # roots at z = 2 for b1 = 1/k1 + 1/k2 and b2 = -1/(k1 k2), so
    # Delta(2) = 0
    k1, k2 = hl.lopatinskii(LFR2, 2.0).kappas
    return _lfr2([[(1.0 / k1 + 1.0 / k2).real, (-1.0 / (k1 * k2)).real],
                  [0.0, 0.0]])


def test_batched_lopatinskii_bitwise_builtins(lfr, o3):
    for s in (lfr, o3, LFR2):
        _assert_batch_matches_pointwise(s)


def test_batched_lopatinskii_bitwise_failing_rules():
    # the violating rules (a zero of Delta at z = 2, on the swept circle)
    # and l1-only o3 rules on the marginal line Delta(1) = 0
    for bad in (_lfr_b_zero_at_two(), _lfr2_zero_at_two()):
        rep = _assert_batch_matches_pointwise(
            bad, radii=(1.0, 1.05, 1.25, 2.0, 2.5), samples=32)
        assert not rep.satisfied
        assert abs(rep.witness_z - 2.0) < 1e-12
    k = KAPPA_S_O3
    for delta in (-0.8, 0.3):
        b2 = -1.0 / k + delta
        rep = _assert_batch_matches_pointwise(
            hl.builtin_o3(-0.5, (1.0 - b2 * k * k) / k, b2), samples=32)
        assert rep.boundary_zero and rep.residue_ok is False


@settings(max_examples=10)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6),
       b=st.floats(-6.0, 6.0))
def test_batched_lopatinskii_bitwise_lfr_family(alpha, slack, b):
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    s = hl.builtin_lfr(alpha, D, b)
    assert hl.check_hypothesis_one(s).satisfied
    _assert_batch_matches_pointwise(s, samples=16)


def test_batched_roots_match_scalar_iteration(o3):
    # rows differing only in the z term, as the evaluator builds them
    rng = np.random.default_rng(11)
    zs = np.concatenate([rng.uniform(0.2, 3.0, 300)
                         * np.exp(1j * rng.uniform(0, 2 * np.pi, 300)),
                         [1.0, 2.0, 0.5j]])
    c = spectral._char_coeffs(o3, zs)
    roots, errors = spectral._roots(c)
    assert not errors
    got = spectral._sort_rows(roots)
    for i in range(zs.size):
        assert np.array_equal(got[i].view(float),
                              _roots_scalar(c[i]).view(float))


def test_sweep_inside_curve_names_first_node(lfr):
    # the circle of radius 2 lies outside the symbol curve, the one of
    # radius 0.9 enters it at its first node z = 0.9, node 64; the batched
    # evaluator (lfr) and the r >= 2 sweep (LFR2) raise that node's error
    zs = _sweep_nodes((2.0, 0.9), 64)
    for s in (lfr, LFR2):
        inside = [i for i, z in enumerate(zs)
                  if hl.spectral_split(s, z).region == "inside"]
        assert inside[0] == 64 and len(inside) > 1
        with pytest.raises(MultiplicityError) as point:
            hl.lopatinskii(s, zs[64])
        with pytest.raises(MultiplicityError) as batch:
            if s.r == 1:
                hl.lopatinskii_values(s, zs)
            else:
                hl.check_hypothesis_two(s, radii=(2.0, 0.9))
        assert str(batch.value) == str(point.value)
        assert repr(zs[64]) in str(batch.value)


@pytest.mark.parametrize("kw, match", [
    (dict(radii=[]), "at least one radius"),
    (dict(annulus_samples=64.5), "must be integers"),
    (dict(annulus_samples=4), "must be >= 8"),
    (dict(radii=[-1.0]), r"finite and > 0, got -1\.0"),
    (dict(radii=[2.5, 0.0]), r"finite and > 0, got 0\.0"),
    (dict(radii=[math.inf]), "finite and > 0, got inf"),
    (dict(radii=[1.0, math.nan]), "finite and > 0, got nan"),
], ids=["no-radius", "half-samples", "few-samples", "negative-radius",
        "zero-radius", "inf-radius", "nan-radius"])
def test_sweep_refuses_bad_arguments(lfr, kw, match):
    # an empty sweep would return a verdict with min_modulus inf; the
    # circle of radius -1 passes through z = 1 at theta = pi, outside the
    # exclusion window, and would name the boundary zero as a violation.
    # The arguments are checked for every r, though only r >= 2 sweeps
    for s in (lfr, LFR2):
        with pytest.raises(ValueError, match=match):
            hl.check_hypothesis_two(s, **kw)


def test_sweep_takes_integral_float_samples(lfr):
    got = hl.check_hypothesis_two(lfr, annulus_samples=64.0)
    assert got == hl.check_hypothesis_two(lfr, annulus_samples=64)
    assert type(got.samples_per_radius) is int


def _lfr_stable_root(s, z):
    # closed-form roots of a_1 kappa^2 + (a_0 - z) kappa + a_{-1} = 0
    am1, a0, a1 = (complex(v) for v in s.a)
    disc = np.sqrt((a0 - z) ** 2 - 4.0 * a1 * am1)
    return min(((z - a0 + disc) / (2.0 * a1), (z - a0 - disc) / (2.0 * a1)),
               key=abs)


def test_roots_near_unit_circle_pass_residual():
    # two roots near |kappa| = 1 (0.99471, 1.00420), 0.0095 apart: they
    # pass the residual test and match the closed form
    s = hl.builtin_lfr(-0.0005, 0.9, 0.5)
    z = complex(np.exp(1e-5))
    c = spectral._char_coeffs(s, np.array([z, 2.0]))
    _, errors = spectral._roots(c)
    assert not errors
    val = hl.lopatinskii(s, z)
    ks = _lfr_stable_root(s, z)
    assert abs(val.kappas[0] - ks) < 1e-12
    delta = (hl.boundary_matrix(s) @ np.array([ks, 1.0]))[0]
    assert abs(val.value - delta) < 1e-12 * abs(delta)


def test_nan_row_raises_alone(lfr):
    # the NaN row gets its own error; the other rows are those of a batch
    # without it
    c = spectral._char_coeffs(lfr, np.array([2.0, 3.0, 0.5j]))
    c[1, 0] = np.nan
    roots, errors = spectral._roots(c)
    assert list(errors) == [1] and isinstance(errors[1], RootSolveError)
    assert "nan" in str(errors[1])
    alone, _ = spectral._roots(c[[0, 2]])
    assert np.array_equal(roots[[0, 2]].view(float), alone.view(float))


def test_polish_keeps_exact_double_root():
    # this lfr (slack 0.5, b = 0) has a double root -a_0 / 2a_1 at z = 0,
    # and the eigenvalue solve returns it twice to the last bit: P and
    # dP/dkappa there are both rounding noise, and an unguarded Newton step
    # threw one copy to -0.587, which then failed the residual test
    alpha = -0.21270143506800698
    s = hl.builtin_lfr(alpha, alpha * alpha + 0.5 * (1.0 - alpha * alpha),
                       0.0)
    double = -s.a[1] / (2.0 * s.a[2])
    roots, errors = spectral._roots(spectral._char_coeffs(s, np.array([0j])))
    assert not errors
    assert np.all(np.abs(roots[0] - double) < 1e-7)
    nodes = _assert_roots_place_nodes(s, [0.0])
    assert nodes.dist[0] == pytest.approx(s.a[2] * (1.0 + double) ** 2,
                                          rel=1e-7)


def _assert_roots_place_nodes(scheme, zs):
    # the region from the roots against the sampled route: the same winding
    # number wherever a node lies 1e-6 clear of the samples, and a distance
    # bound never above the distance to the samples (itself an upper bound
    # on the distance to the curve).  The bound carries the roots' rounding
    # error: at z = 1 the samples hold F(1) = 1 exactly while the central
    # root comes out 1.1e-16 off 1, and a double root (every lfr with slack
    # 0.5 has one at z = 0) comes out as a pair about sqrt(eps) of its
    # modulus apart, which moved the bound by up to 1.1e-8 of itself in 600
    # random lfr draws
    zs = np.asarray(zs, dtype=complex)
    nodes = spectral._evaluate(scheme, zs)
    curve = _sampled_curve(scheme)
    sampled = [_winding_scalar(curve, z) for z in zs]
    wind = np.array([w for w, _ in sampled])
    dist = np.array([d for _, d in sampled])
    clear = dist >= 1e-6
    assert np.array_equal(nodes.winding[clear], wind[clear])
    assert np.all(nodes.dist <= dist * (1.0 + 1e-7) + 1e-15)
    return nodes


def _clearance_nodes(radii=(1.0, 1.05, 1.25, 2.5), samples=64):
    return (_sweep_nodes(radii, samples) + list(1.0 + np.linspace(0, 1, 51))
            + [0.0, 0.25, 0.5 + 0.1j, -0.3, 0.99, 1.0j, -1.0])


def test_root_region_matches_sampled_builtins(lfr, o3):
    for s in (lfr, o3, hl.builtin_o3(-0.5, 0.0, 0.0)):
        nodes = _assert_roots_place_nodes(s, _clearance_nodes())
        assert np.any(nodes.winding != 0) and np.any(nodes.winding == 0)


def test_root_region_matches_sampled_failing_rules():
    _assert_roots_place_nodes(_lfr_b_zero_at_two(),
                              _clearance_nodes((1.0, 1.05, 1.25, 2.0, 2.5),
                                               32))
    k = KAPPA_S_O3
    for delta in (-0.8, 0.3):
        b2 = -1.0 / k + delta
        _assert_roots_place_nodes(
            hl.builtin_o3(-0.5, (1.0 - b2 * k * k) / k, b2),
            _clearance_nodes(samples=32))


@settings(max_examples=10)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6),
       b=st.floats(-6.0, 6.0))
def test_root_region_matches_sampled_lfr_family(alpha, slack, b):
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    s = hl.builtin_lfr(alpha, D, b)
    _assert_roots_place_nodes(s, _clearance_nodes(samples=16))


def test_unit_sweep_clears_marginal_o3_pairs():
    # the unit circle passes closest to the o3 curves of the marginal pairs;
    # every sweep node there must still be certified outside
    unit = _sweep_nodes((1.0,), 64)
    for alpha in (-0.2, -0.4, -0.6, -0.8):
        s = hl.builtin_o3(alpha, *o3_marginal_pair(alpha))
        nodes = spectral._evaluate(s, unit)
        assert np.all(nodes.region == "outside")
        assert np.all(nodes.dist >= 1e-6)



def test_char_values_bitwise_per_row_polyval(lfr, o3):
    # the one evaluator of P, P', P'' and S gives bitwise the 1-D polyval
    # of each row, for a one-row stack, a stacked batch and a column subset
    # (the stable roots, as the collision test and Delta'(1) read them)
    zs = np.array([2.0, 1.5j, -1.2 + 0.3j, 1.0, 1.05 * np.exp(0.7j)])
    # the lfr stencil convolved with itself: two stable roots
    two = hl.SchemeDefinition(r=2, p=2,
                              a=np.convolve(_LFR_STENCIL, _LFR_STENCIL),
                              p_b=2, b=np.array([[0.3, -0.2], [0.5, 0.1]]))
    for s in (lfr, o3, two):
        c = spectral._char_coeffs(s, zs)
        roots = np.stack([hl.characteristic_roots(s, z) for z in zs])
        batch = _assert_char_values_per_row_polyval(c, roots, 2)
        subset = spectral._char_values(spectral._char_stack(c, 2),
                                       roots[:, :s.r], scale=True)
        for w, sub in zip(batch, subset):
            assert _bits(sub) == _bits(w[:, :s.r])


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _assert_char_values_per_row_polyval(c, kappas, order):
    # _char_values on the stack of c, and on each row's own one-row stack,
    # is bitwise the 1-D polyval of each row and of its polyder, with S the
    # polyval of |c| at |kappa|; numpy.polynomial is the reference only.
    # Returns the batch values
    batch = spectral._char_values(spectral._char_stack(c, order), kappas,
                                  scale=True)
    assert len(batch) == order + 2
    for i, row in enumerate(c):
        want = [npoly.polyval(kappas[i], npoly.polyder(row, m))
                for m in range(order + 1)]
        want.append(npoly.polyval(np.abs(kappas[i]), np.abs(row)))
        one = spectral._char_values(
            spectral._char_stack(c[i:i + 1], order), kappas[i:i + 1],
            scale=True)
        for w, b, o in zip(want, batch, one):
            assert b.shape == (len(c),) + w.shape
            assert o.shape == (1,) + w.shape
            assert _bits(b[i]) == _bits(w)
            assert _bits(o[0]) == _bits(w)
    return batch


def _values(dtype, size):
    part = st.floats(-1e3, 1e3, allow_subnormal=False)
    if dtype is complex:
        part = st.builds(complex, part, part)
    return st.lists(part, min_size=size, max_size=size)


@given(data=st.data(), degree=st.integers(0, 6), rows=st.integers(1, 4),
       per_row=st.integers(1, 5), c_dtype=st.sampled_from([float, complex]),
       k_dtype=st.sampled_from([float, complex]))
def test_char_values_bitwise_on_drawn_stacks(data, degree, rows, per_row,
                                             c_dtype, k_dtype):
    # real and complex stacks of degree 0-6 on (node, k) grids of several
    # shapes; P'' needs degree 2, so the stack goes as far as the degree
    c = np.array(data.draw(_values(c_dtype, rows * (degree + 1))),
                 dtype=c_dtype).reshape(rows, degree + 1)
    kappas = np.array(data.draw(_values(k_dtype, rows * per_row)),
                      dtype=k_dtype).reshape(rows, per_row)
    _assert_char_values_per_row_polyval(c, kappas, min(degree, 2))
    # _horner of one coefficient vector on any node array is polyval's
    # tensor evaluation
    for x in (kappas, kappas[0], kappas[0, 0], kappas[..., None]):
        assert _bits(_horner(c[0], x)) == \
            _bits(npoly.polyval(x, c[0]))

