import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import halflab as hl
from halflab import spectral
from halflab.spectral import (EigenConditioningError, MultiplicityError,
                              RootSolveError, companion_matrix, projector_set)

from conftest import KAPPA_S_O3, KAPPA_U_O3, o3_marginal_pair


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
        hl.stable_basis(lfr, z)


def test_lopatinskii_frozen_values(lfr):
    # Delta(z) = 1 - 5 kappa_s(z)
    val1 = hl.lopatinskii(lfr, 1.0)
    assert abs(val1.value) < 1e-10
    val2 = hl.lopatinskii(lfr, 2.0)
    ks = (14 - math.sqrt(176)) / 10
    assert val2.value == pytest.approx(1 - 5 * ks, abs=1e-10)
    assert abs(val2.value - 0.63324958) < 1e-6


def _dprime_reference(scheme, h=1e-5):
    # an independent route to Delta'(1), no root tracking: the second-order
    # one-sided difference of Delta at 1, 1 + h, 1 + 2h.  Its O(h^2) error
    # grows as the branch point of kappa_s nears z = 1 (0.019 away on the
    # lfr family at alpha = -0.15): 9e-6 relative there at h = 1e-4, 9e-8 at
    # h = 1e-5, while roundoff stays near 1e-10
    v = hl.lopatinskii_values(scheme, [1.0, 1.0 + h, 1.0 + 2.0 * h])
    return complex((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h))


def _assert_dprime_matches_reference(scheme):
    d = hl.lopatinskii_derivative_at_one(scheme)
    assert math.isfinite(abs(d)) and d != 0
    assert abs(d - _dprime_reference(scheme)) <= 1e-6 * abs(d)
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
    # Aberth splits a double root of P(.; 1) into a pair about 1e-8 apart,
    # so the double root at 0.5 and the pair 0.5, 0.5 + 1e-12 both come out
    # with a gap above 1e-8 and gave Delta'(1) ~ 1e8; the error bound of
    # each root rejects them, while 1e-6 apart the roots are resolved
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
    # that a solver barely separates change nothing
    s = _scheme_with_roots_at_one(1, [0.5, 1.0, 3.0, 3.0 + 1e-7], -1.0,
                                  [[0.7, -0.1]])
    unstable = [k for k in hl.characteristic_roots(s, 1.0) if abs(k) > 2.0]
    assert abs(unstable[0] - unstable[1]) < 1e-7
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


def test_power_apply_matches_matrix(o3):
    ps = projector_set(o3, 2.0)
    M = companion_matrix(o3, 2.0)
    vec = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(ps.power_apply(3, vec),
                               M @ M @ M @ vec, atol=1e-9)


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

def _aberth_scalar(c, tol=1e-14, max_iter=200):
    # the one-polynomial Aberth-Ehrlich iteration the batched solver runs
    # for each row, kept as the reference
    d = c.size - 1
    dc = npoly.polyder(c)
    radius = abs(c[0] / c[-1]) ** (1.0 / d)
    angles = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.4 / d
    x = radius * np.exp(1j * angles)
    for _ in range(max_iter):
        P = npoly.polyval(x, c)
        Pp = npoly.polyval(x, dc)
        bad = Pp == 0
        if np.any(bad):
            x[bad] *= 1.0 + 1e-8
            continue
        newton = P / Pp
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        w = newton / (1.0 - newton * inv.sum(axis=1))
        x = x - w
        if float(np.max(np.abs(w))) < tol * max(1.0, float(np.max(np.abs(x)))):
            break
    else:
        raise RootSolveError("no convergence")
    for _ in range(3):
        Pp = npoly.polyval(x, dc)
        good = Pp != 0
        x[good] = x[good] - npoly.polyval(x[good], c) / Pp[good]
    return x[np.lexsort((np.angle(x), np.abs(x)))]


def _winding_scalar(scheme, z):
    rel = spectral._symbol_curve(scheme) - z
    dist = float(np.min(np.abs(rel)))
    ang = np.unwrap(np.angle(rel))
    closing = np.angle(rel[0]) - ang[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    return int(round((ang[-1] - ang[0] + closing) / (2.0 * np.pi))), dist


def _delta_scalar(scheme, z):
    # Delta one node at a time: scalar roots, the winding over every curve
    # sample, det(B V); None where the split or the basis is rejected
    c = -scheme.a.astype(complex)
    c[scheme.r] += z
    roots = _aberth_scalar(c)
    mods = np.abs(roots)
    ks = roots[mods < 1.0 - 1e-8]
    wind, dist = _winding_scalar(scheme, z)
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
    want = np.array([_delta_scalar(scheme, z) for z in zs], dtype=complex)
    one = np.array([hl.lopatinskii(scheme, z).value for z in zs])
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(got.view(float), one.view(float))
    min_mod, witness = math.inf, None
    for z, v in zip(sweep, one):
        if abs(complex(v)) < min_mod:
            min_mod = abs(complex(v))
            if min_mod < 1e-6:
                witness = z
    rep = hl.check_hypothesis_two(scheme, annulus_samples=samples,
                                  radii=radii)
    assert rep.min_modulus == min_mod
    assert rep.witness_z == witness
    assert rep.delta_at_one == _delta_scalar(scheme, 1.0)
    return rep


def _lfr_b_zero_at_two():
    ks = (14 - math.sqrt(176)) / 10
    return hl.builtin_lfr(-0.5, 0.75, 1.0 / ks)


def test_batched_lopatinskii_bitwise_builtins(lfr, o3):
    for s in (lfr, o3):
        _assert_batch_matches_pointwise(s)


def test_batched_lopatinskii_bitwise_failing_rules():
    # the violating lfr rule (zero of Delta at z = 2, on the swept circle)
    # and l1-only o3 rules on the marginal line Delta(1) = 0
    rep = _assert_batch_matches_pointwise(
        _lfr_b_zero_at_two(), radii=(1.0, 1.05, 1.25, 2.0, 2.5), samples=32)
    assert not rep.satisfied
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
    roots, errors = spectral._aberth(c)
    assert not errors
    got = spectral._sort_rows(roots)
    for i in range(zs.size):
        assert np.array_equal(got[i].view(float),
                              _aberth_scalar(c[i]).view(float))


def test_blocked_winding_matches_pointwise(lfr, o3):
    # 37 nodes: several blocks plus a partial one; unit-circle nodes, z = 1,
    # nodes inside the curve and far outside it
    zs = np.array(_sweep_nodes((1.0,), 24)[:21]
                  + [1.0, 0.25, 0.5 + 0.1j, -0.3, 0.9, 1.5j, 2.0, -2.5,
                     1.0 + 1e-9, 0.99, 1.05, 0.1 - 0.2j, 3.0 + 1.0j,
                     1.0j, -1.0, 0.5 - 0.4j])
    assert zs.size == 37
    for s in (lfr, o3):
        wind, dist = spectral._windings(s, zs)
        for i, z in enumerate(zs):
            assert (wind[i], dist[i]) == _winding_scalar(s, complex(z))
        assert np.any(wind != 0) and np.any(wind == 0)


def test_sweep_inside_curve_names_first_node(lfr):
    # the circle of radius 2 lies outside the lfr ellipse, the one of radius
    # 0.9 enters it; the first node inside is z = 0.9, node 64 of the sweep
    zs = _sweep_nodes((2.0, 0.9), 64)
    inside = [i for i, z in enumerate(zs)
              if hl.spectral_split(lfr, z).region == "inside"]
    assert inside[0] == 64 and len(inside) > 1
    with pytest.raises(MultiplicityError) as point:
        hl.lopatinskii(lfr, zs[64])
    with pytest.raises(MultiplicityError) as batch:
        hl.check_hypothesis_two(lfr, radii=(2.0, 0.9))
    assert str(batch.value) == str(point.value)
    assert repr(zs[64]) in str(batch.value)


def _lfr_stable_root(s, z):
    # closed-form roots of a_1 kappa^2 + (a_0 - z) kappa + a_{-1} = 0
    am1, a0, a1 = (complex(v) for v in s.a)
    disc = np.sqrt((a0 - z) ** 2 - 4.0 * a1 * am1)
    return min(((z - a0 + disc) / (2.0 * a1), (z - a0 - disc) / (2.0 * a1)),
               key=abs)


def test_aberth_stalled_row_accepted_on_residual():
    # two roots near |kappa| = 1 (0.99471, 1.00420): the step settles at
    # 1.3e-14, just above the 1e-14 stopping rule, until the iteration limit
    s = hl.builtin_lfr(-0.0005, 0.9, 0.5)
    z = complex(np.exp(1e-5))
    c = spectral._char_coeffs(s, np.array([z, 2.0]))
    _, errors = spectral._aberth(c)
    assert not errors
    val = hl.lopatinskii(s, z)
    ks = _lfr_stable_root(s, z)
    assert abs(val.kappas[0] - ks) < 1e-12
    delta = (hl.boundary_matrix(s) @ np.array([ks, 1.0]))[0]
    assert abs(val.value - delta) < 1e-12 * abs(delta)


def test_aberth_nan_and_unconverged_rows_still_raise(lfr):
    c = spectral._char_coeffs(lfr, np.array([2.0, 3.0]))
    c[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        roots, errors = spectral._aberth(c)
    assert list(errors) == [1] and isinstance(errors[1], RootSolveError)
    assert "nan" in str(errors[1])
    alone, _ = spectral._aberth(c[:1])
    assert np.array_equal(roots[0].view(float), alone[0].view(float))
    # large steps at the iteration limit are not a stall
    _, errors = spectral._aberth(c[:1], max_iter=9)
    assert list(errors) == [0]


def _assert_clearance_sound(scheme, zs):
    # every node the support test clears has winding 0 and lies at least
    # its margin from the curve samples, by the winding route; _evaluate
    # sends the others (and z = 1) to that route, and its dist for a
    # cleared node is the disk margin or else the support margin
    zs = np.asarray(zs, dtype=complex)
    margin = spectral._support_margins(scheme, zs)
    wind, dist = spectral._windings(scheme, zs)
    cleared = margin >= 1e-6
    assert np.all(wind[cleared] == 0)
    assert np.all(margin <= dist + 1e-14)
    disk = np.abs(zs) - np.max(np.abs(spectral._symbol_curve(scheme)))
    assert np.all((disk <= margin + 1e-14) | (zs == 0.0))
    nodes = spectral._evaluate(scheme, zs)
    slow = ~cleared | (np.abs(zs - 1.0) <= 1e-12)
    assert np.array_equal(nodes.winding, np.where(slow, wind, 0))
    assert np.array_equal(nodes.dist, np.where(
        slow, dist, np.where(disk >= 1e-6, disk, margin)))
    assert np.all(nodes.region[~slow] == "outside")
    return cleared & (disk < 1e-6)


def _clearance_nodes(radii=(1.0, 1.05, 1.25, 2.5), samples=64):
    return (_sweep_nodes(radii, samples) + list(1.0 + np.linspace(0, 1, 51))
            + [0.0, 0.25, 0.5 + 0.1j, -0.3, 0.99, 1.0j, -1.0])


def test_support_clearance_builtins(lfr, o3):
    unit = np.array(_sweep_nodes((1.0,), 64))
    for s in (lfr, o3, hl.builtin_o3(-0.5, 0.0, 0.0)):
        # nodes only the support test clears, and nodes it leaves
        cleared = _assert_clearance_sound(s, _clearance_nodes())
        assert np.any(cleared) and not np.all(cleared)
        # the disk |w| <= max|F| = 1 clears no unit-circle node; the
        # support test clears most of them
        assert np.mean(spectral._support_margins(s, unit) >= 1e-6) > 0.5
    assert spectral._support_margins(lfr, np.array([0.0]))[0] == -np.inf


def test_support_clearance_failing_rules():
    _assert_clearance_sound(_lfr_b_zero_at_two(),
                            _clearance_nodes((1.0, 1.05, 1.25, 2.0, 2.5), 32))
    k = KAPPA_S_O3
    for delta in (-0.8, 0.3):
        b2 = -1.0 / k + delta
        _assert_clearance_sound(
            hl.builtin_o3(-0.5, (1.0 - b2 * k * k) / k, b2),
            _clearance_nodes(samples=32))


@settings(max_examples=10)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.6),
       b=st.floats(-6.0, 6.0))
def test_support_clearance_lfr_family(alpha, slack, b):
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    s = hl.builtin_lfr(alpha, D, b)
    _assert_clearance_sound(s, _clearance_nodes(samples=16))


def test_curve_cache_is_bounded():
    spectral._curve_cache.clear()
    schemes = [hl.builtin_lfr(-0.5, 0.6 + 0.01 * i, 5.0)
               for i in range(3 * spectral._CURVE_CACHE_SIZE)]
    curves = [spectral._symbol_curve(s) for s in schemes]
    assert len(spectral._curve_cache) == spectral._CURVE_CACHE_SIZE
    # the most recent schemes hit; a hit makes its scheme the most recent
    recent = schemes[-spectral._CURVE_CACHE_SIZE:]
    assert spectral._symbol_curve(recent[0]) is curves[-len(recent)]
    spectral._symbol_curve(schemes[0])
    assert spectral._symbol_curve(recent[0]) is curves[-len(recent)]
    assert spectral._symbol_curve(recent[1]) is not curves[1 - len(recent)]
    assert len(spectral._curve_cache) == spectral._CURVE_CACHE_SIZE
    assert np.array_equal(curves[0], spectral._symbol_curve(schemes[0]))
