"""Spatial Green's functions, the boundary correction, and time reconstruction."""

import dataclasses
import math

import numpy as np
import pytest

from halflab import resolvent
from halflab.evolution import temporal_green, temporal_green_whole
from halflab.resolvent import (
    NearSpectrumError,
    QuadratureError,
    inverse_laplace_reconstruct,
    inverse_laplace_table,
    r_function,
    spatial_green_half,
    spatial_green_whole,
)
from halflab.scheme import SchemeDefinition, builtin_lfr, builtin_o3
from halflab.spectral import characteristic_roots

KS2 = (14.0 - math.sqrt(176.0)) / 10.0  # stable root of the b = 5 scheme at z = 2
KU2 = (14.0 + math.sqrt(176.0)) / 10.0


def test_half_field_metadata(lfr):
    fld = spatial_green_half(lfr, 2.0, 5)
    assert fld.z == 2.0
    assert fld.j0 == 5
    assert fld.j_min == 0
    assert fld.j_max == fld.j_min + fld.values.size - 1
    assert fld.value(fld.j_max + 10) == 0.0
    assert fld.value(fld.j_min - 1) == 0.0
    assert fld.truncation_residual < 1e-8
    with pytest.raises(dataclasses.FrozenInstanceError):
        fld.z = 3.0


def test_half_validation(lfr):
    with pytest.raises(ValueError):
        spatial_green_half(lfr, 2.0, 0)
    with pytest.raises(ValueError):
        spatial_green_half(lfr, 2.0, 5, J_trunc=100)


def test_whole_field_metadata(lfr):
    fld = spatial_green_whole(lfr, 2.0, window=40)
    assert fld.j0 is None
    assert fld.j_min == -40
    assert fld.j_max == 40
    assert fld.truncation_residual < 1e-10


def test_whole_sum_identity(lfr, o3):
    # Summing the resolvent equation over j: (z - F(1)) sum_j Gt(j) = 1,
    # and F(1) = 1 by consistency.
    for scheme in (lfr, o3):
        fld = spatial_green_whole(scheme, 2.0, window=80)
        total = fld.values.sum()
        assert abs((2.0 - 1.0) * total - 1.0) < 1e-10


def test_whole_decay_both_directions(lfr):
    fld = spatial_green_whole(lfr, 2.0, window=40)
    mid = abs(fld.value(0))
    assert abs(fld.value(30)) < 1e-20 * mid / KS2 ** 10
    assert abs(fld.value(-30)) < mid * (1.0 / KU2) ** 20
    # geometric rates match the characteristic roots at z = 2 (checked near
    # the source where the kernel is well above the quadrature floor)
    ratio_right = fld.value(2) / fld.value(1)
    assert abs(ratio_right - KS2) < 1e-10
    ratio_left = fld.value(-2) / fld.value(-1)
    assert abs(ratio_left - 1.0 / KU2) < 1e-10


def test_half_rank_one_boundary_correction(lfr):
    # For r = 1 the half-line kernel is the whole-line one plus a rank-one
    # stable-root correction fixed by the ghost rule:
    #   G(z, j0, j) = Gt(j - j0) + c kappa_s^j,
    #   c = (b Gt(1 - j0) - Gt(-j0)) / (1 - b kappa_s).
    z, j0, b = 2.0, 5, 5.0
    half = spatial_green_half(lfr, z, j0)
    whole = spatial_green_whole(lfr, z, window=70)
    c = (b * whole.value(1 - j0) - whole.value(-j0)) / (1.0 - b * KS2)
    js = np.arange(1, 41)
    got = np.array([half.value(int(j)) for j in js])
    want = np.array([whole.value(int(j) - j0) + c * KS2 ** j for j in js])
    assert np.max(np.abs(got - want)) < 1e-10


def test_near_spectrum_on_curve(lfr, o3):
    # z = 1 lies on the symbol curve for a consistent scheme.
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        spatial_green_half(lfr, 1.0, 5)
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        spatial_green_whole(o3, 1.0, window=10)


def test_near_spectrum_inside_curve(lfr):
    # the center of the symbol ellipse: the root split fails there
    with pytest.raises(NearSpectrumError, match="encircled"):
        spatial_green_half(lfr, 0.25, 5)


def test_near_spectrum_lopatinskii_zero():
    # b = 1/kappa_s(2) puts a Lopatinskii zero exactly at z = 2: the
    # whole-line kernel is fine, the half-line solve must refuse.
    bad = builtin_lfr(-0.5, 0.75, 1.0 / KS2)
    fld = spatial_green_whole(bad, 2.0, window=20)
    assert fld.truncation_residual < 1e-10
    with pytest.raises(NearSpectrumError, match="Lopatinskii determinant"):
        spatial_green_half(bad, 2.0, 5)


def test_r_function_scalar_and_array(lfr):
    val = r_function(lfr, 2.0, 5, 3)
    assert isinstance(val, complex)
    arr = r_function(lfr, 2.0, 5, np.array([[1, 2], [3, 4]]))
    assert arr.shape == (2, 2)
    assert abs(arr[1, 0] - val) < 1e-14


def test_r_function_is_rank_one_here(lfr):
    # agrees with the boundary correction c kappa_s^j from the half kernel
    j0 = 5
    whole = spatial_green_whole(lfr, 2.0, window=70)
    c = (5.0 * whole.value(1 - j0) - whole.value(-j0)) / (1.0 - 5.0 * KS2)
    js = np.arange(1, 21)
    got = r_function(lfr, 2.0, j0, js)
    assert np.max(np.abs(got - c * KS2 ** js)) < 1e-10


def test_reconstruct_delta_at_n_zero(lfr):
    at_source = inverse_laplace_reconstruct(lfr, 0, 3, 3)
    off_source = inverse_laplace_reconstruct(lfr, 0, 3, 5)
    assert abs(at_source - 1.0) < 1e-8
    assert abs(off_source) < 1e-8


@pytest.mark.parametrize("n,j0,j", [(1, 1, 1), (5, 2, 4), (12, 6, 3)])
def test_reconstruct_matches_time_stepping(lfr, n, j0, j):
    want = temporal_green(lfr, n, j0).value(j)
    got = inverse_laplace_reconstruct(lfr, n, j0, j)
    assert abs(got.imag) < 1e-10
    assert abs(got.real - want) < 1e-9


def test_reconstruct_whole_line(o3):
    n, j = 6, -2
    want = temporal_green_whole(o3, n).value(j)
    got = inverse_laplace_reconstruct(o3, n, 1, j, whole_line=True)
    assert abs(got.real - want) < 1e-9


def test_reconstruct_r0_independent(lfr):
    a = inverse_laplace_reconstruct(lfr, 8, 2, 3, r0=0.02)
    b = inverse_laplace_reconstruct(lfr, 8, 2, 3, r0=0.2)
    assert abs(a - b) < 1e-8


def test_reconstruct_validation(lfr):
    with pytest.raises(ValueError):
        inverse_laplace_reconstruct(lfr, -1, 1, 1)
    with pytest.raises(ValueError):
        inverse_laplace_reconstruct(lfr, 1, 1, 1, r0=0.0)


def test_table_matches_pointwise(lfr):
    j0s, js = [2, 3], [1, 4]
    table = inverse_laplace_table(lfr, 6, j0s, js)
    assert table.values.shape == (2, 7, 2)
    assert np.array_equal(table.n_values, np.arange(7))
    assert table.max_imag < 1e-10
    assert table.nodes >= 64
    for i0, j0 in enumerate(j0s):
        for i, j in enumerate(js):
            direct = inverse_laplace_reconstruct(lfr, 5, j0, j)
            assert abs(table.values[i0, 5, i] - direct.real) < 1e-9


def test_table_matches_time_stepping(o3):
    table = inverse_laplace_table(o3, 10, [1, 4], [2, 6])
    for i0, j0 in enumerate([1, 4]):
        g = temporal_green(o3, 10, j0)
        for i, j in enumerate([2, 6]):
            assert abs(table.values[i0, 10, i] - g.value(j)) < 1e-9


def test_table_validation(lfr):
    with pytest.raises(ValueError):
        inverse_laplace_table(lfr, -1, [1], [1])


def test_table_solves_each_nested_node_once(lfr):
    table = inverse_laplace_table(lfr, 6, [2], [1])
    assert table.solves == table.nodes // 2 + 1
    # node k of the N ring is node 2k of the 2N ring, bitwise
    for N in (64, 512, 4096):
        assert resolvent._ring(0.05, 2 * N)[::2].tobytes() == \
            resolvent._ring(0.05, N).tobytes()


def test_reconstruct_is_one_table_solve_per_node(lfr, monkeypatch):
    nodes = inverse_laplace_table(lfr, 5, [2], [4]).nodes
    calls = []
    solve = resolvent.solve_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(resolvent, "solve_banded", counting)
    inverse_laplace_reconstruct(lfr, 5, 2, 4)
    assert len(calls) == nodes // 2 + 1


def test_table_unsettled_ring_raises(lfr, monkeypatch):
    # the last ring tried has exactly _CONTOUR_CAP nodes
    batches = []
    guard = resolvent._guard_ring

    def recording(scheme, zs):
        batches.append(zs.size)
        return guard(scheme, zs)

    monkeypatch.setattr(resolvent, "_guard_ring", recording)
    monkeypatch.setattr(resolvent, "_CONTOUR_CAP", 256)
    with pytest.raises(QuadratureError, match="within 256 nodes"):
        inverse_laplace_table(lfr, 4, [1], [1], tol=0.0)
    assert batches == [33, 32, 64]


def _record_windows_and_batches(monkeypatch):
    """The window of every band template built and the size of every batch
    the guard checks."""
    windows, batches = [], []
    template, guard = resolvent._band_template, resolvent._guard_ring

    def recording_template(scheme, J_trunc):
        windows.append(J_trunc)
        return template(scheme, J_trunc)

    def recording_guard(scheme, zs):
        batches.append(zs.size)
        return guard(scheme, zs)

    monkeypatch.setattr(resolvent, "_band_template", recording_template)
    monkeypatch.setattr(resolvent, "_guard_ring", recording_guard)
    return windows, batches


def test_table_doubles_short_window(monkeypatch):
    # kappa_s near -0.9 at z ~ 1: at r0 = 1e-3 the decay over the 200 cells
    # past the source is rho^200 ~ 1.7e-11 > 1e-12, so the window doubles
    # once, and the check runs once per batch, before that batch's solves
    slow = builtin_lfr(-0.05, 0.0026, 0.0)
    windows, batches = _record_windows_and_batches(monkeypatch)
    table = inverse_laplace_table(slow, 4, [1], [1, 3], r0=1e-3)
    assert windows == [201, 402]
    assert batches[:3] == [33, 33, 32]
    assert sum(batches[1:]) == table.solves == table.nodes // 2 + 1
    for n in range(5):
        g = temporal_green(slow, n, 1)
        for i, j in enumerate([1, 3]):
            assert abs(table.values[0, n, i] - g.value(j)) < 1e-12
    windows.clear()
    inverse_laplace_table(slow, 4, [1], [1, 3], r0=2e-3)
    assert windows == [201]
    # the tail runs from the farthest source: 200 cells past j0 = 30
    windows.clear()
    inverse_laplace_table(slow, 4, [1, 30], [1, 3], r0=1e-3)
    assert windows == [230, 460]


def test_table_window_gives_up():
    # kappa_s(1) = (D + alpha)/(D - alpha) ~ 0.992: even the window doubled
    # three times keeps a tail of about 1e-8
    slower = builtin_lfr(-0.002, 0.5, 0.0)
    with pytest.raises(QuadratureError, match="window still carries"):
        inverse_laplace_table(slower, 4, [1], [1], r0=1e-5)


def test_pointwise_is_the_table_solve_at_a_ring_node(o3, monkeypatch):
    # a table with one source has the pointwise window j0 + 200, and every
    # node it solves gives bitwise the pointwise G(z, j0, .) at its j grid
    solved = []
    contour_sum = resolvent._contour_sum

    def recording(scheme, n_max, r0, tol, values):
        def kept(zs):
            G = values(zs)
            solved.extend(zip(zs, G))
            return G
        return contour_sum(scheme, n_max, r0, tol, kept)

    monkeypatch.setattr(resolvent, "_contour_sum", recording)
    js = [1, 3, 7, 40]
    inverse_laplace_table(o3, 6, [4], js)
    for z, G in solved[::9]:
        fld = spatial_green_half(o3, z, 4)
        assert fld.values.size == 204 + o3.r
        assert G.tobytes() == np.array([[fld.value(j) for j in js]]).tobytes()


@pytest.mark.parametrize("name, z, windows", [
    ("lfr", 2.0, [205]),
    # rho^200 ~ 1.7e-11 at z = e^{1e-3}: one doubling
    ("slow", math.exp(1e-3), [201, 402]),
    # kappa_s ~ 0.992 near z = 1: two doublings at z = 1.001 (403 rows when
    # the window followed the computed tail), three and a refusal at
    # z = e^{1e-5}
    ("slower", 1.001, [201, 402, 804]),
    ("slower", math.exp(1e-5), [201, 402, 804, 1608]),
])
def test_pointwise_guards_once_per_window(lfr, monkeypatch, name, z,
                                          windows):
    scheme = {"lfr": lfr, "slow": builtin_lfr(-0.05, 0.0026, 0.0),
              "slower": builtin_lfr(-0.002, 0.5, 0.0)}[name]
    j0 = 5 if name == "lfr" else 1
    tried, batches = _record_windows_and_batches(monkeypatch)
    if len(windows) == 4:
        with pytest.raises(QuadratureError, match="window still carries"):
            spatial_green_half(scheme, z, j0)
    else:
        fld = spatial_green_half(scheme, z, j0)
        assert fld.values.size == windows[-1] + scheme.r
        assert fld.truncation_residual < 1e-12
    assert tried == windows
    assert batches == [1] * len(windows)


def test_failed_solves_are_near_spectrum(lfr, monkeypatch):
    # an exactly singular band (a zero pivot) that the guard let through,
    # and a solution that misses the resolvent equations
    solve = resolvent.solve_banded

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    def off(*args, **kwargs):
        return solve(*args, **kwargs) + 1e-6

    monkeypatch.setattr(resolvent, "solve_banded", singular)
    with pytest.raises(NearSpectrumError, match="singular resolvent system"):
        spatial_green_half(lfr, 2.0, 5)
    with pytest.raises(NearSpectrumError, match="singular resolvent system"):
        inverse_laplace_table(lfr, 4, [1], [1])
    monkeypatch.setattr(resolvent, "solve_banded", off)
    with pytest.raises(NearSpectrumError, match="left residual"):
        spatial_green_half(lfr, 2.0, 5)


WIDE = SchemeDefinition(r=2, p=2, a=np.array([0.05, 0.3, 0.4, 0.2, 0.05]),
                        p_b=2, b=np.array([[2.0, -1.0], [3.0, -2.0]]))


def _half_system_entrywise(scheme, z, J_trunc):
    """Reference assembly, one entry at a time."""
    r, p = scheme.r, scheme.p
    M = J_trunc + r
    lo, up = r, p + r - 1
    ab = np.zeros((lo + up + 1, M), dtype=complex)

    def put(i, j, val):
        ab[up + i - j, j] += val

    for m in range(r):
        put(m, m, 1.0)
        for k in range(1, scheme.p_b + 1):
            put(m, r - 1 + k, -scheme.b[r - 1 - m, k - 1])
    for j in range(1, J_trunc + 1):
        m = j + r - 1
        put(m, m, z)
        for k in range(-r, p + 1):
            if m + k < M:
                put(m, m + k, -scheme.coeff(k))
    return ab, lo, up


@pytest.mark.parametrize("z", [2.0, -0.0 - 0.0j, 0.125 - 0.0j,
                               1.05 * np.exp(2.5j), complex(-1.2, 1e-300)])
def test_band_template_bitwise_equal_to_entrywise_assembly(lfr, o3, z):
    zero_b = builtin_lfr(-0.5, 0.75, 0.0)
    for scheme in (lfr, o3, WIDE, zero_b):
        want, lo, up = _half_system_entrywise(scheme, np.complex128(z), 40)
        got, lo2, up2 = resolvent._band_template(scheme, 40)
        got[up2, scheme.r:] += np.complex128(z)
        assert (lo2, up2) == (lo, up)
        assert got.tobytes() == want.tobytes()


def _interior_residual_loop(scheme, z, w, rhs_j0, J_trunc):
    r, p = scheme.r, scheme.p
    worst = 0.0
    for j in range(1, int(0.8 * J_trunc) + 1):
        acc = z * w[j + r - 1]
        for k in range(-r, p + 1):
            acc -= scheme.coeff(k) * w[j + k + r - 1]
        if j == rhs_j0:
            acc -= 1.0
        worst = max(worst, abs(acc))
    return worst


def _whole_residual_loop(scheme, z, vals, window):
    r, p = scheme.r, scheme.p
    top = int(0.8 * window)
    worst = 0.0
    for j in range(-top, top + 1):
        acc = z * vals[j + window]
        for k in range(-r, p + 1):
            acc -= scheme.coeff(k) * vals[j + k + window]
        if j == 0:
            acc -= 1.0
        worst = max(worst, abs(acc))
    return worst


def test_residuals_match_loop_reference(lfr, o3):
    rng = np.random.default_rng(3)
    z = 1.1 * np.exp(0.7j)
    for scheme in (lfr, o3, WIDE):
        for J_trunc, j0 in ((205, 5), (230, 30), (400, 180)):
            w = rng.standard_normal(J_trunc + scheme.r) \
                + 1j * rng.standard_normal(J_trunc + scheme.r)
            want = _interior_residual_loop(scheme, z, w, j0, J_trunc)
            got = resolvent._interior_residual(scheme, z, w, j0, J_trunc)
            assert abs(got - want) <= 1e-15 * want
        for window in (10, 41, 300):
            vals = rng.standard_normal(2 * window + 1) \
                + 1j * rng.standard_normal(2 * window + 1)
            want = _whole_residual_loop(scheme, z, vals, window)
            got = resolvent._whole_residual(scheme, z, vals, window)
            assert abs(got - want) <= 1e-15 * want
    # on actual solutions both stay at roundoff
    assert spatial_green_half(WIDE, z, 7).truncation_residual < 1e-12
    assert spatial_green_whole(WIDE, z, window=30).truncation_residual < 1e-10


def _stable_root(scheme, z):
    return min(characteristic_roots(scheme, z), key=abs)


def test_table_guard_lopatinskii_zero_on_first_ring():
    # b = 1/kappa_s(e^{r0}) puts a Lopatinskii zero on node 0 of every ring
    r0 = 0.05
    probe = builtin_lfr(-0.5, 0.75, 5.0)
    ks = _stable_root(probe, math.exp(r0)).real
    bad = builtin_lfr(-0.5, 0.75, 1.0 / ks)
    with pytest.raises(NearSpectrumError, match="Lopatinskii determinant"):
        inverse_laplace_table(bad, 4, [1], [1], r0=r0)


def test_table_guard_zero_on_odd_node_of_second_ring(monkeypatch):
    # real (b1, b2) with b1 k + b2 k^2 = 1 at k = kappa_s(z*) make Delta
    # vanish at z*, an odd node of the second (128-node) ring only
    r0 = 0.05
    z_star = complex(resolvent._ring(r0, 128)[21])
    k = _stable_root(builtin_o3(-0.5, 0.0, 0.0), z_star)
    b1, b2 = np.linalg.solve([[k.real, (k * k).real], [k.imag, (k * k).imag]],
                             [1.0, 0.0])
    bad = builtin_o3(-0.5, b1, b2)
    with pytest.raises(NearSpectrumError):
        spatial_green_half(bad, z_star, 5)

    batches = []
    guard = resolvent._guard_ring

    def recording(scheme, zs):
        batches.append(zs.copy())
        return guard(scheme, zs)

    monkeypatch.setattr(resolvent, "_guard_ring", recording)
    with pytest.raises(NearSpectrumError, match="Lopatinskii determinant") \
            as info:
        inverse_laplace_table(bad, 4, [1], [1], r0=r0)
    assert repr(z_star) in str(info.value)
    assert [b.size for b in batches] == [33, 32]
    assert z_star in batches[1] and z_star not in batches[0]


def test_table_guard_curve_distance_fallback(lfr):
    # the ring e^{1e-9} S^1 passes within 1e-9 of F(1) = 1, so node 0 does
    # not clear the curve's disk, and its curve distance refuses it
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        inverse_laplace_table(lfr, 4, [1], [1], r0=1e-9)


def test_non_finite_input_raises():
    # the banded solves skip scipy's finite check; the check on the band
    # template, made before the guard, must refuse a NaN ghost weight (the
    # root split does not see b, and a NaN Delta passes the |Delta| test),
    # and the contour sum a non-finite contour exponent.  SchemeDefinition
    # refuses a NaN ghost weight; one set past that check must still be
    # refused here
    with pytest.raises(ValueError, match="non-finite"):
        builtin_lfr(-0.5, 0.75, float("nan"))
    bad = builtin_lfr(-0.5, 0.75, 5.0)
    object.__setattr__(bad, "b", np.array([[math.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        inverse_laplace_table(bad, 4, [1], [1])
    with pytest.raises(ValueError, match="non-finite"):
        spatial_green_half(bad, 1.1, 3)
    lfr = builtin_lfr(-0.5, 0.75, 5.0)
    for r0 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            inverse_laplace_table(lfr, 4, [1], [1], r0=r0)
