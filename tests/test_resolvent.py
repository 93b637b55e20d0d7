"""Spatial Green's functions, the boundary correction, and time reconstruction."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from halflab import resolvent
from halflab.evolution import (temporal_green_sweep,
                               temporal_green_whole_sweep)
from halflab.resolvent import (
    NearSpectrumError,
    QuadratureError,
    inverse_laplace_reconstruct,
    inverse_laplace_table,
    r_function,
    spatial_green_half,
    spatial_green_whole,
)
from halflab.scheme import (SchemeDefinition, builtin_lfr, builtin_o3,
                            symbol_eval)
from halflab.spectral import characteristic_roots

from conftest import WIDE

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


def _whole_line_fft(scheme, z, window, N=2 ** 16):
    """Gt(z, j) for |j| <= window from one N-node FFT of the sampled
    1/(z - F(e^{i theta})): the trapezoid rule for the Fourier integral
    (1/2pi) int e^{i j theta} / (z - F(e^{i theta})) dtheta, whose aliasing
    decays like the characteristic roots' distance from the unit circle."""
    theta = 2.0 * np.pi * np.arange(N) / N
    full = np.fft.ifft(1.0 / (z - symbol_eval(scheme, np.exp(1j * theta))))
    return full[np.arange(-window, window + 1) % N]


def _band_template(scheme, J_trunc):
    """The z-independent part of the banded half-line matrix (scipy ab
    layout) for unknowns w_{1-r}, ..., w_{J_trunc}; adding z to the interior
    diagonal ab[up, r:] completes it.

    Every entry is accumulated onto zero exactly as an entry-by-entry
    assembly would, which writes z and then -a_0 on the diagonal (IEEE
    addition commutes), so the completed matrix is bitwise that assembly's.
    """
    r, p = scheme.r, scheme.p
    M = J_trunc + r
    lo, up = r, p + r - 1
    ab = np.zeros((lo + up + 1, M), dtype=complex)
    ab[up, :r] += 1.0
    cols = r - 1 + np.arange(1, scheme.p_b + 1)
    for m in range(r):
        ab[up + m - cols, cols] += -scheme.b[r - 1 - m]
    rows = np.arange(r, M)
    for k in range(-r, p + 1):
        keep = rows + k < M
        ab[up - k, rows[keep] + k] += -scheme.coeff(k)
    return ab, lo, up


def _banded_half_line(scheme, zs, j0s, J_trunc, rows):
    """The half-line oracle: G(z, j0, .) at each node of zs for each j0 of
    j0s by one banded solve on the fixed window 1-r..J_trunc with zero far
    field, read at the buffer rows `rows` (row j + r - 1 holds cell j):
    shape (zs.size, j0s.size, rows).  Its truncation error is about
    max |kappa_s|^(J_trunc - max j0)."""
    template, lo, up = _band_template(scheme, J_trunc)
    rhs = np.zeros((J_trunc + scheme.r, len(j0s)), dtype=complex)
    rhs[np.asarray(j0s) + scheme.r - 1, np.arange(len(j0s))] = 1.0
    G = []
    for z in zs:
        ab = template.copy()
        ab[up, scheme.r:] += z
        G.append(solve_banded((lo, up), ab, rhs)[rows].T)
    return np.array(G)


@pytest.mark.parametrize("name, z", [
    ("lfr", 2.0), ("o3", 2.0), ("lfr", 1.1 * np.exp(0.7j)),
    ("o3", 1.1 * np.exp(0.7j)),
    # inside the symbol curve, where the stable count is not r
    ("o3", 0.3 + 0.1j), ("lfr", 0.25 + 0.05j),
    # the double unstable root of o3, summed on a circle
    ("o3", 1.814273803656083),
])
def test_whole_line_matches_fft_oracle(lfr, o3, name, z):
    scheme = {"lfr": lfr, "o3": o3}[name]
    want = _whole_line_fft(scheme, z, 40)
    got = spatial_green_whole(scheme, z, window=40).values
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


_A = np.random.default_rng(1).uniform(0.05, 1.0, 5)
# an r = p = 2 scheme whose double roots kappa_c (F'(kappa_c) = 0) lie
# 0.06-0.27 outside the unit circle, so their cluster circles are small
CLOSE = SchemeDefinition(r=2, p=2, a=_A / _A.sum(), p_b=2,
                         b=np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.xfail(strict=True, raises=QuadratureError, reason=(
    "the rounding term of _circle_sum overstates its error 100-200x near "
    "the unit circle and refuses an accurate cluster sum"))
@pytest.mark.parametrize("z", [
    -0.2961202380338542, complex(-0.40497344961017884, 0.05794959372095476),
    complex(-0.40497344961017884, -0.05794959372095476), 0.9954672226667043])
def test_whole_line_small_cluster_circle_matches_fft_oracle(z):
    # z = F(kappa_c) at each double root kappa_c of CLOSE
    want = _whole_line_fft(CLOSE, z, 40)
    got = spatial_green_whole(CLOSE, z, window=40).values
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


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


def test_near_spectrum_between_curve_samples(lfr):
    # z = F(e^{it}) halfway between two of 8192 equispaced curve samples,
    # 2.4e-4 from the nearest, so a guard on sampled distances passes it;
    # its root on |kappa| = 1 must make both guards refuse it
    t = 2.0 * np.pi * 1000.5 / 8192
    z = complex(symbol_eval(lfr, np.exp(1j * t)))
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        spatial_green_half(lfr, z, 5)
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        spatial_green_whole(lfr, z, window=10)


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
    want = temporal_green_sweep(lfr, [n], [j0], [j])[0, 0, 0]
    got = inverse_laplace_reconstruct(lfr, n, j0, j)
    assert abs(got.imag) < 1e-10
    assert abs(got.real - want) < 1e-9


def test_reconstruct_whole_line(o3):
    n, j = 6, -2
    want = temporal_green_whole_sweep(o3, [n], [j])[0, 0]
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
    stepped = temporal_green_sweep(o3, [10], [1, 4], [2, 6])[0]
    assert np.max(np.abs(table.values[:, 10] - stepped)) < 1e-9


def test_table_validation(lfr):
    with pytest.raises(ValueError):
        inverse_laplace_table(lfr, -1, [1], [1])


@pytest.mark.parametrize("call", [
    lambda s: inverse_laplace_table(s, 3, [2.7], [1, 2]),
    lambda s: inverse_laplace_table(s, 3, [2], [1.5, 2]),
    lambda s: inverse_laplace_table(s, 2.5, [1], [1]),
    lambda s: r_function(s, 2.0, 2.7, 3),
    lambda s: r_function(s, 2.0, 2, [1, 3.5]),
    lambda s: spatial_green_half(s, 2.0, 2.5),
    lambda s: spatial_green_half(s, 2.0, 5, J_trunc=250.5),
    lambda s: spatial_green_whole(s, 2.0, 3.5),
    lambda s: inverse_laplace_reconstruct(s, 2.5, 1, 1),
    lambda s: inverse_laplace_reconstruct(s, 3, 1, 1.5, whole_line=True),
], ids=["table-source", "table-cell", "table-horizon", "r-source", "r-cell",
        "half-source", "half-truncation", "whole-window", "reconstruct-time",
        "reconstruct-whole-cell"])
def test_resolvent_refuses_non_integral_input(lfr, call):
    # a time, source, cell or window is refused, not truncated to an integer
    with pytest.raises(ValueError, match="must be integers"):
        call(lfr)


def test_resolvent_takes_integral_floats(lfr):
    got = inverse_laplace_table(lfr, 3.0, [np.int64(2), 1.0], [1.0, 2])
    want = inverse_laplace_table(lfr, 3, [1, 2], [1, 2])
    for name in ("n_values", "j0_values", "j_values", "values", "imag"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert r_function(lfr, 2.0, 2.0, [1.0, np.int64(3)]).tobytes() == \
        r_function(lfr, 2.0, 2, [1, 3]).tobytes()
    assert spatial_green_half(lfr, 2.0, 5.0, J_trunc=np.int64(205)) \
        .values.tobytes() == spatial_green_half(lfr, 2.0, 5).values.tobytes()
    assert spatial_green_whole(lfr, 2.0, 40.0).values.tobytes() == \
        spatial_green_whole(lfr, 2.0, 40).values.tobytes()
    assert inverse_laplace_reconstruct(lfr, 3.0, 1.0, 2.0) == \
        inverse_laplace_reconstruct(lfr, 3, 1, 2)
    assert inverse_laplace_reconstruct(
        lfr, np.int64(3), 1, -1.0, whole_line=True) == \
        inverse_laplace_reconstruct(lfr, 3, 1, -1, whole_line=True)


def test_table_solves_each_nested_node_once(lfr):
    table = inverse_laplace_table(lfr, 6, [2], [1])
    assert table.solves == table.nodes // 2 + 1
    # node k of the N ring is node 2k of the 2N ring, bitwise
    for N in (64, 512, 4096):
        assert resolvent._ring(0.05, 2 * N)[::2].tobytes() == \
            resolvent._ring(0.05, N).tobytes()


def test_nested_ring_matches_the_full_ring(lfr, monkeypatch):
    # the default oracle's lfr table at r0 = 0.05, settled as one row:
    # T_2N = T_N / 2 + odd(N) against the full settled N ring, folded by
    # conjugate symmetry onto its upper half (weight 2/N, and 1/N at m = 0
    # and N/2) and summed at once.  Each route sums N/2 + 1 terms; the nested one takes each real
    # part as two real sums of as many products.  In any order a sum of k
    # terms errs by at most (k - 1) eps sum |terms| (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 4.2), so the two agree within
    # 4 (N + 4) eps sum |terms|; a node dropped or counted twice misses by
    # about sum |terms| / N
    settled = []
    trapezoid = resolvent._trapezoid

    def spy(*args):
        settled.append(trapezoid(*args))
        return settled[-1]

    monkeypatch.setattr(resolvent, "_trapezoid", spy)
    j0s, js = np.array([1, 5, 10, 20, 30]), np.array([1, 3, 7, 15, 30])
    n_max = 50
    table = inverse_laplace_table(lfr, n_max, j0s, js, r0=0.05)
    (rows, (N,)), = settled
    real = rows[0]
    assert N == table.nodes
    zs = resolvent._ring(0.05, N)[:N // 2 + 1]
    G = resolvent._green(lfr, zs, j0s, js)[0]
    w = np.full(zs.size, 2.0 / N)
    w[[0, -1]] = 1.0 / N
    zp = w[:, None] * zs[:, None] ** np.arange(1, n_max + 2)
    terms = zp[:, None, :, None] * G[:, :, None, :]
    direct, mass = terms.real.sum(axis=0), np.abs(terms).sum(axis=0)
    bound = 4.0 * (N + 4) * np.finfo(float).eps * mass
    assert np.all(np.abs(real - direct) <= bound)
    np.testing.assert_array_equal(table.values, real)


def _record_core_nodes(monkeypatch):
    """The nodes every `_core_solve` call is asked for."""
    nodes = []
    core_solve = resolvent._core_solve

    def recording(scheme, zs, *args):
        nodes.extend(zs)
        return core_solve(scheme, zs, *args)

    monkeypatch.setattr(resolvent, "_core_solve", recording)
    return nodes


def _nested_rule(fs, asked):
    """The nested trapezoid rule on [0, 1] of each function of fs, one row
    each, as the (first, odd) pair `_trapezoid` doubles; asked lists the
    rows of every odd call."""
    def first(n):
        v = np.linspace(0.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[[0, -1]] = 0.5
        return np.array([(f(v) * w).sum() / n for f in fs])

    def odd(n, live):
        asked.append(live.tolist())
        v = (2.0 * np.arange(n) + 1.0) / (2 * n)
        return np.array([fs[i](v).sum() / (2 * n) for i in live])

    return first, odd


def test_trapezoid_retires_each_row_on_its_own():
    # the rule is exact on the linear row, which settles at the first
    # doubling, and the others need more nodes: a settled row keeps its
    # sum and is asked for no more, so each row's sum and n are bitwise
    # those of its own one-row settle
    fs = [lambda v: 1.0 + v, lambda v: np.cos(3.0 * v), np.exp]
    asked = []
    sums, ns = resolvent._trapezoid("test", 8, 2 ** 16, 1e-9,
                                    *_nested_rule(fs, asked))
    assert ns[0] == 16 and ns[0] < ns[1] < ns[2]
    assert asked[0] == [0, 1, 2] and asked[1] == [1, 2] and asked[-1] == [2]
    for i, f in enumerate(fs):
        one, (n,) = resolvent._trapezoid("test", 8, 2 ** 16, 1e-9,
                                         *_nested_rule([f], []))
        assert one.tobytes() == sums[i:i + 1].tobytes() and n == ns[i]
    # a row left unsettled at the cap raises, whatever the others did
    with pytest.raises(QuadratureError, match="test quadrature did not "
                       "settle below 1e-09 within 64 nodes"):
        resolvent._trapezoid("test", 8, 64, 1e-9, *_nested_rule(fs, []))


def test_reconstruct_is_one_table_solve_per_node(lfr, o3, monkeypatch):
    # the default tables take every node from the residue sums: one
    # evaluation per node of the settled half-ring and not one core solve
    core = _record_core_nodes(monkeypatch)
    for scheme in (lfr, o3):
        for r0 in (0.02, 0.05, 0.2):
            table = inverse_laplace_table(scheme, 50, [1, 5, 10, 20, 30],
                                          [1, 3, 7, 15, 30], r0=r0)
            assert table.solves == table.nodes // 2 + 1
    assert core == []
    # a reconstruction is the table's one-cell case
    table = inverse_laplace_table(lfr, 5, [2], [4])
    got = inverse_laplace_reconstruct(lfr, 5, 2, 4)
    assert got == complex(table.values[0, 5, 0], table.imag[0, 5, 0])
    assert core == []


def _record_batches(monkeypatch):
    """The size of every batch the guard checks."""
    batches = []
    guard = resolvent._guard_ring

    def recording(scheme, zs):
        batches.append(zs.size)
        return guard(scheme, zs)

    monkeypatch.setattr(resolvent, "_guard_ring", recording)
    return batches


def test_table_unsettled_ring_raises(lfr, monkeypatch):
    # the last ring tried has exactly _CONTOUR_CAP nodes
    batches = _record_batches(monkeypatch)
    monkeypatch.setattr(resolvent, "_CONTOUR_CAP", 256)
    monkeypatch.setattr(resolvent, "_CONTOUR_TOL", 0.0)
    with pytest.raises(QuadratureError, match="within 256 nodes"):
        inverse_laplace_table(lfr, 4, [1], [1])
    assert batches == [33, 32, 64]


def test_slow_decay_table_needs_no_window(monkeypatch):
    # kappa_s near -0.9 at z ~ 1: at r0 = 1e-3 the decay over 200 cells
    # past the source is rho^200 ~ 1.7e-11, which doubled the window of a
    # truncated solve; the roots need none, and the check runs once per
    # batch
    slow = builtin_lfr(-0.05, 0.0026, 0.0)
    batches = _record_batches(monkeypatch)
    core = _record_core_nodes(monkeypatch)
    table = inverse_laplace_table(slow, 4, [1, 30], [1, 3], r0=1e-3)
    assert core == []
    assert batches[:3] == [33, 32, 64]
    assert sum(batches) == table.solves == table.nodes // 2 + 1
    # time stepping at n = 0..4, laid out as the table's (j0, n, j)
    stepped = temporal_green_sweep(slow, range(5), [1, 30], [1, 3])
    assert np.max(np.abs(table.values - stepped.transpose(1, 0, 2))) < 1e-12


def test_cross_split_table_nodes_take_core_solve(monkeypatch):
    # kappa_s(1) = (D + alpha)/(D - alpha) ~ 0.992: near z = 1 a stable and
    # an unstable root lie close across the unit circle, so the rounding
    # bound refuses the residue sums at the ring nodes nearest z = 1 (a
    # banded solve on a truncated window gave up there); those nodes take
    # the core solve, and the table keeps time stepping's values
    slower = builtin_lfr(-0.002, 0.5, 0.0)
    core = _record_core_nodes(monkeypatch)
    j0s, js = [1, 3], [1, 2]
    table = inverse_laplace_table(slower, 4, j0s, js, r0=1e-3)
    assert core and core[0] == math.exp(1e-3)
    assert table.solves == table.nodes // 2 + 1 + len(core)
    # time stepping at n = 0..4, laid out as the table's (j0, n, j)
    stepped = temporal_green_sweep(slower, range(5), j0s, js)
    assert np.max(np.abs(table.values - stepped.transpose(1, 0, 2))) < 1e-12


# P(kappa; z*) of the default o3 scheme has the double unstable root
# kappa* = 4.524425481014917
Z_STAR = 1.814273803656083


def test_double_unstable_root_node_sums_its_cluster_on_a_circle(
        o3, monkeypatch):
    # at z* the residue sums divide by P'(kappa*) ~ 0 and the rounding bound
    # refuses them.  The whole-line kernel sums the pair on a circle (its
    # match with the FFT oracle is in test_whole_line_matches_fft_oracle).
    # With r0 = ln z*, node 0 of every ring sits on z*; the table asks for
    # it once and takes it from the core solve, which reads no unstable
    # root, and keeps time stepping's values
    circles = []
    circle_sum = resolvent._circle_sum

    def recording(c, roots, centre, t, e):
        circles.append(centre)
        return circle_sum(c, roots, centre, t, e)

    monkeypatch.setattr(resolvent, "_circle_sum", recording)
    spatial_green_whole(o3, Z_STAR, window=10)
    assert len(circles) == 1 and abs(circles[0] - 4.524425481014917) < 1e-6
    core = _record_core_nodes(monkeypatch)
    j0s, js = [1, 4], [2, 6]
    table = inverse_laplace_table(o3, 10, j0s, js, r0=math.log(Z_STAR))
    assert core == [resolvent._ring(math.log(Z_STAR), 64)[0]]
    assert table.solves == table.nodes // 2 + 2
    assert len(circles) == 1
    # time stepping at n = 0..10, laid out as the table's (j0, n, j)
    stepped = temporal_green_sweep(o3, range(11), j0s, js)
    assert np.max(np.abs(table.values - stepped.transpose(1, 0, 2))) < 1e-12


def test_cluster_circle_cap_refuses(o3, monkeypatch):
    # a circle capped at 8 nodes leaves an aliasing bound far above the
    # tolerance at z*: the whole-line kernel, which has no other route,
    # refuses z*, while the table, which sums no cluster, is unaffected
    monkeypatch.setattr(resolvent, "_CLUSTER_CAP", 8)
    core = _record_core_nodes(monkeypatch)
    table = inverse_laplace_table(o3, 10, [1, 4], [2, 6], r0=math.log(Z_STAR))
    assert core == [resolvent._ring(math.log(Z_STAR), 64)[0]]
    assert table.solves == table.nodes // 2 + 2
    with pytest.raises(QuadratureError, match="rounding bound"):
        spatial_green_whole(o3, Z_STAR, window=10)


def _root_route_errors(scheme, r0, j0s, js, step):
    """At every step-th node of the upper half of the 64-node ring: the
    distance of `_green` to the banded oracle over the grid, in units of
    the node's max |G|, and the number of nodes `_green` took from the core
    solve."""
    zs = resolvent._ring(r0, 64)[:33:step]
    j0s, js = np.array(j0s), np.array(js)
    G, core = resolvent._green(scheme, zs, j0s, js)
    want = _banded_half_line(scheme, zs, j0s,
                             int(max(j0s[-1] + 200, js[-1] + 50)),
                             js + scheme.r - 1)
    err = np.abs(G - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    return err, core


@pytest.mark.parametrize("name", ["o3", "wide"])
@pytest.mark.parametrize("r0", [0.02, 0.2])
def test_root_route_matches_banded_solve_at_ring_nodes(o3, name, r0):
    # the default o3 and the r = 2 scheme (ghost cells j = -1, 0 included)
    # take every node from the residue sums, within 1e-12 of its max |G|
    scheme, js = {"o3": (o3, [1, 3, 7, 15, 30]),
                  "wide": (WIDE, [-1, 0, 1, 2, 5, 12])}[name]
    err, core = _root_route_errors(scheme, r0, [1, 5, 30], js, 4)
    assert core == 0
    assert np.all(err < 1e-12)


@settings(max_examples=15)
@given(alpha=st.floats(-0.85, -0.15), slack=st.floats(0.05, 0.95),
       b=st.floats(-6.0, 6.0), r0=st.sampled_from([0.02, 0.05, 0.2]))
def test_root_route_matches_banded_solve_lfr_family(alpha, slack, b, r0):
    # every node, from the residue sums or the core solve, is within 1e-12
    # of its max |G| of the banded oracle
    D = alpha * alpha + slack * (1.0 - alpha * alpha)
    assume(D != -alpha)
    scheme = builtin_lfr(alpha, D, b)
    try:
        err, _ = _root_route_errors(scheme, r0, [1, 4, 20], [0, 1, 2, 9, 25],
                                    8)
    except NearSpectrumError:
        # b = 1/kappa_s(z) at a drawn node: a Lopatinskii zero on the ring
        assume(False)
    assert np.all(err < 1e-12)


@pytest.mark.parametrize("j0s", [[1], [1, 5, 30]])
@pytest.mark.parametrize("name", ["lfr", "o3", "wide"])
def test_core_solve_matches_banded_solve_at_ring_nodes(lfr, o3, name, j0s):
    # the core solve on nodes the residue sums serve, within 1e-12 of max
    # |G|: with j0s = [1] and the r = 2 scheme the ghost rows read tail cells
    scheme, js = {"lfr": (lfr, [0, 1, 3, 7, 15, 30]),
                  "o3": (o3, [0, 1, 3, 7, 15, 30]),
                  "wide": (WIDE, [-1, 0, 1, 2, 5, 12])}[name]
    zs = resolvent._ring(0.05, 64)[:33:4]
    j0s, js = np.array(j0s), np.array(js)
    G = resolvent._core_solve(scheme, zs, resolvent._guard_ring(
        scheme, zs).kappas, j0s, js)
    want = _banded_half_line(scheme, zs, j0s, j0s[-1] + 200,
                             js + scheme.r - 1)
    assert np.max(np.abs(G - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [-0.005, -0.002])
def test_cross_split_half_line_matches_banded_oracle(alpha):
    # kappa_s(1) ~ 0.98 (alpha = -0.005) or ~ 0.992 (alpha = -0.002): at
    # z = e^{1e-5} a stable and an unstable root lie 0.02 or 0.015 apart
    # across the unit circle, the residue sums are refused, and the core
    # solve answers; 4000 cells put the oracle's truncation below 1e-14
    cross = builtin_lfr(alpha, 0.5, 0.0)
    fld = spatial_green_half(cross, math.exp(1e-5), 1)
    want = _banded_half_line(cross, [math.exp(1e-5)], [1], 4000,
                             np.arange(fld.values.size))[0, 0]
    assert np.max(np.abs(fld.values - want)) < 1e-12 * np.max(np.abs(want))


def test_cross_split_half_line_leaves_scipy_unloaded():
    # the core solve needs numpy alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import math, sys\n"
         "from halflab.resolvent import spatial_green_half\n"
         "from halflab.scheme import builtin_lfr\n"
         "spatial_green_half(builtin_lfr(-0.005, 0.5, 0.0), "
         "math.exp(1e-5), 1)\n"
         "print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_failed_solves_are_near_spectrum(monkeypatch):
    # a singular core system that the guard let through, and a solution
    # that misses the resolvent equations.  Only a node the residue sums
    # cannot serve takes the core solve: with kappa_s(1) ~ 0.98, node 0 of
    # the ring e^{1e-5} S^1 has a stable and an unstable root 0.02 apart
    # across the unit circle.  The residue route's r x r solves pass
    cross = builtin_lfr(-0.005, 0.5, 0.0)
    z = math.exp(1e-5)
    solve = np.linalg.solve

    def singular(a, b):
        if a.shape[-1] > cross.r:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    def off(a, b):
        x = solve(a, b)
        if a.shape[-1] > cross.r:
            x[:, 0] += 1e-6
        return x

    assert spatial_green_half(cross, z, 1).truncation_residual < 1e-12
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NearSpectrumError, match="singular resolvent system"):
        spatial_green_half(cross, z, 1)
    with pytest.raises(NearSpectrumError, match="singular resolvent system"):
        inverse_laplace_table(cross, 4, [1], [1], r0=1e-5)
    # the table checks no residual of its own: the core solve's guard
    # refuses the node
    monkeypatch.setattr(np.linalg, "solve", off)
    with pytest.raises(NearSpectrumError, match="left residual"):
        spatial_green_half(cross, z, 1)
    with pytest.raises(NearSpectrumError, match="left residual"):
        inverse_laplace_table(cross, 4, [1], [1], r0=1e-5)


def test_cross_split_whole_line_parts_refuse():
    # the half line takes the core solve across the split, but the
    # whole-line kernel, and with it R = G - Gt, has no such route: Gt
    # there moves by about 1e-11 of its max per ulp of z or a coefficient
    cross = builtin_lfr(-0.005, 0.5, 0.0)
    z = math.exp(1e-5)
    with pytest.raises(QuadratureError, match="rounding bound"):
        r_function(cross, z, 1, [1, 2])
    with pytest.raises(QuadratureError, match="rounding bound"):
        spatial_green_whole(cross, z, window=10)


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
        got, lo2, up2 = _band_template(scheme, 40)
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
            got = resolvent._residual(scheme, z, w, 1 - scheme.r, j0, 1,
                                      int(0.8 * J_trunc))
            assert abs(got - want) <= 1e-15 * want
        for window in (10, 41, 300):
            vals = rng.standard_normal(2 * window + 1) \
                + 1j * rng.standard_normal(2 * window + 1)
            want = _whole_residual_loop(scheme, z, vals, window)
            top = int(0.8 * window)
            got = resolvent._residual(scheme, z, vals, -window, 0, -top, top)
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
    # the ring e^{1e-9} S^1 passes within 1e-9 of F(1) = 1, so the distance
    # bound of node 0 refuses it
    with pytest.raises(NearSpectrumError, match="of the symbol curve"):
        inverse_laplace_table(lfr, 4, [1], [1], r0=1e-9)


def test_non_finite_input_raises():
    # the root route reads the coefficients unchecked; the grid check, made
    # before the guard, must refuse a NaN ghost weight (the root split does
    # not see b, and a NaN Delta passes the |Delta| test), and the contour
    # sum a non-finite contour exponent.  SchemeDefinition
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
