"""Spatial Green's functions, their difference R, and the inverse Laplace
reconstruction of the temporal kernels.

The half-line spatial Green's function G(z, j0, .) solves (z - T)w =
delta_{j0} with the ghost rows of the boundary extrapolation; it is computed
as one banded solve on a truncated window with zero Dirichlet far field,
which is legitimate because the true solution decays geometrically.  The
whole-line one is the Fourier integral

    Gt(z, j) = (1/2pi) int_0^{2pi} e^{i j theta} / (z - F(e^{i theta})) dtheta,

sampled by FFT (the sign of the exponent is pinned by the resolvent
identity: the j = +-1 values of an asymmetric stencil break the tie).
Temporal kernels are recovered through the Cauchy integral

    G(n, j0, j) = (1/2pi i) oint z^n G(z, j0, j) dz

on the circle of radius e^{r0}, a trapezoid sum that is spectrally accurate
and serves as an independent oracle for the time-stepping path.

One engine computes that sum: it doubles the ring until two rings agree,
and since the nodes nest (node k of N is node 2k of 2N, bitwise) a refined
ring asks only for its new odd nodes.  The whole-line kernel takes the FFT
at each node.

Every half-line value, a contour table's or a pointwise G(z, j0, .), comes
from one routine (`_half_line`): the z-independent band is built and
checked to be finite once per window, each batch of nodes passes one
batched Lopatinskii guard (split, stable-root separation and Delta at
every node, from `spectral`), and each node gets one banded solve with z
written onto the diagonal.  A pointwise value is its one-node, one-source
case and adds only the interior residual as a check.

The guard also yields rho = max |kappa_s| over the batch.  The solution
decays through the stable roots, so its tail at the far end of the window
is about rho^(J_trunc - max j0) of its sup; above 1e-12 the window doubles
and the computation restarts, at most three times.  The band is checked to
be finite once per window, and a table's ring through its radius, so the
solves skip scipy's input check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .scheme import SchemeDefinition, symbol_eval
from .spectral import MultiplicityError, _evaluate, _symbol_curve
# no caller here: the benchmark's `resolvent.guard` trace target names it
from .spectral import lopatinskii  # noqa: F401

__all__ = [
    "NearSpectrumError", "QuadratureError", "ResolventField",
    "spatial_green_half", "spatial_green_whole", "r_function",
    "inverse_laplace_reconstruct", "inverse_laplace_table",
    "ReconstructionTable",
]

_FFT_CAP = 2 ** 22
_CONTOUR_CAP = 2 ** 16


class NearSpectrumError(RuntimeError):
    """z too close to the spectrum for a reliable resolvent solve."""


class QuadratureError(RuntimeError):
    """A quadrature or truncation loop failed to settle."""


class _ShortWindow(Exception):
    """A batch of nodes decays too slowly for the half-line window."""


@dataclass(frozen=True)
class ResolventField:
    """A spatial Green's function on a truncated window; j0 is None for the
    whole-line kernel.  truncation_residual bounds the defect of the
    untruncated resolvent equations over the inner 80% of the window."""

    z: complex
    j0: int | None
    j_min: int
    values: np.ndarray
    truncation_residual: float

    @property
    def j_max(self) -> int:
        return self.j_min + self.values.size - 1

    def value(self, j: int) -> complex:
        idx = j - self.j_min
        if idx < 0 or idx >= self.values.size:
            return 0.0 + 0.0j
        return complex(self.values[idx])


def _guard_ring(scheme: SchemeDefinition, zs: np.ndarray) -> float:
    """Refuses the first node of zs that lies within 1e-6 of the symbol
    curve, is encircled by it or has |Delta| <= 1e-8, from one batched
    Lopatinskii evaluation; else returns max |kappa_s| over zs."""
    nodes = _evaluate(scheme, zs)
    bad = (nodes.dist < 1e-6) | (np.abs(nodes.delta) <= 1e-8)
    bad[list(nodes.errors)] = True
    if not bad.any():
        return float(np.max(np.abs(nodes.kappas)))
    i = int(np.argmax(bad))
    z = complex(zs[i])
    if nodes.dist[i] < 1e-6:
        raise NearSpectrumError(
            f"z = {z!r} lies within {nodes.dist[i]:.2e} of the symbol curve")
    exc = nodes.errors.get(i)
    if isinstance(exc, MultiplicityError):
        raise NearSpectrumError(
            f"z = {z!r} is encircled by the symbol curve") from exc
    if exc is not None:
        raise exc
    raise NearSpectrumError(
        f"Lopatinskii determinant is {abs(nodes.delta[i]):.2e} at z = {z!r}; "
        "z is an eigenvalue of the half-line operator")


def _band_template(scheme: SchemeDefinition, J_trunc: int):
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


def _stencil_sums(scheme: SchemeDefinition, w: np.ndarray) -> np.ndarray:
    """sum_k a_k w[i + k] for every index i of w, zero outside w."""
    return np.convolve(w, scheme.a[::-1])[scheme.p:scheme.p + w.size]


def _interior_residual(scheme: SchemeDefinition, z: complex, w: np.ndarray,
                       rhs_j0: int | None, J_trunc: int) -> float:
    """Defect of the untruncated equations on the inner 80% of the window;
    w is indexed so w[j + r - 1] holds the value at cell j."""
    r = scheme.r
    top = int(0.8 * J_trunc)
    acc = (z * w - _stencil_sums(scheme, w))[r:r + top]
    if rhs_j0 is not None and 1 <= rhs_j0 <= top:
        acc[rhs_j0 - 1] -= 1.0
    return float(np.max(np.abs(acc), initial=0.0))


def _half_line(scheme: SchemeDefinition, j0s: np.ndarray, J_trunc: int,
               rows, run):
    """run(values) on the smallest window J_trunc * 2^k, k <= 3, whose tail
    test passes; values(zs) returns G(z, j0, .) at each node z of zs for
    each j0 of the ascending j0s, read at the buffer rows `rows` (row
    j + r - 1 holds cell j): shape (zs.size, j0s.size, rows).

    Returns run's result, the window and the number of banded solves made,
    those of discarded windows included.  A batch whose guard gives a tail
    rho^(J_trunc - max j0) above 1e-12 discards the window."""
    r = scheme.r
    solves = 0
    for _ in range(4):
        template, lo, up = _band_template(scheme, J_trunc)
        # the solves skip scipy's finite check, and a non-finite coefficient
        # would come back as a NaN solution instead of an error
        if not np.all(np.isfinite(template)):
            raise ValueError("resolvent system has a non-finite coefficient")
        rhs = np.zeros((J_trunc + r, j0s.size), dtype=complex)
        rhs[j0s + r - 1, np.arange(j0s.size)] = 1.0

        def values(zs: np.ndarray) -> np.ndarray:
            nonlocal solves
            tail = _guard_ring(scheme, zs) ** (J_trunc - j0s[-1])
            if tail > 1e-12:
                raise _ShortWindow(tail)
            solves += zs.size
            G = []
            for z in zs:
                ab = template.copy()
                ab[up, r:] += z
                try:
                    w = solve_banded((lo, up), ab, rhs, check_finite=False)
                except np.linalg.LinAlgError as exc:
                    raise NearSpectrumError(
                        f"singular resolvent system at z = {complex(z)!r}") \
                        from exc
                G.append(w[rows].T)
            return np.array(G)

        try:
            return run(values), J_trunc, solves
        except _ShortWindow as exc:
            tail, J_trunc = exc.args[0], 2 * J_trunc
    raise QuadratureError(
        f"half-line window still carries a tail of about {tail:.2e} after "
        f"extensions to {J_trunc // 2} cells")


def spatial_green_half(scheme: SchemeDefinition, z: complex, j0: int,
                       J_trunc: int | None = None) -> ResolventField:
    """G(z, j0, .) on the window 1-r..J_trunc by one banded solve.

    The window is doubled (up to three times) while the decay through the
    stable roots leaves a tail above 1e-12 at its far end.
    """
    if j0 < 1:
        raise ValueError("source index must satisfy j0 >= 1")
    if J_trunc is None:
        J_trunc = j0 + 200
    if J_trunc < j0 + 200:
        raise ValueError("truncation window must extend at least 200 cells "
                         "past the source")
    z = complex(z)
    G, J_trunc, _ = _half_line(scheme, np.array([j0]), J_trunc, slice(None),
                               lambda values: values(np.array([z])))
    w = G[0, 0]
    res = _interior_residual(scheme, z, w, j0, J_trunc)
    if not np.isfinite(res) or res > 1e-8:
        raise NearSpectrumError(
            f"resolvent solve at z = {z!r} left residual {res:.2e}")
    return ResolventField(z=z, j0=j0, j_min=1 - scheme.r, values=w,
                          truncation_residual=res)


def spatial_green_whole(scheme: SchemeDefinition, z: complex,
                        window: int) -> ResolventField:
    """Gt(z, .) on |j| <= window by FFT of the sampled symbol reciprocal,
    doubling the node count until the window values settle below 1e-10."""
    if window < 1:
        raise ValueError("window must be >= 1")
    z = complex(z)
    dist = float(np.min(np.abs(_symbol_curve(scheme) - z)))
    if dist < 1e-6:
        raise NearSpectrumError(
            f"z = {z!r} lies within {dist:.2e} of the symbol curve")
    r, p = scheme.r, scheme.p
    N = 1024
    while N < 8 * (window + p + r):
        N *= 2
    prev = None
    while N <= _FFT_CAP:
        theta = 2.0 * np.pi * np.arange(N) / N
        kappa = np.exp(1j * theta)
        frac = 1.0 / (z - symbol_eval(scheme, kappa))
        full = np.fft.ifft(frac)
        idx = np.arange(-window, window + 1) % N
        vals = full[idx]
        if prev is not None and float(np.max(np.abs(vals - prev))) < 1e-10:
            break
        prev = vals
        N *= 2
    else:
        raise QuadratureError(
            f"whole-line quadrature did not settle at z = {z!r} within "
            f"{_FFT_CAP} nodes")
    res = _whole_residual(scheme, z, vals, window)
    return ResolventField(z=z, j0=None, j_min=-window, values=vals,
                          truncation_residual=res)


def _whole_residual(scheme: SchemeDefinition, z: complex, vals: np.ndarray,
                    window: int) -> float:
    top = int(0.8 * window)
    acc = (z * vals - _stencil_sums(scheme, vals))[window - top:window + top + 1]
    acc[top] -= 1.0
    return float(np.max(np.abs(acc)))


def r_function(scheme: SchemeDefinition, z: complex, j0: int, j):
    """R(z, j0, j) = G(z, j0, j) - Gt(z, j - j0); vectorized over j."""
    js = np.atleast_1d(np.asarray(j, dtype=int)).ravel()
    scalar = np.isscalar(j) or np.asarray(j).ndim == 0
    top = int(np.max(js))
    half = spatial_green_half(scheme, z, j0,
                              J_trunc=max(j0 + 200, top + 50))
    width = int(np.max(np.abs(js - j0))) + 8
    whole = spatial_green_whole(scheme, z, window=width)
    out = np.array([half.value(int(jj)) - whole.value(int(jj) - j0)
                    for jj in js])
    return (out[0] if scalar else out.reshape(np.shape(j)))


def _ring(r0: float, N: int) -> np.ndarray:
    rho = math.exp(r0)
    return rho * np.exp(2j * np.pi * np.arange(N) / N)


def _contour_sum(scheme: SchemeDefinition, n_max: int, r0: float,
                 tol: float, values):
    """The trapezoid sums (1/N) sum_m z_m^(n+1) g(z_m), n <= n_max, over the
    ring z_m = e^{r0} e^{2 pi i m/N}, doubled until two rings agree within
    tol.  values(zs) returns g at the nodes zs, shape (zs.size, a, b); it is
    only asked for the upper half-ring, since g(conj z) = conj g(z).  Returns
    the real and imaginary parts, each of shape (a, n_max + 1, b), and N."""
    if n_max < 0:
        raise ValueError("time horizon must be >= 0")
    if not math.isfinite(r0):
        raise ValueError("non-finite contour exponent r0")
    if r0 <= 0:
        raise ValueError("contour exponent r0 must be positive")

    def ring_sum(zs: np.ndarray, G: np.ndarray):
        """Trapezoid sum over the ring zs from the values G at its upper
        half zs[:N/2 + 1]."""
        N = zs.size
        half_count = N // 2
        powers = zs[:half_count + 1, None] ** (np.arange(n_max + 1)[None, :] + 1)
        # conjugate reflection: m and N - m pair up, so the ring total is
        # 2 Re(sum of the open half) plus the self-conjugate m = 0, N/2 terms
        weights = np.full(half_count + 1, 2.0)
        weights[[0, half_count]] = 1.0
        wp = powers * weights[:, None]
        out = (np.einsum("mn,mij->inj", wp.real, G.real)
               - np.einsum("mn,mij->inj", wp.imag, G.imag)) / N
        imag = sum(np.einsum("n,ij->inj", powers[m].imag, G[m].real)
                   + np.einsum("n,ij->inj", powers[m].real, G[m].imag)
                   for m in (0, half_count)) / N
        return out, imag

    # N stays a power of two, so every ring holds the self-conjugate nodes
    # m = 0 and m = N/2, and node m of the N ring is node 2m of the 2N ring
    N = 64
    while N < 4 * (n_max + scheme.p + scheme.r):
        N *= 2
    zs = _ring(r0, N)
    G = values(zs[:N // 2 + 1])
    prev, _ = ring_sum(zs, G)
    while N < _CONTOUR_CAP:
        N *= 2
        zs = _ring(r0, N)
        finer = np.empty((N // 2 + 1,) + G.shape[1:], dtype=complex)
        finer[0::2] = G
        finer[1::2] = values(zs[1:N // 2:2])
        G = finer
        cur, imag = ring_sum(zs, G)
        if float(np.max(np.abs(cur - prev))) < tol:
            return cur, imag, N
        prev = cur
    raise QuadratureError(
        f"contour quadrature did not settle within {_CONTOUR_CAP} nodes")


def inverse_laplace_reconstruct(scheme: SchemeDefinition, n: int, j0: int,
                                j: int, r0: float = 0.05,
                                whole_line: bool = False,
                                tol: float = 1e-9) -> complex:
    """(1/2pi i) oint z^n G(z, j0, j) dz on the circle e^{r0} S^1; with
    whole_line=True reconstructs the convolution kernel at cell j instead
    (j0 ignored).  Returns the complex trapezoid value; its imaginary part
    is a sanity diagnostic and stays at roundoff scale."""
    if not whole_line:
        table = inverse_laplace_table(scheme, n, [j0], [j], r0, tol)
        return complex(table.values[0, n, 0], table.imag[0, n, 0])
    j = int(j)

    def values(zs: np.ndarray) -> np.ndarray:
        return np.array([spatial_green_whole(scheme, z, window=abs(j) + 8)
                         .value(j) for z in zs]).reshape(-1, 1, 1)

    real, imag, _ = _contour_sum(scheme, n, r0, tol, values)
    return complex(real[0, n, 0], imag[0, n, 0])


@dataclass(frozen=True)
class ReconstructionTable:
    """Batch contour reconstruction: values[i0, n, i] approximates the
    temporal Green's function at (n, j0_values[i0], j_values[i]), and imag
    holds the imaginary parts of the same trapezoid sums, which only the
    self-conjugate nodes contribute.  nodes is the ring size that settled;
    solves counts every banded solve made, which nested-ring reuse keeps at
    nodes // 2 + 1 unless a window doubling discards some."""

    r0: float
    n_values: np.ndarray
    j0_values: np.ndarray
    j_values: np.ndarray
    values: np.ndarray
    imag: np.ndarray
    nodes: int
    solves: int

    @property
    def max_imag(self) -> float:
        return float(np.max(np.abs(self.imag)))


def inverse_laplace_table(scheme: SchemeDefinition, n_max: int, j0_list,
                          j_list, r0: float = 0.05,
                          tol: float = 1e-9) -> ReconstructionTable:
    """All reconstructions n <= n_max on a (j0, j) grid, sharing one banded
    factorization per contour node (conjugate symmetry halves the ring, and
    each doubled ring reuses the solves of the one before)."""
    j0s = np.asarray(sorted(set(int(v) for v in j0_list)), dtype=int)
    js = np.asarray(sorted(set(int(v) for v in j_list)), dtype=int)
    if j0s.size == 0 or js.size == 0 or j0s[0] < 1 or js[0] < 1 - scheme.r:
        raise ValueError("index grids must be nonempty and on the domain")
    J_trunc = int(max(j0s[-1] + 200, js[-1] + 50))
    (real, imag, N), _, solves = _half_line(
        scheme, j0s, J_trunc, js + scheme.r - 1,
        lambda values: _contour_sum(scheme, n_max, r0, tol, values))
    return ReconstructionTable(r0=r0, n_values=np.arange(n_max + 1),
                               j0_values=j0s, j_values=js, values=real,
                               imag=imag, nodes=N, solves=solves)
