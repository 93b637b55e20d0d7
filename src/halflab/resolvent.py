"""Spatial Green's functions, their difference R, and the inverse Laplace
reconstruction of the temporal kernels.

The half-line spatial Green's function G(z, j0, .) solves (z - T)w =
delta_{j0} with the ghost rows of the boundary extrapolation.  Outside the
symbol curve it is a finite sum over the characteristic roots kappa of
P(kappa; z) = z kappa^r - sum_k a_k kappa^(k+r) (see `spectral`):

    G(z, j0, j) = Gt(j - j0) + sum_s c_s(j0) kappa_s^(j+r-1),

the whole-line kernel Gt(d) being the residue sum sum_stable kappa^(d-1+r)
/ P'(kappa) for d >= 1 - r and - sum_unstable kappa^(d-1+r) / P'(kappa)
below, so every power has modulus at most 1.  The r coefficients c_s
satisfy the r ghost rows, B V(kappa_s) c = -B Gt(. - j0), whose matrix has
the Lopatinskii determinant Delta(z) as its determinant.  The whole-line
one is also the Fourier integral

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

A contour table takes each batch of nodes from the roots: one batched
Lopatinskii guard (split, stable-root separation and Delta at every node,
from `spectral`) yields them, the residue sums and one batched r x r solve
follow, and no window or band is built.  Near a multiple root the residue
sums lose digits; a first-order bound on their rounding error (the root
error eps S / |P'|, S = sum |c_k| |kappa|^k, carried through 1/P' and the
coefficient solve) sends a node whose bound exceeds _ROOT_ROUTE_TOL of its
max |G| to the banded route below.

The banded route is the pointwise G(z, j0, .) (`spatial_green_half`, also
behind `r_function`) and the table's fallback: one routine (`_half_line`)
builds the z-independent band and checks it finite once per window, guards
each batch of nodes and makes one banded solve per node with z written onto
the diagonal on a truncated window with zero Dirichlet far field, which is
legitimate because the true solution decays geometrically.  The guard's
rho = max |kappa_s| over the batch bounds the tail at the far end of the
window by about rho^(J_trunc - max j0) of its sup; above 1e-12 the window
doubles and the computation restarts, at most three times.  The band is
checked to be finite, so the solves skip scipy's input check.  scipy serves
only this route and is imported at its first solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .scheme import SchemeDefinition, boundary_matrix, symbol_eval
from .spectral import (_NEAR_CURVE, MultiplicityError, RootSolveError,
                       _char_coeffs, _evaluate, _vandermonde)
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
# two contour rings agreeing within this settle a reconstruction
_CONTOUR_TOL = 1e-9
# a table node whose residue sums carry a rounding bound above this share of
# its max |G| takes the banded solve
_ROOT_ROUTE_TOL = 1e-12
# complex entries per block of the root route's power tables (8 MB)
_POWER_BLOCK = 2 ** 19


class NearSpectrumError(RuntimeError):
    """z too close to the spectrum for a reliable resolvent solve."""


class QuadratureError(RuntimeError):
    """A quadrature or truncation loop failed to settle."""


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


def solve_banded(l_and_u, ab, b, **kwargs):
    """scipy.linalg.solve_banded, imported at the first call: only the
    banded route solves, so a run that never takes it never loads scipy."""
    from scipy.linalg import solve_banded as solve
    return solve(l_and_u, ab, b, **kwargs)


def _near_curve(z: complex, dist: float) -> NearSpectrumError:
    return NearSpectrumError(
        f"z = {z!r} is not certified {_NEAR_CURVE:.0e} clear of the symbol "
        f"curve (distance bound {dist:.2e})")


def _guard_ring(scheme: SchemeDefinition, zs: np.ndarray):
    """Refuses the first node of zs whose distance bound to the symbol curve
    (see `spectral._Nodes`) is below _NEAR_CURVE, that is encircled by the
    curve or has |Delta| <= 1e-8, from one batched Lopatinskii evaluation;
    else returns that evaluation (its roots hold r stable, then p unstable
    ones at every node)."""
    nodes = _evaluate(scheme, zs)
    bad = (nodes.dist < _NEAR_CURVE) | (np.abs(nodes.delta) <= 1e-8)
    bad[list(nodes.errors)] = True
    if not bad.any():
        return nodes
    i = int(np.argmax(bad))
    z = complex(zs[i])
    if nodes.dist[i] < _NEAR_CURVE:
        raise _near_curve(z, nodes.dist[i])
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


def _residual(scheme: SchemeDefinition, z: complex, w: np.ndarray,
              j_min: int, j0: int, lo: int, hi: int) -> float:
    """max |(z w - sum_k a_k w_{j+k}) - delta_{j, j0}| over the cells
    lo..hi: the defect of the untruncated resolvent equations, w holding
    the cells j_min, j_min + 1, ... and zero beyond them."""
    acc = z * w - _stencil_sums(scheme, w)
    acc[j0 - j_min] -= 1.0
    return float(np.max(np.abs(acc[lo - j_min:hi - j_min + 1]), initial=0.0))


def _half_line(scheme: SchemeDefinition, zs: np.ndarray, j0s: np.ndarray,
               J_trunc: int, rows):
    """G(z, j0, .) at each node z of zs for each j0 of the ascending j0s by
    banded solves, read at the buffer rows `rows` (row j + r - 1 holds cell
    j): shape (zs.size, j0s.size, rows), and the window J_trunc * 2^k,
    k <= 3, they were solved on.

    Each window builds its band and guards zs; a guard whose tail
    rho^(J_trunc - max j0) lies above 1e-12 discards the window."""
    r = scheme.r
    for _ in range(4):
        template, lo, up = _band_template(scheme, J_trunc)
        # the solves skip scipy's finite check, and a non-finite coefficient
        # would come back as a NaN solution instead of an error
        if not np.all(np.isfinite(template)):
            raise ValueError("resolvent system has a non-finite coefficient")
        rho = float(np.max(np.abs(_guard_ring(scheme, zs).kappas)))
        tail = rho ** (J_trunc - j0s[-1])
        if tail <= 1e-12:
            break
        J_trunc *= 2
    else:
        raise QuadratureError(
            f"half-line window still carries a tail of about {tail:.2e} "
            f"after extensions to {J_trunc // 2} cells")
    rhs = np.zeros((J_trunc + r, j0s.size), dtype=complex)
    rhs[j0s + r - 1, np.arange(j0s.size)] = 1.0
    G = []
    for z in zs:
        ab = template.copy()
        ab[up, r:] += z
        try:
            w = solve_banded((lo, up), ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NearSpectrumError(
                f"singular resolvent system at z = {complex(z)!r}") from exc
        G.append(w[rows].T)
    return np.array(G), J_trunc


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
    G, J_trunc = _half_line(scheme, np.array([z]), np.array([j0]), J_trunc,
                            slice(None))
    w = G[0, 0]
    # the inner 80% of the window
    res = _residual(scheme, z, w, 1 - scheme.r, j0, 1, int(0.8 * J_trunc))
    if not np.isfinite(res) or res > 1e-8:
        raise NearSpectrumError(
            f"resolvent solve at z = {z!r} left residual {res:.2e}")
    return ResolventField(z=z, j0=j0, j_min=1 - scheme.r, values=w,
                          truncation_residual=res)


def spatial_green_whole(scheme: SchemeDefinition, z: complex,
                        window: int) -> ResolventField:
    """Gt(z, .) on |j| <= window by FFT of the sampled symbol reciprocal,
    doubling the node count until the window values settle below 1e-10.
    z must be certified _NEAR_CURVE away from the symbol curve by the
    distance bound of its roots; it may lie inside the curve."""
    if window < 1:
        raise ValueError("window must be >= 1")
    z = complex(z)
    nodes = _evaluate(scheme, [z])
    if isinstance(nodes.split_errors.get(0), RootSolveError):
        raise nodes.split_errors[0]
    if nodes.dist[0] < _NEAR_CURVE:
        raise _near_curve(z, nodes.dist[0])
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
    top = int(0.8 * window)
    res = _residual(scheme, z, vals, -window, 0, -top, top)
    return ResolventField(z=z, j0=None, j_min=-window, values=vals,
                          truncation_residual=res)


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
        # Re(sum_m wp_m G_m) as two real matrix products over the nodes
        flat = G.reshape(G.shape[0], -1)
        out = (wp.real.T @ flat.real - wp.imag.T @ flat.imag) / N
        out = out.reshape((n_max + 1,) + G.shape[1:]).transpose(1, 0, 2)
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
                                whole_line: bool = False) -> complex:
    """(1/2pi i) oint z^n G(z, j0, j) dz on the circle e^{r0} S^1; with
    whole_line=True reconstructs the convolution kernel at cell j instead
    (j0 ignored).  Returns the complex trapezoid value; its imaginary part
    is a sanity diagnostic and stays at roundoff scale."""
    if not whole_line:
        table = inverse_laplace_table(scheme, n, [j0], [j], r0)
        return complex(table.values[0, n, 0], table.imag[0, n, 0])
    j = int(j)

    def values(zs: np.ndarray) -> np.ndarray:
        return np.array([spatial_green_whole(scheme, z, window=abs(j) + 8)
                         .value(j) for z in zs]).reshape(-1, 1, 1)

    real, imag, _ = _contour_sum(scheme, n, r0, _CONTOUR_TOL, values)
    return complex(real[0, n, 0], imag[0, n, 0])


@dataclass(frozen=True)
class ReconstructionTable:
    """Batch contour reconstruction: values[i0, n, i] approximates the
    temporal Green's function at (n, j0_values[i0], j_values[i]), and imag
    holds the imaginary parts of the same trapezoid sums, which only the
    self-conjugate nodes contribute.  nodes is the ring size that settled;
    solves counts the node evaluations: nested-ring reuse and conjugate
    symmetry keep the root-route ones at nodes // 2 + 1, and each node the
    root route refuses adds its banded solve."""

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


def _root_values(scheme: SchemeDefinition, nodes, zs: np.ndarray,
                 j0s: np.ndarray, js: np.ndarray):
    """G(z, j0, j) at every node of zs for the (j0s, js) grid from the roots
    of the guard's evaluation `nodes`, shape (zs.size, j0s.size, js.size),
    and for each node a first-order bound on its rounding error.

    A root error dk = eps S / |P'|, S = sum |c_k| |kappa|^k, moves the
    residue kappa^e / P' by |dk| (|P''| / |P'| + |e| / |kappa|) of itself;
    those errors of the Gt values at the ghost-rule cells reach the
    coefficients through |A^-1| |B|, A = B V(kappa_s)."""
    r, d = scheme.r, scheme.p + scheme.r
    cs = _char_coeffs(scheme, zs).T[:, :, None]
    kap = nodes.roots
    dP = npoly.polyval(kap, npoly.polyder(cs), tensor=False)
    dk = (np.finfo(float).eps
          * npoly.polyval(np.abs(kap), np.abs(cs), tensor=False) / np.abs(dP))
    rel = dk * np.abs(npoly.polyval(kap, npoly.polyder(cs, 2), tensor=False)
                      / dP)
    per_e = dk / np.abs(kap)
    # Gt is needed at the offsets j - j0 of the table and m - j0 of the
    # cells m = p, ..., 1 - r the ghost rows read, in B's column order
    ghost = (scheme.p - np.arange(d))[:, None] - j0s[None, :]
    offs, inv = np.unique(np.concatenate(
        [ghost.ravel(), (js[None, :] - j0s[:, None]).ravel()]),
        return_inverse=True)
    e = offs + r - 1
    Gt = np.empty((zs.size, offs.size), dtype=complex)
    err = np.empty((zs.size, offs.size))
    for roots, cols, sign in ((slice(None, r), np.flatnonzero(e >= 0), 1.0),
                              (slice(r, None), np.flatnonzero(e < 0), -1.0)):
        step = max(1, _POWER_BLOCK // max(1, cols.size * d))
        for lo in range(0, zs.size, step):
            m = slice(lo, lo + step)
            k = kap[m, roots, None]
            terms = k ** e[cols] / dP[m, roots, None]
            Gt[m, cols] = sign * terms.sum(axis=1)
            err[m, cols] = (np.abs(terms) * (rel[m, roots, None] + np.abs(
                e[cols]) * per_e[m, roots, None])).sum(axis=1)
    n_ghost = ghost.size
    g, g_err = (x[:, inv[:n_ghost]].reshape(zs.size, d, j0s.size)
                for x in (Gt, err))
    B = boundary_matrix(scheme)
    A = B @ _vandermonde(kap[:, :r], d)
    eye = np.broadcast_to(np.eye(r), (zs.size, r, r))
    sol = np.linalg.solve(A, np.concatenate([-(B @ g), eye], axis=2))
    coef, A_inv = sol[:, :, :j0s.size], sol[:, :, j0s.size:]
    K = kap[:, :r, None] ** (js + r - 1)
    shape = (zs.size, j0s.size, js.size)
    G = Gt[:, inv[n_ghost:]].reshape(shape) + coef.transpose(0, 2, 1) @ K
    coef_err = np.abs(A_inv) @ (np.abs(B) @ g_err)
    bound = (err[:, inv[n_ghost:]].reshape(shape)
             + coef_err.transpose(0, 2, 1) @ np.abs(K))
    return G, bound.max(axis=(1, 2))


def inverse_laplace_table(scheme: SchemeDefinition, n_max: int, j0_list,
                          j_list, r0: float = 0.05) -> ReconstructionTable:
    """All reconstructions n <= n_max on a (j0, j) grid from the roots at
    each contour node (conjugate symmetry halves the ring, and each doubled
    ring reuses the values of the one before); a node whose rounding bound
    exceeds _ROOT_ROUTE_TOL of its max |G| takes the banded solve."""
    j0s = np.asarray(sorted(set(int(v) for v in j0_list)), dtype=int)
    js = np.asarray(sorted(set(int(v) for v in j_list)), dtype=int)
    if j0s.size == 0 or js.size == 0 or j0s[0] < 1 or js[0] < 1 - scheme.r:
        raise ValueError("index grids must be nonempty and on the domain")
    # the root route reads the coefficients unchecked, and a non-finite
    # ghost weight would come back as NaN values instead of an error
    if not (np.all(np.isfinite(scheme.a)) and np.all(np.isfinite(scheme.b))):
        raise ValueError("resolvent system has a non-finite coefficient")
    J_trunc = int(max(j0s[-1] + 200, js[-1] + 50))
    banded = 0

    def values(zs: np.ndarray) -> np.ndarray:
        nonlocal banded
        G, bound = _root_values(scheme, _guard_ring(scheme, zs), zs, j0s, js)
        # "not <=": a NaN bound takes the banded solve too
        far = ~(bound <= _ROOT_ROUTE_TOL * np.abs(G).max(axis=(1, 2)))
        if far.any():
            G[far], _ = _half_line(scheme, zs[far], j0s, J_trunc,
                                   js + scheme.r - 1)
            banded += int(far.sum())
        return G

    real, imag, N = _contour_sum(scheme, n_max, r0, _CONTOUR_TOL, values)
    return ReconstructionTable(r0=r0, n_values=np.arange(n_max + 1),
                               j0_values=j0s, j_values=js, values=real,
                               imag=imag, nodes=N, solves=N // 2 + 1 + banded)
