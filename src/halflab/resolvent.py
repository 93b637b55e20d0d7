"""Spatial Green's functions, their difference R, and the inverse Laplace
reconstruction of the temporal kernels.

The half-line G(z, j0, .) solves (z - T)w = delta_{j0} with the ghost rows
of the boundary extrapolation.  Outside the symbol curve it is a finite sum
over the roots kappa of P(kappa; z) = z kappa^r - sum_k a_k kappa^(k+r),
G(z, j0, j) = Gt(j - j0) + sum_s c_s(j0) kappa_s^(j+r-1), the coefficients
solving the ghost rows B V(kappa_s) c = -B Gt(. - j0) (determinant Delta).
By residues on the unit circle the whole-line Gt(z, d) = (1/2pi) int
e^{i d theta} / (z - F(e^{i theta})) dtheta is the sum of kappa^(d-1+r) /
P'(kappa) over |kappa| < 1 for d >= 1 - r and minus that over |kappa| > 1
below (every power of modulus at most 1), inside the curve too.

`_residue_sums` is the one evaluator of Gt, with a first-order bound on its
rounding.  Each kind has its own route for a node the bound refuses (over
_ROOT_ROUTE_TOL of the node's max value).  The whole line (`_whole`) sums
each group of near-colliding roots on one side of the unit circle on a
circle around it alone (`_circle_sum`), as at the o3 double unstable root
z* = 1.8142738...; a node still refused, where a stable and an unstable
root nearly collide across the unit circle and no circle separates them,
raises QuadratureError.  The half line (`_green`, shared by
`spatial_green_half`, `r_function` and `inverse_laplace_table`) adds the
rank-r correction from one batched r x r solve, and a refused node takes
the exact core-plus-tail solve `_core_solve`, which reads the r stable
roots alone and divides by no P'(kappa), so neither collision affects it.

Temporal kernels come from the Cauchy integral G(n, j0, j) = (1/2pi i)
oint z^n G(z, j0, j) dz on the circle e^{r0} S^1: a trapezoid sum, an
independent oracle for time stepping, on a ring doubled until two rings
agree.  Node k of N is node 2k of 2N (bitwise), so the nested rule
`_trapezoid` (shared with the Gaussian profiles) halves the previous sum
and adds only the new odd nodes; no node value is kept.

Times, sources, cells, windows and truncation bounds are integers: a
non-integral one is refused, not truncated (`scheme._indices`, the check
evolution and layers use too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheme import SchemeDefinition, _indices, boundary_matrix
from .spectral import (_NEAR_CURVE, MultiplicityError, RootSolveError,
                       _char_coeffs, _char_stack, _char_values, _evaluate,
                       _lopatinskii_matrix)
# no caller here: the benchmark's `resolvent.guard` trace target names it
from .spectral import lopatinskii  # noqa: F401

__all__ = [
    "NearSpectrumError", "QuadratureError", "ResolventField",
    "spatial_green_half", "spatial_green_whole", "r_function",
    "inverse_laplace_reconstruct", "inverse_laplace_table",
    "ReconstructionTable",
]

_CONTOUR_CAP = 2 ** 16
# two contour rings agreeing within this settle a reconstruction
_CONTOUR_TOL = 1e-9
# residue sums whose rounding bound exceeds this share of the node's max
# value are refused: a half-line node takes the core solve, a whole-line
# node has its root clusters summed on circles
_ROOT_ROUTE_TOL = 1e-12
# complex entries per block of the residue sums' power tables (8 MB)
_POWER_BLOCK = 2 ** 19
# nodes on a cluster circle at most
_CLUSTER_CAP = 2 ** 10
# |Delta| at most this at a node is a Lopatinskii zero: the guard refuses it
_GUARD_ZERO_TOL = 1e-8
# a half-line solve leaving a larger residual is refused
_RESIDUAL_TOL = 1e-8


class NearSpectrumError(RuntimeError):
    """z too close to the spectrum for a reliable resolvent solve."""


class QuadratureError(RuntimeError):
    """A quadrature or truncation loop failed to settle."""


def _trapezoid(what: str, n: int, cap: int, tol: float, first, odd):
    """A trapezoid sum doubled in its node count n until two sums agree
    within tol, and the n that settled; QuadratureError past cap nodes.

    first(n) is the n-node rule T_n.  Node k of the n rule is node 2k of
    the 2n rule, so T_2n = T_n / 2 + odd(n), odd(n) the 2n rule's spacing
    times its sum over the nodes it adds, and each node is evaluated once
    (Trefethen and Weideman, SIAM Review 56, 2014)."""
    cur = first(n)
    while n < cap:
        prev, cur = cur, cur / 2 + odd(n)
        n *= 2
        if float(np.max(np.abs(cur - prev))) < tol:
            return cur, n
    raise QuadratureError(f"{what} quadrature did not settle below {tol:g} "
                          f"within {cap} nodes")


@dataclass(frozen=True)
class ResolventField:
    """A spatial Green's function on a finite window; j0 is None for the
    whole-line kernel.  truncation_residual is the defect of the resolvent
    equations over the inner 80% of the window."""

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


# no caller here: the benchmark's `resolvent.solve_banded` trace target
# names it
def solve_banded(l_and_u, ab, b, **kwargs):
    """scipy.linalg.solve_banded, imported at the first call."""
    from scipy.linalg import solve_banded as solve
    return solve(l_and_u, ab, b, **kwargs)


def _near_curve(z: complex, dist: float) -> NearSpectrumError:
    return NearSpectrumError(
        f"z = {z!r} is not certified {_NEAR_CURVE:.0e} clear of the symbol "
        f"curve (distance bound {dist:.2e})")


def _guard_ring(scheme: SchemeDefinition, zs: np.ndarray):
    """Refuses the first node of zs whose distance bound to the symbol curve
    (see `spectral._Nodes`) is below _NEAR_CURVE, that is encircled by the
    curve or has |Delta| <= _GUARD_ZERO_TOL, from one batched Lopatinskii
    evaluation; else returns that evaluation (its roots hold r stable, then
    p unstable ones at every node)."""
    nodes = _evaluate(scheme, zs)
    bad = (nodes.dist < _NEAR_CURVE) | (abs(nodes.delta) <= _GUARD_ZERO_TOL)
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


def _clusters(roots: np.ndarray, side: slice):
    """Groups of near-colliding roots among roots[side] as (indices, centre
    c, clearance t): a root's fewest (two or more) nearest roots, all in
    side, within t / 9 of their mean c while every other root and the unit
    circle lie at least t from c."""
    members, groups, taken = np.arange(roots.size)[side], [], set()
    for i in members:
        order = np.argsort(np.abs(roots - roots[i]))
        for m in range(2, roots.size):
            g, c = order[:m], roots[order[:m]].mean()
            if taken.intersection(g) or not np.isin(g, members).all():
                break
            t = min(np.abs(roots[order[m:]] - c).min(), abs(abs(c) - 1))
            if 9.0 * np.abs(roots[g] - c).max() <= t:
                groups.append((g, c, t))
                taken.update(g.tolist())
                break
    return groups


def _circle_sum(c: np.ndarray, roots: np.ndarray, centre: complex, t: float,
                e: np.ndarray):
    """(1/2pi i) oint kappa^e / P(kappa) dkappa on |kappa - centre| = R =
    t / 3 for each exponent of e (one sign; c holds P's ascending
    coefficients) by the N-node trapezoid rule, and a bound on its error.

    g(w) = R w kappa^e / P(kappa), kappa = centre + R w, is analytic for
    1/3 < |w| < 3; on |w| = q, |g| <= M(q) = q R (|centre| +- q R)^e /
    (|a_p| prod_i ||centre - kappa_i| - q R|), the sign that of e, so every
    power has modulus at most 1.  With s = sqrt 3 the sum misses by at most
    (M(s) + M(1/s)) s^-N / (1 - s^-N) (Trefethen and Weideman, SIAM Review
    56, 2014).  N doubles from 8 until that is below eps max M(1), at most
    to _CLUSTER_CAP; the first-order rounding eps S / |P| adds to it."""
    eps, R, s = np.finfo(float).eps, t / 3.0, math.sqrt(3.0)
    gaps, sign = np.abs(centre - roots), 1.0 if e[0] >= 0 else -1.0

    def M(q):
        return (q * R * (abs(centre) + sign * q * R) ** e
                / (abs(c[-1]) * np.prod(np.abs(gaps - q * R))))

    N = 8
    while True:
        alias = (M(s) + M(1.0 / s)) * s ** -N / (1.0 - s ** -N)
        if np.all(alias <= eps * M(1.0).max()) or N >= _CLUSTER_CAP:
            break
        N *= 2
    kap = centre + R * np.exp(2j * np.pi * np.arange(N) / N)
    (P,), (S,) = _char_values(_char_stack(c[None], 0), kap[None], scale=True)
    terms = ((kap - centre) / P)[:, None] * kap[:, None] ** e
    scale = eps * S / np.abs(P)
    return (terms.sum(axis=0) / N,
            alias + (np.abs(terms) * scale[:, None]).sum(axis=0) / N)


def _residue_sums(scheme: SchemeDefinition, zs: np.ndarray,
                  roots: np.ndarray, offs: np.ndarray, clusters=False):
    """Gt(z, d) at the nodes zs and offsets offs from the roots sorted by
    modulus, shape (zs.size, offs.size), and a first-order bound on each
    value's rounding: a root error dk = eps S / |P'|, S = sum |c_k|
    |kappa|^k, moves kappa^e / P' by |dk| (|P''| / |P'| + |e| / |kappa|) of
    itself.  With clusters each group of `_clusters` is one `_circle_sum`."""
    coeffs = _char_coeffs(scheme, zs)
    _, dP, d2P, size = _char_values(_char_stack(coeffs, 2), roots,
                                    scale=True)
    dk = np.finfo(float).eps * size / np.abs(dP)
    rel = dk * np.abs(d2P / dP)
    per_e, e = dk / np.abs(roots), offs + scheme.r - 1
    Gt = np.empty((zs.size, offs.size), dtype=complex)
    err = np.empty((zs.size, offs.size))
    # r stable roots at every node outside the curve; inside, the nodes go
    # in groups of one stable count (a set, not np.unique, which would
    # import numpy.ma)
    n_s = (np.abs(roots) < 1.0).sum(axis=1)
    pos, neg = np.flatnonzero(e >= 0), np.flatnonzero(e < 0)
    for ns in sorted(set(n_s.tolist())):
        nodes = np.flatnonzero(n_s == ns)
        for side, cols, sign in ((slice(None, ns), pos, 1.0),
                                 (slice(ns, None), neg, -1.0)):
            step = max(1, _POWER_BLOCK // max(1, cols.size * roots.shape[1]))
            for m in np.split(nodes, np.arange(step, nodes.size, step)):
                terms = roots[m, side, None] ** e[cols] / dP[m, side, None]
                errs = np.abs(terms) * (rel[m, side, None] + np.abs(
                    e[cols]) * per_e[m, side, None])
                for i in range(m.size) if clusters and cols.size else ():
                    for g, *circle in _clusters(roots[m[i]], side):
                        g = g - (side.start or 0)
                        terms[i, g], errs[i, g] = 0.0, 0.0
                        terms[i, g[0]], errs[i, g[0]] = _circle_sum(
                            coeffs[m[i]], roots[m[i]], *circle, e[cols])
                Gt[m[:, None], cols] = sign * terms.sum(axis=1)
                err[m[:, None], cols] = errs.sum(axis=1)
    return Gt, err


def _root_values(scheme: SchemeDefinition, zs: np.ndarray,
                 roots: np.ndarray, j0s: np.ndarray, js: np.ndarray):
    """G(z, j0, j) on the (j0s, js) grid at the nodes zs from their roots
    (r stable first), and each node's rounding bound of its G: that of
    Gt(z, j - j0), to which the bound of Gt at the ghost-rule cells adds
    through |A^-1| |B|, A = B V(kappa_s)."""
    r, d = scheme.r, scheme.p + scheme.r
    # Gt is needed at the offsets j - j0 of the table and m - j0 of the
    # cells m = p, ..., 1 - r the ghost rows read, in B's column order
    ghost = (scheme.p - np.arange(d))[:, None] - j0s[None, :]
    offs, inv = np.unique(np.concatenate(
        [ghost.ravel(), (js[None, :] - j0s[:, None]).ravel()]),
        return_inverse=True)
    Gt, err = _residue_sums(scheme, zs, roots, offs)
    n_ghost, shape = ghost.size, (zs.size, j0s.size, js.size)
    g, g_err = (x[:, inv[:n_ghost]].reshape(zs.size, d, j0s.size)
                for x in (Gt, err))
    gt, gt_err = (x[:, inv[n_ghost:]].reshape(shape) for x in (Gt, err))
    B = boundary_matrix(scheme)
    A = _lopatinskii_matrix(scheme, roots[:, :r])
    eye = np.broadcast_to(np.eye(r), (zs.size, r, r))
    sol = np.linalg.solve(A, np.concatenate([-(B @ g), eye], axis=2))
    coef, A_inv = sol[:, :, :j0s.size], sol[:, :, j0s.size:]
    K = roots[:, :r, None] ** (js + r - 1)
    coef_err = np.abs(A_inv) @ (np.abs(B) @ g_err)
    bound = gt_err + coef_err.transpose(0, 2, 1) @ np.abs(K)
    return gt + coef.transpose(0, 2, 1) @ K, bound.max(axis=(1, 2))


def _core_solve(scheme: SchemeDefinition, zs: np.ndarray,
                kappas: np.ndarray, j0s: np.ndarray, js: np.ndarray):
    """G(z, j0, j) on the (j0s, js) grid at the nodes zs from their r stable
    roots kappas alone.

    With J = max j0 the unknowns are G at the cells 1-r..J-r and r tail
    weights alpha_s, G(j) = sum_s alpha_s kappa_s^(j-J-1+r) beyond them,
    which solves every row past J exactly; the r ghost rows and the rows
    1..J give one (J+r) x (J+r) system per node, singular exactly where
    Delta(z) = 0.  A node whose system is singular, or whose solution
    leaves a residual over _RESIDUAL_TOL on the cells 1..J+p, is refused."""
    r, p, J = scheme.r, scheme.p, int(j0s[-1])
    d, n, top = p + r, J + r, max(int(js[-1]), J + 2 * p)
    # the ghost rows, then the rows 1..J, on the cells 1-r..J+p
    op = np.zeros((zs.size, n, n + p), dtype=complex)
    op[:, :r, :d] = boundary_matrix(scheme)[:, ::-1]
    rows = np.arange(J)
    for k in range(-r, p + 1):
        op[:, r + rows, rows + r + k] -= scheme.coeff(k)
    op[:, r + rows, rows + r] += zs[:, None]
    # powers[:, s, m] = kappa_s^m: the tail cells J-r+1..top
    powers = kappas[:, :, None] ** np.arange(top - J + r)
    A = np.concatenate(
        [op[:, :, :J], op[:, :, J:] @ powers[:, :, :d].transpose(0, 2, 1)],
        axis=2)
    rhs = np.zeros((zs.size, n, j0s.size), dtype=complex)
    rhs[:, r + j0s - 1, np.arange(j0s.size)] = 1.0
    try:
        x = np.linalg.solve(A, rhs).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        z = complex(zs[np.argmax(np.linalg.det(A) == 0)])
        raise NearSpectrumError(
            f"singular resolvent system at z = {z!r}") from exc
    # the cells 1-r..top of every (node, j0)
    w = np.concatenate([x[:, :, :J], x[:, :, J:] @ powers], axis=2)
    for z, wz in zip(zs, w):
        for j0, wj in zip(j0s, wz):
            res = _residual(scheme, z, wj, 1 - r, j0, 1, J + p)
            if not res <= _RESIDUAL_TOL:
                raise NearSpectrumError(f"resolvent solve at z = "
                                        f"{complex(z)!r} left residual "
                                        f"{res:.2e}")
    return w[:, :, js + r - 1]


def _refused(values: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Nodes (first axis) whose bound is not within _ROOT_ROUTE_TOL of their
    max |value| (so a NaN bound is refused)."""
    top = np.abs(values).reshape(values.shape[0], -1).max(axis=1)
    return ~(bound <= _ROOT_ROUTE_TOL * top)


def _grid(scheme: SchemeDefinition, j0_list, j_list):
    """The sorted distinct sources and cells of a (j0, j) grid, refusing an
    empty grid, a non-integral index, one off the domain, and a non-finite
    coefficient, which the residue sums would turn into NaN values instead
    of an error."""
    j0s, js = (np.asarray(sorted(set(v.tolist())), dtype=int) for v in (
        _indices(j0_list, 1, "sources"),
        _indices(j_list, 1 - scheme.r, "cells")))
    if not (np.all(np.isfinite(scheme.a)) and np.all(np.isfinite(scheme.b))):
        raise ValueError("resolvent system has a non-finite coefficient")
    return j0s, js


def _green(scheme: SchemeDefinition, zs: np.ndarray, j0s: np.ndarray,
           js: np.ndarray):
    """G at the nodes zs, shape (zs.size, j0s.size, js.size), and the
    number of core solves: `_root_values` at every node its bound accepts,
    `_core_solve` at every node it refuses."""
    nodes = _guard_ring(scheme, zs)
    G, bound = _root_values(scheme, zs, nodes.roots, j0s, js)
    far = _refused(G, bound)
    if far.any():
        G[far] = _core_solve(scheme, zs[far], nodes.kappas[far], j0s, js)
    return G, int(far.sum())


def _whole(scheme: SchemeDefinition, zs: np.ndarray, offs: np.ndarray):
    """Gt(z, d) at the nodes zs for the offsets offs, with the clusters of a
    node the bound refuses summed on circles.  Refuses the first node not
    certified _NEAR_CURVE clear of the symbol curve, whose root solve
    failed, or whose sums stay over the bound; it may lie inside the
    curve."""
    nodes = _evaluate(scheme, zs)
    errors = {i: exc for i, exc in nodes.split_errors.items()
              if isinstance(exc, RootSolveError)}
    bad = list(errors) + np.flatnonzero(~(nodes.dist >= _NEAR_CURVE)).tolist()
    if bad:
        i = min(bad)
        raise errors.get(i) or _near_curve(complex(zs[i]), nodes.dist[i])
    roots = nodes.roots
    Gt, err = _residue_sums(scheme, zs, roots, offs)
    far = _refused(Gt, err.max(axis=1))
    if far.any():
        Gt[far], err[far] = _residue_sums(scheme, zs[far], roots[far], offs,
                                          clusters=True)
        for z in zs[_refused(Gt, err.max(axis=1))][:1]:
            raise QuadratureError(
                f"residue sums at z = {complex(z)!r} carry a rounding bound "
                f"over {_ROOT_ROUTE_TOL:.0e} of max |Gt|")
    return Gt


def spatial_green_half(scheme: SchemeDefinition, z: complex, j0: int,
                       J_trunc: int | None = None) -> ResolventField:
    """G(z, j0, .) on the cells 1-r..J_trunc (at least j0 + 200, the
    default) from `_green`."""
    j0, = _indices([j0], 1, "sources").tolist()
    J_trunc, = _indices([j0 + 200 if J_trunc is None else J_trunc], j0 + 200,
                        "truncation bounds").tolist()
    z = complex(z)
    j0s, js = _grid(scheme, [j0], range(1 - scheme.r, J_trunc + 1))
    w = _green(scheme, np.array([z]), j0s, js)[0][0, 0]
    res = _residual(scheme, z, w, 1 - scheme.r, j0, 1, int(0.8 * J_trunc))
    if not np.isfinite(res) or res > _RESIDUAL_TOL:
        raise NearSpectrumError(
            f"resolvent solve at z = {z!r} left residual {res:.2e}")
    return ResolventField(z, j0, 1 - scheme.r, w, res)


def spatial_green_whole(scheme: SchemeDefinition, z: complex,
                        window: int) -> ResolventField:
    """Gt(z, .) on |j| <= window from `_whole`; z must be certified
    _NEAR_CURVE away from the symbol curve and may lie inside it."""
    window, = _indices([window], 1, "windows").tolist()
    z, top = complex(z), int(0.8 * window)
    vals = _whole(scheme, np.array([z]), np.arange(-window, window + 1))[0]
    return ResolventField(z, None, -window, vals, _residual(
        scheme, z, vals, -window, 0, -top, top))


def r_function(scheme: SchemeDefinition, z: complex, j0: int, j):
    """R(z, j0, j) = G(z, j0, j) - Gt(z, j - j0), G from `_green` and Gt
    from `_whole`; vectorized over the cells j >= 1 - r."""
    zs = np.array([complex(z)])
    j0s, js = _grid(scheme, [j0], np.ravel(j))
    R = _green(scheme, zs, j0s, js)[0][0, 0] - \
        _whole(scheme, zs, js - j0s[0])[0]
    out = R[np.searchsorted(js, np.ravel(j))]
    return out[0] if np.ndim(j) == 0 else out.reshape(np.shape(j))


def _ring(r0: float, N: int) -> np.ndarray:
    rho = math.exp(r0)
    return rho * np.exp(2j * np.pi * np.arange(N) / N)


def _contour_sum(scheme: SchemeDefinition, n_max: int, r0: float,
                 tol: float, values):
    """The trapezoid sums (1/N) sum_m z_m^(n+1) g(z_m), n <= n_max, over the
    ring z_m = e^{r0} e^{2 pi i m/N}, doubled until two rings agree within
    tol.  values(zs) returns g at the nodes zs, shape (zs.size, a, b); it is
    only asked for the upper half-ring, since g(conj z) = conj g(z).  Returns
    the real and imaginary parts, each of shape (a, n_max + 1, b), and N;
    n_max is an int >= 0 (its callers check it)."""
    if not math.isfinite(r0):
        raise ValueError("non-finite contour exponent r0")
    if r0 <= 0:
        raise ValueError("contour exponent r0 must be positive")
    imag = None

    def ring_sum(zs: np.ndarray, weights: np.ndarray):
        """Re sum_m weights_m z_m^(n+1) g(z_m) over the nodes zs, as two
        real matrix products.  The first ring's self-conjugate nodes m = 0
        and N/2, its first and last, give the only imaginary parts."""
        nonlocal imag
        powers = zs[:, None] ** (np.arange(n_max + 1)[None, :] + 1)
        G = values(zs)
        if imag is None:
            imag = sum(np.einsum("n,ij->inj", powers[m].imag, G[m].real)
                       + np.einsum("n,ij->inj", powers[m].real, G[m].imag)
                       for m in (0, -1))
        wp, flat = powers * weights[:, None], G.reshape(zs.size, -1)
        out = wp.real.T @ flat.real - wp.imag.T @ flat.imag
        return out.reshape((n_max + 1,) + G.shape[1:]).transpose(1, 0, 2)

    def first(N: int):
        # conjugate reflection: m and N - m pair up, so the ring total is
        # 2 Re(sum of the open half) plus the m = 0, N/2 terms
        weights = np.full(N // 2 + 1, 2.0)
        weights[[0, N // 2]] = 1.0
        return ring_sum(_ring(r0, N)[:N // 2 + 1], weights) / N

    def odd(N: int):
        # the 2N ring adds its odd nodes, none self-conjugate: spacing
        # 1/(2N) times twice the real part of their upper half's sum
        return ring_sum(_ring(r0, 2 * N)[1:N:2], np.ones(N // 2)) / N

    # N stays a power of two, so every ring holds the self-conjugate nodes
    # m = 0 and m = N/2, and node m of the N ring is node 2m of the 2N ring
    N = 64
    while N < 4 * (n_max + scheme.p + scheme.r):
        N *= 2
    real, N = _trapezoid("contour", N, _CONTOUR_CAP, tol, first, odd)
    return real, imag / N, N


def inverse_laplace_reconstruct(scheme: SchemeDefinition, n: int, j0: int,
                                j: int, r0: float = 0.05,
                                whole_line: bool = False) -> complex:
    """(1/2pi i) oint z^n G(z, j0, j) dz on the circle e^{r0} S^1; with
    whole_line=True reconstructs the convolution kernel at cell j instead
    (j0 ignored).  Returns the complex trapezoid value; its imaginary part
    is a sanity diagnostic and stays at roundoff scale."""
    n, = _indices([n], 0, "times").tolist()
    if not whole_line:
        table = inverse_laplace_table(scheme, n, [j0], [j], r0)
        return complex(table.values[0, n, 0], table.imag[0, n, 0])
    offs = _indices([j], -math.inf, "cells")
    real, imag, _ = _contour_sum(
        scheme, n, r0, _CONTOUR_TOL,
        lambda zs: _whole(scheme, zs, offs).reshape(-1, 1, 1))
    return complex(real[0, n, 0], imag[0, n, 0])


@dataclass(frozen=True)
class ReconstructionTable:
    """Batch contour reconstruction: values[i0, n, i] approximates the
    temporal Green's function at (n, j0_values[i0], j_values[i]); imag holds
    the imaginary parts, from the self-conjugate nodes only.  nodes is the
    ring size that settled; solves counts the node evaluations, nodes // 2 +
    1 (nested rings, conjugate symmetry) plus one per core solve."""

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
                          j_list, r0: float = 0.05) -> ReconstructionTable:
    """All reconstructions n <= n_max on a (j0, j) grid, each contour node
    from `_green` (conjugate symmetry halves the ring, and each doubled
    ring evaluates only its new odd nodes)."""
    n_max, = _indices([n_max], 0, "time horizons").tolist()
    j0s, js = _grid(scheme, j0_list, j_list)
    core = 0

    def values(zs: np.ndarray) -> np.ndarray:
        nonlocal core
        G, solves = _green(scheme, zs, j0s, js)
        core += solves
        return G

    real, imag, N = _contour_sum(scheme, n_max, r0, _CONTOUR_TOL, values)
    return ReconstructionTable(r0=r0, n_values=np.arange(n_max + 1),
                               j0_values=j0s, j_values=js, values=real,
                               imag=imag, nodes=N, solves=N // 2 + 1 + core)
