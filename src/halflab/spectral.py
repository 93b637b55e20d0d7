"""Characteristic roots, spectral splits, Lopatinskii determinant, projectors.

For a stencil a_{-r}, ..., a_p and a spectral parameter z, the characteristic
equation is

    P(kappa; z) = z kappa^r - sum_k a_k kappa^{k+r} = 0,

a degree p+r polynomial with P(0) = -a_{-r} != 0.  Outside the symbol curve
F(S^1) (winding number zero) it has exactly r roots inside the open unit disk
and p outside; at z = 1 the curve is touched and kappa = 1 joins the unit
circle while r roots stay strictly inside.  The companion matrix M(z) of the
recurrence has the same roots as eigenvalues with Vandermonde eigenvectors
(kappa^{p+r-1}, ..., kappa, 1)^T, so spectral projectors and matrix powers
are always formed through that eigenbasis, never through dense powers.

The Lopatinskii determinant Delta(z) = det(B e_1(z), ..., B e_r(z)) pairs the
boundary matrix B with the stable eigenvectors; its zeros in the resolvent
region signal instability, a simple zero at z = 1 signals the marginal
boundary-layer regime.  Delta'(1) is exact, not a finite difference: the
stable roots at z = 1 are simple, so the implicit-function theorem gives
their derivatives and Jacobi's formula that of det(B V)
(lopatinskii_derivative_at_one).

One evaluator serves a single node and a batch of nodes alike (the annulus
sweep of check_hypothesis_two, the CLI's real-axis profile, the contour
guard of `resolvent`).  The roots of all nodes come from one Aberth
iteration over a (nodes, p+r) array in which every node iterates, stops
and is polished exactly as it would alone, so a batch gives bitwise the
one-node results.  The region of a node follows from |z| - max|F| >= 1e-6
(the node clears the disk that holds the sampled symbol curve), or else
from the support function h(theta) = max_w Re(e^{-i theta} w) of the
samples: a node with |z| - h(arg z) >= 1e-6 lies outside the curve's
convex hull, hence outside the curve (winding number 0).  Only the other
nodes, and z = 1, get the winding number over the curve samples, computed
a few nodes at a time to bound the temporaries.  Delta is det(B V) on the
stacked Vandermonde matrices.  A failing node raises the typed error of the
pointwise functions, for the first failing node of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .scheme import SchemeDefinition, boundary_matrix, symbol_eval

__all__ = [
    "RootSolveError", "MultiplicityError", "EigenConditioningError",
    "SpectralSplit", "StableBasis", "ProjectorSet", "LopatinskiiValue",
    "StabilityReport", "companion_matrix", "characteristic_roots",
    "spectral_split", "stable_basis", "lopatinskii", "lopatinskii_values",
    "lopatinskii_derivative_at_one", "projector_set", "residue_condition",
    "check_hypothesis_two",
]


class RootSolveError(RuntimeError):
    """Root iteration failed to converge."""


class MultiplicityError(RuntimeError):
    """Root configuration degenerate (collision or wrong stable count)."""


class EigenConditioningError(RuntimeError):
    """Eigenvector basis too ill-conditioned for reliable projectors."""


def _char_coeffs(scheme: SchemeDefinition, zs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of P(kappa; z) = z kappa^r - kappa^r F(kappa),
    one row per node of zs."""
    c = np.tile(-scheme.a.astype(complex), (zs.size, 1))
    c[:, scheme.r] += zs
    return c


def companion_matrix(scheme: SchemeDefinition, z: complex) -> np.ndarray:
    """Companion matrix of the spatial recurrence at parameter z.

    State vector (u_{j+p-1}, ..., u_{j-r}); first row carries the solved-out
    top coefficient, ones on the subdiagonal shift the window.  Its
    determinant is (-1)^{p+r} a_{-r} / a_p, independent of z.
    """
    r, p = scheme.r, scheme.p
    d = p + r
    ap = scheme.a[-1]
    M = np.zeros((d, d), dtype=complex)
    for col, k in enumerate(range(p - 1, -r - 1, -1)):
        M[0, col] = ((z if k == 0 else 0.0) - scheme.coeff(k)) / ap
    for i in range(1, d):
        M[i, i - 1] = 1.0
    return M


def _aberth(c: np.ndarray, tol: float = 1e-14, max_iter: int = 200):
    """Aberth-Ehrlich simultaneous iteration on every row of c (ascending
    coefficients), then three Newton polish steps and a residual test.

    The rows share their end coefficients (only the z term, strictly inside,
    differs), hence one starting circle.  Each row runs the iteration of a
    lone polynomial: it stops when its own step meets the tolerance, and
    when P' vanishes at one of its estimates that estimate is nudged and the
    row skips the update.  Every operation is elementwise, so a row's roots
    do not depend on the other rows.  A row that reaches max_iter with its
    last eight steps finite and below 1e-8 of its root scale has stalled on
    roundoff and is polished like a converged row.  Returns the roots and
    {row: RootSolveError} for the rows that did not converge or stall, or
    fail the residual test.
    """
    n, d = c.shape[0], c.shape[1] - 1
    cs = c.T[:, :, None]              # polyval layout: (degree, row, 1)
    dcs = npoly.polyder(cs)
    # scalar arithmetic, as for a single polynomial: the array abs and power
    # loops can differ from it in the last bit
    radius = abs(c[0, 0] / c[0, -1]) ** (1.0 / d) if n else 1.0
    angles = 2.0 * np.pi * (np.arange(d) + 0.5) / d + 0.4 / d
    x = np.tile(radius * np.exp(1j * angles), (n, 1))
    last = np.zeros((8, n))           # the last eight step sizes of each row
    steps = np.zeros(n, dtype=int)
    live = np.ones(n, dtype=bool)
    off = np.arange(d)
    for _ in range(max_iter):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        xr = x[rows]
        P = npoly.polyval(xr, cs[:, rows], tensor=False)
        Pp = npoly.polyval(xr, dcs[:, rows], tensor=False)
        flat = Pp == 0
        if flat.any():
            nudge = flat.any(axis=1)
            xn = xr[nudge]
            xn[flat[nudge]] *= 1.0 + 1e-8
            x[rows[nudge]] = xn
            rows, xr, P, Pp = (rows[~nudge], xr[~nudge], P[~nudge],
                               Pp[~nudge])
        newton = P / Pp
        diff = xr[:, :, None] - xr[:, None, :]
        diff[:, off, off] = 1.0
        inv = 1.0 / diff
        inv[:, off, off] = 0.0
        w = newton / (1.0 - newton * inv.sum(axis=2))
        xr = xr - w
        x[rows] = xr
        step = np.abs(w).max(axis=1)
        last[steps[rows] % 8, rows] = step
        steps[rows] += 1
        # not "step >= ...": a NaN step keeps the row iterating, as it
        # would a lone polynomial, until the iteration limit reports it
        live[rows] = ~(step < tol * np.maximum(1.0, np.abs(xr).max(axis=1)))

    def trace(i):
        return [float(last[k % 8, i])
                for k in range(max(0, steps[i] - 8), steps[i])]

    # close roots near |kappa| = 1 can hold the step a little above tol
    # (1e-8 is about sqrt(eps)); the residual test below decides
    stalled = (live & (steps >= 8) & np.all(np.isfinite(x), axis=1)
               & np.all(last < 1e-8 * np.maximum(1.0, np.abs(x).max(axis=1)),
                        axis=0))
    errors = {int(i): RootSolveError(
        "simultaneous root iteration did not converge; last step sizes "
        f"{trace(i)!r}") for i in np.flatnonzero(live & ~stalled)}
    rows = np.flatnonzero(~live | stalled)
    xr, cr, dcr = x[rows], cs[:, rows], dcs[:, rows]
    for _ in range(3):
        Pp = npoly.polyval(xr, dcr, tensor=False)
        good = Pp != 0
        xr = np.where(good, xr - npoly.polyval(xr, cr, tensor=False)
                      / np.where(good, Pp, 1.0), xr)
    x[rows] = xr
    scale = npoly.polyval(np.abs(xr), np.abs(cr), tensor=False)
    res = np.abs(npoly.polyval(xr, cr, tensor=False))
    bad = np.any(res > 1e-13 * np.maximum(scale, 1e-300), axis=1)
    for k in np.flatnonzero(bad):
        i = int(rows[k])
        errors[i] = RootSolveError(
            f"root residuals {res[k]!r} exceed 1e-13 of coefficient scale "
            f"{scale[k]!r} after Newton polish; step trace {trace(i)!r}")
    return x, errors


def _sort_rows(roots: np.ndarray) -> np.ndarray:
    """Each row sorted by (|kappa|, arg kappa)."""
    order = np.lexsort((np.angle(roots), np.abs(roots)), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def characteristic_roots(scheme: SchemeDefinition, z: complex) -> np.ndarray:
    """All p+r roots of P(kappa; z), sorted by (|kappa|, arg kappa)."""
    roots, errors = _aberth(_char_coeffs(scheme, np.array([complex(z)])))
    if errors:
        raise errors[0]
    return _sort_rows(roots)[0]


_CURVE_SAMPLES = 8192
# sampled curves of the schemes used last, least recently used first; a
# curve takes 128 KB, so the cache holds at most 1 MB
_CURVE_CACHE_SIZE = 8
_curve_cache: dict = {}
# nodes per block of the winding computation: 8 x 8192 complex samples keep
# its temporaries near 4.5 MB
_WINDING_BLOCK = 8
# nodes per block of the support-function product: 32 x 8192 real
# projections, 2 MB
_SUPPORT_BLOCK = 32


def _symbol_curve(scheme: SchemeDefinition) -> np.ndarray:
    key = (scheme.r, scheme.p, scheme.a.tobytes())
    got = _curve_cache.pop(key, None)
    if got is None:
        t = np.linspace(0.0, 2.0 * np.pi, _CURVE_SAMPLES, endpoint=False)
        got = symbol_eval(scheme, np.exp(1j * t))
        if len(_curve_cache) >= _CURVE_CACHE_SIZE:
            del _curve_cache[next(iter(_curve_cache))]
    _curve_cache[key] = got
    return got


def _support_margins(scheme: SchemeDefinition, zs: np.ndarray) -> np.ndarray:
    """|z| - h(arg z) at each node of zs, h(theta) = max_w Re(e^{-i theta} w)
    the support function of the sampled symbol curve; -inf at z = 0.

    Every sample w has Re(e^{-i arg z} (z - w)) >= |z| - h, so a positive
    margin is a lower bound on the node's distance to the samples, and the
    samples (with the closing segment) lie in a half-plane that excludes
    the node: its winding number is 0.
    """
    curve = _symbol_curve(scheme)
    xy = np.stack([curve.real, curve.imag])
    mods = np.abs(zs)
    live = mods > 0.0
    dirs = np.stack([zs.real, zs.imag], axis=1)[live] / mods[live, None]
    h = np.empty(dirs.shape[0])
    for s in range(0, dirs.shape[0], _SUPPORT_BLOCK):
        h[s:s + _SUPPORT_BLOCK] = (dirs[s:s + _SUPPORT_BLOCK] @ xy).max(axis=1)
    margin = np.full(zs.size, -np.inf)
    margin[live] = mods[live] - h
    return margin


def _windings(scheme: SchemeDefinition, zs: np.ndarray):
    """Winding number of the sampled symbol curve around each node of zs and
    the node's distance to the samples, _WINDING_BLOCK nodes at a time."""
    curve = _symbol_curve(scheme)
    wind = np.empty(zs.size, dtype=int)
    dist = np.empty(zs.size)
    for s in range(0, zs.size, _WINDING_BLOCK):
        rel = curve[None, :] - zs[s:s + _WINDING_BLOCK, None]
        dist[s:s + _WINDING_BLOCK] = np.min(np.abs(rel), axis=1)
        ang = np.unwrap(np.angle(rel), axis=1)
        closing = np.angle(rel[:, 0]) - ang[:, -1]
        closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
        wind[s:s + _WINDING_BLOCK] = np.round(
            (ang[:, -1] - ang[:, 0] + closing) / (2.0 * np.pi))
    return wind, dist


def _vandermonde(kappas, dim: int) -> np.ndarray:
    """Columns kappa^(dim-1), ..., kappa, 1 for the kappas on the last axis
    (leading axes stack matrices)."""
    ks = np.asarray(kappas, dtype=complex)
    powers = np.arange(dim - 1, -1, -1)
    return ks[..., None, :] ** powers[:, None]


def _delta(scheme: SchemeDefinition, kappas) -> np.ndarray:
    """det(B V) for the stable roots on the last axis of kappas."""
    V = _vandermonde(kappas, scheme.p + scheme.r)
    return np.linalg.det(boundary_matrix(scheme) @ V)


@dataclass(frozen=True)
class _Nodes:
    """Roots, split, region and Lopatinskii determinant at a batch of nodes.

    split_errors maps a node to the error spectral_split raises there;
    errors adds the ones stable_basis and lopatinskii raise.  Only nodes
    missing from errors carry kappas (the r stable roots) and delta.  dist
    is the distance to the sampled symbol curve, or, for a node at least
    1e-6 outside the disk |w| <= max|F| or else the curve's convex hull,
    the lower bound on it that this margin is (|z| - max|F|, or
    |z| - h(arg z) with h the support function of the samples, see
    `_support_margins`).  Only the thresholds 1e-6 (the resolvent guard)
    and 1e-7 (on_curve) read dist, and a bound of at least 1e-6 passes
    both as the distance does.
    """

    roots: np.ndarray
    stable: np.ndarray
    central: np.ndarray
    unstable: np.ndarray
    region: np.ndarray
    winding: np.ndarray
    dist: np.ndarray
    kappas: np.ndarray
    delta: np.ndarray
    split_errors: dict
    errors: dict


def _raise_first(errors: dict) -> None:
    if errors:
        raise errors[min(errors)]


def _evaluate(scheme: SchemeDefinition, zs, unit_tol: float = 1e-8) -> _Nodes:
    """Every pointwise check of spectral_split, stable_basis and lopatinskii
    at each node of zs, from one batched root solve.

    A node farther than 1e-6 beyond the disk |w| <= max|F| holding the
    sampled curve clears at no cost (the contour rings, the outer sweep
    circles).  For the others the support test follows: a node with
    |z| - h(arg z) >= 1e-6, h the support function of the samples, lies
    that far outside the curve's convex hull, so it is at least that far
    from every sample and has winding number 0.  Its margin comes from one
    (nodes x 2) @ (2 x samples) product in blocks of _SUPPORT_BLOCK nodes.
    On the unit circle the disk (max|F| = 1) clears no node, while the
    support test clears each node in whose direction the curve stays 1e-6
    inside the circle.  The remaining nodes, and z = 1, get the winding
    computation.
    """
    zs = np.asarray(zs, dtype=complex)
    n, r, p = zs.size, scheme.r, scheme.p
    c = _char_coeffs(scheme, zs)
    raw, errors = _aberth(c)
    roots = _sort_rows(raw)
    mods = np.abs(roots)
    stable = mods < 1.0 - unit_tol
    central = np.abs(mods - 1.0) <= unit_tol
    unstable = mods > 1.0 + unit_tol
    n_s, n_c, n_u = (m.sum(axis=1) for m in (stable, central, unstable))

    at_one = np.abs(zs - 1.0) <= 1e-12
    dist = np.abs(zs) - float(np.max(np.abs(_symbol_curve(scheme))))
    near = np.flatnonzero(dist < 1e-6)
    dist[near] = _support_margins(scheme, zs[near])
    winding = np.zeros(n, dtype=int)
    slow = np.flatnonzero((dist < 1e-6) | at_one)
    winding[slow], dist[slow] = _windings(scheme, zs[slow])
    region = np.where(at_one, "at_one", np.where(
        dist < 1e-7, "on_curve", np.where(winding == 0, "outside", "inside")))

    def fail(i, exc):
        errors.setdefault(int(i), exc)

    for i in np.flatnonzero((region == "outside")
                            & ((n_s != r) | (n_u != p) | (n_c != 0))):
        fail(i, MultiplicityError(
            f"z={complex(zs[i])!r} lies outside the symbol curve but the "
            f"split is {n_s[i]} stable / {n_c[i]} central / {n_u[i]} "
            f"unstable (expected {r}/0/{p})"))
    for i in np.flatnonzero(at_one):
        cen = tuple(roots[i][central[i]])
        if n_s[i] != r or len(cen) != 1 or abs(cen[0] - 1.0) > 1e-6:
            fail(i, MultiplicityError(
                f"at z=1 expected {r} stable roots plus the central root "
                f"kappa=1, got {n_s[i]} stable, central {cen!r}"))
    split_errors = dict(errors)
    for i in np.flatnonzero((region != "outside") & ~at_one):
        fail(i, MultiplicityError(
            f"stable basis requested at z={complex(zs[i])!r} in region "
            f"{str(region[i])!r}; the stable root count is only pinned "
            "outside the symbol curve"))
    ok = np.ones(n, dtype=bool)
    ok[list(errors)] = False
    kappas = np.full((n, r), np.nan, dtype=complex)
    kappas[ok] = roots[ok][stable[ok]].reshape(-1, r)
    if r >= 2:
        gaps = np.abs(kappas[:, :, None] - kappas[:, None, :])
        gaps[:, np.arange(r), np.arange(r)] = np.inf
        gap = gaps.min(axis=2)
        # roundoff in P moves a root by about eps S / |dP/dkappa|, S = sum
        # |c_k| |kappa|^k: near a double root that is ~sqrt(eps), so a pair
        # Aberth cannot tell apart passes a fixed gap test; each stable root
        # must lie 100 such errors from the next
        cs = c.T[:, :, None]
        slope = np.abs(npoly.polyval(kappas, npoly.polyder(cs), tensor=False))
        size = npoly.polyval(np.abs(kappas), np.abs(cs), tensor=False)
        blurred = 100.0 * np.finfo(float).eps * size >= slope * gap
        for i in np.flatnonzero(ok & blurred.any(axis=1)):
            fail(i, MultiplicityError(
                f"stable roots nearly collide at z={complex(zs[i])!r}: "
                f"gap {gap[i].min():.3e}, beyond what the root solve "
                "resolves"))
            ok[i] = False
    delta = np.full(n, np.nan, dtype=complex)
    delta[ok] = _delta(scheme, kappas[ok])
    return _Nodes(roots=roots, stable=stable, central=central,
                  unstable=unstable, region=region, winding=winding,
                  dist=dist, kappas=kappas, delta=delta,
                  split_errors=split_errors, errors=errors)


@dataclass(frozen=True)
class SpectralSplit:
    """Roots of P(.; z) classified against the unit circle."""

    z: complex
    roots: tuple
    stable: tuple
    central: tuple
    unstable: tuple
    region: str
    winding: int


def spectral_split(scheme: SchemeDefinition, z: complex,
                   unit_tol: float = 1e-8) -> SpectralSplit:
    """Classify the characteristic roots at z and name the region of z.

    Regions: "at_one" (z = 1), "on_curve" (within 1e-7 of the sampled symbol
    curve), "outside" (winding number 0), "inside".  Outside, the counts are
    checked: exactly r stable roots, p unstable, none on the circle.  At
    z = 1 the checked layout is r stable, the single central root kappa = 1,
    and p-1 unstable.
    """
    z = complex(z)
    nodes = _evaluate(scheme, [z], unit_tol)
    _raise_first(nodes.split_errors)
    roots = nodes.roots[0]
    return SpectralSplit(z=z, roots=tuple(roots),
                         stable=tuple(roots[nodes.stable[0]]),
                         central=tuple(roots[nodes.central[0]]),
                         unstable=tuple(roots[nodes.unstable[0]]),
                         region=str(nodes.region[0]),
                         winding=int(nodes.winding[0]))


@dataclass(frozen=True)
class StableBasis:
    """Stable characteristic roots at z with their Vandermonde eigenvectors
    (columns of `vectors`, component order u_{j+p-1}..u_{j-r})."""

    z: complex
    kappas: tuple
    vectors: np.ndarray


def stable_basis(scheme: SchemeDefinition, z: complex,
                 unit_tol: float = 1e-8) -> StableBasis:
    nodes = _evaluate(scheme, [complex(z)], unit_tol)
    _raise_first(nodes.errors)
    ks = nodes.kappas[0]
    return StableBasis(z=complex(z), kappas=tuple(ks),
                       vectors=_vandermonde(ks, scheme.p + scheme.r))


@dataclass(frozen=True)
class LopatinskiiValue:
    """Delta(z) = det(B e_1(z), ..., B e_r(z)), stable roots sorted by
    (|kappa|, arg kappa)."""

    z: complex
    value: complex
    kappas: tuple


def lopatinskii(scheme: SchemeDefinition, z: complex) -> LopatinskiiValue:
    """Delta at one node: the one-node case of lopatinskii_values."""
    nodes = _evaluate(scheme, [complex(z)])
    _raise_first(nodes.errors)
    return LopatinskiiValue(z=complex(z), value=complex(nodes.delta[0]),
                            kappas=tuple(nodes.kappas[0]))


def lopatinskii_values(scheme: SchemeDefinition, zs) -> np.ndarray:
    """Delta at every node of zs from one batched evaluation, bitwise equal
    to lopatinskii(scheme, z).value at each node.  Raises the error
    lopatinskii raises at the first node of zs where it fails."""
    nodes = _evaluate(scheme, zs)
    _raise_first(nodes.errors)
    return nodes.delta


def lopatinskii_derivative_at_one(scheme: SchemeDefinition) -> complex:
    """Delta'(1) in closed form from the stable roots at z = 1.

    The stable roots are simple there (the evaluator rejects a collision),
    so each is a smooth function of z with kappa_m'(1) = -kappa_m^r /
    dP/dkappa(kappa_m; 1), and Jacobi's formula gives Delta'(1) as the sum
    over m of det(A) with column m of A = B V replaced by
    B v'(kappa_m) kappa_m'(1), v' the derivative of the Vandermonde column.
    """
    nodes = _evaluate(scheme, [1.0])
    _raise_first(nodes.errors)
    ks = nodes.kappas[0]
    r, d = scheme.r, scheme.p + scheme.r
    dP = npoly.polyder(_char_coeffs(scheme, np.array([1.0 + 0j]))[0])
    dks = -ks ** r / npoly.polyval(ks, dP)
    powers = np.arange(d - 1, -1, -1)
    dV = powers[:, None] * ks ** np.maximum(powers - 1, 0)[:, None] * dks
    B = boundary_matrix(scheme)
    cols = np.repeat((B @ _vandermonde(ks, d))[None], r, axis=0)
    cols[np.arange(r), :, np.arange(r)] = (B @ dV).T
    return complex(np.linalg.det(cols).sum())


@dataclass(frozen=True)
class ProjectorSet:
    """Spectral projectors of the companion matrix through its eigenbasis.

    Classes: "ss" strictly stable roots, "c" central (unit circle), "su"
    strictly unstable.  `e` is the source injection vector (first companion
    coordinate); at z = 1 the central eigenvector is the all-ones vector and
    pi_c e = (l_c . e) * ones with l_c the matching row of V^{-1}.
    """

    z: complex
    roots: tuple
    V: np.ndarray
    Vinv: np.ndarray
    classes: dict
    pi_ss: np.ndarray
    pi_c: np.ndarray
    pi_su: np.ndarray
    central: complex | None
    central_vector: np.ndarray | None
    left_central: np.ndarray | None
    e: np.ndarray

    def power_apply(self, n: int, vec: np.ndarray,
                    which: str | None = None) -> np.ndarray:
        """M(z)^n vec through the eigenbasis, optionally restricted to one
        spectral class; n may be negative when the class avoids zero."""
        coeffs = self.Vinv @ np.asarray(vec, dtype=complex)
        lam = np.asarray(self.roots)
        mask = np.zeros(lam.size, dtype=bool)
        if which is None:
            mask[:] = True
        else:
            mask[list(self.classes[which])] = True
        out = np.zeros(self.V.shape[0], dtype=complex)
        for k in np.nonzero(mask)[0]:
            out += coeffs[k] * lam[k] ** n * self.V[:, k]
        return out


def projector_set(scheme: SchemeDefinition, z: complex,
                  unit_tol: float = 1e-8) -> ProjectorSet:
    split = spectral_split(scheme, z, unit_tol)
    roots = np.asarray(split.roots)
    d = scheme.p + scheme.r
    V = _vandermonde(roots, d)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e10:
        raise EigenConditioningError(
            f"eigenvector Vandermonde at z={z!r} has condition {cond:.3e}")
    Vinv = np.linalg.inv(V)
    mods = np.abs(roots)
    idx_ss = tuple(int(i) for i in np.nonzero(mods < 1.0 - unit_tol)[0])
    idx_c = tuple(int(i) for i in np.nonzero(np.abs(mods - 1.0) <= unit_tol)[0])
    idx_su = tuple(int(i) for i in np.nonzero(mods > 1.0 + unit_tol)[0])
    classes = {"ss": idx_ss, "c": idx_c, "su": idx_su}

    def proj(idx):
        mask = np.zeros(d)
        for i in idx:
            mask[i] = 1.0
        return V @ (mask[:, None] * Vinv)

    pi_ss, pi_c, pi_su = proj(idx_ss), proj(idx_c), proj(idx_su)
    eye = np.eye(d)
    M = companion_matrix(scheme, z)
    for name, P, idx in (("ss", pi_ss, idx_ss), ("c", pi_c, idx_c),
                         ("su", pi_su, idx_su)):
        if np.max(np.abs(P @ P - P)) > 1e-10:
            raise EigenConditioningError(f"projector {name} not idempotent")
        if np.max(np.abs(P @ M - M @ P)) > 1e-10:
            raise EigenConditioningError(f"projector {name} does not commute")
        if abs(np.trace(P).real - len(idx)) > 1e-10 or \
                abs(np.trace(P).imag) > 1e-10:
            raise EigenConditioningError(f"projector {name} has wrong rank")
    if np.max(np.abs(pi_ss + pi_c + pi_su - eye)) > 1e-10:
        raise EigenConditioningError("projectors do not sum to the identity")

    central = central_vec = left_central = None
    if idx_c:
        near_one = min(idx_c, key=lambda i: abs(roots[i] - 1.0))
        central = complex(roots[near_one])
        central_vec = V[:, near_one].copy()
        left_central = Vinv[near_one, :].copy()
    e = np.zeros(d)
    e[0] = 1.0
    return ProjectorSet(z=complex(z), roots=tuple(roots), V=V, Vinv=Vinv,
                        classes=classes, pi_ss=pi_ss, pi_c=pi_c, pi_su=pi_su,
                        central=central, central_vector=central_vec,
                        left_central=left_central, e=e)


def residue_condition(scheme: SchemeDefinition, tol: float = 1e-10) -> bool:
    """Whether B(ones) lies in the span of the stable boundary traces at 1.

    ones is the central Vandermonde vector at kappa = 1; when B(ones) = 0
    the condition holds degenerately and the reflected boundary layer
    vanishes identically.
    """
    return _residue_ok(scheme, None, tol)


def _residue_ok(scheme: SchemeDefinition, kappas, tol: float = 1e-10) -> bool:
    """residue_condition from the stable roots at 1 when the caller holds
    them (kappas None: solve for them)."""
    B = boundary_matrix(scheme)
    ones = np.ones(scheme.p + scheme.r)
    target = B @ ones
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return True
    if kappas is None:
        kappas = stable_basis(scheme, 1.0).kappas
    A = B @ _vandermonde(kappas, scheme.p + scheme.r)
    # span membership through an explicit rank cutoff: a trace column of
    # roundoff size (Delta(1) = 0 within floats) must count as zero, or a
    # 1x1 "solve" would invert it and report everything as in-span
    U, sv, _ = np.linalg.svd(A)
    scale = max(1.0, float(np.max(np.abs(B))))
    Uk = U[:, sv > 1e-10 * scale]
    resid = float(np.linalg.norm(target - Uk @ (Uk.conj().T @ target)))
    return resid <= tol * tnorm


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the Lopatinskii condition sweep on annuli around the
    unit circle, plus the boundary-layer dichotomy at z = 1."""

    satisfied: bool
    min_modulus: float
    witness_z: complex | None
    delta_at_one: complex
    boundary_zero: bool
    residue_ok: bool | None
    verdict: str
    radii: tuple
    samples_per_radius: int

    def as_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "min_modulus": self.min_modulus,
            "witness_z": None if self.witness_z is None else
                [self.witness_z.real, self.witness_z.imag],
            "delta_at_one": [self.delta_at_one.real, self.delta_at_one.imag],
            "boundary_zero": self.boundary_zero,
            "residue_ok": self.residue_ok,
            "verdict": self.verdict,
            "radii": list(self.radii),
            "samples_per_radius": self.samples_per_radius,
        }


def check_hypothesis_two(scheme: SchemeDefinition, annulus_samples: int = 64,
                         radii=(1.0, 1.05, 1.25, 2.5),
                         zero_tol: float = 1e-6,
                         exclusion: float = 0.06) -> StabilityReport:
    """Sweep |Delta(z)| over circles of the given radii and classify.

    On the unit radius an angular window |theta| < exclusion is skipped:
    the symbol curve touches z = 1 there and a marginal boundary zero of
    Delta would otherwise shadow the sweep.  A modulus below zero_tol
    anywhere else is a genuine Lopatinskii violation.  When the sweep is
    clean the verdict follows the z = 1 dichotomy: a boundary zero with a
    nonvanishing residue gives the marginal verdict, anything else is
    uniformly stable.
    """
    if annulus_samples < 8:
        raise ValueError("need at least 8 samples per radius")
    # nodes built in Python arithmetic, one per (radius, angle), so each
    # witness is bitwise the point a pointwise sweep would name
    zs = [rho * complex(math.cos(th), math.sin(th))
          for rho in radii
          for th in np.linspace(0.0, 2.0 * np.pi, annulus_samples,
                                endpoint=False)
          if not (abs(rho - 1.0) < 1e-12
                  and abs(math.remainder(th, 2.0 * math.pi)) < exclusion)]
    min_mod = math.inf
    witness = None
    for zval, delta in zip(zs, lopatinskii_values(scheme, zs)):
        val = abs(complex(delta))
        if val < min_mod:
            min_mod = val
            if val < zero_tol:
                witness = zval
    satisfied = witness is None

    one = lopatinskii(scheme, 1.0)
    delta1 = one.value
    boundary_zero = abs(delta1) < 1e-8
    residue_ok = _residue_ok(scheme, one.kappas) if boundary_zero else None

    if not satisfied:
        verdict = (f"unstable: Lopatinskii determinant vanishes at "
                   f"z = {witness.real:.6g}{witness.imag:+.6g}j")
    elif boundary_zero and not residue_ok:
        verdict = "ℓ¹-stable, ℓ^q-unstable for q>1"
    else:
        verdict = "ℓ^q-stable for all q"
    return StabilityReport(satisfied=satisfied, min_modulus=float(min_mod),
                           witness_z=witness, delta_at_one=delta1,
                           boundary_zero=boundary_zero, residue_ok=residue_ok,
                           verdict=verdict, radii=tuple(radii),
                           samples_per_radius=annulus_samples)
