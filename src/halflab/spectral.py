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
sweep of check_hypothesis_two for r >= 2, the CLI's real-axis profile, the
contour guard of `resolvent`).  The roots of all nodes are the eigenvalues
of the stacked companion matrices, from one LAPACK call, polished by three
elementwise Newton steps.  numpy factors each matrix of a stack on its
own, so a batch gives bitwise the one-node results (and those of np.roots
with the same polish).  The roots also place the node against the curve.  On
|kappa| = 1, P(kappa; z) = kappa^r (z - F(kappa)), so the argument
principle gives the winding number of F(S^1) around z as n_stable - r,
and |z - F(e^{it})| = |a_p| prod_i |e^{it} - kappa_i| is at least
|a_p| prod_i ||kappa_i| - 1|: a certified lower bound on the distance from
z to the curve.  Delta is det(B V) on the stacked Vandermonde matrices.  A
failing node raises the typed error of the pointwise functions, for the
first failing node of the batch.

Each formula is evaluated in one place, which `resolvent` and `layers`
share.  `_char_values` gives P(kappa; z), its kappa-derivatives (their
coefficients stacked once by `_char_stack`) and the rounding scale
S = sum_k |c_k| |kappa|^k, so that a root is off by about eps S / |dP/dkappa|:
the root polish and residual test, the collision test, kappa'(1) in
Delta'(1), the residue sums of `resolvent` with their bounds and, for
r = 1, the ghost polynomial Q and the symbol F at Q's roots all read it.
`_lopatinskii_matrix` builds B V(kappa), whose determinant at the stable
roots is Delta, for Delta, Delta'(1), the residue condition, the ghost-row
solve of the half-line Green's function and the layer coefficients.  Only
`_evaluate` splits the roots against the unit circle.

The tolerances are fixed module constants, each defined once here and read
by every module that applies it: the unit-circle width 1e-8 of the root
classes (also the CLI's o3 marginal pair), the near-curve distance 1e-6
(also the resolvent guards'), the on-curve distance 1e-7, the r = 1 zero
slack of 100 rounding errors, the r >= 2 sweep zero 1e-6, the boundary
zero |Delta(1)| < 1e-8 (also the layers' marginal test) and the default
sweep circles and samples (also the CLI's defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .scheme import SchemeDefinition, _indices, boundary_matrix

__all__ = [
    "RootSolveError", "MultiplicityError", "EigenConditioningError",
    "SpectralSplit", "ProjectorSet", "LopatinskiiValue", "StabilityReport",
    "companion_matrix", "characteristic_roots", "spectral_split",
    "lopatinskii", "lopatinskii_values",
    "lopatinskii_derivative_at_one", "projector_set", "residue_condition",
    "check_hypothesis_two",
]


# |kappa| within this of 1 puts a root on the unit circle (central)
_UNIT_TOL = 1e-8
# a node not certified this far from the symbol curve is near the spectrum:
# the resolvent guards refuse it
_NEAR_CURVE = 1e-6
# a node not certified this far from the symbol curve lies on it
_ON_CURVE = 1e-7
# r = 1: a computed z* = F(kappa0) is off by about eps (|F'| S_Q / |Q'| +
# S_F) (see check_hypothesis_two); within this many such errors of 1 it is
# the boundary zero at z = 1, and |z*| within as many of 1 is on the unit
# circle (the rounding scales S as in _char_values)
_ZERO_SLACK = 100.0
# r >= 2: |Delta| below this on a sweep circle is a Lopatinskii zero
_SWEEP_ZERO_TOL = 1e-6
# the window |theta| < this skipped on the unit sweep circle, where the
# symbol curve touches z = 1
_SWEEP_EXCLUSION = 0.06
# the default sweep: these circles, this many nodes on each
_SWEEP_RADII = (1.0, 1.05, 1.25, 2.5)
_SWEEP_SAMPLES = 64
# |Delta(1)| below this is a boundary zero: the marginal regime
_BOUNDARY_ZERO_TOL = 1e-8
# relative residual of B(ones) off the stable traces that still counts as
# in their span
_RESIDUE_TOL = 1e-10


def _boundary_zero(delta1: complex) -> bool:
    """Whether Delta(1) vanishes: the one test behind the second
    hypothesis's marginal verdict and the layers' marginal regime."""
    return abs(delta1) < _BOUNDARY_ZERO_TOL


class RootSolveError(RuntimeError):
    """Root solve failed: a non-finite coefficient, or polished roots
    that fail the residual test."""


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


def _companions(c: np.ndarray) -> np.ndarray:
    """Companion matrices of the rows of c (ascending coefficients), in the
    np.roots layout: the first row carries -c_{d-1}/c_d, ..., -c_0/c_d,
    ones on the subdiagonal shift the window."""
    n, d = c.shape[0], c.shape[1] - 1
    M = np.zeros((n, d, d), dtype=c.dtype)
    M[:, 0] = -c[:, -2::-1] / c[:, -1:]
    M[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return M


def companion_matrix(scheme: SchemeDefinition, z: complex) -> np.ndarray:
    """Companion matrix of the spatial recurrence at parameter z.

    State vector (u_{j+p-1}, ..., u_{j-r}); first row carries the solved-out
    top coefficient, ones on the subdiagonal shift the window.  Its
    determinant is (-1)^{p+r} a_{-r} / a_p, independent of z.
    """
    return _companions(_char_coeffs(scheme, np.array([complex(z)])))[0]


def _char_stack(c: np.ndarray, order: int) -> list:
    """The rows of c (ascending coefficients of P, one row per node) and
    those of P's first `order` kappa-derivatives, each in polyval's stacked
    layout (degree, node, 1)."""
    stack = [c.T[:, :, None]]
    for _ in range(order):
        # polyder's products j c_j (bitwise), without its argument handling
        cs = stack[-1]
        stack.append(cs[1:] * np.arange(1, cs.shape[0])[:, None, None])
    return stack


def _char_values(stack: list, kappas: np.ndarray, scale: bool = False):
    """The one evaluator of P(kappa; z) (and of Q and kappa^r F for r = 1)
    and its derivatives: the value of each polynomial of `stack` (from
    _char_stack) at kappas (node, k), then, with `scale`,
    S = sum_k |c_k| |kappa|^k, the size of P's rounding at kappa (a root's
    error is about eps S / |dP/dkappa|)."""
    vals = [npoly.polyval(kappas, cs, tensor=False) for cs in stack]
    if scale:
        vals.append(npoly.polyval(np.abs(kappas), np.abs(stack[0]),
                                  tensor=False))
    return vals


def _roots(c: np.ndarray):
    """The roots of every row of c (ascending coefficients): the eigenvalues
    of the stacked companion matrices from one LAPACK call, then three
    Newton polish steps and a residual test.

    numpy factors each matrix of the stack on its own and the polish is
    elementwise, so a row's roots do not depend on the other rows.  Returns
    the roots and {row: RootSolveError} for the rows with a non-finite
    coefficient or whose polished roots fail the residual test.
    """
    n, d = c.shape[0], c.shape[1] - 1
    finite = np.all(np.isfinite(c), axis=1)
    errors = {int(i): RootSolveError(
        f"characteristic coefficients {c[i]!r} are not finite")
        for i in np.flatnonzero(~finite)}
    rows = np.flatnonzero(finite)
    x = np.full((n, d), np.nan, dtype=complex)
    xr = np.linalg.eigvals(_companions(c[rows]))
    # the derivative is built once, outside the polish
    stack = _char_stack(c[rows], 1)
    for _ in range(3):
        P, Pp = _char_values(stack, xr)
        good = Pp != 0
        xr = np.where(good, xr - P / np.where(good, Pp, 1.0), xr)
    x[rows] = xr
    P, scale = _char_values(stack[:1], xr, scale=True)
    res = np.abs(P)
    bad = np.any(res > 1e-13 * np.maximum(scale, 1e-300), axis=1)
    for k in np.flatnonzero(bad):
        errors[int(rows[k])] = RootSolveError(
            f"root residuals {res[k]!r} exceed 1e-13 of coefficient scale "
            f"{scale[k]!r} after Newton polish")
    return x, errors


def _sort_rows(roots: np.ndarray) -> np.ndarray:
    """Each row sorted by (|kappa|, arg kappa)."""
    order = np.lexsort((np.angle(roots), np.abs(roots)), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def characteristic_roots(scheme: SchemeDefinition, z: complex) -> np.ndarray:
    """All p+r roots of P(kappa; z), the eigenvalues of companion_matrix(
    scheme, z) after three Newton polish steps, sorted by (|kappa|,
    arg kappa)."""
    roots, errors = _roots(_char_coeffs(scheme, np.array([complex(z)])))
    if errors:
        raise errors[0]
    return _sort_rows(roots)[0]


def _vandermonde(kappas, dim: int) -> np.ndarray:
    """Columns kappa^(dim-1), ..., kappa, 1 for the kappas on the last axis
    (leading axes stack matrices)."""
    ks = np.asarray(kappas, dtype=complex)
    powers = np.arange(dim - 1, -1, -1)
    return ks[..., None, :] ** powers[:, None]


def _lopatinskii_matrix(scheme: SchemeDefinition, kappas) -> np.ndarray:
    """The one builder of the Lopatinskii matrix B V(kappa), the boundary
    matrix on the Vandermonde columns of the kappas on the last axis
    (leading axes stack matrices); Delta is its determinant at the r stable
    roots."""
    return boundary_matrix(scheme) @ _vandermonde(kappas,
                                                  scheme.p + scheme.r)


@dataclass(frozen=True)
class _Nodes:
    """Roots, split, region and Lopatinskii determinant at a batch of nodes.

    split_errors maps a node to the error spectral_split raises there;
    errors adds the ones lopatinskii raises.  Only nodes missing from
    errors carry kappas (the r stable roots) and delta.
    winding is the winding number of the symbol curve around the node,
    n_stable - r by the argument principle (central roots, which put the
    node on the curve, do not count).  dist is |a_p| prod_i ||kappa_i| - 1|,
    a lower bound on the node's distance to the curve; the thresholds
    _NEAR_CURVE (the resolvent guards) and _ON_CURVE (on_curve) read it.
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


def _evaluate(scheme: SchemeDefinition, zs) -> _Nodes:
    """Every pointwise check of spectral_split and lopatinskii at each node
    of zs, from one batched root solve.

    This is the one place the roots are split against the unit circle; the
    region comes from the roots alone: "at_one" first, then "on_curve"
    where a root is central or dist < _ON_CURVE, "outside" where the winding
    number n_stable - r is 0 (so the split is r/0/p), else "inside".
    Outside, two stable roots closer than 100 root errors eps S / |dP/dkappa|
    (S from _char_values) are a collision, and Delta is the determinant of
    _lopatinskii_matrix at the stable roots.
    """
    zs = np.asarray(zs, dtype=complex)
    n, r = zs.size, scheme.r
    c = _char_coeffs(scheme, zs)
    raw, errors = _roots(c)
    roots = _sort_rows(raw)
    mods = np.abs(roots)
    stable, central, unstable = (mods < 1.0 - _UNIT_TOL,
                                 np.abs(mods - 1.0) <= _UNIT_TOL,
                                 mods > 1.0 + _UNIT_TOL)
    n_s, n_c = stable.sum(axis=1), central.sum(axis=1)

    at_one = np.abs(zs - 1.0) <= 1e-12
    winding = n_s - r
    dist = abs(scheme.a[-1]) * np.prod(np.abs(mods - 1.0), axis=1)
    region = np.where(at_one, "at_one", np.where(
        (dist < _ON_CURVE) | (n_c > 0), "on_curve",
        np.where(winding == 0, "outside", "inside")))

    def fail(i, exc):
        errors.setdefault(int(i), exc)

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
        # the root solve cannot tell apart passes a fixed gap test; each
        # stable root must lie 100 such errors from the next
        _, slope, size = _char_values(_char_stack(c, 1), kappas, scale=True)
        blurred = 100.0 * np.finfo(float).eps * size >= np.abs(slope) * gap
        for i in np.flatnonzero(ok & blurred.any(axis=1)):
            fail(i, MultiplicityError(
                f"stable roots nearly collide at z={complex(zs[i])!r}: "
                f"gap {gap[i].min():.3e}, beyond what the root solve "
                "resolves"))
            ok[i] = False
    delta = np.full(n, np.nan, dtype=complex)
    delta[ok] = np.linalg.det(_lopatinskii_matrix(scheme, kappas[ok]))
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


def spectral_split(scheme: SchemeDefinition, z: complex) -> SpectralSplit:
    """Classify the characteristic roots at z and name the region of z.

    Regions: "at_one" (z = 1), "on_curve" (a root on the unit circle, or
    not certified _ON_CURVE away from the symbol curve), "outside" (winding
    number 0: exactly r stable roots, p unstable, none on the circle),
    "inside".  At z = 1 the checked layout is r stable, the single central
    root kappa = 1, and p-1 unstable.
    """
    z = complex(z)
    nodes = _evaluate(scheme, [z])
    _raise_first(nodes.split_errors)
    roots = nodes.roots[0]
    return SpectralSplit(z=z, roots=tuple(roots),
                         stable=tuple(roots[nodes.stable[0]]),
                         central=tuple(roots[nodes.central[0]]),
                         unstable=tuple(roots[nodes.unstable[0]]),
                         region=str(nodes.region[0]),
                         winding=int(nodes.winding[0]))


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
    c = _char_coeffs(scheme, np.array([1.0 + 0j]))
    _, dP = _char_values(_char_stack(c, 1), ks[None])
    dks = -ks ** r / dP[0]
    powers = np.arange(d - 1, -1, -1)
    dV = powers[:, None] * ks ** np.maximum(powers - 1, 0)[:, None] * dks
    cols = np.repeat(_lopatinskii_matrix(scheme, ks)[None], r, axis=0)
    cols[np.arange(r), :, np.arange(r)] = (boundary_matrix(scheme) @ dV).T
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
    e: np.ndarray


def projector_set(scheme: SchemeDefinition, z: complex) -> ProjectorSet:
    nodes = _evaluate(scheme, [complex(z)])
    _raise_first(nodes.split_errors)
    roots = nodes.roots[0]
    d = scheme.p + scheme.r
    V = _vandermonde(roots, d)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e10:
        raise EigenConditioningError(
            f"eigenvector Vandermonde at z={z!r} has condition {cond:.3e}")
    Vinv = np.linalg.inv(V)
    idx_ss, idx_c, idx_su = (tuple(int(i) for i in np.flatnonzero(m[0]))
                             for m in (nodes.stable, nodes.central,
                                       nodes.unstable))
    classes = {"ss": idx_ss, "c": idx_c, "su": idx_su}

    def proj(idx):
        mask = np.zeros(d)
        mask[list(idx)] = 1.0
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

    central = None
    if idx_c:
        central = complex(roots[min(idx_c, key=lambda i: abs(roots[i] - 1.0))])
    e = np.zeros(d)
    e[0] = 1.0
    return ProjectorSet(z=complex(z), roots=tuple(roots), V=V, Vinv=Vinv,
                        classes=classes, pi_ss=pi_ss, pi_c=pi_c, pi_su=pi_su,
                        central=central, e=e)


def residue_condition(scheme: SchemeDefinition) -> bool:
    """Whether B(ones) lies in the span of the stable boundary traces at 1.

    ones is the central Vandermonde vector at kappa = 1; when B(ones) = 0
    the condition holds degenerately and the reflected boundary layer
    vanishes identically.
    """
    return _residue_ok(scheme, None)


def _residue_ok(scheme: SchemeDefinition, kappas) -> bool:
    """residue_condition from the stable roots at 1 when the caller holds
    them (kappas None: solve for them)."""
    B = boundary_matrix(scheme)
    ones = np.ones(scheme.p + scheme.r)
    target = B @ ones
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return True
    if kappas is None:
        kappas = lopatinskii(scheme, 1.0).kappas
    A = _lopatinskii_matrix(scheme, kappas)
    # span membership through an explicit rank cutoff: a trace column of
    # roundoff size (Delta(1) = 0 within floats) must count as zero, or a
    # 1x1 "solve" would invert it and report everything as in-span
    U, sv, _ = np.linalg.svd(A)
    scale = max(1.0, float(np.max(np.abs(B))))
    Uk = U[:, sv > 1e-10 * scale]
    resid = float(np.linalg.norm(target - Uk @ (Uk.conj().T @ target)))
    return resid <= _RESIDUE_TOL * tnorm


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the second hypothesis, plus the boundary-layer dichotomy
    at z = 1.

    For r = 1, zeros lists every zero of Delta with |z| >= 1 off z = 1 as
    {"z", "kappa", "margin", "bound"}: z = F(kappa), kappa the root of the
    ghost polynomial it comes from, margin |z| - 1 and bound the rounding
    slack the tests applied; largest |z| first, and min_modulus is None.
    For r >= 2, min_modulus is the least |Delta| over the sweep and zeros is
    None.  witness_z is the first zero (the sweep's node below
    _SWEEP_ZERO_TOL for r >= 2), None when there is none.  radii and
    samples_per_radius are the sweep's arguments, validated for every r
    and read only for r >= 2.
    """

    satisfied: bool
    min_modulus: float | None
    witness_z: complex | None
    delta_at_one: complex
    boundary_zero: bool
    residue_ok: bool | None
    verdict: str
    radii: tuple
    samples_per_radius: int
    zeros: tuple | None


def _ghost_zeros(scheme: SchemeDefinition) -> tuple:
    """For r = 1, the zeros z* = F(kappa0) of Delta with |z*| >= 1 off
    z = 1, from the roots kappa0 of Q(kappa) = 1 - sum_k b_k kappa^k in the
    open unit disk (check_hypothesis_two), largest |z*| first, then the
    upper half plane first."""
    # the roots mu = 1/kappa0 of the monic reversal R(mu) = mu^p_b Q(1/mu),
    # ascending coefficients -b_p_b, ..., -b_1, 1: no division by a weight,
    # so a tiny last weight gives a tiny mu (a root far outside the disk)
    # where Q's companion matrix would overflow; kappa0 in the open disk
    # is |mu| > 1
    rev = np.concatenate((-scheme.b[0][::-1], [1.0])).astype(complex)
    if rev.size == 1:
        return ()
    roots, errors = _roots(rev[None])
    _raise_first(errors)
    mus = roots[:, np.abs(roots[0]) > 1.0]
    ks = 1.0 / mus
    _, dR, SR = _char_values(_char_stack(rev[None], 1), mus, scale=True)
    # kappa F = A = sum_i a_i kappa^i, so F = A / kappa and
    # F' = (A' - F) / kappa = mu (A' - F); kappa0 is off by about
    # eps S_R / (|R'| |mu|^2), which moves z* by about that times |F'|
    A, dA, SA = _char_values(_char_stack(scheme.a[None].astype(complex), 1),
                             ks, scale=True)
    F = A[0] / ks[0]
    bound = _ZERO_SLACK * np.finfo(float).eps * (
        np.abs(dA[0] - F) * SR[0] / (np.abs(dR[0]) * np.abs(mus[0]))
        + SA[0] * np.abs(mus[0]))
    # + 0.0 clears a negative zero, so a real z* prints as +0j
    zeros = [{"z": complex(z) + 0.0, "kappa": complex(k),
              "margin": float(abs(z) - 1.0), "bound": float(e)}
             for z, k, e in zip(F.tolist(), ks[0].tolist(), bound.tolist())
             if abs(z - 1.0) > e and abs(z) >= 1.0 - e]
    return tuple(sorted(zeros, key=lambda w: (-abs(w["z"]), -w["z"].imag)))


def check_hypothesis_two(scheme: SchemeDefinition,
                         annulus_samples: int = _SWEEP_SAMPLES,
                         radii=_SWEEP_RADII, *,
                         one: LopatinskiiValue | None = None
                         ) -> StabilityReport:
    """Whether Delta vanishes anywhere on |z| >= 1 off z = 1, and the
    dichotomy at z = 1; the scheme must satisfy the first hypothesis.

    For r = 1 the ghost rule u_0 = sum_k b_k u_k gives
    Delta(z) = Q(kappa_s(z)), Q(kappa) = 1 - sum_k b_k kappa^k.  For
    |z| >= 1, z != 1, the first hypothesis puts z outside the symbol curve,
    where kappa_s(z) is the one root of P(.; z) in the open unit disk, and
    P(kappa; z) = 0 means z = F(kappa).  So the zeros of Delta there are
    the z* = F(kappa0) with kappa0 a root of Q in the open disk and
    |z*| >= 1: one root solve of degree p_b, with no mesh, and the witness
    is a computed F(kappa0), not a node.  This is the Godunov-Ryabenkii
    eigenvalue search done from the kappa side (Gustafsson, Kreiss and
    Oliger, Time-Dependent Problems and Difference Methods; Trefethen, Comm.
    Pure Appl. Math. 37, 1984).  Rounding moves a computed z* by about
    eps (|F'| S_Q / |Q'| + S_F) (the root's error, carried by F', and F's
    own; S the rounding scales of _char_values), and the tests allow
    _ZERO_SLACK such errors:
      - z* that close to 1 is the boundary zero (the marginal rules have
        kappa0 = kappa_s(1), where F = 1 up to rounding), and so is a root
        at kappa0 = 1 (a rule with sum_k b_k = 1), where F(1) = 1 although
        kappa = 1 is not the stable root there: |Delta(1)| alone decides
        the boundary zero;
      - otherwise |z*| >= 1 minus that slack is a violation, zeros on the
        unit circle included.
    The verdict names the zero of largest |z*|.

    For r >= 2, |Delta| is swept over circles of the given radii, each
    finite and > 0, with annulus_samples nodes on each.  On the unit radius
    an angular window |theta| < _SWEEP_EXCLUSION is skipped: the symbol
    curve touches z = 1 there and a marginal boundary zero of Delta would
    otherwise shadow the sweep.  A modulus below _SWEEP_ZERO_TOL anywhere
    else is a Lopatinskii violation, and zeros between the nodes go unseen.

    With no violation the verdict follows the z = 1 dichotomy: a boundary
    zero with a nonvanishing residue gives the marginal verdict, anything
    else is uniformly stable.  one is lopatinskii(scheme, 1.0) when the
    caller holds it.
    """
    annulus_samples, = _indices([annulus_samples], 8,
                                "samples per radius").tolist()
    radii = tuple(radii)
    if not radii:
        raise ValueError("need at least one radius")
    for rho in radii:
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"radii must be finite and > 0, got {rho!r}")
    min_mod, zeros, witness = None, None, None
    if scheme.r == 1:
        zeros = _ghost_zeros(scheme)
        if zeros:
            witness = zeros[0]["z"]
    else:
        # nodes built in Python arithmetic, one per (radius, angle), so
        # each witness is bitwise the point a pointwise sweep would name
        zs = [rho * complex(math.cos(th), math.sin(th))
              for rho in radii
              for th in np.linspace(0.0, 2.0 * np.pi, annulus_samples,
                                    endpoint=False)
              if not (abs(rho - 1.0) < 1e-12
                      and abs(math.remainder(th, 2.0 * math.pi))
                      < _SWEEP_EXCLUSION)]
        min_mod = math.inf
        for zval, delta in zip(zs, lopatinskii_values(scheme, zs)):
            val = abs(complex(delta))
            if val < min_mod:
                min_mod = val
                if val < _SWEEP_ZERO_TOL:
                    witness = zval
        min_mod = float(min_mod)
    satisfied = witness is None

    if one is None:
        one = lopatinskii(scheme, 1.0)
    delta1 = one.value
    boundary_zero = _boundary_zero(delta1)
    residue_ok = _residue_ok(scheme, one.kappas) if boundary_zero else None

    if not satisfied:
        verdict = (f"unstable: Lopatinskii determinant vanishes at "
                   f"z = {witness.real:.6g}{witness.imag:+.6g}j")
    elif boundary_zero and not residue_ok:
        verdict = "ℓ¹-stable, ℓ^q-unstable for q>1"
    else:
        verdict = "ℓ^q-stable for all q"
    return StabilityReport(satisfied=satisfied, min_modulus=min_mod,
                           witness_z=witness, delta_at_one=delta1,
                           boundary_zero=boundary_zero, residue_ok=residue_ok,
                           verdict=verdict, radii=radii,
                           samples_per_radius=annulus_samples, zeros=zeros)
