"""Boundary-layer profiles and the Green's function error decomposition.

In the marginal regime (simple Lopatinskii zero at z = 1) the temporal
Green's function splits as

    G(n, j0, j) = Gt(n, j-j0) + 1_{np >= j0} Ru(j0, j)
                  + E_{2mu}^beta((j0 + n alpha)/n^{1/2mu}) Rc(j) + Err,

where Gt is the whole-line kernel, Rc is a j0-independent reflected layer
excited as the wave crosses the boundary, Ru is a transmitted layer tied to
the strictly unstable directions at z = 1, and Err carries a Gaussian-in-j0,
exponential-in-j bound.  Both layers come from the residue data at z = 1:
with A = (B e_1(1) ... B e_r(1)) singular and D(1) = adj(A)/Delta'(1),

    coeffs(w) = -D(1) B ((1/a_p) w),    profile(j) = sum_m coeffs_m kappa_m^{j-1+r},

where w is pi_c(1) e for the reflected layer and M(1)^{-j0} pi_su(1) e for
the transmitted one; the kappa_m are the stable roots at 1, and all matrix
powers go through the eigenbasis (dense powers would excite the unstable
directions through roundoff).  The kappa_m^{j-1+r} factor is the p-th
companion coordinate of M(1)^{j-1} applied to the stable eigenvectors.

Delta'(1) is exact (`spectral.lopatinskii_derivative_at_one`: the
implicit-function theorem for the simple stable roots at 1 and Jacobi's
formula for the determinant), so no finite-difference error reaches the
layers or the Err map.

The residue data at z = 1 (Delta(1), the stable roots, the projectors and
Delta'(1)) and the first hypothesis's report are the same for every layer
of one scheme.  `_AtOne` holds them, each computed at most once; a CLI run
builds one and passes it to every layer function it calls (`at_one=`),
and a function called without one builds its own.

The layer terms of the decomposition on a grid of times, sources and
cells (the indicator, the activation E, the Ru rows and Rc) come from one
routine, `_layer_terms`, and `_Terms.err` subtracts them from G - Gt in
the one expression of the decomposition: `err_field` and `err_bound_fit`
read Err from it, and `rc_empirical` reads E Rc + Err (no Rc term) and
divides by E.  `err_bound_fit` reads G only on its (j0, j) grid, so it
takes G(n, j0, j) from one sweep of the transposed scheme with a column
per j (`evolution.temporal_green_rows`), whatever the size of the j0 grid,
and Gt(n, j - j0) from one whole-line sweep, each stepping only the rows
those cells depend on.  Those rows equal the forward columns to roundoff,
so the suprema move only at cells where |Err| is at roundoff.
`rc_empirical` and `err_field` read G(n, j0, j) and Gt(n, j - j0) on
j = 1..window at every time they take from one forward sweep of each
kernel.  Times, sources, cells and grid bounds are integers: a
non-integral one is refused, not truncated (`scheme._indices`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import (_check_times, adjoint_scheme, temporal_green_rows,
                        temporal_green_sweep, temporal_green_whole_sweep)
from .gaussian import GaussianParams, gaussian_e, gaussian_h
from .scheme import (SchemeDefinition, _indices, boundary_matrix,
                     check_hypothesis_one)
from .spectral import (_boundary_zero, _lopatinskii_matrix, lopatinskii,
                       lopatinskii_derivative_at_one, projector_set)

__all__ = [
    "BoundaryLayerProfile", "ErrField", "ErrBoundFit", "rc_analytic",
    "rc_empirical", "ru_analytic", "err_field", "err_bound_fit",
    "whole_line_asymptotic_check",
]


def _adjugate(A: np.ndarray) -> np.ndarray:
    """adj(A) with adj(A) A = det(A) I; cofactor minors, fine for small r."""
    d = A.shape[0]
    if d == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _real_profile(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    worst = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if worst > 1e-8 * scale:
        raise RuntimeError(
            f"layer profile has imaginary residue {worst:.3e} beyond "
            "conditioning expectations for a real stencil")
    return np.ascontiguousarray(vals.real)


def _decay_fit(js: np.ndarray, mags: np.ndarray):
    """Fit |profile| ~ C exp(-c j) on the last 20% of the j range."""
    mags = np.abs(np.asarray(mags, dtype=float))
    if not np.any(mags > 0):
        return 0.0, math.inf
    k = max(3, int(math.ceil(0.2 * js.size)))
    jt, vt = js[-k:].astype(float), mags[-k:]
    mask = vt > 0
    if np.count_nonzero(mask) < 2:
        return 0.0, math.inf
    A = np.stack([jt[mask], np.ones(int(np.count_nonzero(mask)))], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(vt[mask]), rcond=None)
    return float(np.exp(sol[1])), float(-sol[0])


@dataclass(frozen=True)
class BoundaryLayerProfile:
    """A layer profile with a fitted exponential envelope C e^{-c j}.

    `values` is 1-D over j for the reflected layer, 2-D (j0 rows, j columns)
    for the transmitted one; a vanishing profile fits (C, c) = (0, inf).
    """

    kind: str
    provenance: str
    j_values: np.ndarray
    values: np.ndarray
    j0_values: np.ndarray | None
    decay_C: float
    decay_c: float


def _profile(kind: str, provenance: str, js: np.ndarray, vals: np.ndarray,
             j0s: np.ndarray | None = None) -> BoundaryLayerProfile:
    mags = np.abs(vals) if vals.ndim == 1 else np.abs(vals).max(axis=0)
    C, c = _decay_fit(js, mags)
    return BoundaryLayerProfile(kind=kind, provenance=provenance,
                                j_values=js, values=vals, j0_values=j0s,
                                decay_C=C, decay_c=c)


class _AtOne:
    """The first hypothesis's report and the residue data at z = 1 of one
    scheme, each computed on first use and kept for the object's life.

    A CLI run builds one (with the report it already has) and passes it to
    the layer functions; nothing keeps it beyond the run.  Delta'(1) and
    the projectors are only computed for a marginal scheme, where a layer
    needs them.
    """

    def __init__(self, scheme: SchemeDefinition, rep1=None):
        self.scheme = scheme
        if rep1 is not None:
            self.rep1 = rep1

    @functools.cached_property
    def rep1(self):
        return check_hypothesis_one(self.scheme)

    @functools.cached_property
    def lop1(self):
        """Delta(1) and the stable roots at 1, from one z = 1 solve."""
        return lopatinskii(self.scheme, 1.0)

    @functools.cached_property
    def B(self) -> np.ndarray:
        return boundary_matrix(self.scheme)

    @functools.cached_property
    def A(self) -> np.ndarray:
        return _lopatinskii_matrix(self.scheme, self.lop1.kappas)

    @property
    def delta1(self) -> complex:
        return self.lop1.value

    @property
    def marginal(self) -> bool:
        """The boundary zero of `check_hypothesis_two`'s verdict."""
        return _boundary_zero(self.delta1)

    def require_marginal(self):
        if not self.marginal:
            raise ValueError(
                "no marginal boundary layer: the Lopatinskii determinant "
                "does not vanish at z = 1 "
                f"(|Delta(1)| = {abs(self.delta1):.3e})")

    @functools.cached_property
    def projectors(self):
        self.require_marginal()
        return projector_set(self.scheme, 1.0)

    @functools.cached_property
    def dprime(self) -> complex:
        self.require_marginal()
        return lopatinskii_derivative_at_one(self.scheme)

    def layer_coeffs(self, w: np.ndarray) -> np.ndarray:
        return -(_adjugate(self.A) / self.dprime) @ (self.B @ w)


def _at_one(scheme: SchemeDefinition, at_one) -> _AtOne:
    if at_one is None:
        return _AtOne(scheme)
    if at_one.scheme is not scheme:
        raise ValueError("at_one holds the residue data of another scheme")
    return at_one


def rc_analytic(scheme: SchemeDefinition, J_max: int, *,
                at_one=None) -> BoundaryLayerProfile:
    """Reflected layer Rc(j), j = 1..J_max, from the residue data at z = 1."""
    J_max, = _indices([J_max], 1, "grid bounds").tolist()
    at_one = _at_one(scheme, at_one)
    ps = at_one.projectors
    w = (ps.pi_c @ ps.e.astype(complex)) / scheme.a[-1]
    coeffs = at_one.layer_coeffs(w)
    ks = np.asarray(at_one.lop1.kappas)
    js = np.arange(1, J_max + 1)
    vals = (coeffs[:, None] * ks[:, None] ** (js[None, :] - 1 + scheme.r)).sum(axis=0)
    return _profile("reflected", "analytic", js, _real_profile(vals))


def ru_analytic(scheme: SchemeDefinition, j0_max: int, j_max: int, *,
                at_one=None) -> BoundaryLayerProfile:
    """Transmitted layer Ru(j0, j) on the grid 1..j0_max x 1..j_max.

    Identically zero when p = 1: the strictly unstable class at z = 1 is
    empty, so the pi_su source vanishes.
    """
    j0_max, j_max = _indices((j0_max, j_max), 1, "grid bounds").tolist()
    at_one = _at_one(scheme, at_one)
    ps = at_one.projectors
    js0 = np.arange(1, j0_max + 1)
    js = np.arange(1, j_max + 1)
    su = ps.classes["su"]
    if not su:
        vals = np.zeros((j0_max, j_max))
    else:
        d = ps.Vinv @ ps.e.astype(complex)
        roots = np.asarray(ps.roots)
        W = np.zeros((scheme.p + scheme.r, j0_max), dtype=complex)
        for k in su:
            W += np.outer(ps.V[:, k], d[k] * roots[k] ** (-js0))
        W /= scheme.a[-1]
        CU = at_one.layer_coeffs(W)
        ks = np.asarray(at_one.lop1.kappas)
        powmat = ks[:, None] ** (js[None, :] - 1 + scheme.r)
        vals = _real_profile(CU.T @ powmat)
    return _profile("transmitted", "analytic", js, vals, j0s=js0)


@dataclass(frozen=True)
class _Terms:
    """The layer terms of the decomposition on a grid of times ns, sources
    j0s and cells js (`_layer_terms`): ind[k, i] = 1_{ns[k] p >= j0s[i]},
    act[k, i] = E((j0s[i] + ns[k] alpha) / ns[k]^{1/2mu}) (0 at n = 0),
    ru[i, c] = Ru(j0s[i], js[c]) and rc[c] = Rc(js[c])."""

    ind: np.ndarray
    act: np.ndarray
    ru: np.ndarray
    rc: np.ndarray

    def err(self, g: np.ndarray, gt: np.ndarray, rc) -> np.ndarray:
        """G - Gt - 1_{np >= j0} Ru - E rc, with g[k, i, c] = G(n, j0, j)
        and gt[k, i, c] = Gt(n, j - j0) at (ns[k], j0s[i], js[c]): Err for
        rc = self.rc, the reflected part E Rc + Err for rc = 0."""
        return g - gt - self.ind[:, :, None] * self.ru \
            - self.act[:, :, None] * rc


def _layer_terms(at_one: _AtOne, ns, j0s, js) -> _Terms:
    """The layer terms on the grid ns x j0s x js; both layers are zero off
    the marginal regime.  The Ru rows come from one `ru_analytic` call over
    1..max j0s, and E from one `gaussian_e` call over the cells with n >= 1,
    each x taken in Python ints and floats (a value of gaussian_e does not
    depend on the others of its call)."""
    scheme, rep = at_one.scheme, at_one.rep1
    ns, j0s, js = (np.asarray(v, dtype=int) for v in (ns, j0s, js))
    act = np.zeros((ns.size, j0s.size))
    moving = ns > 0
    xs = [(j0 + n * rep.alpha) / n ** (1.0 / (2 * rep.mu))
          for n in ns[moving].tolist() for j0 in j0s.tolist()]
    if xs:
        act[moving] = gaussian_e(np.array(xs), GaussianParams(
            rep.mu, rep.beta)).reshape(-1, j0s.size)
    if at_one.marginal:
        ru = ru_analytic(scheme, int(j0s.max()), int(js.max()),
                         at_one=at_one).values[np.ix_(j0s - 1, js - 1)]
        rc = rc_analytic(scheme, int(js.max()), at_one=at_one).values[js - 1]
    else:
        ru, rc = np.zeros((j0s.size, js.size)), np.zeros(js.size)
    return _Terms(ind=ns[:, None] * scheme.p >= j0s, act=act, ru=ru, rc=rc)


def _forward(scheme: SchemeDefinition, ns, j0: int, js: np.ndarray):
    # G(n, j0, j) and Gt(n, j - j0) at every n of ns, laid out as the
    # (n, j0, j) grids of _Terms.err, from one sweep of each kernel
    return (temporal_green_sweep(scheme, ns, [j0], js),
            temporal_green_whole_sweep(scheme, ns, js - j0)[:, None])


@dataclass(frozen=True)
class ErrField:
    """The error remainder and the decomposition pieces it was built from."""

    n: int
    j0: int
    j_values: np.ndarray
    err: np.ndarray
    green: np.ndarray
    whole: np.ndarray
    ru_term: np.ndarray
    rc_term: np.ndarray
    indicator: int
    activation: float


def err_field(scheme: SchemeDefinition, n: int, j0: int, window: int, *,
              at_one=None) -> ErrField:
    """Err(n, j0, j) for j = 1..window, assembled exactly from the
    decomposition (layers taken as zero outside the marginal regime)."""
    n, = _indices([n], 0, "times").tolist()
    j0, window = _indices((j0, window), 1, "j0 and window").tolist()
    at_one = _at_one(scheme, at_one)
    js = np.arange(1, window + 1)
    g, gt = _forward(scheme, [n], j0, js)
    terms = _layer_terms(at_one, [n], [j0], js)
    ind, act = int(terms.ind[0, 0]), float(terms.act[0, 0])
    return ErrField(n=n, j0=j0, j_values=js,
                    err=terms.err(g, gt, terms.rc)[0, 0], green=g[0, 0],
                    whole=gt[0, 0], ru_term=ind * terms.ru[0],
                    rc_term=act * terms.rc, indicator=ind, activation=act)


@dataclass(frozen=True)
class ErrBoundFit:
    """Sweep of trial decay rates c0 against the weighted Err suprema.

    sups[i, k] is the supremum over the (j0, j) grid at n = n_values[k] of

        n^{1/2mu} |Err| e^{c0 j} exp(c0 (|n alpha + j0| / n^{1/2mu})^{2mu/(2mu-1)}),

    and best_c0 is the largest trial rate whose suprema do not grow along
    n_values (within growth_tol per step, a finite tolerance > 0); 0.0
    when every rate grows.
    heat[k, i] is the unweighted n^{1/2mu} sup_j |Err(n, j0_i, j)|.
    adjoint_residual is the relative residual of the solve that built the
    transposed scheme G was read from (see `evolution.adjoint_scheme`).
    """

    mu: int
    n_values: np.ndarray
    j0_values: np.ndarray
    j_values: np.ndarray
    c0_values: np.ndarray
    sups: np.ndarray
    best_c0: float
    heat: np.ndarray
    growth_tol: float
    adjoint_residual: float


def err_bound_fit(scheme: SchemeDefinition, n_list=(250, 500, 1000, 2000),
                  j0_list=None, j_list=(1,), c0_list=None,
                  growth_tol: float = 0.05, *, at_one=None) -> ErrBoundFit:
    """Measure the Gaussian-in-j0, exponential-in-j envelope of Err."""
    # sorted, not np.sort, which would load numpy's SIMD sort (0.4 MB of
    # peak RSS)
    ns = np.array(sorted(_indices(n_list, 1, "times")))
    at_one = _at_one(scheme, at_one)
    rep = at_one.rep1
    if j0_list is None:
        # the sup over j0 sits at the activation front n|alpha|; a grid
        # without those cells makes the comparison across n vacuous
        j0_list = set(range(50, 1001, 50)) | {
            math.ceil(n * abs(rep.alpha)) for n in ns}
    j0s = np.array(sorted(_indices(j0_list, 1, "sources")))
    js = np.array(sorted(_indices(j_list, 1, "cells")))
    c0s = (np.geomspace(1e-3, 2.0, 40) if c0_list is None
           else np.asarray(c0_list, dtype=float))
    if not (c0s.size and np.all(np.isfinite(c0s) & (c0s > 0))):
        raise ValueError("trial rates c0 must be a nonempty list of finite "
                         "rates > 0")
    if not (math.isfinite(growth_tol) and growth_tol > 0):
        raise ValueError(f"growth_tol must be finite and > 0, got "
                         f"{growth_tol!r}")
    mu = rep.mu
    expo = 2.0 * mu / (2.0 * mu - 1.0)
    # one sweep per kernel, each recorded at every n: the adjoint on the
    # half line with a column per j (its j0 entries are G(n, j0, j)), and
    # one source on the whole line read at the offsets j - j0
    green = temporal_green_rows(scheme, ns, j0s, js)
    d0 = js[0] - j0s[-1]
    wholes = temporal_green_whole_sweep(scheme, ns,
                                        np.arange(d0, js[-1] - j0s[0] + 1))
    terms = _layer_terms(at_one, ns, j0s, js)
    abs_err = np.abs(terms.err(green, wholes[:, js - j0s[:, None] - d0],
                               terms.rc))
    scale_n = ns.astype(float) ** (1.0 / (2 * mu))
    heat = scale_n[:, None] * abs_err.max(axis=2)
    # libm's pow on each cell: numpy's array power rounds some cells an ulp
    # apart (one in twenty at mu = 2), and the suprema are pinned bitwise
    args = np.array([[v ** expo for v in row] for row in (
        np.abs(ns[:, None] * rep.alpha + j0s) / scale_n[:, None]).tolist()])
    sups = np.empty((c0s.size, ns.size))
    for a, c0 in enumerate(c0s):
        # large trial rates overflow the Gaussian weight; a zero-error cell
        # times an infinite weight carries no information and counts as zero
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = (abs_err * np.exp(c0 * js)[None, None, :]
                        * np.exp(c0 * args)[:, :, None]
                        * scale_n[:, None, None])
        weighted = np.where(np.isnan(weighted), 0.0, weighted)
        sups[a] = weighted.max(axis=(1, 2))
    best = 0.0
    for a in range(c0s.size):
        s = sups[a]
        if np.all(np.isfinite(s)) and \
                np.all(s[1:] <= (1.0 + growth_tol) * s[:-1]):
            best = float(c0s[a])
    return ErrBoundFit(mu=mu, n_values=ns, j0_values=j0s, j_values=js,
                       c0_values=c0s, sups=sups, best_c0=best, heat=heat,
                       growth_tol=growth_tol,
                       adjoint_residual=adjoint_scheme(scheme)[1])


def rc_empirical(scheme: SchemeDefinition, j0: int, ns, window: int, *,
                 at_one=None) -> list:
    """Reflected layer extracted from evolution snapshots at each time of
    the ascending ns: the Green difference minus the transmitted layer,
    divided by the activation; one profile per time, all read from one
    sweep of each kernel."""
    j0, window = _indices((j0, window), 1, "j0 and window").tolist()
    ns = _check_times(ns)
    at_one = _at_one(scheme, at_one)
    alpha = at_one.rep1.alpha
    for n in ns:
        if n == 0:
            warnings.warn("degenerate extraction at n = 0: activation is "
                          "zero, returning a zero profile", stacklevel=2)
        elif n < 2.0 * j0 / abs(alpha):
            warnings.warn(
                f"activation regime barely reached (n = {n} < 2 j0/|alpha| "
                f"= {2.0 * j0 / abs(alpha):.0f}); extraction is biased",
                stacklevel=2)
    js = np.arange(1, window + 1)
    g, gt = _forward(scheme, ns, j0, js)
    terms = _layer_terms(at_one, ns, [j0], js)
    reflected = terms.err(g, gt, 0.0)[:, 0]
    return [_profile("reflected", "empirical", js,
                     reflected[k] / terms.act[k, 0] if n else
                     np.zeros(window)) for k, n in enumerate(ns)]


def whole_line_asymptotic_check(scheme: SchemeDefinition, n_list):
    """Rows (n, sup_j |Gt - Gaussian|, n^{1/2mu} sup): the scaled sup must
    trend to zero for the leading-order profile to be right."""
    rep = check_hypothesis_one(scheme)
    if not rep.satisfied:
        raise ValueError(
            f"scheme fails the dissipativity hypothesis: {rep.failure}")
    params = GaussianParams(rep.mu, rep.beta)
    ns = sorted(_indices(n_list, 1, "times").tolist())
    # Gt at every n on the widest support bound, from one sweep
    r, p = scheme.r, scheme.p
    js = np.arange(-p * ns[-1] - r, r * ns[-1] + p + 1)
    rows = []
    for n, gt in zip(ns, temporal_green_whole_sweep(scheme, ns, js)):
        keep = slice(p * (ns[-1] - n), js.size - r * (ns[-1] - n))
        x = (js[keep] - n * rep.alpha) / n ** (1.0 / (2 * rep.mu))
        prof = gaussian_h(x, params) / n ** (1.0 / (2 * rep.mu))
        sup = float(np.max(np.abs(gt[keep] - prof)))
        rows.append((n, sup, n ** (1.0 / (2 * rep.mu)) * sup))
    return rows
