"""Generalized Gaussian profiles H_{2mu}^beta, their tails, and a contour
integral representation of the tail.

    H(x) = (1/2pi) int e^{ixu} exp(-beta u^{2mu}) du,
    E(x) = int_x^inf H(y) dy,
    F(x, s) = int exp(i(u+is)x - beta (u+is)^{2mu}) / (i(u+is)) du,  s > 0,

with Re beta > 0 and mu a positive integer.  H has unit mass, E(0) = 1/2,
and -F = 2pi E independently of s (the integrand is analytic between the
real axis and the shifted contour; the pole sits at u = -is below both).
For mu = 1 and real beta, H is the heat kernel (4 pi beta)^{-1/2}
exp(-x^2 / (4 beta)).

All integrals are uniform trapezoid sums on truncated windows chosen so the
dropped tails are below 1e-17 of the mass, doubled by the nested rule of
`resolvent._trapezoid` (new midpoints only) until two agree within 1e-11.
Each value of x starts from its own node count and settles on its own, so
a call over many x gives each bitwise its scalar call (`layers` takes
every activation E of an err-map grid from one call).
F is summed on the line at height s, or, where the integrand would grow
past e^4 on that line, on the highest line where it does not: the same
integral, without the cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .resolvent import _trapezoid
from .scheme import SchemeDefinition, check_hypothesis_one

__all__ = ["GaussianParams", "gaussian_h", "gaussian_e", "appendix_f"]

_NODE_CAP = 2 ** 20
# a quadrature starts from at least this many nodes
_START_FLOOR = 2048
# one quadrature block holds at most this many entries (256 KiB complex),
# at least one row of x: at 2^16, one gaussian_e call over a default
# err-map grid raised `paper`'s peak RSS by 0.9 MB, at 2^22 by 3 MB
_BLOCK_ENTRIES = 2 ** 14
# appendix_f widens its window by this factor until the cuts decay ...
_WIDEN = 1.125
# ... on a line where the integrand grows by at most e^this, placed from
# this many angles
_GROWTH = 4.0
_HEIGHT_GRID = 4096
# two node counts whose sums agree within this settle a quadrature
_TOL = 1e-11


@dataclass(frozen=True)
class GaussianParams:
    """Exponent pair of exp(-beta u^{2mu}): mu a positive integer, Re beta > 0."""

    mu: int
    beta: complex

    def __post_init__(self):
        if int(self.mu) != self.mu or self.mu < 1:
            raise ValueError("mu must be a positive integer")
        object.__setattr__(self, "mu", int(self.mu))
        beta = complex(self.beta)
        if not (beta.real > 0):
            raise ValueError("Re beta must be positive")
        if beta.imag == 0:
            object.__setattr__(self, "beta", beta.real)
        else:
            object.__setattr__(self, "beta", beta)

    @property
    def real_valued(self) -> bool:
        return not isinstance(self.beta, complex)

    @classmethod
    def of_scheme(cls, scheme: SchemeDefinition) -> "GaussianParams":
        report = check_hypothesis_one(scheme)
        if not report.satisfied:
            raise ValueError(
                f"scheme fails the dissipativity hypothesis: {report.failure}")
        return cls(mu=report.mu, beta=report.beta)


def _start_nodes(U: float, ax: np.ndarray) -> np.ndarray:
    """The first node count of each |x| of ax: _START_FLOOR doubled until
    the rule has 16 nodes per period of cos(x u) on [0, U]."""
    osc = np.ceil(16.0 * U * ax / (2.0 * np.pi))
    n = np.full(ax.shape, _START_FLOOR)
    while np.any(n < osc):
        n = np.where(n < osc, 2 * n, n)
    return n


def _quadrature(x, what: str, start, points, weight, kernel, div=None,
                finish=None):
    """The sums h sum'' kernel(xb, v) weight(v) / div at every value of x,
    in its shape, each settled by `_trapezoid` on its own from
    n = start(|x|), so that a value does not depend on the others of x.
    The values that share a start settle in one `_trapezoid` call, each
    row leaving it when its own sums agree.  points(n) gives the n + 1
    nodes v and the spacing h of the n-interval rule, start(ax) the first
    n for every |x| of ax, and kernel runs on blocks of rows xb of x of at
    most _BLOCK_ENTRIES entries (one row at least).  finish(xs, sums) maps
    the settled sums over the flattened x to the values returned."""
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0

    def rule(xg: np.ndarray, n: int, nodes: slice, end: float):
        v, h = points(n)
        v = v[nodes]
        w = weight(v)
        w[[0, -1]] *= end
        out = np.empty(xg.size, dtype=complex)
        # each row is summed on its own, so the block size leaves the sums
        # bitwise unchanged
        rows = max(1, _BLOCK_ENTRIES // v.size)
        for lo in range(0, xg.size, rows):
            out[lo:lo + rows] = h * (kernel(xg[lo:lo + rows, None], v)
                                     * w).sum(axis=-1)
        return out if div is None else out / div

    sums = np.empty(xs.size, dtype=complex)
    starts = start(np.abs(xs))
    # sorted, not np.unique, which would load numpy's SIMD sort (0.4 MB of
    # peak RSS)
    for n in sorted(set(starts.tolist())):
        group = np.flatnonzero(starts == n)
        xg = xs[group]
        # the first rule, its end weights halved, then each doubled rule's
        # new odd nodes at the rows still settling
        sums[group], _ = _trapezoid(
            what, n, _NODE_CAP, _TOL,
            lambda n: rule(xg, n, slice(None), 0.5),
            lambda n, live: rule(xg[live], 2 * n, slice(1, None, 2), 1.0))
    vals = sums if finish is None else finish(xs, sums)
    return vals[0] if scalar else vals.reshape(np.shape(x))


def _half_axis(x, params: GaussianParams, what: str, kernel, finish):
    """The H and E quadratures: the rule on [0, U] with the weight
    exp(-beta u^{2mu}), negligible beyond U, and the sums divided by pi;
    finish(xs, sums) comes before the real part is taken for real beta."""
    mu, beta = params.mu, params.beta
    U = (40.0 / complex(beta).real) ** (1.0 / (2 * mu))

    def real_if(xs, sums):
        vals = finish(xs, sums)
        return vals.real if params.real_valued else vals

    return _quadrature(x, what, lambda ax: _start_nodes(U, ax),
                       lambda n: (np.linspace(0.0, U, n + 1), U / n),
                       lambda u: np.exp(-beta * u ** (2 * mu)),
                       kernel, div=np.pi, finish=real_if)


def gaussian_h(x, params: GaussianParams):
    """H_{2mu}^beta(x); vectorized over x, real for real beta."""
    return _half_axis(x, params, "profile", lambda xb, u: np.cos(xb * u),
                      lambda xs, sums: sums)


def _sinc(xb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sin(u |x|) / u, extended by continuity to |x| at u = 0."""
    ax, zero = np.abs(xb), u == 0
    out = np.sin(ax * u) / np.where(zero, 1.0, u)
    out[:, zero] = ax
    return out


def _reflected_tail(xs: np.ndarray, tail: np.ndarray) -> np.ndarray:
    vals = 0.5 - tail
    return np.where(xs < 0, 1.0 - vals, vals)


def gaussian_e(x, params: GaussianParams):
    """E_{2mu}^beta(x) = int_x^inf H; E(0) = 1/2, E(-x) = 1 - E(x)."""
    return _half_axis(x, params, "tail", _sinc, _reflected_tail)


def _contour_line(s: float, params: GaussianParams) -> tuple[float, float]:
    """Height and half-width (s', U) of the segment appendix_f integrates on.

    s' is s unless the integrand grows past e^{_GROWTH} on the line at
    height s.  On that line v = s e^{i theta} / sin(theta), 0 < theta < pi,
    the integrand has modulus exp(-Re(beta v^{2mu})) / |v| times |e^{ivx}|,
    and the exponent -Re(beta v^{2mu}) peaks at K s^{2mu}, K the max over
    theta of -Re(beta e^{2i mu theta}) / sin(theta)^{2mu}.  Past e^{_GROWTH}
    the trapezoid sum is a cancellation of terms far larger than its value
    (up to e^71 for mu = 3, beta = 1.7, s = 0.7), so the highest line at
    most that steep is taken instead: the integrand is analytic between the
    two lines and decays at both ends, so the integral is the same.  K is the
    max over a uniform theta grid; it only places the line.

    U starts at (90 / Re beta)^{1/2mu}, where exp(-beta u^{2mu}) is e^{-90}
    on the real line.  The shift lowers the decay exponent Re(beta (u +
    is')^{2mu}) at the cuts, below 0 once 2mu arg(u + is') passes pi/2; it
    tends to Re(beta) u^{2mu} as u grows, so U widens until it is at least
    90 at both cuts.
    """
    mu, beta = params.mu, params.beta
    theta = np.linspace(0.0, np.pi, _HEIGHT_GRID + 1)[1:-1]
    K = float(np.max(-(beta * np.exp(2j * mu * theta)).real
                     / np.sin(theta) ** (2 * mu)))
    if K * s ** (2 * mu) > _GROWTH:
        s = (_GROWTH / K) ** (1.0 / (2 * mu))
    U = (90.0 / complex(beta).real) ** (1.0 / (2 * mu))
    while min((beta * (u + 1j * s) ** (2 * mu)).real for u in (-U, U)) < 90.0:
        U *= _WIDEN
    return s, U


def appendix_f(x, s: float, params: GaussianParams):
    """Shifted-contour tail integral F(x, s); requires s > 0 so the pole at
    u = -is stays below the contour.  -F = 2 pi E(x) for every such s.

    The trapezoid rule runs on the segment of _contour_line: the line at
    height s (lower only where the integrand would grow too steeply on it),
    cut where the integrand has decayed below e^{-90}.
    """
    if not (s > 0):
        raise ValueError("contour shift s must be positive")
    mu, beta = params.mu, params.beta
    s, U = _contour_line(s, params)

    def start(ax: np.ndarray) -> np.ndarray:
        n0 = _start_nodes(2.0 * U, ax)
        while True:
            # Pole scale: keep the node spacing at or below s/4.
            coarse = (2.0 * U / n0 > s / 4.0) & (n0 < _NODE_CAP)
            if not coarse.any():
                return n0
            n0 = np.where(coarse, 2 * n0, n0)

    return _quadrature(x, "contour", start,
                       lambda n: (np.linspace(-U, U, n + 1) + 1j * s,
                                  2.0 * U / n),
                       lambda v: np.exp(-beta * v ** (2 * mu)) / (1j * v),
                       lambda xb, v: np.exp(1j * v * xb))
