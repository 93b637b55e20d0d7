"""Scheme definitions, symbols, and first-hypothesis checks.

A scheme is the data (r, p, a, p_b, b) of the interior update

    u^{n+1}_j = sum_{k=-r}^{p} a_k u^n_{j+k},   j >= 1,

together with the boundary extrapolation u_j = sum_{k=1}^{p_b} b_{k,j} u_k
for the ghost indices j in {1-r, ..., 0}.  The symbol of the interior update
is the Laurent polynomial

    F(kappa) = sum_{k=-r}^{p} a_k kappa^k,

whose unit-circle values trace the essential spectrum of both the half-line
and the whole-line operators.  The first hypothesis on a scheme bundles
consistency F(1) = 1, dissipativity |F(e^{it})| < 1 for t != 0, and the local
expansion

    F(e^{it}) = exp(-i alpha t - beta t^{2 mu} + o(t^{2 mu})),

with drift alpha = -F'(1) in ]-p, 0[ and Re(beta) > 0.  The coefficients of
that expansion are extracted exactly from the polynomial derivatives of F at
1, and the series decides the arc |t| < _SERIES_RADIUS.  Beyond it the
dissipativity margin 1 - max |F(e^{it})| is taken at the cut points and at
the critical points of the trigonometric polynomial |F(e^{it})|^2, the
arguments of the roots of one polynomial of degree 2(p + r); no sampling is
involved.  The series order, the cut radius and the tolerances of the check
are fixed module constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "SchemeDefinition", "HypothesisReport", "symbol_eval",
    "check_hypothesis_one", "boundary_matrix", "builtin_lfr", "builtin_o3",
    "scheme_to_json", "scheme_from_json",
]


@dataclass(frozen=True)
class SchemeDefinition:
    """Interior and boundary coefficients of a half-line scheme.

    a is indexed from -r to p and stored with a[0] = a_{-r}.  b has one row
    per ghost index, row i holding the coefficients (b_{1,j}, ..., b_{p_b,j})
    for ghost j = -i (so row 0 is the ghost closest to the interior).  lam
    (Courant number) and v (velocity) are metadata: every computation reads
    the drift from the symbol, never from lam * v.
    """

    r: int
    p: int
    a: np.ndarray
    p_b: int
    b: np.ndarray
    lam: float = 1.0
    v: float = -1.0
    name: str = "custom"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(self.r, -1) if np.size(self.b) \
            else np.zeros((self.r, 0))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.r < 1 or self.p < 1:
            raise ValueError("stencil widths must satisfy r >= 1 and p >= 1")
        if a.shape != (self.p + self.r + 1,):
            raise ValueError(
                f"need {self.p + self.r + 1} interior coefficients, got {a.shape}")
        if a[0] == 0.0 or a[-1] == 0.0:
            raise ValueError("edge coefficients a_{-r} and a_p must be nonzero")
        if not (0 <= self.p_b <= self.p):
            raise ValueError("boundary width must satisfy 0 <= p_b <= p")
        if b.shape != (self.r, self.p_b):
            raise ValueError(f"boundary matrix must be {self.r} x {self.p_b}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite coefficient in the stencil or the "
                             "boundary rule")

    def coeff(self, k: int) -> float:
        """Interior coefficient a_k for k in -r..p."""
        if not -self.r <= k <= self.p:
            raise IndexError(f"coefficient index {k} outside [-{self.r}, {self.p}]")
        return float(self.a[k + self.r])

    def ghost_coeffs(self, j: int) -> np.ndarray:
        """Boundary coefficients (b_{1,j}, ..., b_{p_b,j}) for ghost index j."""
        if not 1 - self.r <= j <= 0:
            raise IndexError(f"ghost index {j} outside [{1 - self.r}, 0]")
        return self.b[-j]


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the first-hypothesis check.

    series holds the Taylor coefficients d_1..d_order of log F(e^{it}), so a
    passing scheme has d_1 = -i*alpha, d_m ~ 0 for 1 < m < 2*mu, and
    d_{2 mu} = -beta.
    """

    alpha: float
    mu: int
    beta: complex
    consistency_residual: float
    dissipativity_margin: float
    series: np.ndarray
    satisfied: bool
    failure: str | None = None
    witness_t: float | None = None


def symbol_eval(scheme: SchemeDefinition, kappa):
    """Evaluate F(kappa) = sum a_k kappa^k; kappa may be a scalar or array.

    Horner evaluation of kappa^r F(kappa), divided back by kappa^r.
    """
    kappa = np.asarray(kappa, dtype=complex)
    if np.any(kappa == 0):
        raise ValueError("symbol is a Laurent polynomial; kappa = 0 not allowed")
    out = np.zeros_like(kappa)
    for c in scheme.a[::-1]:
        out = out * kappa + c
    out = out * kappa ** (-scheme.r)
    if out.ndim == 0:
        return complex(out)
    return out


# the check_hypothesis_one settings: log F(e^{it}) is expanded to this order
_SERIES_ORDER = 8
# the dissipativity margin is taken over |t| >= this; the series decides
# the arc inside it
_SERIES_RADIUS = 1e-2
# |F(1) - 1| above this fails consistency
_CONSISTENCY_TOL = 1e-12
# a series coefficient (or the real part of the first) below this vanishes
_SERIES_ZERO_TOL = 1e-8


def _log_symbol_series(scheme: SchemeDefinition, order: int) -> np.ndarray:
    """Taylor coefficients d_1..d_order of t -> log F(e^{it}) at t = 0.

    F(e^{it}) = sum_m c_m t^m with c_m = sum_k a_k (ik)^m / m!, then
    log(1 + (F-1)) is composed as a truncated power series.  All sums are
    polynomially exact up to float rounding; no sampling is involved.
    """
    ks = np.arange(-scheme.r, scheme.p + 1)
    c = np.empty(order + 1, dtype=complex)
    for m in range(order + 1):
        c[m] = np.sum(scheme.a * (1j * ks) ** m) / math.factorial(m)
    # log(1+x) = x - x^2/2 + x^3/3 - ...; x = c_1 t + c_2 t^2 + ...
    x = c.copy()
    x[0] = 0.0
    d = np.zeros(order + 1, dtype=complex)
    term = np.zeros(order + 1, dtype=complex)
    term[0] = 1.0  # running power x^m, truncated
    for m in range(1, order + 1):
        # term <- term * x, truncated at `order`
        new = np.zeros(order + 1, dtype=complex)
        for i in range(order + 1):
            if term[i] == 0.0:
                continue
            hi = order - i
            new[i:i + hi + 1] += term[i] * x[:hi + 1]
        term = new
        d += ((-1) ** (m + 1) / m) * term
    return d[1:]


def _critical_angles(scheme: SchemeDefinition) -> np.ndarray:
    """Arguments of the roots of P(w) = sum_{d=1}^{n} d c_d (w^{n+d} - w^{n-d}).

    With n = p + r and c_d = sum_k a_k a_{k+d}, |F(e^{it})|^2 = c_0 +
    2 sum_{d=1}^{n} c_d cos(dt), whose derivative -2 sum d c_d sin(dt)
    vanishes exactly where w = e^{it} is a root of P.  P has degree 2n, its
    leading coefficient n c_n = n a_{-r} a_p being nonzero, so it never
    vanishes identically (|F| is never constant).  Every critical point of
    |F| on the circle is among the returned angles in [-pi, pi]; roots off
    the circle add arbitrary circle points.
    """
    n = scheme.p + scheme.r
    c = np.correlate(scheme.a, scheme.a, "full")[n:]      # c_0 .. c_n
    dc = np.arange(1, n + 1) * c[1:]
    coeffs = np.zeros(2 * n + 1)          # highest power first
    coeffs[n - 1::-1] = dc                # w^{n+d}
    coeffs[n + 1:] = -dc                  # w^{n-d}
    return np.angle(np.roots(coeffs))


def _dissipativity_margin(scheme: SchemeDefinition) -> tuple[float, float]:
    """1 - max |F(e^{it})| over |t| >= _SERIES_RADIUS, and its maximiser.

    The maximum over that closed set sits at a cut point t = +-_SERIES_RADIUS
    or at an interior critical point, so |F| is evaluated at the cut points
    and at every critical angle of _critical_angles with |t| >= the radius,
    with no classification of the roots.  Each candidate is a circle point,
    so the computed maximum never exceeds the true one beyond the rounding
    of one symbol evaluation; a root off the circle only adds a candidate.
    It falls short of the true one by O(delta^2) only: at the maximiser
    the derivative of |F|^2 vanishes, so an angle error delta of a simple
    root moves |F|^2 by O(delta^2), and by O(delta^{m+1}) at an m-fold root
    (where the root error grows to O(eps^{1/m}), so still O(eps^{1+1/m})).
    Unlike sampling, a touch of 1 between any two points cannot pass.
    """
    t = _critical_angles(scheme)
    t = np.concatenate(([-_SERIES_RADIUS, _SERIES_RADIUS],
                        t[np.abs(t) >= _SERIES_RADIUS]))
    mod = np.abs(symbol_eval(scheme, np.exp(1j * t)))
    worst = int(np.argmax(mod))
    return float(1.0 - mod[worst]), float(t[worst])


def check_hypothesis_one(scheme: SchemeDefinition) -> HypothesisReport:
    """Check consistency, dissipativity, and the diffusivity expansion.

    The expansion coefficients come from exact derivatives of F at 1 composed
    into the series of log F(e^{it}) up to _SERIES_ORDER.  The series
    controls |t| < _SERIES_RADIUS, where any margin would degenerate to 0;
    the dissipativity margin is 1 - max |F(e^{it})| over |t| >=
    _SERIES_RADIUS, taken exactly from the cut points and the critical
    points of |F|^2 (_dissipativity_margin), and a failing scheme's
    witness_t is that maximiser.
    """
    f1 = complex(symbol_eval(scheme, 1.0))
    consistency = abs(f1 - 1.0)
    d = _log_symbol_series(scheme, _SERIES_ORDER)
    alpha = float((1j * d[0]).real)

    def failed(reason, witness=None, mu=0, beta=0j, margin=math.nan):
        return HypothesisReport(alpha=alpha, mu=mu, beta=beta,
                                consistency_residual=consistency,
                                dissipativity_margin=margin, series=d,
                                satisfied=False, failure=reason,
                                witness_t=witness)

    if consistency > _CONSISTENCY_TOL:
        return failed("consistency: F(1) differs from 1 beyond tolerance")
    if abs((1j * d[0]).imag) > _SERIES_ZERO_TOL:
        return failed("drift: linear series coefficient is not purely -i*alpha")
    if not -scheme.p < alpha < 0:
        return failed(f"drift alpha={alpha} outside ]-p, 0[")

    mu = 0
    beta = 0j
    for m in range(2, _SERIES_ORDER + 1):
        if abs(d[m - 1]) > _SERIES_ZERO_TOL:
            if m % 2 != 0:
                return failed(f"diffusivity: first nonvanishing order {m} is odd")
            mu = m // 2
            beta = -complex(d[m - 1])
            break
    if mu == 0:
        return failed("diffusivity: no nonvanishing coefficient up to requested order")
    if beta.real <= 0:
        return failed("diffusivity: Re(beta) <= 0")

    margin, worst = _dissipativity_margin(scheme)
    if margin <= 0.0:
        return failed("dissipativity: |F(e^{it})| reaches 1 off t = 0",
                      witness=worst, mu=mu, beta=beta, margin=margin)

    return HypothesisReport(alpha=alpha, mu=mu, beta=beta,
                            consistency_residual=consistency,
                            dissipativity_margin=margin, series=d,
                            satisfied=True)


def boundary_matrix(scheme: SchemeDefinition) -> np.ndarray:
    """The r x (p+r) boundary matrix B acting on (u_p, ..., u_{1-r})^T.

    Row i encodes the ghost constraint for j = -i: coefficient 1 on u_j and
    -b_{k,j} on u_k for k = 1..p_b.  The right r x r block is the identity,
    so rank B = r always.
    """
    p, r = scheme.p, scheme.r
    B = np.zeros((r, p + r))
    for i in range(r):
        B[i, p + i] = 1.0             # column of u_{-i}
        for k in range(1, scheme.p_b + 1):
            B[i, p - k] = -scheme.b[i, k - 1]   # column of u_k
    return B


def builtin_lfr(alpha: float, D: float, b: float) -> SchemeDefinition:
    """Lax-Friedrichs-type three-point scheme with one extrapolation weight.

    Interior coefficients a_{-1} = (D+alpha)/2, a_0 = 1-D, a_1 = (D-alpha)/2;
    ghost value u_0 = b * u_1.  Requires alpha^2 < D < 1 and D != -alpha so
    the dissipativity window is open and the edge coefficients are nonzero.
    """
    if not alpha * alpha < D < 1.0:
        raise ValueError("need alpha^2 < D < 1")
    if D == -alpha:
        raise ValueError("D = -alpha makes the left edge coefficient vanish")
    a = np.array([(D + alpha) / 2.0, 1.0 - D, (D - alpha) / 2.0])
    return SchemeDefinition(r=1, p=1, a=a, p_b=1, b=np.array([[b]]),
                            lam=1.0, v=alpha, name="lfr")


def builtin_o3(alpha: float, b1: float, b2: float) -> SchemeDefinition:
    """Third-order upwind-biased four-point scheme with a two-point ghost rule.

    Interior coefficients are the cubic-interpolation weights
        a_{-1} = alpha(1+alpha)(2+alpha)/6,      a_0 = (1-alpha^2)(2+alpha)/2,
        a_1   = -alpha(1-alpha)(2+alpha)/2,      a_2 = alpha(1-alpha^2)/6,
    and the ghost value is u_0 = b1 u_1 + b2 u_2.  Requires alpha in ]-1, 0[.
    """
    if not -1.0 < alpha < 0.0:
        raise ValueError("need alpha in ]-1, 0[")
    a = np.array([
        alpha * (1 + alpha) * (2 + alpha) / 6.0,
        (1 - alpha ** 2) * (2 + alpha) / 2.0,
        -alpha * (1 - alpha) * (2 + alpha) / 2.0,
        alpha * (1 - alpha ** 2) / 6.0,
    ])
    return SchemeDefinition(r=1, p=2, a=a, p_b=2, b=np.array([[b1, b2]]),
                            lam=1.0, v=alpha, name="o3")


def _indices(values, least, what: str) -> np.ndarray:
    """values as a nonempty int array with every entry >= least: the one
    check of the library's times, sources, cells and grid bounds.  A
    non-integral entry (2.7, nan, "3") is refused, not truncated; integral
    floats and numpy ints pass."""
    out = []
    for v in values:
        try:
            k = int(v)
        except (TypeError, ValueError, OverflowError):
            k = None
        if k is None or k != v:
            raise ValueError(f"{what} must be integers, got {v!r}")
        out.append(k)
    if not out:
        raise ValueError(f"{what} must be nonempty")
    if min(out) < least:
        raise ValueError(f"{what} must be >= {least}, got {min(out)}")
    return np.array(out, dtype=int)


def _parse_number(x) -> float:
    """Accept JSON numbers plus exact decimal or rational strings; a
    zero denominator or a value beyond the float range is a ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise TypeError(f"cannot parse coefficient {x!r}")
    try:
        return float(Fraction(x) if isinstance(x, str) else x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse coefficient {x!r}: {exc}") from exc


# the keys of a scheme document, in the order scheme_to_json writes them
_JSON_KEYS = ("r", "p", "a", "p_b", "b", "lambda", "v", "name")


def scheme_to_json(scheme: SchemeDefinition) -> str:
    doc = dict(zip(_JSON_KEYS, (
        scheme.r, scheme.p, [repr(float(x)) for x in scheme.a], scheme.p_b,
        [[repr(float(x)) for x in row] for row in scheme.b], scheme.lam,
        scheme.v, scheme.name)))
    return json.dumps(doc, indent=2)


def scheme_from_json(text: str) -> SchemeDefinition:
    """Parse a scheme document; coefficient entries may be numbers or exact
    decimal / rational strings such as "0.125" or "1/8".  A key outside
    _JSON_KEYS is an error, not a default."""
    doc = json.loads(text)
    for key in doc:
        if key not in _JSON_KEYS:
            raise ValueError(f"unknown scheme key {key!r} (expected one of "
                             f"{', '.join(_JSON_KEYS)})")
    a = np.array([_parse_number(x) for x in doc["a"]])
    rows = doc.get("b", [])
    r = int(doc["r"])
    p_b = int(doc["p_b"])
    b = np.array([[_parse_number(x) for x in row] for row in rows]) \
        if rows else np.zeros((r, p_b))
    return SchemeDefinition(
        r=r, p=int(doc["p"]), a=a, p_b=p_b, b=b.reshape(r, p_b),
        lam=float(doc.get("lambda", 1.0)), v=float(doc.get("v", -1.0)),
        name=str(doc.get("name", "custom")))
