"""Generalized Gaussian profiles: closed forms, tail identities, contour rep."""

import math

import numpy as np
import pytest

from halflab import gaussian
from halflab.gaussian import GaussianParams, appendix_f, gaussian_e, gaussian_h
from halflab.resolvent import QuadratureError
from halflab.scheme import check_hypothesis_one

P_HEAT = GaussianParams(mu=1, beta=0.25)
P_QUARTIC = GaussianParams(mu=2, beta=3.0 / 128.0)


def test_h_at_zero_heat():
    # (4 pi beta)^{-1/2} at beta = 1/4 is 1/sqrt(pi)
    assert abs(gaussian_h(0.0, P_HEAT) - 1.0 / np.sqrt(np.pi)) < 1e-8


def test_h_matches_heat_kernel():
    xs = np.linspace(-4.0, 4.0, 17)
    beta = 0.25
    exact = np.exp(-xs ** 2 / (4.0 * beta)) / np.sqrt(4.0 * np.pi * beta)
    got = gaussian_h(xs, P_HEAT)
    assert np.max(np.abs(got - exact)) < 1e-8


def test_h_even_and_decaying():
    got = gaussian_h(np.array([-2.0, 2.0]), P_QUARTIC)
    assert abs(got[0] - got[1]) < 1e-9
    assert abs(gaussian_h(9.0, P_QUARTIC)) < abs(gaussian_h(1.0, P_QUARTIC))


@pytest.mark.parametrize("params", [P_HEAT, P_QUARTIC], ids=["mu1", "mu2"])
def test_e_at_zero_is_half(params):
    assert abs(gaussian_e(0.0, params) - 0.5) < 1e-8


@pytest.mark.parametrize("params", [P_HEAT, P_QUARTIC], ids=["mu1", "mu2"])
def test_e_reflection_sums_to_one(params):
    xs = np.linspace(0.0, 5.0, 11)
    total = gaussian_e(xs, params) + gaussian_e(-xs, params)
    assert np.max(np.abs(total - 1.0)) < 1e-8


def test_e_tail_decay():
    # mu = 2 profiles oscillate, so only |E| decays at large |x|.
    vals = gaussian_e(np.array([1.0, 6.0]), P_QUARTIC)
    assert abs(vals[1]) < abs(vals[0])
    assert abs(vals[1]) < 1e-3
    heat = gaussian_e(np.array([0.0, 1.0, 3.0, 6.0]), P_HEAT)
    assert np.all(np.diff(heat) < 0)


@pytest.mark.parametrize("params", [P_HEAT, P_QUARTIC], ids=["mu1", "mu2"])
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_contour_tail_identity(params, s):
    # -F(x, s) / (2 pi) reproduces E(x) for every admissible shift s.
    xs = np.array([0.5, 1.5])
    e_vals = gaussian_e(xs, params)
    f_vals = appendix_f(xs, s, params)
    assert np.max(np.abs(-f_vals / (2.0 * np.pi) - e_vals)) < 1e-6


def test_contour_shift_independence():
    xs = np.array([0.8])
    a = appendix_f(xs, 0.3, P_QUARTIC)
    b = appendix_f(xs, 0.7, P_QUARTIC)
    assert np.max(np.abs(a - b)) < 1e-6


def test_contour_requires_positive_shift():
    with pytest.raises(ValueError):
        appendix_f(1.0, 0.0, P_HEAT)
    with pytest.raises(ValueError):
        appendix_f(1.0, -0.5, P_HEAT)


def test_params_validation():
    with pytest.raises(ValueError):
        GaussianParams(mu=0, beta=0.25)
    with pytest.raises(ValueError):
        GaussianParams(mu=1.5, beta=0.25)
    with pytest.raises(ValueError):
        GaussianParams(mu=1, beta=-0.1)
    with pytest.raises(ValueError):
        GaussianParams(mu=1, beta=1j)
    p = GaussianParams(mu=2, beta=0.5 + 0.1j)
    assert not p.real_valued
    assert GaussianParams(mu=1, beta=0.25).real_valued


def test_params_of_scheme(lfr, o3):
    p1 = GaussianParams.of_scheme(lfr)
    assert p1.mu == 1
    assert abs(p1.beta - 0.25) < 1e-10
    p2 = GaussianParams.of_scheme(o3)
    assert p2.mu == 2
    assert abs(p2.beta - 3.0 / 128.0) < 1e-8


def test_scalar_and_array_shapes():
    assert np.isscalar(gaussian_h(1.0, P_HEAT)) or np.ndim(gaussian_h(1.0, P_HEAT)) == 0
    out = gaussian_h(np.zeros((2, 3)), P_HEAT)
    assert out.shape == (2, 3)
    out_e = gaussian_e(np.zeros(4), P_HEAT)
    assert out_e.shape == (4,)


def test_unsettled_quadrature_raises_quadrature_error(monkeypatch):
    # the order-6 tail on the line shifted by s = 0.7 itself, with the line
    # lowering switched off: the integrand reaches e^71 there, the sums are
    # cancellation noise and no two node counts agree; with the cap at 2^13
    # nodes the arrays stay below 1 MB
    monkeypatch.setattr(gaussian, "_GROWTH", np.inf)
    monkeypatch.setattr(gaussian, "_NODE_CAP", 2 ** 13)
    with pytest.raises(QuadratureError, match="did not settle"):
        appendix_f(0.0, 0.7, GaussianParams(3, 1.7))


def test_steep_shifted_contour_settles():
    # the same tail at s = 0.7 with the line lowered to growth e^4 and the
    # window widened past the shifted cuts: -F(0, s) = 2 pi E(0) = pi
    p = GaussianParams(3, 1.7)
    assert abs(appendix_f(0.0, 0.7, p) + np.pi) < 1e-10
    xs = np.array([-1.0, 0.5, 1.5])
    got = -appendix_f(xs, 0.7, p) / (2.0 * np.pi)
    assert np.max(np.abs(got - gaussian_e(xs, p))) < 1e-10


@pytest.mark.parametrize("params", [P_HEAT, P_QUARTIC, GaussianParams(3, 1.7),
                                    GaussianParams(2, 0.5 + 0.4j)],
                         ids=["mu1", "mu2", "mu3", "mu2-complex"])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 2.0])
def test_contour_line_cuts_where_the_integrand_decays(params, s):
    mu, beta = params.mu, params.beta
    height, U = gaussian._contour_line(s, params)
    assert 0.0 < height <= s
    for u in (-U, U):
        assert (beta * (u + 1j * height) ** (2 * mu)).real >= 90.0
    # the line is lowered only past growth e^_GROWTH, and then to it (K is
    # a max over a theta grid, so up to its resolution)
    u = np.linspace(-U, U, 20001)
    growth = np.max(-(beta * (u + 1j * height) ** (2 * mu)).real)
    assert growth <= 1.001 * gaussian._GROWTH
    if height < s:
        assert growth > 0.99 * gaussian._GROWTH


def _record_settle(monkeypatch):
    """Spies on the quadratures: "nodes" lists the rows and nodes of every
    kernel call, "rule" holds the last quadrature's (x, start, points,
    weight, kernel, div) and "settled" every (sums, n per row) that
    `_trapezoid` returned, one per start count in ascending order."""
    rec = {"nodes": [], "settled": []}
    quadrature, trapezoid = gaussian._quadrature, gaussian._trapezoid

    def spy(x, what, start, points, weight, kernel, div=None, finish=None):
        def recording(xb, v):
            out = kernel(xb, v)
            rec["nodes"].append((xb[:, 0].copy(), v.copy()))
            return out

        rec["rule"] = x, start, points, weight, kernel, div
        return quadrature(x, what, start, points, weight, recording, div,
                          finish)

    def settled(*args):
        out = trapezoid(*args)
        rec["settled"].append(out)
        return out

    monkeypatch.setattr(gaussian, "_quadrature", spy)
    monkeypatch.setattr(gaussian, "_trapezoid", settled)
    return rec


def _settled_rows(rec):
    """(x, sum, n) of every value of the last quadrature: the settles run
    one per start count, ascending, over the values with that start."""
    x, start, *_ = rec["rule"]
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    starts = start(np.abs(xs))
    rows = []
    for n0, (sums, ns) in zip(np.unique(starts), rec["settled"]):
        rows += zip(xs[starts == n0], sums, ns)
    assert len(rows) == xs.size
    return rows


def test_quadrature_blocks_are_capped(monkeypatch):
    # 601 x values: each kernel block holds at most _BLOCK_ENTRIES entries,
    # and the block size leaves every row's sum bitwise unchanged
    xs = np.linspace(-3.0, 3.0, 601)
    p = GaussianParams(3, 1.7)
    want = appendix_f(xs, 0.7, p)
    cap = 3 * 2 ** 14
    rec = _record_settle(monkeypatch)
    monkeypatch.setattr(gaussian, "_BLOCK_ENTRIES", cap)
    got = appendix_f(xs, 0.7, p)
    sizes = [(rows.size, v.size) for rows, v in rec["nodes"]]
    assert max(rows * cols for rows, cols in sizes) <= cap
    assert min(rows for rows, _ in sizes) < xs.size
    np.testing.assert_array_equal(got, want)


_SETTLES = [("e-mu1", lambda x: gaussian_e(x, P_HEAT)),
            ("e-mu2", lambda x: gaussian_e(x, P_QUARTIC)),
            ("e-complex", lambda x: gaussian_e(
                x, GaussianParams(2, 0.5 + 0.4j))),
            ("f-mu2", lambda x: appendix_f(x, 0.3, P_QUARTIC)),
            ("f-mu3", lambda x: appendix_f(x, 0.7, GaussianParams(3, 1.7)))]


@pytest.mark.parametrize("fn", [f for _, f in _SETTLES],
                         ids=[i for i, _ in _SETTLES])
def test_settle_evaluates_each_node_once(fn, monkeypatch):
    # x = 400 starts from more nodes than the others, so the values settle
    # in two calls, one per start count; the nested rule asks the kernel,
    # at each value, for the n + 1 nodes of the n-interval rule that settled
    # that value, each once, so a settled row is asked for nothing more
    rec = _record_settle(monkeypatch)
    fn(np.array([-2.0, 0.0, 0.5, 3.0, 400.0]))
    assert len(rec["settled"]) == 2
    points = rec["rule"][2]
    for x, _, n in _settled_rows(rec):
        seen = np.concatenate([v for rows, v in rec["nodes"]
                               for _ in range(np.count_nonzero(rows == x))])
        assert seen.size == n + 1
        np.testing.assert_array_equal(np.sort_complex(seen),
                                      np.sort_complex(points(n)[0]))


def _direct_rule(xs, n, points, weight, kernel, div):
    """The full n-interval trapezoid rule, every node at once: its sums and
    the sums of the absolute values of its terms."""
    v, h = points(n)
    ends = np.ones(v.size)
    ends[[0, -1]] = 0.5
    terms = h * ends * kernel(xs[:, None], v) * weight(v)
    if div is not None:
        terms = terms / div
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


@pytest.mark.parametrize("fn", [lambda x: gaussian_h(x, P_HEAT),
                                lambda x: gaussian_h(x, P_QUARTIC)]
                         + [f for _, f in _SETTLES],
                         ids=["h-mu1", "h-mu2"] + [i for i, _ in _SETTLES])
def test_nested_sums_match_the_full_rule(fn, monkeypatch):
    # T_2n = T_n / 2 + odd(n) only reorders the full rule's sum (the
    # halvings are exact).  Summing n + 1 terms in any order errs by at most
    # n eps sum |terms| (Higham, Accuracy and Stability of Numerical
    # Algorithms, sec. 4.2), and each route rounds a term's product of at
    # most four factors differently, so the two agree within 2 (n + 4) eps
    # sum |terms|; a node dropped or counted twice misses by about
    # sum |terms| / n
    rec = _record_settle(monkeypatch)
    xs = np.linspace(-4.0, 4.0, 9)
    fn(xs)
    _, _, *rule = rec["rule"]
    for x, got, n in _settled_rows(rec):
        direct, mass = _direct_rule(np.array([x]), n, *rule)
        bound = 2.0 * (n + 4) * np.finfo(float).eps * mass
        assert np.all(np.abs(got - direct) <= bound)


def _err_map_xs(scheme) -> np.ndarray:
    # the activation arguments of the default err-map grid
    # (`layers.err_bound_fit`), in the Python floats `layers._layer_terms`
    # takes them in
    rep = check_hypothesis_one(scheme)
    ns = (250, 500, 1000, 2000)
    j0s = sorted(set(range(50, 1001, 50))
                 | {math.ceil(n * abs(rep.alpha)) for n in ns})
    return np.array([(j0 + n * rep.alpha) / n ** (1.0 / (2 * rep.mu))
                     for n in ns for j0 in j0s])


@pytest.mark.parametrize("name, complex_beta", [("lfr", False),
                                                ("o3", False),
                                                ("o3", True)],
                         ids=["lfr", "o3", "o3-grid-complex-beta"])
def test_batched_e_is_bitwise_the_scalar_calls(name, complex_beta, request,
                                               monkeypatch):
    # one call over many x gives each x bitwise its own scalar call: each
    # value starts from its own node count and settles on its own.  The o3
    # err-map grid holds both 2048- and 4096-node starts
    scheme = request.getfixturevalue(name)
    params = (GaussianParams(2, 0.5 + 0.4j) if complex_beta
              else GaussianParams.of_scheme(scheme))
    xs = np.concatenate([_err_map_xs(scheme), [0.0, -0.0, 400.0]])
    want = np.array([gaussian_e(x, params) for x in xs.tolist()])
    rec = _record_settle(monkeypatch)
    got = gaussian_e(xs, params)
    assert got.tobytes() == want.tobytes()
    assert len(rec["settled"]) >= 2


def test_sinc_with_and_without_a_zero_node():
    xb = np.array([[-2.5], [0.0], [1.25]])
    for u in (np.linspace(0.0, 3.0, 7), np.linspace(0.5, 3.0, 6),
              np.array([1.0, 0.0, -2.0]), np.array([0.0])):
        got = gaussian._sinc(xb, u)
        assert got.shape == (3, u.size)
        zero = u == 0
        np.testing.assert_array_equal(got[:, zero],
                                      np.broadcast_to(np.abs(xb),
                                                      (3, zero.sum())))
        nz = u[~zero]
        np.testing.assert_array_equal(got[:, ~zero],
                                      np.sin(np.abs(xb) * nz) / nz)
