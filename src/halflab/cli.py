"""Experiment runner: one entry point over the whole laboratory.

    halflab <subcommand> --config <path> [--out <dir>]

Subcommands: check, simulate, layers, err-map, growth, oracle.  The config
is a single JSON document naming a scheme (builtin "lfr"/"o3" with named
parameters, or an inline coefficient table) plus experiment grids; the key
tables below declare each key once, with its type, bound and default, and
the whole config is checked against them before anything runs.  Every
run writes CSV artifacts, SVG renderings of the same data, and report.json
into the output directory; re-running a config byte-reproduces the CSVs and
SVGs (the runtime entry of report.json is the one exempt field).

Exit status: 0 when the run completed and both hypotheses hold, 2 when a
hypothesis fails (the JSON report still describes the failure), 1 on usage,
config or numeric errors or when the output cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import combinations

import numpy as np

from . import svg
from .evolution import (growth_experiment, loglog_slope,
                        temporal_green_sweep, temporal_green_whole_sweep)
# no caller here: the benchmark's `evolution.apply_half_line` trace target
# names it
from .evolution import apply_half_line  # noqa: F401
from .layers import (_AtOne, err_bound_fit, rc_analytic, rc_empirical,
                     ru_analytic)
from .resolvent import NearSpectrumError, QuadratureError, \
    inverse_laplace_table
from .scheme import (_SERIES_RADIUS, builtin_lfr, builtin_o3,
                     check_hypothesis_one, scheme_from_json, symbol_eval)
from .spectral import (_BOUNDARY_ZERO_TOL, _SWEEP_RADII, _SWEEP_SAMPLES,
                       _SWEEP_ZERO_TOL, MultiplicityError, RootSolveError,
                       check_hypothesis_two, lopatinskii_values,
                       spectral_split)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="halflab",
                     description="half-line transport scheme laboratory")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, help_text in (
            ("check", "hypothesis checks and the stability verdict"),
            ("simulate", "temporal Green's function snapshots"),
            ("layers", "analytic and empirical boundary layer extraction"),
            ("err-map", "scaled error suprema over the (n, j0) grid"),
            ("growth", "norm-ratio growth experiment with fitted slopes"),
            ("oracle", "inverse Laplace vs time-stepping equivalence")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return doc


def _o3_marginal_pair(alpha: float):
    """Ghost weights (b1, b2) putting the stable z=1 root in the kernel of
    the boundary matrix, the paper-exact marginal choice."""
    stable = spectral_split(builtin_o3(alpha, 0.0, 0.0), 1.0).stable
    if len(stable) != 1 or abs(stable[0].imag) > 1e-12:
        raise ValueError("no single real stable root at z = 1")
    b2 = -1.0 / stable[0].real
    # b1 = 1 - b2 makes B(1, ..., 1) = 1 - b1 - b2 vanish exactly in floats
    return 1.0 - b2, b2


_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          dict: "an object", "q": "a norm exponent >= 1 or \"inf\""}


def _cast(path: str, kind, v):
    """v read as kind: an int (an integral float too), a finite float, a
    string, an object, or "q", a float >= 1 or "inf" (Infinity too); never
    a bool."""
    if kind == "q" and str(v).lower() in ("inf", "infinity", "oo"):
        return math.inf
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind is int and number and (isinstance(v, int) or v.is_integer()):
        return int(v)
    # the range test refuses NaN, the infinities and ints past the floats
    if kind in (float, "q") and number and abs(v) <= sys.float_info.max \
            and (kind is float or v >= 1):
        return float(v)
    if kind in (str, dict) and isinstance(v, kind):
        return v
    raise ConfigError(path, f"{v!r} is not {_KINDS[kind]}")


# Every config key: (kind, bound, default).  A kind in a list is a nonempty
# grid of it.  The bound is the least value admitted (an int), or the value
# a float must exceed (a float), or a function of the values read before
# and the scheme that gives the least and greatest integer.  A default may
# be a function of the values read before; None leaves the value to the
# library.
_EVERY_RUN = dict(scheme=(dict, None, None), out=(str, None, "halflab-out"),
                  # the sweep circles lie on or outside the unit circle
                  radii=([float], 1, list(_SWEEP_RADII)),
                  annulus_samples=(int, 8, _SWEEP_SAMPLES))
_KEYS = {
    "check": {},
    "simulate": dict(n_list=([int], 0, [0, 8, 32, 128]), j0=(int, 1, 1)),
    "layers": dict(j_max=(int, 1, 25), j0=(int, 1, 50), n=(int, 1, 500),
                   j0_list=([int], 1, [1, 2, 3, 4, 6, 8])),
    "err-map": dict(n_list=([int], 1, [250, 500, 1000, 2000]),
                    j0_list=([int], 1, None), j_list=([int], 1, [1]),
                    c0_list=([float], 0.0, None),
                    growth_tol=(float, 0.0, 0.05)),
    "growth": dict(q_list=(["q"], None, ["inf", 2.0]),
                   J_list=([int], 1, [125, 250, 500, 1000]),
                   n_max=(int, 2, 2000),
                   fit_lo=(int, lambda got, _: (1, got["n_max"] - 1),
                           lambda got: min(200, got["n_max"] // 2)),
                   fit_hi=(int, lambda got, _: (got["fit_lo"] + 1,
                                                got["n_max"]),
                           lambda got: got["n_max"])),
    # j = 1 - r is the first ghost cell
    "oracle": dict(n_max=(int, 0, 50),
                   j0_list=([int], 1, [1, 5, 10, 20, 30]),
                   j_list=([int], lambda _, s: (1 - s.r, math.inf),
                           [1, 3, 7, 15, 30]),
                   r0_list=([float], 0.0, [0.02, 0.05, 0.2])),
}
_BUILTINS = {
    "lfr": dict(builtin=(str, None, None), alpha=(float, None, -0.5),
                D=(float, None, 0.75), b=(float, None, 5.0)),
    "o3": dict(builtin=(str, None, None), alpha=(float, None, -0.5),
               b1=(float, None, None), b2=(float, None, None)),
}


def _typed(doc: dict, keys: dict, scheme=None, prefix: str = "") -> dict:
    """Every key of the table `keys` read from doc in table order: typed and
    bounded, or defaulted; a key of doc outside the table is an error."""
    for key in doc:
        if key not in keys:
            raise ConfigError(prefix + key, "unknown key (expected one of "
                              f"{', '.join(keys)})")
    got = {}
    for key, (kind, bound, default) in keys.items():
        path, grid = prefix + key, isinstance(kind, list)
        raw = doc.get(key)
        if raw is None:     # absent or null
            raw = default(got) if callable(default) else default
        if raw is None:     # left to the library
            got[key] = None
            continue
        if grid and not (isinstance(raw, list) and raw):
            raise ConfigError(path, "expected a nonempty list")
        vals = [_cast(path, kind[0], v) for v in raw] if grid else \
            [_cast(path, kind, raw)]
        got[key] = vals if grid else vals[0]
        if bound is None:
            continue
        lo, hi = bound(got, scheme) if callable(bound) else (bound, math.inf)
        strict = isinstance(lo, float)
        for v in vals:
            if strict and not v > lo or not lo <= v <= hi:
                raise ConfigError(path, f"{v!r} is not "
                                  + (f"> {lo}" if strict
                                     else f"in {lo}..{hi}"))
    return got


def _load_scheme(cfg: dict):
    doc = cfg.get("scheme")
    if not isinstance(doc, dict):
        raise ConfigError("scheme", "missing or not an object")
    if "inline" in doc:
        _typed(doc, {"inline": (dict, None, None)}, prefix="scheme.")
        try:
            return scheme_from_json(json.dumps(doc["inline"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("scheme.inline", str(exc)) from exc
    name = doc.get("builtin")
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError("scheme.builtin",
                          f"unknown builtin {name!r} (expected lfr or o3)")
    got = _typed(doc, _BUILTINS[name], prefix="scheme.")
    try:
        if name == "lfr":
            return builtin_lfr(got["alpha"], got["D"], got["b"])
        if (got["b1"] is None) != (got["b2"] is None):
            raise ValueError("b1 and b2 go together")
        b1, b2 = _o3_marginal_pair(got["alpha"]) if got["b1"] is None \
            else (got["b1"], got["b2"])
        return builtin_o3(got["alpha"], b1, b2)
    except ValueError as exc:
        raise ConfigError(f"scheme.{name}", str(exc)) from exc


# every float cell of a CSV, also recorded in report.json
_FLOAT_FORMAT = "%.17g"
# rows per % in _csv: enough to amortise the call, few enough that the flat
# list of cells stays small
_CSV_CHUNK = 4096


def _csv(out_dir: str, name: str, header, columns) -> str:
    """Write header and the equal-length columns (arrays or lists) as CSV.

    A column's dtype gives its format: %d for bool (1/0) and integer
    dtypes, %.17g for float dtypes; any other dtype is refused.  Each chunk
    of rows is one % of the row format repeated over the chunk's cells.
    """
    cols = [np.asarray(c) for c in columns]
    fmts = []
    for c in cols:
        if c.dtype.kind not in "biuf":
            raise TypeError(f"cannot write a {c.dtype} column to CSV")
        fmts.append(_FLOAT_FORMAT if c.dtype.kind == "f" else "%d")
    if any(c.shape != cols[0].shape or c.ndim != 1 for c in cols):
        raise ValueError("CSV columns must be 1-D and of equal length")
    line, m = ",".join(fmts) + "\n", len(cols)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, cols[0].size, _CSV_CHUNK):
            chunk = [c[lo:lo + _CSV_CHUNK].tolist() for c in cols]
            k = len(chunk[0])
            # row-major cells: column i fills every m-th slot from i
            flat = [None] * (k * m)
            for i, cells in enumerate(chunk):
                flat[i::m] = cells
            fh.write((line * k) % tuple(flat))
    return path


def _jsonable(obj):
    """obj with every value JSON can hold: complex as [re, im], NumPy
    scalars and arrays as Python ones, a non-finite float as its repr."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return _jsonable([obj.real, obj.imag])
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _hypothesis_block(scheme, opts: dict):
    """Status, verdict, both reports and the run's residue data at z = 1,
    which carries the first report to the layer functions."""
    rep1 = check_hypothesis_one(scheme)
    at_one = _AtOne(scheme, rep1)
    if not rep1.satisfied:
        # the second hypothesis presumes the dissipativity geometry, so it
        # is skipped entirely here
        return 2, f"hypothesis failure: {rep1.failure}", at_one, None
    # one z = 1 solve per run: the layers read the same one
    rep2 = check_hypothesis_two(scheme, opts["annulus_samples"],
                                opts["radii"], one=at_one.lop1)
    return (0 if rep2.satisfied else 2), rep2.verdict, at_one, rep2


def _run_check(scheme, out_dir, rep1, rep2, verdict):
    t = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    f = symbol_eval(scheme, np.exp(1j * t))
    _csv(out_dir, "check_symbol.csv", ("t", "re_f", "im_f", "abs_f"),
         (t, f.real, f.imag, np.abs(f)))
    svg.line_chart(os.path.join(out_dir, "check_symbol.svg"),
                   [("abs F", t, np.abs(f))], title="symbol modulus",
                   xlabel="t", ylabel="|F(e^{it})|")
    if rep2 is not None:
        # the profile starts at z = 1, where the root split presumes the
        # first hypothesis, as the second hypothesis's check does
        zs = 1.0 + np.linspace(0.0, 1.0, 51)
        # Python abs per node: the array abs can differ in the last bit
        dets = np.array([abs(complex(v))
                         for v in lopatinskii_values(scheme, zs)])
        _csv(out_dir, "check_lopatinskii.csv", ("z", "abs_delta"),
             (zs, dets))
        svg.line_chart(os.path.join(out_dir, "check_lopatinskii.svg"),
                       [("abs Delta", zs, dets)],
                       title="Lopatinskii determinant on the real axis",
                       xlabel="z", ylabel="|Delta(z)|")
    # the reports' fields go to report.json through _jsonable; the series
    # of log F stays out
    return {"hypothesis_one": {k: v for k, v in vars(rep1).items()
                               if k != "series"},
            "verdict": verdict,
            "hypothesis_two": None if rep2 is None else vars(rep2)}


def _run_simulate(scheme, opts, out_dir, at_one):
    n_list, j0 = sorted(set(opts["n_list"])), opts["j0"]
    r, p, top = scheme.r, scheme.p, n_list[-1]
    # every cell of either snapshot at every n, from one sweep of each
    # kernel: j = 1 - r .. j0 + r n and the whole line's [-p n - r, r n + p]
    js = np.arange(1 - r, j0 + r * top + 1)
    ds = np.arange(-p * top - r, r * top + p + 1)
    halves = temporal_green_sweep(scheme, n_list, [j0], js)[:, 0]
    wholes = temporal_green_whole_sweep(scheme, n_list, ds)
    half_series, whole_series, stats = [], [], {}
    for n, g, gw in zip(n_list, halves, wholes):
        # half line: the ghosts up to the last nonzero cell, at least u_1;
        # whole line: its support bound, or j = 0 alone at n = 0
        nz = np.flatnonzero(g)
        g = g[:max(nz[-1] + 1 if nz.size else 0, r + 1)]
        lo, hi = (-p * n - r, r * n + p) if n else (0, 0)
        gw = gw[lo - ds[0]:hi - ds[0] + 1]
        half_series.append((f"n={n}", js[:g.size], g))
        whole_series.append((f"n={n}", np.arange(lo, hi + 1), gw))
        stats[str(n)] = {
            "half_sup": float(np.max(np.abs(g[r:]))),
            "half_l1": float(np.sum(np.abs(g[r:]))),
            "whole_mass": float(np.sum(gw)),
            "whole_sup": float(np.max(np.abs(gw))),
        }
    for name, series in (("green_half.csv", half_series),
                         ("green_whole.csv", whole_series)):
        _csv(out_dir, name, ("n", "j", "value"),
             (np.repeat(n_list, [js.size for _, js, _ in series]),
              np.concatenate([js for _, js, _ in series]),
              np.concatenate([vals for _, _, vals in series])))
    svg.line_chart(os.path.join(out_dir, "green_half.svg"), half_series,
                   title=f"half-line Green's function, j0={j0}",
                   xlabel="j", ylabel="G(n, j0, j)")
    svg.line_chart(os.path.join(out_dir, "green_whole.svg"), whole_series,
                   title="whole-line Green's function",
                   xlabel="j", ylabel="Gt(n, j)")
    return {"j0": j0, "n_list": n_list, "snapshots": stats}


def _run_layers(scheme, opts, out_dir, at_one):
    j_max, j0, n, j0_list = (opts[k] for k in ("j_max", "j0", "n", "j0_list"))
    rc_a = rc_analytic(scheme, j_max, at_one=at_one)
    js = rc_a.j_values
    rc_e, rc_e2 = rc_empirical(scheme, j0, (n, 2 * n), j_max, at_one=at_one)
    err_n = np.abs(rc_e.values - rc_a.values)
    err_2n = np.abs(rc_e2.values - rc_a.values)
    _csv(out_dir, "layer_rc.csv",
         ("j", "analytic", "empirical_n", "empirical_2n", "abs_err_n",
          "abs_err_2n"),
         (js, rc_a.values, rc_e.values, rc_e2.values, err_n, err_2n))
    svg.line_chart(os.path.join(out_dir, "layer_rc.svg"),
                   [("analytic", js, np.abs(rc_a.values)),
                    (f"empirical n={n}", js, np.abs(rc_e.values)),
                    (f"empirical n={2 * n}", js, np.abs(rc_e2.values))],
                   title="reflected boundary layer", xlabel="j",
                   ylabel="|Rc(j)|", logy=True)
    ru = ru_analytic(scheme, max(j0_list), j_max, at_one=at_one)
    # one row per (j0, j), j0 in list order (repeats too), j ascending;
    # ru.values has a row per j0 and a column per j of js
    _csv(out_dir, "layer_ru.csv", ("j0", "j", "value"),
         (np.repeat(j0_list, js.size), np.tile(js, len(j0_list)),
          ru.values[np.subtract(j0_list, 1)].ravel()))
    svg.line_chart(os.path.join(out_dir, "layer_ru.svg"),
                   [(f"j0={jj0}", js, ru.values[jj0 - 1]) for jj0 in j0_list],
                   title="transmitted boundary layer", xlabel="j",
                   ylabel="Ru(j0, j)")
    return {"j0": j0, "n": n, "j_max": j_max,
            "rc_sup_err_n": float(err_n.max()),
            "rc_sup_err_2n": float(err_2n.max()),
            "rc_decay": {"C": rc_a.decay_C, "c": rc_a.decay_c},
            "ru_decay": {"C": ru.decay_C, "c": ru.decay_c},
            "ru_sup": float(np.max(np.abs(ru.values)))}


def _run_err_map(scheme, opts, out_dir, at_one):
    fit = err_bound_fit(scheme, at_one=at_one, **{
        k: opts[k] for k in _KEYS["err-map"]})
    n_cells, j0_cells = np.meshgrid(fit.n_values, fit.j0_values,
                                    indexing="ij")
    _csv(out_dir, "err_map.csv", ("n", "j0", "scaled_err"),
         (n_cells.ravel(), j0_cells.ravel(), fit.heat.ravel()))
    svg.heatmap(os.path.join(out_dir, "err_map.svg"), fit.j0_values,
                fit.n_values, fit.heat,
                title="n^{1/2mu} sup_j |Err|", xlabel="j0", ylabel="n")
    header = ["c0"] + [f"sup_n{int(n)}" for n in fit.n_values]
    _csv(out_dir, "err_c0.csv", header, (fit.c0_values, *fit.sups.T))
    svg.line_chart(os.path.join(out_dir, "err_c0.svg"),
                   [(f"n={int(n)}", fit.c0_values, fit.sups[:, k])
                    for k, n in enumerate(fit.n_values)],
                   title="weighted suprema against the trial rate",
                   xlabel="c0", ylabel="sup", logx=True, logy=True)
    return {"mu": fit.mu, "best_c0": fit.best_c0,
            "bound_holds": fit.best_c0 > 0.0, "growth_tol": fit.growth_tol,
            "adjoint_residual": fit.adjoint_residual,
            "n_values": fit.n_values, "j0_min": int(fit.j0_values[0]),
            "j0_max": int(fit.j0_values[-1]), "j_values": fit.j_values}


def _q_tag(q: float) -> str:
    return "qinf" if math.isinf(q) else ("q%g" % q)


def _run_growth(scheme, opts, out_dir, at_one):
    q_list, J_list, n_max, n_lo, n_hi = (
        opts[k] for k in ("q_list", "J_list", "n_max", "fit_lo", "fit_hi"))
    record = sorted(set(np.geomspace(1, n_max, 160).astype(int).tolist())
                    | {n_max})
    slopes, variation = {}, {}
    results = growth_experiment(scheme, q_list, J_list, n_max, record=record)
    for q, res in zip(q_list, results):
        tag = _q_tag(q)
        _csv(out_dir, f"growth_{tag}.csv", ("J", "n", "ratio"), res.columns)
        series = [(f"J={J}", res.ns, res.ratios[J]) for J in sorted(res.ratios)]
        svg.line_chart(os.path.join(out_dir, f"growth_{tag}.svg"), series,
                       title=f"norm ratios, q={'inf' if math.isinf(q) else q}",
                       xlabel="n", ylabel="ratio", logx=True, logy=True)
        slopes[tag] = loglog_slope(res.ns, res.max_ratio, n_lo, n_hi)
        tail = res.max_ratio[res.ns >= min(500, n_max)]
        variation[tag] = float((tail.max() - tail.min()) / tail.mean()) \
            if tail.size >= 2 and np.all(tail > 0) else math.nan
    return {"J_list": J_list, "n_max": n_max, "fit_window": [n_lo, n_hi],
            "slopes": slopes, "tail_variation": variation}


def _run_oracle(scheme, opts, out_dir, at_one):
    n_max = opts["n_max"]
    j0s, js = sorted(set(opts["j0_list"])), sorted(set(opts["j_list"]))
    # the time-stepped table ts[i0, n, j], every step of one sweep
    ts = temporal_green_sweep(scheme, range(n_max + 1), j0s,
                              js).transpose(1, 0, 2)
    r0s = sorted(set(opts["r0_list"]))
    tabs = [inverse_laplace_table(scheme, n_max, j0s, js, r0=r0)
            for r0 in r0s]
    recon = np.stack([tab.values for tab in tabs])
    err = np.abs(recon - ts)
    per_r0 = {repr(r0): {"max_err_vs_timestep": float(e.max()),
                         "nodes": tab.nodes, "solves": tab.solves,
                         "max_imag": tab.max_imag}
              for r0, tab, e in zip(r0s, tabs, err)}
    # one row per table cell, r0-major, then j0, n and j as ts is laid out
    i0, n, i = np.indices(ts.shape).reshape(3, -1)
    _csv(out_dir, "oracle.csv",
         ("r0", "n", "j0", "j", "reconstructed", "time_stepped", "abs_err"),
         (np.repeat(r0s, ts.size), np.tile(n, len(r0s)),
          np.tile(np.take(j0s, i0), len(r0s)),
          np.tile(np.take(js, i), len(r0s)), recon.ravel(),
          np.tile(ts.ravel(), len(r0s)), err.ravel()))
    spread = max([0.0] + [float(np.max(np.abs(a - b)))
                          for a, b in combinations(recon, 2)])
    svg.line_chart(os.path.join(out_dir, "oracle_err.svg"),
                   [(f"r0={r0}", np.arange(n_max + 1), e.max(axis=(0, 2)))
                    for r0, e in zip(r0s, err)],
                   title="reconstruction error against time stepping",
                   xlabel="n", ylabel="max abs err", logy=True)
    return {"n_max": n_max, "j0_list": j0s, "j_list": js, "per_r0": per_r0,
            "r0_spread": spread}


_RUNNERS = {"simulate": _run_simulate, "layers": _run_layers,
            "err-map": _run_err_map, "growth": _run_growth,
            "oracle": _run_oracle}


# the parser, built by the first main call and reused by later ones in the
# process; not at import, which stays as light as it was
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        scheme = _load_scheme(cfg)
        opts = _typed(cfg, {**_EVERY_RUN, **_KEYS[args.command]}, scheme)
        out_dir = args.out or opts["out"]
        os.makedirs(out_dir, exist_ok=True)
        status, verdict, at_one, rep2 = _hypothesis_block(scheme, opts)
        report = {
            "command": args.command,
            "scheme": {"name": scheme.name, "r": scheme.r, "p": scheme.p,
                       "a": scheme.a, "p_b": scheme.p_b, "b": scheme.b},
            "verdict": verdict,
            "hypotheses_hold": status == 0,
            "tolerances": {"hyp1_series_radius": _SERIES_RADIUS,
                           "hyp2_zero_tol": _SWEEP_ZERO_TOL,
                           "boundary_zero_tol": _BOUNDARY_ZERO_TOL,
                           "csv_format": _FLOAT_FORMAT},
        }
        if args.command == "check":
            print(verdict)
            report.update(_run_check(scheme, out_dir, at_one.rep1, rep2,
                                     verdict))
        elif status == 2:
            # hypothesis failure short-circuits the experiment; the report
            # documents the failure and the exit code encodes it
            print(verdict)
        else:
            report.update(_RUNNERS[args.command](scheme, opts, out_dir,
                                                 at_one))
            print(f"{args.command}: wrote artifacts to {out_dir}")
        report["runtime_seconds"] = time.perf_counter() - t0
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except ConfigError as exc:
        sys.stderr.write(f"halflab: {exc}\n")
        return 1
    except (NearSpectrumError, QuadratureError, MultiplicityError,
            RootSolveError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"halflab: numeric error: {exc}\n")
        return 1
    except OSError as exc:
        # a config that cannot be read is a ConfigError, so this is the
        # output directory or an artifact in it
        sys.stderr.write(f"halflab: cannot write output: {exc}\n")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
