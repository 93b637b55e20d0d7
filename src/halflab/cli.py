"""Experiment runner: one entry point over the whole laboratory.

    halflab <subcommand> --config <path> [--out <dir>]

Subcommands: check, simulate, layers, err-map, growth, oracle.  The config
is a single JSON document naming a scheme (builtin "lfr"/"o3" with named
parameters, or an inline coefficient table) plus experiment grids.  Every
run writes CSV artifacts, SVG renderings of the same data, and report.json
into the output directory; re-running a config byte-reproduces the CSVs and
SVGs (the runtime entry of report.json is the one exempt field).

Exit status: 0 when the run completed and both hypotheses hold, 2 when a
hypothesis fails (the JSON report still describes the failure), 1 on usage
or numeric errors or when the output cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import svg
from .evolution import (growth_experiment, loglog_slope, temporal_green,
                        temporal_green_sweep, temporal_green_whole,
                        temporal_green_whole_sweep)
# no caller here: the benchmark's `evolution.apply_half_line` trace target
# names it
from .evolution import apply_half_line  # noqa: F401
from .layers import (_AtOne, err_bound_fit, rc_analytic, rc_empirical,
                     ru_analytic)
from .resolvent import NearSpectrumError, QuadratureError, \
    inverse_laplace_table
from .scheme import (_SERIES_RADIUS, builtin_lfr, builtin_o3,
                     check_hypothesis_one, scheme_from_json, symbol_eval)
from .spectral import (_BOUNDARY_ZERO_TOL, _SWEEP_ZERO_TOL, MultiplicityError,
                       RootSolveError, _unit_classes, characteristic_roots,
                       check_hypothesis_two, lopatinskii_values)

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
    probe = builtin_o3(alpha, 0.0, 0.0)
    roots = characteristic_roots(probe, 1.0)
    stable = roots[_unit_classes(np.abs(roots))[0]]
    if len(stable) != 1:
        raise ConfigError("scheme.alpha",
                          "no isolated stable root at z = 1")
    kappa = stable[0]
    if abs(kappa.imag) > 1e-12:
        raise ConfigError("scheme.alpha", "stable root at z = 1 not real")
    b2 = -1.0 / kappa.real
    # b1 = 1 - b2 makes B(1, ..., 1) = 1 - b1 - b2 vanish exactly in floats
    return 1.0 - b2, b2


def _load_scheme(cfg: dict):
    doc = cfg.get("scheme")
    if not isinstance(doc, dict):
        raise ConfigError("scheme", "missing or not an object")
    if "inline" in doc:
        try:
            return scheme_from_json(json.dumps(doc["inline"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("scheme.inline", str(exc)) from exc
    name = doc.get("builtin")
    try:
        if name == "lfr":
            return builtin_lfr(float(doc.get("alpha", -0.5)),
                               float(doc.get("D", 0.75)),
                               float(doc.get("b", 5.0)))
        if name == "o3":
            alpha = float(doc.get("alpha", -0.5))
            if "b1" in doc or "b2" in doc:
                return builtin_o3(alpha, float(doc["b1"]), float(doc["b2"]))
            b1, b2 = _o3_marginal_pair(alpha)
            return builtin_o3(alpha, b1, b2)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scheme.{name}", str(exc)) from exc
    raise ConfigError("scheme.builtin",
                      f"unknown builtin {name!r} (expected lfr or o3)")


def _grid(cfg: dict, key: str, default):
    raw = cfg.get(key, default)
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(key, "expected a list")
    if not raw:
        raise ConfigError(key, "must be nonempty")
    return list(raw)


# every float cell of a CSV, also recorded in report.json
_FLOAT_FORMAT = "%.17g"


def _cell_format(cls) -> str:
    # bools print as 1/0 and integers exactly; everything else is a float
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    return _FLOAT_FORMAT


def _csv(out_dir: str, name: str, header, rows) -> str:
    """Write header and rows as CSV; each row goes through one format
    string, built once per sequence of cell types."""
    path = os.path.join(out_dir, name)
    formats = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = \
                    ",".join(map(_cell_format, kinds)) + "\n"
            fh.write(fmt % row)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _hypothesis_block(scheme, cfg: dict):
    """Status, verdict, both reports and the run's residue data at z = 1,
    which carries the first report to the layer functions."""
    rep1 = check_hypothesis_one(scheme)
    at_one = _AtOne(scheme, rep1)
    if not rep1.satisfied:
        # the annulus sampling behind the second hypothesis presumes the
        # dissipativity geometry, so it is skipped entirely here
        return 2, f"hypothesis failure: {rep1.failure}", at_one, None
    kwargs = {}
    radii = _grid(cfg, "radii", None)
    if radii is not None:
        kwargs["radii"] = tuple(float(x) for x in radii)
    if "annulus_samples" in cfg:
        kwargs["annulus_samples"] = int(cfg["annulus_samples"])
    rep2 = check_hypothesis_two(scheme, **kwargs)
    return (0 if rep2.satisfied else 2), rep2.verdict, at_one, rep2


def _run_check(scheme, cfg, out_dir, rep1, rep2, verdict):
    t = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    f = symbol_eval(scheme, np.exp(1j * t))
    _csv(out_dir, "check_symbol.csv", ("t", "re_f", "im_f", "abs_f"),
         zip(t, f.real, f.imag, np.abs(f)))
    svg.line_chart(os.path.join(out_dir, "check_symbol.svg"),
                   [("abs F", t, np.abs(f))], title="symbol modulus",
                   xlabel="t", ylabel="|F(e^{it})|")
    if rep2 is not None:
        # the profile starts at z = 1, where the root split presumes the
        # first hypothesis, as the annulus sweep does
        zs = 1.0 + np.linspace(0.0, 1.0, 51)
        # Python abs per node: the array abs can differ in the last bit
        dets = np.array([abs(complex(v))
                         for v in lopatinskii_values(scheme, zs)])
        _csv(out_dir, "check_lopatinskii.csv", ("z", "abs_delta"),
             zip(zs, dets))
        svg.line_chart(os.path.join(out_dir, "check_lopatinskii.svg"),
                       [("abs Delta", zs, dets)],
                       title="Lopatinskii determinant on the real axis",
                       xlabel="z", ylabel="|Delta(z)|")
    return {
        "hypothesis_one": rep1.as_dict(),
        "hypothesis_two": rep2.as_dict() if rep2 is not None else None,
        "verdict": verdict,
    }


def _run_simulate(scheme, cfg, out_dir, at_one):
    n_list = [int(n) for n in _grid(cfg, "n_list", [0, 8, 32, 128])]
    j0 = int(cfg.get("j0", 1))
    if any(n < 0 for n in n_list):
        raise ConfigError("n_list", "snapshot times must be >= 0")
    if j0 < 1:
        raise ConfigError("j0", "source cell must be >= 1")
    half_rows, whole_rows = [], []
    half_series, whole_series = [], []
    stats = {}
    for n in sorted(set(n_list)):
        g = temporal_green(scheme, n, j0)
        js = np.arange(g.field.j_min, g.field.j_max + 1)
        half_rows.extend((n, int(j), v) for j, v in zip(js, g.field.values))
        half_series.append((f"n={n}", js, g.field.values))
        gw = temporal_green_whole(scheme, n)
        jw = np.arange(gw.field.j_min, gw.field.j_max + 1)
        whole_rows.extend((n, int(j), v) for j, v in zip(jw, gw.field.values))
        whole_series.append((f"n={n}", jw, gw.field.values))
        stats[str(n)] = {
            "half_sup": float(np.max(np.abs(g.field.values))),
            "half_l1": float(np.sum(np.abs(g.field.interior))),
            "whole_mass": float(np.sum(gw.field.values)),
            "whole_sup": float(np.max(np.abs(gw.field.values))),
        }
    _csv(out_dir, "green_half.csv", ("n", "j", "value"), half_rows)
    _csv(out_dir, "green_whole.csv", ("n", "j", "value"), whole_rows)
    svg.line_chart(os.path.join(out_dir, "green_half.svg"), half_series,
                   title=f"half-line Green's function, j0={j0}",
                   xlabel="j", ylabel="G(n, j0, j)")
    svg.line_chart(os.path.join(out_dir, "green_whole.svg"), whole_series,
                   title="whole-line Green's function",
                   xlabel="j", ylabel="Gt(n, j)")
    return {"j0": j0, "n_list": sorted(set(n_list)), "snapshots": stats}


def _run_layers(scheme, cfg, out_dir, at_one):
    j_max = int(cfg.get("j_max", 25))
    j0 = int(cfg.get("j0", 50))
    n = int(cfg.get("n", 500))
    j0_list = [int(v) for v in _grid(cfg, "j0_list", [1, 2, 3, 4, 6, 8])]
    if j_max < 1 or j0 < 1 or n < 1:
        raise ConfigError("layers", "j_max, j0, n must be >= 1")
    if min(j0_list) < 1:
        raise ConfigError("j0_list", "source cells must be >= 1")
    rc_a = rc_analytic(scheme, j_max, at_one=at_one)
    # the snapshots at n and 2n from one sweep of each kernel
    ns = (n, 2 * n)
    greens = temporal_green_sweep(scheme, ns, [j0])
    wholes = temporal_green_whole_sweep(scheme, ns)
    rc_e, rc_e2 = [rc_empirical(scheme, j0, m, j_max, at_one=at_one,
                                green=(g[0], gt))
                   for m, g, gt in zip(ns, greens, wholes)]
    err_n = np.abs(rc_e.values - rc_a.values)
    err_2n = np.abs(rc_e2.values - rc_a.values)
    js = rc_a.j_values
    _csv(out_dir, "layer_rc.csv",
         ("j", "analytic", "empirical_n", "empirical_2n", "abs_err_n",
          "abs_err_2n"),
         zip(js, rc_a.values, rc_e.values, rc_e2.values, err_n, err_2n))
    svg.line_chart(os.path.join(out_dir, "layer_rc.svg"),
                   [("analytic", js, np.abs(rc_a.values)),
                    (f"empirical n={n}", js, np.abs(rc_e.values)),
                    (f"empirical n={2 * n}", js, np.abs(rc_e2.values))],
                   title="reflected boundary layer", xlabel="j",
                   ylabel="|Rc(j)|", logy=True)
    ru = ru_analytic(scheme, max(j0_list), j_max, at_one=at_one)
    ru_rows = [(jj0, int(j), ru.values[jj0 - 1, j - 1])
               for jj0 in j0_list for j in js]
    _csv(out_dir, "layer_ru.csv", ("j0", "j", "value"), ru_rows)
    svg.line_chart(os.path.join(out_dir, "layer_ru.svg"),
                   [(f"j0={jj0}", js, ru.values[jj0 - 1]) for jj0 in j0_list],
                   title="transmitted boundary layer", xlabel="j",
                   ylabel="Ru(j0, j)")
    return {
        "j0": j0, "n": n, "j_max": j_max,
        "rc_sup_err_n": float(err_n.max()),
        "rc_sup_err_2n": float(err_2n.max()),
        "rc_decay": {"C": rc_a.decay_C, "c": rc_a.decay_c},
        "ru_decay": {"C": ru.decay_C, "c": ru.decay_c},
        "ru_sup": float(np.max(np.abs(ru.values))),
    }


def _run_err_map(scheme, cfg, out_dir, at_one):
    n_list = [int(v) for v in _grid(cfg, "n_list", [250, 500, 1000, 2000])]
    j0_list = _grid(cfg, "j0_list", None)
    if j0_list is not None:
        j0_list = [int(v) for v in j0_list]
        if min(j0_list) < 1:
            raise ConfigError("j0_list", "source cells must be >= 1")
    j_list = [int(v) for v in _grid(cfg, "j_list", [1])]
    if min(j_list) < 1:
        raise ConfigError("j_list", "cells must be >= 1")
    c0_list = _grid(cfg, "c0_list", None)
    if c0_list is not None:
        c0_list = [float(v) for v in c0_list]
    growth_tol = float(cfg.get("growth_tol", 0.05))
    if growth_tol <= 0:
        raise ConfigError("growth_tol", "must be positive")
    fit = err_bound_fit(scheme, n_list=n_list, j0_list=j0_list,
                        j_list=j_list, c0_list=c0_list,
                        growth_tol=growth_tol, at_one=at_one)
    rows = [(int(n), int(j0), fit.heat[k, i])
            for k, n in enumerate(fit.n_values)
            for i, j0 in enumerate(fit.j0_values)]
    _csv(out_dir, "err_map.csv", ("n", "j0", "scaled_err"), rows)
    svg.heatmap(os.path.join(out_dir, "err_map.svg"), fit.j0_values,
                fit.n_values, fit.heat,
                title="n^{1/2mu} sup_j |Err|", xlabel="j0", ylabel="n")
    header = ["c0"] + [f"sup_n{int(n)}" for n in fit.n_values]
    _csv(out_dir, "err_c0.csv", header,
         [(c0, *fit.sups[a]) for a, c0 in enumerate(fit.c0_values)])
    svg.line_chart(os.path.join(out_dir, "err_c0.svg"),
                   [(f"n={int(n)}", fit.c0_values, fit.sups[:, k])
                    for k, n in enumerate(fit.n_values)],
                   title="weighted suprema against the trial rate",
                   xlabel="c0", ylabel="sup", logx=True, logy=True)
    return {
        "mu": fit.mu,
        "best_c0": fit.best_c0,
        "bound_holds": fit.best_c0 > 0.0,
        "growth_tol": fit.growth_tol,
        "adjoint_residual": fit.adjoint_residual,
        "n_values": fit.n_values, "j0_min": int(fit.j0_values[0]),
        "j0_max": int(fit.j0_values[-1]), "j_values": fit.j_values,
    }


def _q_tag(q: float) -> str:
    return "qinf" if math.isinf(q) else ("q%g" % q)


def _run_growth(scheme, cfg, out_dir, at_one):
    q_list = []
    for v in _grid(cfg, "q_list", ["inf", 2.0]):
        if isinstance(v, str) and v.lower() not in ("inf", "infinity", "oo"):
            raise ConfigError("q_list", f"cannot parse exponent {v!r}")
        q_list.append(math.inf if isinstance(v, str) else float(v))
        if not q_list[-1] >= 1:   # NaN too
            raise ConfigError("q_list", f"exponent {v!r} is not >= 1")
    J_list = [int(v) for v in _grid(cfg, "J_list", [125, 250, 500, 1000])]
    if min(J_list) < 1:
        raise ConfigError("J_list", "sizes must be >= 1")
    n_max = int(cfg.get("n_max", 2000))
    if n_max < 2:
        raise ConfigError("n_max", "must be >= 2")
    n_lo = int(cfg.get("fit_lo", min(200, n_max // 2)))
    n_hi = int(cfg.get("fit_hi", n_max))
    if not 1 <= n_lo < n_max:
        raise ConfigError("fit_lo", f"must lie in 1..{n_max - 1}, below n_max")
    if not n_lo < n_hi <= n_max:
        raise ConfigError("fit_hi", f"must lie in {n_lo + 1}..{n_max}, past "
                                    "fit_lo and up to n_max")
    record = sorted(set(np.geomspace(1, n_max, 160).astype(int).tolist())
                    | {n_max})
    slopes, variation = {}, {}
    results = growth_experiment(scheme, q_list, J_list, n_max, record=record)
    for q, res in zip(q_list, results):
        tag = _q_tag(q)
        _csv(out_dir, f"growth_{tag}.csv", ("J", "n", "ratio"), res.rows)
        series = [(f"J={J}", res.ns, res.ratios[J]) for J in sorted(res.ratios)]
        svg.line_chart(os.path.join(out_dir, f"growth_{tag}.svg"), series,
                       title=f"norm ratios, q={'inf' if math.isinf(q) else q}",
                       xlabel="n", ylabel="ratio", logx=True, logy=True)
        slopes[tag] = loglog_slope(res.ns, res.max_ratio, n_lo, n_hi)
        tail = res.max_ratio[res.ns >= min(500, n_max)]
        if tail.size >= 2 and np.all(tail > 0):
            variation[tag] = float((tail.max() - tail.min()) / tail.mean())
        else:
            variation[tag] = float("nan")
    return {
        "J_list": J_list, "n_max": n_max,
        "fit_window": [n_lo, n_hi],
        "slopes": slopes, "tail_variation": variation,
    }


def _run_oracle(scheme, cfg, out_dir, at_one):
    n_max = int(cfg.get("n_max", 50))
    j0s = [int(v) for v in _grid(cfg, "j0_list", [1, 5, 10, 20, 30])]
    js = [int(v) for v in _grid(cfg, "j_list", [1, 3, 7, 15, 30])]
    r0s = [float(v) for v in _grid(cfg, "r0_list", [0.02, 0.05, 0.2])]
    j0s, js = sorted(set(j0s)), sorted(set(js))
    if j0s[0] < 1:
        raise ConfigError("j0_list", "source cells must be >= 1")
    if js[0] < 1 - scheme.r:
        raise ConfigError("j_list", f"cells must be >= {1 - scheme.r}, the "
                                    "first ghost cell")
    # the time-stepped table ts[i0, n, j], every step of one sweep
    ts = np.array([[[g.value(j) for j in js] for g in step]
                   for step in temporal_green_sweep(scheme, range(n_max + 1),
                                                    j0s)]).transpose(1, 0, 2)
    rows = []
    per_r0 = {}
    tables = {}
    for r0 in sorted(set(r0s)):
        tab = inverse_laplace_table(scheme, n_max, j0s, js, r0=r0)
        tables[r0] = tab
        err = np.abs(tab.values - ts)
        for i0, j0 in enumerate(j0s):
            for n in range(n_max + 1):
                for i, j in enumerate(js):
                    rows.append((r0, n, j0, j, tab.values[i0, n, i],
                                 ts[i0, n, i], err[i0, n, i]))
        per_r0[repr(r0)] = {
            "max_err_vs_timestep": float(err.max()),
            "nodes": tab.nodes,
            "solves": tab.solves,
            "max_imag": tab.max_imag,
        }
    _csv(out_dir, "oracle.csv",
         ("r0", "n", "j0", "j", "reconstructed", "time_stepped", "abs_err"),
         rows)
    keys = sorted(tables)
    spread = 0.0
    for a in range(len(keys)):
        for b_ in range(a + 1, len(keys)):
            spread = max(spread, float(np.max(np.abs(
                tables[keys[a]].values - tables[keys[b_]].values))))
    ns = np.arange(n_max + 1)
    svg.line_chart(os.path.join(out_dir, "oracle_err.svg"),
                   [(f"r0={r0}",
                     ns,
                     np.max(np.abs(tables[r0].values
                                   - ts), axis=(0, 2)))
                    for r0 in keys],
                   title="reconstruction error against time stepping",
                   xlabel="n", ylabel="max abs err", logy=True)
    return {
        "n_max": n_max, "j0_list": j0s, "j_list": js,
        "per_r0": per_r0, "r0_spread": spread,
    }


_RUNNERS = {
    "simulate": _run_simulate,
    "layers": _run_layers,
    "err-map": _run_err_map,
    "growth": _run_growth,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        scheme = _load_scheme(cfg)
        out_dir = args.out or cfg.get("out", "halflab-out")
        os.makedirs(out_dir, exist_ok=True)
        status, verdict, at_one, rep2 = _hypothesis_block(scheme, cfg)
        report = {
            "command": args.command,
            "scheme": {"name": scheme.name, "r": scheme.r, "p": scheme.p,
                       "a": scheme.a, "p_b": scheme.p_b, "b": scheme.b},
            "verdict": verdict,
            "hypotheses_hold": status == 0,
            "tolerances": {
                "hyp1_series_radius": _SERIES_RADIUS,
                "hyp2_zero_tol": _SWEEP_ZERO_TOL,
                "boundary_zero_tol": _BOUNDARY_ZERO_TOL,
                "csv_format": _FLOAT_FORMAT,
            },
        }
        if args.command == "check":
            print(verdict)
            report.update(_run_check(scheme, cfg, out_dir, at_one.rep1,
                                     rep2, verdict))
        elif status == 2:
            # hypothesis failure short-circuits the experiment; the report
            # documents the failure and the exit code encodes it
            print(verdict)
        else:
            report.update(_RUNNERS[args.command](scheme, cfg, out_dir,
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
