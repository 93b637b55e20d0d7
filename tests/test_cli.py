"""CLI contract: exit codes, verdict strings, artifacts, reproducibility."""

import json
import math
import os
import pathlib
import xml.etree.ElementTree as ET

import pytest

import numpy as np

from halflab import _kernels, cli, gaussian, layers, spectral
from halflab.cli import main

VERDICT_LFR = "ℓ¹-stable, ℓ^q-unstable for q>1"
VERDICT_O3 = "ℓ^q-stable for all q"
KS2 = (14.0 - math.sqrt(176.0)) / 10.0

BAD_INLINE = {"r": 1, "p": 2, "a": ["0.125", "0.1", "0.925", "-0.15"],
              "p_b": 0, "b": [], "name": "bad"}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def run(tmp_path, command, doc, out="out", **kw):
    cfg = write_cfg(tmp_path, doc, name=f"{command}_{out}.json")
    out_dir = str(tmp_path / out)
    code = main([command, "--config", cfg, "--out", out_dir])
    return code, out_dir


def test_check_lfr(tmp_path, capsys):
    code, out = run(tmp_path, "check", {"scheme": {"builtin": "lfr"}})
    assert code == 0
    assert VERDICT_LFR in capsys.readouterr().out
    for name in ("check_symbol.csv", "check_symbol.svg",
                 "check_lopatinskii.csv", "check_lopatinskii.svg",
                 "report.json"):
        assert os.path.exists(os.path.join(out, name))
    rep = read_json(out, "report.json")
    assert rep["verdict"] == VERDICT_LFR
    assert rep["hypotheses_hold"] is True
    assert rep["hypothesis_one"]["mu"] == 1


def test_check_o3_defaults_to_marginal_pair(tmp_path, capsys):
    code, out = run(tmp_path, "check", {"scheme": {"builtin": "o3"}})
    assert code == 0
    assert VERDICT_O3 in capsys.readouterr().out
    rep = read_json(out, "report.json")
    assert rep["hypothesis_one"]["mu"] == 2


def test_check_violating_rule_exits_2(tmp_path, capsys):
    doc = {
        "scheme": {"builtin": "lfr", "b": 1.0 / KS2},
        "radii": [1.0, 1.05, 1.25, 2.0, 2.5],
    }
    code, out = run(tmp_path, "check", doc)
    assert code == 2
    assert capsys.readouterr().out.startswith("unstable")
    rep = read_json(out, "report.json")
    assert rep["hypotheses_hold"] is False
    assert rep["verdict"].startswith("unstable")


def test_hypothesis_failure_short_circuits_experiments(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", {"scheme": {"inline": BAD_INLINE}})
    assert code == 2
    assert "hypothesis failure: dissipativity" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["report.json"]
    rep = read_json(out, "report.json")
    assert rep["hypotheses_hold"] is False
    assert rep["verdict"].startswith("hypothesis failure")
    # check still draws its diagnostics, with the second report block absent
    code2, out2 = run(tmp_path, "check", {"scheme": {"inline": BAD_INLINE}},
                      out="out2")
    capsys.readouterr()
    assert code2 == 2
    rep2 = read_json(out2, "report.json")
    assert rep2["hypothesis_two"] is None
    assert os.path.exists(os.path.join(out2, "check_symbol.csv"))


@pytest.mark.parametrize("alpha", [-0.2, -0.4, -0.6, -0.8])
def test_check_o3_marginal_pair_is_exact(tmp_path, capsys, alpha):
    # B(1, ..., 1) = 0 exactly, so the residue shortcut applies at every alpha
    code, out = run(tmp_path, "check",
                    {"scheme": {"builtin": "o3", "alpha": alpha}})
    assert code == 0
    assert VERDICT_O3 in capsys.readouterr().out
    rep = read_json(out, "report.json")
    assert rep["verdict"] == VERDICT_O3
    assert rep["hypothesis_two"]["boundary_zero"] is True


def test_check_inconsistent_scheme_exits_2(tmp_path, capsys):
    inline = {"r": 1, "p": 1, "a": ["0.3", "0.3", "0.3"], "p_b": 1,
              "b": [["1"]], "name": "inconsistent"}
    code, out = run(tmp_path, "check", {"scheme": {"inline": inline}})
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "hypothesis failure: consistency")
    rep = read_json(out, "report.json")
    assert rep["verdict"].startswith("hypothesis failure: consistency")
    assert rep["hypothesis_two"] is None


def test_check_inline_scheme(tmp_path, capsys):
    inline = {"r": 1, "p": 1, "a": ["1/8", "1/4", "5/8"], "p_b": 1,
              "b": [["5"]], "name": "inline-lfr"}
    code, _ = run(tmp_path, "check", {"scheme": {"inline": inline}})
    assert code == 0
    assert VERDICT_LFR in capsys.readouterr().out


_LFR_A = ["1/8", "1/4", "5/8"]


@pytest.mark.parametrize("a, b", [
    (["1/0", "1/4", "5/8"], [["5"]]),       # zero denominator
    (_LFR_A, [["1/0"]]),
    (["1e400", "1/4", "5/8"], [["5"]]),     # beyond the float range
    ([10 ** 400, "1/4", "5/8"], [["5"]]),
    ([math.nan, "1/4", "5/8"], [["5"]]),    # written as NaN / Infinity
    (_LFR_A, [[math.inf]]),
    ([1e400, "1/4", "5/8"], [["5"]]),
    ([True, "1/4", "5/8"], [["5"]]),        # JSON true is no number
    (_LFR_A, [[False]]),
])
def test_malformed_inline_coefficients_are_config_errors(tmp_path, capsys,
                                                         a, b):
    inline = {"r": 1, "p": 1, "a": a, "p_b": 1, "b": b}
    code, out = run(tmp_path, "check", {"scheme": {"inline": inline}})
    assert code == 1
    assert "config error at scheme.inline" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_artifacts(tmp_path):
    doc = {"scheme": {"builtin": "lfr"}, "n_list": [0, 2, 5], "j0": 1}
    code, out = run(tmp_path, "simulate", doc)
    assert code == 0
    for name in ("green_half.csv", "green_whole.csv", "green_half.svg",
                 "green_whole.svg", "report.json"):
        assert os.path.exists(os.path.join(out, name))
    ET.parse(os.path.join(out, "green_half.svg"))
    with open(os.path.join(out, "green_half.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "n,j,value"
    rep = read_json(out, "report.json")
    assert abs(rep["snapshots"]["5"]["whole_mass"] - 1.0) < 1e-12


def test_layers_artifacts(tmp_path):
    doc = {"scheme": {"builtin": "lfr"}, "j_max": 6, "j0": 20, "n": 100,
           "j0_list": [1, 2]}
    code, out = run(tmp_path, "layers", doc)
    assert code == 0
    for name in ("layer_rc.csv", "layer_rc.svg", "layer_ru.csv",
                 "layer_ru.svg"):
        assert os.path.exists(os.path.join(out, name))
    rep = read_json(out, "report.json")
    assert rep["rc_sup_err_n"] < 1e-2
    assert rep["rc_sup_err_2n"] < rep["rc_sup_err_n"]


def test_err_map_artifacts(tmp_path):
    doc = {"scheme": {"builtin": "lfr"}, "n_list": [50, 100],
           "j0_list": [5, 10], "j_list": [1], "c0_list": [0.05, 0.2]}
    code, out = run(tmp_path, "err-map", doc)
    assert code == 0
    for name in ("err_map.csv", "err_map.svg", "err_c0.csv", "err_c0.svg"):
        assert os.path.exists(os.path.join(out, name))
    rep = read_json(out, "report.json")
    assert rep["mu"] == 1
    assert "best_c0" in rep and "bound_holds" in rep
    assert 0.0 <= rep["adjoint_residual"] <= 1e-15


def test_err_map_o3_default_grid_bound_holds(tmp_path):
    # the default j0 grid carries the activation fronts n|alpha| (125 at
    # n = 250 is off the step-50 grid), where the sup over j0 sits
    code, out = run(tmp_path, "err-map", {"scheme": {"builtin": "o3"}})
    assert code == 0
    rep = read_json(out, "report.json")
    assert rep["bound_holds"] is True
    assert rep["best_c0"] > 0.0


@pytest.mark.parametrize("key, grid", [("j_list", [0, 2]),
                                       ("j0_list", [0, 10])])
def test_err_map_cells_below_one_are_config_errors(tmp_path, capsys, key,
                                                   grid):
    doc = {"scheme": {"builtin": "lfr"}, "n_list": [50, 100],
           "j0_list": [10, 20], "j_list": [1], key: grid}
    code, out = run(tmp_path, "err-map", doc)
    assert code == 1
    assert f"config error at {key}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "err_map.csv"))


def test_growth_artifacts_and_slope(tmp_path):
    doc = {"scheme": {"builtin": "lfr"}, "q_list": ["inf"], "J_list": [40],
           "n_max": 160, "fit_lo": 40, "fit_hi": 160}
    code, out = run(tmp_path, "growth", doc)
    assert code == 0
    assert os.path.exists(os.path.join(out, "growth_qinf.csv"))
    ET.parse(os.path.join(out, "growth_qinf.svg"))
    rep = read_json(out, "report.json")
    # growth must register on this small grid; the calibrated slope check
    # over the full grid lives in the acceptance suite
    assert rep["slopes"]["qinf"] > 0.3


def test_growth_empty_grid_is_usage_error(tmp_path, capsys):
    doc = {"scheme": {"builtin": "lfr"}, "J_list": []}
    code, _ = run(tmp_path, "growth", doc)
    assert code == 1
    assert "config error at J_list" in capsys.readouterr().err


def test_oracle_artifacts(tmp_path):
    doc = {"scheme": {"builtin": "lfr"}, "n_max": 8, "j0_list": [1, 2],
           "j_list": [1, 3], "r0_list": [0.05, 0.2]}
    code, out = run(tmp_path, "oracle", doc)
    assert code == 0
    assert os.path.exists(os.path.join(out, "oracle.csv"))
    ET.parse(os.path.join(out, "oracle_err.svg"))
    rep = read_json(out, "report.json")
    for block in rep["per_r0"].values():
        assert block["max_err_vs_timestep"] < 1e-8
        assert block["solves"] == block["nodes"] // 2 + 1
    assert rep["r0_spread"] < 1e-8


def test_unknown_subcommand(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_flag(capsys):
    assert main(["check"]) == 1
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", "--config", str(path)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_builtin(tmp_path, capsys):
    code, _ = run(tmp_path, "check", {"scheme": {"builtin": "nope"}})
    assert code == 1
    assert "config error at scheme.builtin" in capsys.readouterr().err


def test_threads_validation(tmp_path, capsys):
    # no code path runs in parallel, so there is no --threads flag
    cfg = write_cfg(tmp_path, {"scheme": {"builtin": "lfr"}})
    code = main(["check", "--config", cfg, "--threads", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "halflab" in capsys.readouterr().out


def test_byte_reproducibility(tmp_path, capsys):
    doc = {"scheme": {"builtin": "lfr"}, "n_list": [0, 3], "j0": 1}
    _, out_a = run(tmp_path, "simulate", doc, out="a")
    _, out_b = run(tmp_path, "simulate", doc, out="b")
    capsys.readouterr()
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        if name == "report.json":
            rep_a = read_json(out_a, name)
            rep_b = read_json(out_b, name)
            rep_a.pop("runtime_seconds")
            rep_b.pop("runtime_seconds")
            assert rep_a == rep_b
        else:
            bytes_a = pathlib.Path(out_a, name).read_bytes()
            bytes_b = pathlib.Path(out_b, name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between runs"


def _count_calls(monkeypatch, calls, tag, module, name, arg=None):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((tag, None if arg is None else arg(*args)))
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _instrument(monkeypatch):
    calls = []
    for mod in (cli, layers, gaussian):
        _count_calls(monkeypatch, calls, "hyp1", mod, "check_hypothesis_one")
    for mod in (layers, spectral):
        _count_calls(monkeypatch, calls, "dprime", mod,
                     "lopatinskii_derivative_at_one")
        _count_calls(monkeypatch, calls, "proj", mod, "projector_set",
                     lambda scheme, z, *rest: complex(z))
    for mod in (cli, layers):
        _count_calls(monkeypatch, calls, "ru", mod, "ru_analytic",
                     lambda scheme, j0_max, j_max: (j0_max, j_max))
    # the last positional argument of both kernels is the step count
    for name in ("evolve_half", "evolve_whole"):
        _count_calls(monkeypatch, calls, "kernel", _kernels, name,
                     lambda *args: args[-1])
    return calls


@pytest.mark.parametrize("builtin", ["lfr", "o3"])
def test_layers_run_computes_each_quantity_once(tmp_path, monkeypatch,
                                                builtin):
    calls = _instrument(monkeypatch)
    n = 100
    doc = {"scheme": {"builtin": builtin}, "j_max": 6, "j0": 20, "n": n,
           "j0_list": [1, 2]}
    code, _ = run(tmp_path, "layers", doc)
    assert code == 0
    tags = [tag for tag, _ in calls]
    assert tags.count("hyp1") == 1
    assert tags.count("dprime") == 1
    assert [z for tag, z in calls if tag == "proj"] == [1.0]
    # the layer_ru.csv grid, and the transmitted row at j0 once for n, 2n
    assert sorted(g for tag, g in calls if tag == "ru") == [(2, 6), (20, 6)]
    # one half-line and one whole-line sweep recorded at n and 2n: a kernel
    # call per recorded time, 2n steps per sweep (one run per n took 3n)
    steps = [s for tag, s in calls if tag == "kernel"]
    assert steps == [n, n, n, n]


def test_check_run_checks_hypothesis_one_once(tmp_path, monkeypatch):
    calls = _instrument(monkeypatch)
    code, _ = run(tmp_path, "check", {"scheme": {"builtin": "lfr"}})
    assert code == 0
    assert [tag for tag, _ in calls].count("hyp1") == 1


def test_check_run_solves_at_one_once(tmp_path, monkeypatch):
    # Delta(1) and the residue condition share one one-node evaluation
    at_one = []
    orig = spectral._evaluate

    def counted(scheme, zs, *args, **kwargs):
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        if zs.size == 1 and zs[0] == 1.0:
            at_one.append(zs)
        return orig(scheme, zs, *args, **kwargs)
    monkeypatch.setattr(spectral, "_evaluate", counted)
    code, _ = run(tmp_path, "check", {"scheme": {"builtin": "lfr"}})
    assert code == 0
    assert len(at_one) == 1


def test_trace_targets_resolve(monkeypatch):
    # every name the benchmark's tracer wraps must still exist, or a traced
    # pass stops before it runs
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "perfbench"))
    import tracing
    assert len(tracing.resolve()) == len(tracing.TARGETS) > 0


def _fmt_cell(v) -> str:
    # the per-cell formatter the CSV writer must agree with byte for byte
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def test_csv_matches_per_cell_format(tmp_path):
    floats = [0.1, -0.0, math.nan, math.inf, -math.inf, 1e-310, 2.0 ** 60,
              np.float64(1.0 / 3.0), np.float32(0.1), -7.0]
    rows = [(True, np.bool_(False), np.int64(-3), 7, f, np.float64(f))
            for f in floats]
    # the same column holding other types in other rows
    rows += [(np.int64(5), 2.5, False, np.bool_(True), 3, np.uint8(255)),
             (1.5, 0, np.int32(-2), -0.0, np.nan, True)]
    rows.append(tuple(np.array([1.0, -0.0, np.inf])) + (1, 2, 3))
    path = cli._csv(str(tmp_path), "t.csv", ("a", "b", "c", "d", "e", "f"),
                    iter(rows))
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join(_fmt_cell(v) for v in row) + "\n" for row in rows)
    with open(path, "rb") as fh:
        assert fh.read() == want.encode("utf-8")
