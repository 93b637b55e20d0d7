"""CLI contract: exit codes, verdict strings, artifacts, reproducibility."""

import hashlib
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from halflab import _kernels, cli, gaussian, layers, scheme, spectral, svg
from halflab.cli import main

from conftest import NEAR_TOUCH_INLINE

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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the sweep samples |Delta| on the circles 1, 1.05, "
    "1.25 and 2.5 only, so the zero at z = 1.1 between them goes unseen"))
def test_check_finds_off_grid_lopatinskii_zero(tmp_path, capsys):
    # Delta = 1 - b kappa_s vanishes at z = 1.1 for b = 1/kappa_s(1.1),
    # kappa_s the small root of the default lfr quadratic
    # 0.625 k^2 + (0.25 - z) k + 0.125 = 0; z = 1.1 is an eigenvalue
    z = 1.1
    ks = ((z - 0.25) - math.sqrt((z - 0.25) ** 2 - 4.0 * 0.625 * 0.125)) \
        / (2.0 * 0.625)
    assert abs(1.0 / ks - 5.96124969497314) < 1e-12
    code, out = run(tmp_path, "check",
                    {"scheme": {"builtin": "lfr", "b": 1.0 / ks}})
    capsys.readouterr()
    rep = read_json(out, "report.json")
    assert code == 2
    assert rep["verdict"].startswith(
        "unstable: Lopatinskii determinant vanishes at z = ")
    witness = complex(*rep["hypothesis_two"]["witness_z"])
    assert abs(witness - z) < 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: no exclusion window covers the circle of radius "
    "1.0000001, and |Delta| at its node z = 1.0000001 is 2e-7, below "
    "_SWEEP_ZERO_TOL, so the default lfr's boundary zero at z = 1 is "
    "named as a violation"))
def test_check_near_unit_circle_keeps_marginal_verdict(tmp_path, capsys):
    # the default lfr's only zero is the boundary zero at z = 1, so every
    # admissible sweep must give its marginal verdict
    code, out = run(tmp_path, "check", {"scheme": {"builtin": "lfr"},
                                        "radii": [1.0000001]})
    assert VERDICT_LFR in capsys.readouterr().out
    assert code == 0
    assert read_json(out, "report.json")["verdict"] == VERDICT_LFR


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


def test_check_near_touch_between_grid_points_exits_2(tmp_path, capsys):
    # |F| peaks at 1 + 1e-12 between two points of a 10^5-point circle grid
    code, out = run(tmp_path, "check",
                    {"scheme": {"inline": NEAR_TOUCH_INLINE}})
    assert code == 2
    assert "hypothesis failure: dissipativity" in capsys.readouterr().out
    rep = read_json(out, "report.json")
    assert rep["verdict"].startswith("hypothesis failure: dissipativity")
    h1 = rep["hypothesis_one"]
    assert h1["dissipativity_margin"] < 0.0
    assert abs(abs(h1["witness_t"]) - 2.0984173) < 1e-6


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


_LFR = {"builtin": "lfr"}
_LFR_B5 = {"r": 1, "p": 1, "a": _LFR_A, "p_b": 1, "name": "lfr-b5"}


@pytest.mark.parametrize("command, doc, key", [
    # a misspelt key, or one of another subcommand, once fell back to the
    # default: the sweep over the default circles, or the default grid
    ("simulate", {"n_lsit": [0, 2]}, "n_lsit"),
    ("check", {"radi": [1.0, 2.0]}, "radi"),
    ("oracle", {"J_list": [5]}, "J_list"),
    # a misspelt ghost weight ran with b = 0: the inline one turned the
    # l1-only verdict into stability for all q, with exit 0
    ("check", {"scheme": {**_LFR, "B": 5.0}}, "scheme.B"),
    ("check", {"scheme": {"inline": {**_LFR_B5, "B": [["5"]]}}},
     "scheme.inline"),
    # wrong types: read as 1, truncated, or a numeric error or traceback
    ("simulate", {"j0": True}, "j0"),
    ("simulate", {"n_list": [1.9]}, "n_list"),
    ("layers", {"j0": "x"}, "j0"),
    ("simulate", {"j0": [1]}, "j0"),
    ("check", {"annulus_samples": [64]}, "annulus_samples"),
    # bad values: NaN passed the positivity test and gave bound_holds false
    # with exit 0; the others were numeric errors after the output
    # directory was made
    ("err-map", {"growth_tol": math.nan}, "growth_tol"),
    ("check", {"annulus_samples": 4}, "annulus_samples"),
    ("oracle", {"r0_list": [0]}, "r0_list"),
    ("err-map", {"n_list": [0]}, "n_list"),
    # a zero trial rate wrote three artifacts and then exited 1 with
    # "nothing finite to plot"; a negative one ran with exit 0
    ("err-map", {"c0_list": [0.0]}, "c0_list"),
    ("err-map", {"c0_list": [-1.0, 0.5]}, "c0_list"),
    # a negative radius swept |z| = 2 and exited 0 with -2.0 in the
    # report; one inside the unit circle was a numeric error after the
    # output directory was made
    ("check", {"radii": [-2.0]}, "radii"),
    ("check", {"radii": [1.0, 0.5]}, "radii"),
])
def test_malformed_config_is_refused_before_the_run(tmp_path, capsys,
                                                    command, doc, key):
    code, out = run(tmp_path, command, {"scheme": _LFR, **doc})
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error at {key}: " in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_unit_radius_is_admitted(tmp_path):
    # the radius bound is >= 1, not > 1: the unit circle is swept
    code, out = run(tmp_path, "check", {"scheme": _LFR, "radii": [1, 1.5]})
    assert code == 0
    assert read_json(out, "report.json")["hypothesis_two"]["radii"] == \
        [1.0, 1.5]


def test_config_values_keep_their_types(tmp_path):
    # integral floats read as ints, so the report and the artifacts are
    # those of the integer config
    runs = [run(tmp_path, "simulate", {"scheme": _LFR, "n_list": grid,
                                       "j0": j0}, out=name)
            for grid, j0, name in (([0, 3], 2, "a"), ([0.0, 3.0], 2.0, "b"))]
    assert [code for code, _ in runs] == [0, 0]
    reps = [read_json(out, "report.json") for _, out in runs]
    assert reps[0]["n_list"] == reps[1]["n_list"] == [0, 3]
    assert all(isinstance(rep["j0"], int) for rep in reps)
    for name in ("green_half.csv", "green_whole.csv"):
        with open(os.path.join(runs[0][1], name), "rb") as fa, \
                open(os.path.join(runs[1][1], name), "rb") as fb:
            assert fa.read() == fb.read()


def test_readme_lists_every_config_key():
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    tables = [cli._EVERY_RUN, *cli._KEYS.values(), *cli._BUILTINS.values()]
    missing = {key for table in tables for key in table
               if f"`{key}`" not in readme}
    assert not missing


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


def _sha256(out, names) -> dict:
    return {name: hashlib.sha256(pathlib.Path(out, name).read_bytes())
            .hexdigest() for name in names}


# sha256 of simulate's CSVs and SVGs on the default lfr and o3 configs
# (n_list [0, 8, 32, 128], j0 = 1): a change to any stored bit of the
# Green's functions, to the rows written or to the writers shows here
SIMULATE_DIGESTS = {
    "lfr": {
        "green_half.csv":
            "6dc0ed6f2d54a9d57a8c7342bd142b965601ef8d58eab1825e20936e6af60362",
        "green_whole.csv":
            "e98196c239b8c60ee49a7a08a0fe0628594bc5f07dbb3fc406e50a02882c1573",
        "green_half.svg":
            "57e8c0ef79a7aca6311c58923495c03d949a349329fa6136e04aa15748d5da9c",
        "green_whole.svg":
            "cca73a705eb4709bc462e0388326c44dc26d9fb470efc9a9d567ad3004294272",
    },
    "o3": {
        "green_half.csv":
            "565995aba70a7cb84c10601284d378449188cc47fa682595f0a85ae5287705b3",
        "green_whole.csv":
            "f69415765c377017c4ba73995aecd1fdba9098dbcac51659afee55c181cc8dca",
        "green_half.svg":
            "1ffe3eb444aeda10439ac4d13b4fe12d2a07931f94fc1a593ede03c0580f4c39",
        "green_whole.svg":
            "548d244fc0c6973193806053331e4fbcafaa72aa178cd29a5cea1d372cee585a",
    },
}


@pytest.mark.parametrize("builtin", sorted(SIMULATE_DIGESTS))
def test_simulate_artifacts_byte_pinned(tmp_path, builtin):
    code, out = run(tmp_path, "simulate", {"scheme": {"builtin": builtin}})
    assert code == 0
    assert _sha256(out, SIMULATE_DIGESTS[builtin]) == SIMULATE_DIGESTS[builtin]


# sha256 of the CSVs and SVGs of layers (j_max 25, j0 50, n 500, j0_list
# [1, 2, 3, 4, 6, 8]) and err-map (the acceptance gate's grid, j = 1) on
# the default lfr and o3 configs: the analytic and extracted layers and
# the Err map are pinned to the bit
LAYERS_DIGESTS = {
    "lfr": {
        "layer_rc.csv":
            "25c2637062e23722f81213447e8c9591774b2ca5b7111213db2cd7f59e20cc81",
        "layer_rc.svg":
            "a280e60e031896ac51647fbe40d38826101cd3c7036e35e1f90cb04a6020b75b",
        "layer_ru.csv":
            "a49e71e5696f61fc9d9091fb3fd40106d8987d23defddb95e0640d3c63519dea",
        "layer_ru.svg":
            "a597ff1ba71089f9c2756c00f5497cf546201e68116d1666d27f931f5bd08c6d",
    },
    "o3": {
        "layer_rc.csv":
            "dc0e31e1f5f894eedfe8fc70e6e7242f746266741f72f5564653784265adc024",
        "layer_rc.svg":
            "fe47b7174b2ecfd426231c86a3d23af7b52bb4bdff4889f2a83b8c090116875d",
        "layer_ru.csv":
            "e1f3ef85e6fdc17e1599781a33af7878972622a2d759f8c092da45718014fdf3",
        "layer_ru.svg":
            "93f54ec41b8703d92d562c05627d8e3cc4a4a24bc0010530f3d96fa15509a877",
    },
}

ERR_MAP_DIGESTS = {
    "lfr": {
        "err_c0.csv":
            "7ff3f908c68e8d780fe25ec2f8c517ea567495b63ce86e7c8e7a3f2030558603",
        "err_c0.svg":
            "11108a1097d262e927dc6a6014bd61c201c6777147d00706279c91c95acd4b63",
        "err_map.csv":
            "10820b944dd0e1187de9868d8aa7c840df618dadc7a06952f90d300c494ab219",
        "err_map.svg":
            "fecadb9c2609ad986fb5d4e0308d808b4d50931003cb53ad2ae88211e02da7c4",
    },
    "o3": {
        "err_c0.csv":
            "f1fe1b97f3184bada5de5ec8190a1dad00177091c4747cd31415a45dca62171f",
        "err_c0.svg":
            "baf5191dee39c5f93b0f4c64b2743c3d293d0ce73fff331338d0018d770eb09d",
        "err_map.csv":
            "6ba7f063166f77dddc6b4f52159de537cac547397588a53ceced3a21850c666f",
        "err_map.svg":
            "398150d5829a01a39dc10300512c5b2a8dd2ec9126d78da912e7b673a98e388b",
    },
}


@pytest.mark.parametrize("builtin", sorted(LAYERS_DIGESTS))
def test_layers_artifacts_byte_pinned(tmp_path, builtin):
    code, out = run(tmp_path, "layers", {"scheme": {"builtin": builtin}})
    assert code == 0
    assert _sha256(out, LAYERS_DIGESTS[builtin]) == LAYERS_DIGESTS[builtin]


@pytest.mark.parametrize("builtin", sorted(ERR_MAP_DIGESTS))
def test_err_map_artifacts_byte_pinned(tmp_path, builtin):
    code, out = run(tmp_path, "err-map", {"scheme": {"builtin": builtin}})
    assert code == 0
    assert _sha256(out, ERR_MAP_DIGESTS[builtin]) == ERR_MAP_DIGESTS[builtin]


# sha256 of the CSVs and SVGs of check (the sweep and the symbol curve),
# growth (J_list [125, 250, 500, 1000], n_max 2000, q inf and 2) and
# oracle (n_max 50, j0 in [1, 5, 10, 20, 30], j in [1, 3, 7, 15, 30], r0
# in [0.02, 0.05, 0.2]) on the default lfr and o3 configs
DEFAULT_DIGESTS = {
    ("check", "lfr"): {
        "check_lopatinskii.csv":
            "8e946dda64ef3e38fd7584b1f57c8e5c34a38b8a98db2eff8e4822a70385ecb0",
        "check_lopatinskii.svg":
            "f72b2e4c45fc2fc5da54561289aece29be89aa71dc803acfd1aa9f9b5e7c4a19",
        "check_symbol.csv":
            "2ea0a00308539218118775aafaff6482ec8c865562b3a0d930351895ae4ef615",
        "check_symbol.svg":
            "24b7f04b5f7a40a0e437596dba62c50b177a3de3c499af0ad19f991b279346cf",
    },
    ("check", "o3"): {
        "check_lopatinskii.csv":
            "98b3ca2ed220bc7cd04effcc9eabb695f82645f0edb9f29da87abfd9c90e899a",
        "check_lopatinskii.svg":
            "ef502e484eacd88833913cda2c926c7898a88dcf4982276dfe39e1667a33df5d",
        "check_symbol.csv":
            "34b3961b61fbae4cee28cc8404e48cb29e45aae8ff1d5001cc957b2d2c0b9549",
        "check_symbol.svg":
            "176d4e253df48babeb19dab2fa7bc4f58fcc981be8bb6b6e76416167dd15ca61",
    },
    ("growth", "lfr"): {
        "growth_q2.csv":
            "c361dcb496e6cc10bbb0941aa1fc9e6cb729f76e2ddf77dcc75f18481e2d5a9d",
        "growth_q2.svg":
            "af42a804441d7eba4ad29873f12ccd768d942f8e334dc53628d1cb95a851ad3a",
        "growth_qinf.csv":
            "5f516cc0f79666af899e81ee4459b250099174256afb182b5ee5b25f917651dc",
        "growth_qinf.svg":
            "669fc16217467038901494a5200db0d822ab46afd2f767d7dbe632c7b26191b8",
    },
    ("growth", "o3"): {
        "growth_q2.csv":
            "83387a73a708411a115f87faeb9f30a87838160089ce26f0b5580e319963250b",
        "growth_q2.svg":
            "bc7cf87f6ac6062a1c6bd47e174628b059270672ceaa427a9dbf6c3e0384e600",
        "growth_qinf.csv":
            "9e019c1771cd50df7d664fdf24d9439464cace718bf10081c227d47abf91124d",
        "growth_qinf.svg":
            "bba7810a87f6a5b742da2b8478472819e2113f3ee03bfcb3a56a0f14d0e86781",
    },
    ("oracle", "lfr"): {
        "oracle.csv":
            "35e43f331258790504f5889d47f7de6ab89ef8ce9672be6467670749c9e6b85e",
        "oracle_err.svg":
            "04e58397514b2a818584b0d409b7b59709173cc5c4a1fdcb834732cc9c457efb",
    },
    ("oracle", "o3"): {
        "oracle.csv":
            "e3d1da9e57ff4740cb86265142e587fd64df3aa8da56b2e1b1f776198a58d14d",
        "oracle_err.svg":
            "b4b53b1a2853c6668b52ae417b72b0eb6504a93c461cbe1e4fb3fdf0ffb87a09",
    },
}


@pytest.mark.parametrize("command, builtin", sorted(DEFAULT_DIGESTS))
def test_default_artifacts_byte_pinned(tmp_path, command, builtin):
    code, out = run(tmp_path, command, {"scheme": {"builtin": builtin}})
    assert code == 0
    want = DEFAULT_DIGESTS[command, builtin]
    assert _sha256(out, want) == want


def test_simulate_half_norms_are_interior(tmp_path):
    # the ghost u_0 = b u_1 = 5 u_1 of the default lfr is no cell of the
    # half line: sup and l1 are over j >= 1
    code, out = run(tmp_path, "simulate", {"scheme": {"builtin": "lfr"},
                                           "n_list": [0, 8]})
    assert code == 0
    snaps = read_json(out, "report.json")["snapshots"]
    assert snaps["0"]["half_sup"] == snaps["0"]["half_l1"] == 1.0
    assert snaps["8"]["half_sup"] == pytest.approx(0.80376780033111572,
                                                   rel=1e-15)
    with open(os.path.join(out, "green_half.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().split()[1:]]
    # the ghost rows are still written
    assert ["0", "0", "5"] in rows
    assert max(abs(float(v)) for n, j, v in rows if n == "8" and
               int(j) >= 1) == snaps["8"]["half_sup"]


def test_simulate_keeps_the_ghosts_and_u1_of_a_zero_snapshot(tmp_path,
                                                            monkeypatch):
    # a snapshot ends at its last nonzero cell, but never below u_1
    monkeypatch.setattr(cli, "temporal_green_sweep", lambda scheme, ns, j0s,
                        js: np.zeros((len(ns), len(j0s), len(js))))
    code, out = run(tmp_path, "simulate", {"scheme": _LFR, "n_list": [0, 3]})
    assert code == 0
    with open(os.path.join(out, "green_half.csv"), encoding="utf-8") as fh:
        assert fh.read().split()[1:] == ["0,0,0", "0,1,0", "3,0,0", "3,1,0"]


def test_unsettled_gaussian_quadrature_exits_1(tmp_path, capsys,
                                              monkeypatch):
    # a node cap at the first node count leaves no room to settle: the
    # typed QuadratureError of the profile quadrature is a numeric error
    monkeypatch.setattr(gaussian, "_NODE_CAP", 2048)
    doc = {"scheme": {"builtin": "lfr"}, "j_max": 6, "j0": 20, "n": 100,
           "j0_list": [1, 2]}
    code, _ = run(tmp_path, "layers", doc)
    assert code == 1
    assert "did not settle" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only, so starting the CLI does not load it;
    # the import is silent, even with every warning turned into an error
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys, halflab.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert out.stderr == ""


def test_every_export_resolves():
    # a name left in an __all__ after its definition is gone fails only at
    # `from ... import *`: check the package's list and each submodule's
    import halflab
    modules = [halflab] + [importlib.import_module(f"halflab.{m.name}")
                           for m in pkgutil.iter_modules(halflab.__path__)]
    assert len(modules) > 5 and all(hasattr(m, "__all__") for m in modules)
    stale = [f"{m.__name__}.{name}" for m in modules for name in m.__all__
             if not hasattr(m, name)]
    assert not stale


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


def test_layers_source_cells_below_one_are_config_errors(tmp_path, capsys):
    # a j0 below 1 would read the transmitted layer's row j0 - 1 from the end
    doc = {"scheme": {"builtin": "o3"}, "j0_list": [-1, 0, 3, 8]}
    code, out = run(tmp_path, "layers", doc)
    assert code == 1
    assert "config error at j0_list" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "layer_ru.csv"))


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


def test_growth_sizes_below_one_are_config_errors(tmp_path, capsys):
    # J = 0 would divide a zero norm by a zero norm and end in a misleading
    # fit-window error
    doc = {"scheme": {"builtin": "lfr"}, "J_list": [0, 125], "n_max": 300}
    code, out = run(tmp_path, "growth", doc)
    assert code == 1
    assert "config error at J_list" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "growth_qinf.csv"))
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("key, extra", [
    # a norm exponent below 1, and one that no comparison admits
    ("q_list", {"q_list": [0.5]}),
    ("q_list", {"q_list": [float("nan")]}),
    # a fit window past the last recorded time
    ("fit_lo", {"fit_lo": 60}),
    ("fit_hi", {"fit_lo": 10, "fit_hi": 80}),
])
def test_growth_bad_exponent_or_fit_window_is_config_error(tmp_path, capsys,
                                                           key, extra):
    doc = {"scheme": {"builtin": "lfr"}, "n_max": 50, "J_list": [5], **extra}
    code, out = run(tmp_path, "growth", doc)
    assert code == 1
    assert f"config error at {key}" in capsys.readouterr().err
    assert not os.path.isdir(out) or not [
        f for f in os.listdir(out) if f.startswith("growth_")]


def test_unwritable_output_exits_1(tmp_path, capsys):
    # a regular file where the output directory should go
    cfg = write_cfg(tmp_path, {"scheme": {"builtin": "lfr"}})
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main(["check", "--config", cfg, "--out", str(blocker)])
    assert code == 1
    assert "halflab: cannot write output: " in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_unwritable_artifact_exits_1(tmp_path, capsys):
    # a directory where an artifact file should go
    out = tmp_path / "out"
    (out / "check_symbol.csv").mkdir(parents=True)
    code, _ = run(tmp_path, "check", {"scheme": {"builtin": "lfr"}})
    assert code == 1
    assert "halflab: cannot write output: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


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


@pytest.mark.parametrize("key, grid", [("j_list", [-1, 3]),
                                       ("j0_list", [0, 2])])
def test_oracle_cells_off_the_domain_are_config_errors(tmp_path, capsys, key,
                                                       grid):
    # lfr has one ghost cell, so j = 0 is on the domain and j = -1 is not
    doc = {"scheme": {"builtin": "lfr"}, "n_max": 4, "j0_list": [1, 2],
           "j_list": [0, 3], "r0_list": [0.05], key: grid}
    code, out = run(tmp_path, "oracle", doc)
    assert code == 1
    assert f"config error at {key}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_report_tolerances_are_the_applied_constants(tmp_path):
    docs = [{"scheme": {"builtin": "lfr"}}, {"scheme": {"builtin": "o3"}},
            {"scheme": {"builtin": "lfr", "b": 1.0 / KS2},
             "radii": [1.0, 1.05, 1.25, 2.0, 2.5]}]
    for i, doc in enumerate(docs):
        _, out = run(tmp_path, "check", doc, out=f"out{i}")
        rep = read_json(out, "report.json")
        tol = rep["tolerances"]
        assert tol == {"hyp1_series_radius": scheme._SERIES_RADIUS,
                       "hyp2_zero_tol": spectral._SWEEP_ZERO_TOL,
                       "boundary_zero_tol": spectral._BOUNDARY_ZERO_TOL,
                       "csv_format": cli._FLOAT_FORMAT}
        # the verdict's tests, redone from the report with its numbers: the
        # cut point t = hyp1_series_radius is a candidate of the margin
        a = np.array(rep["scheme"]["a"])
        r = rep["scheme"]["r"]
        cut = complex(np.exp(1j * tol["hyp1_series_radius"]))
        f_cut = sum(ak * cut ** (k - r) for k, ak in enumerate(a))
        assert rep["hypothesis_one"]["dissipativity_margin"] <= \
            1.0 - abs(f_cut) + 1e-15
        h2 = rep["hypothesis_two"]
        assert h2["boundary_zero"] == (
            abs(complex(*h2["delta_at_one"])) < tol["boundary_zero_tol"])
        assert h2["satisfied"] == (h2["min_modulus"] >= tol["hyp2_zero_tol"])
    # the last config puts a Lopatinskii zero on the sweep
    assert h2["satisfied"] is False


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
        _count_calls(monkeypatch, calls, name, _kernels, name,
                     lambda *args: args[-1])
    for name in ("temporal_green_sweep", "temporal_green_whole_sweep"):
        _count_calls(monkeypatch, calls, name, layers, name)
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
    # one half-line and one whole-line sweep recorded at n and 2n, each
    # advancing 2n steps in all (one run per n took 3n), chunk by chunk
    for sweep, kernel in (("temporal_green_sweep", "evolve_half"),
                          ("temporal_green_whole_sweep", "evolve_whole")):
        assert tags.count(sweep) == 1
        assert sum(s for tag, s in calls if tag == kernel) == 2 * n


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


def test_traced_run_counts_kernel_work(tmp_path, monkeypatch):
    # the tracer's work counters take the kernel's arguments, so a kernel
    # signature that drifts from them fails here, not in a traced pass
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "perfbench"))
    import tracing
    doc = {"scheme": {"builtin": "lfr"}, "n_list": [0, 2, 5], "j0": 1}
    with tracing.installed(tracing.Recorder()) as rec:
        code, _ = run(tmp_path, "simulate", doc)
    assert code == 0
    kernel = rec.totals()["evolution.kernel"]
    assert kernel["calls"] > 0
    assert kernel["cells"] > 0 and kernel["flops"] > 0


def _fmt_cell(v) -> str:
    # the per-cell formatter the CSV writer must agree with byte for byte
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def test_csv_matches_per_cell_format(tmp_path, monkeypatch):
    # a chunk of 3 rows puts the 10 rows in four chunks, the last one short
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    floats = [0.1, -0.0, math.nan, math.inf, -math.inf, 1e-310, 2.0 ** 60,
              1.0 / 3.0, float(np.float32(0.1)), -7.0]
    ints = [-3, 7, 0, 1, 2, 127, -128, 5, 9, 100]
    columns = [
        [True, False] * 5,
        np.array([False, True] * 5, dtype=np.bool_),
        *[np.array(ints, dtype=t) for t in (np.int8, np.int16, np.int32,
                                            np.int64)],
        *[np.abs(ints).astype(t) for t in (np.uint8, np.uint16, np.uint32,
                                           np.uint64)],
        ints[:-1] + [2 ** 60],
        np.array(ints[:-1] + [2 ** 60]),
        floats,
        np.array(floats),
        np.array(floats, dtype=np.float32),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    path = cli._csv(str(tmp_path), "t.csv", header, columns)
    want = ",".join(header) + "\n" + "".join(
        ",".join(_fmt_cell(c[i]) for c in columns) + "\n" for i in range(10))
    with open(path, "rb") as fh:
        assert fh.read() == want.encode("utf-8")


@pytest.mark.parametrize("column", [np.array([1, "a"], dtype=object),
                                    np.array([1j, 2.0]), [1.0, None]],
                         ids=["object", "complex", "list-with-None"])
def test_csv_refuses_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="cannot write"):
        cli._csv(str(tmp_path), "t.csv", ("a", "b"), ([1, 2], column))


def test_csv_refuses_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        cli._csv(str(tmp_path), "t.csv", ("a", "b"), ([1, 2], [1.0]))


def test_log_axis_without_power_of_ten_labels_values(tmp_path):
    # a log axis over [1.03, 1.17] holds no power of ten: its evenly spaced
    # ticks are labelled with the values there, not with their log10
    path = tmp_path / "log.svg"
    xs = np.arange(1.0, 9.0)
    svg.line_chart(str(path), [("ratio", xs, np.linspace(1.03, 1.17, 8))],
                   logy=True)
    labels = [float(t.text) for t in ET.parse(path).iter()
              if t.tag.endswith("text") and t.get("text-anchor") == "end"]
    lo, hi = (10.0 ** v for v in svg._axis_range(1.03, 1.17, True))
    assert len(labels) == 5
    assert all(lo * (1 - 1e-5) <= v <= hi * (1 + 1e-5) for v in labels)


def test_log_axis_labels_at_most_ten_powers(tmp_path):
    # padded, 1e-14..1e303 holds 348 powers of ten: every 35th is labelled,
    # 10 in all; an axis of 8 powers keeps every one
    path = tmp_path / "log.svg"
    for lo, hi in ((-14, 303), (-7, 0)):
        svg.line_chart(str(path), [("a", [1.0, 2.0],
                                    [10.0 ** lo, 10.0 ** hi])], logy=True)
        powers = [int(t.text[2:]) for t in ET.parse(path).iter()
                  if t.tag.endswith("text") and t.get("text-anchor") == "end"]
        y_lo, y_hi = svg._axis_range(10.0 ** lo, 10.0 ** hi, True)
        assert 1 <= len(powers) <= 10
        assert all(y_lo <= p <= y_hi for p in powers)
        assert len(set(np.diff(powers))) <= 1
    assert powers == list(range(-7, 1))


def _pinned_pages(out):
    """A log-log line chart (a title, both axis labels, three labelled
    series with a NaN point and a non-positive one, within 10 decades) and
    a 4 x 21 heatmap with a NaN cell, written to out."""
    n = np.arange(1.0, 33.0)
    half, inverse = np.sqrt(n), 1.0 / n
    half[4], inverse[9] = math.nan, 0.0
    svg.line_chart(str(out / "chart.svg"),
                   [("n^1/2", n, half), ("n/8", n, n / 8.0),
                    ("1/n", n, inverse)],
                   title="three series", xlabel="n", ylabel="ratio",
                   logx=True, logy=True)
    heat = (np.arange(84.0).reshape(4, 21) * 37.0 % 101.0 / 101.0
            * np.array([[1.0], [0.1], [0.01], [1e-3]]))
    heat[2, 7] = math.nan
    svg.heatmap(str(out / "heat.svg"), np.arange(50, 155, 5),
                [250, 500, 1000, 2000], heat, title="scaled error",
                xlabel="j0", ylabel="n")


# sha256 of the pages _pinned_pages writes: the frame, ticks, labels,
# legends and heatmap cells, beyond the polyline points checked above.  A
# change that moves them on purpose says so and pins the new digests
_PINNED_PAGES = {
    "chart.svg":
        "081f3eca0a71164b95cbd4ee58944b8604d4332cf8667c13059a4f3a017bd134",
    "heat.svg":
        "093a642ef649be02a0cf5ce84573bd845cdab644c2e9be1cfcb27343523232c4",
}


def test_whole_pages_keep_their_bytes(tmp_path):
    _pinned_pages(tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in _PINNED_PAGES} == _PINNED_PAGES


def _polylines_per_point(series, logx, logy):
    """The point lists line_chart must write, from its axis ranges and the
    per-point loop it once ran: drop a point that is not finite or not
    positive on a log axis, map each coordinate alone, format by _fmt."""
    def transform(v, lo, hi, out_lo, out_hi, log):
        t = (math.log10(v) if log else v)
        frac = (t - lo) / (hi - lo)
        return out_lo + frac * (out_hi - out_lo)

    width, height = svg._LINE_SIZE
    xs_all = svg._finite(np.concatenate([s[1] for s in series]))
    ys_all = svg._finite(np.concatenate([s[2] for s in series]))
    xs_all = xs_all[xs_all > 0] if logx else xs_all
    ys_all = ys_all[ys_all > 0] if logy else ys_all
    if xs_all.size == 0 or ys_all.size == 0:
        return None
    x_lo, x_hi = svg._axis_range(float(xs_all.min()), float(xs_all.max()),
                                 logx)
    y_lo, y_hi = svg._axis_range(float(ys_all.min()), float(ys_all.max()),
                                 logy)
    px_lo, px_hi = svg._MARGIN_L, width - svg._MARGIN_R
    py_lo, py_hi = height - svg._MARGIN_B, svg._MARGIN_T
    lines = []
    for _, xs, ys in series:
        pts = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            px = transform(x, x_lo, x_hi, px_lo, px_hi, logx)
            py = transform(y, y_lo, y_hi, py_lo, py_hi, logy)
            pts.append("%s,%s" % (svg._fmt(px), svg._fmt(py)))
        if pts:
            lines.append(" ".join(pts))
    return lines


# finite values below 2^52 in size, where lo + 1.0 > lo and a one-value
# axis keeps its unit width; zeros of both signs, subnormals, the
# non-finite values and non-positive ones (on a log axis) among them
_COORD = st.one_of(st.floats(-1e15, 1e15), st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310,
                                    math.nan, math.inf, -math.inf]))


@st.composite
def _chart_series(draw):
    series = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 12))
        xs = draw(st.lists(_COORD, min_size=n, max_size=n))
        ys = draw(st.lists(_COORD, min_size=n, max_size=n))
        series.append((f"s{k}", np.array(xs), np.array(ys)))
    return series


@settings(max_examples=300)
@given(series=_chart_series(), logx=st.booleans(), logy=st.booleans())
def test_line_chart_polylines_match_per_point_reference(tmp_path_factory,
                                                         series, logx, logy):
    path = tmp_path_factory.mktemp("svg") / "chart.svg"
    want = _polylines_per_point(series, logx, logy)
    if want is None:
        with pytest.raises(ValueError, match="nothing finite"):
            svg.line_chart(str(path), series, logx=logx, logy=logy)
        return
    svg.line_chart(str(path), series, logx=logx, logy=logy)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert got == want


_BIG = float(np.finfo(float).max)


@pytest.mark.parametrize("a, b, log", [
    pytest.param(v, v, False, id=str(v))
    for v in (2.0 ** 53, -2.0 ** 53, 1.7e308, -1.7e308, _BIG)] + [
    pytest.param(-1.7e308, 1.7e308, False, id="-1.7e+308..1.7e+308"),
    pytest.param(-_BIG, _BIG, False, id="-max..max"),
    pytest.param(5.067298351231424e307, _BIG, False, id="5.07e+307..max"),
    pytest.param(1.5e308, _BIG, True, id="log-1.5e+308..max")])
def test_one_value_axes_past_unit_spacing(tmp_path, a, b, log):
    # where v + 1.0 rounds back to v, a one-value axis once had zero width:
    # line_chart divided by it (ZeroDivisionError) and heatmap coloured NaN.
    # Where b - a overflows, heatmap raised on a NaN colour and line_chart
    # wrote NaN points and ticks.  On the 5.07e+307 axis the padded width
    # is finite, but lo + 4 * ((hi - lo) / 4) rounds past the largest
    # float.  The log axis holds no power of ten and its padded top is past
    # log10 of the largest float, so 10^t of its top tick overflows
    if a == b:
        lo, hi = svg._widen(a, b)
        assert lo <= a <= hi and 0.0 < hi - lo < math.inf
    path = tmp_path / "chart.svg"
    for xs, ys in (([1.0, 2.0], [a, b]), ([a, b], [1.0, 2.0]), ([a], [b])):
        svg.line_chart(str(path), [("a", xs, ys)], logx=log, logy=log)
        page = path.read_text()
        (points,) = re.findall(r'<polyline points="([^"]*)"', page)
        coords = [float(c) for pt in points.split() for c in pt.split(",")]
        assert len(coords) == 2 * len(xs) and all(map(math.isfinite, coords))
        assert "nan" not in page and "inf" not in page
        ET.parse(path)
    path = tmp_path / "heat.svg"
    svg.heatmap(str(path), [1.0, 2.0], [1.0, 2.0, 3.0],
                np.resize([a, b], (3, 2)))
    fills = [e.get("fill") for e in ET.parse(path).iter()
             if e.tag.endswith("rect") and e.get("width") != "720"]
    assert len(fills) == 6 + 64
    assert all(re.fullmatch("#[0-9a-f]{6}", f) for f in fills)
    if a < b:
        assert fills[:2] == [svg._heat_color(0.0), svg._heat_color(1.0)]


@given(v=st.floats(allow_nan=False, allow_infinity=False),
       w=st.floats(allow_nan=False, allow_infinity=False))
def test_widen_moves_only_ranges_past_unit_spacing(v, w):
    # the rule both charts share: a range of nonzero width stays, a
    # one-value range keeps its unit width wherever v + 1.0 > v
    lo, hi = min(v, w), max(v, w)
    if lo < hi:
        assert svg._widen(lo, hi) == (lo, hi)
    elif v + 1.0 != v:
        assert svg._widen(v, v) == (v, v + 1.0)
    else:
        assert abs(v) >= 2.0 ** 53


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    # the parser main builds on its first call serves every later call in
    # the process; each call must still behave as with a fresh parser, and
    # no value of one call may leak into the next
    monkeypatch.setattr(cli, "_PARSER", None)
    assert main(["check"]) == 1
    assert "--config" in capsys.readouterr().err
    parser = cli._PARSER
    assert parser is not None
    assert main(["--help"]) == 0
    assert "halflab" in capsys.readouterr().out
    cfg = write_cfg(tmp_path, {"scheme": {"builtin": "lfr"},
                               "out": str(tmp_path / "from_config")})
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "from_flag")]) == 0
    # without --out the config's directory is used, not the last flag's
    assert main(["check", "--config", cfg]) == 0
    assert VERDICT_LFR in capsys.readouterr().out
    for out in ("from_flag", "from_config"):
        assert (tmp_path / out / "report.json").exists()
    assert main(["frobnicate", "--config", cfg]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert cli._PARSER is parser
