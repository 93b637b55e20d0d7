"""The scripts under benchmarks/ import the names they time from halflab;
loading each one (their work sits behind a __main__ guard) makes a rename
in the package fail here instead of breaking a script unnoticed."""

import importlib.util
import os
import pathlib

import numpy as np
import pytest

from halflab import evolution

BENCHMARKS = sorted((pathlib.Path(__file__).parent.parent
                     / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_script_imports(path, monkeypatch):
    # a script may pin BLAS threads in os.environ when it loads
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_benchmark_scripts_are_found():
    # the parametrized test above is vacuous when the glob finds nothing
    assert BENCHMARKS


def test_bench_record_summary():
    # each side's median and quartiles over the pairs, and the pairs in
    # which the change is strictly better in the metric's direction
    path = BENCHMARKS[0].parent / "bench_record.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    rec = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rec)
    sides = [(1.0, 0.9), (1.2, 1.0), (0.8, 0.85), (1.1, 1.0), (1.0, 1.0)]
    runs = [{"pair": i, "side": side, "metrics": {"wall_s": v, "rate": v}}
            for i, pair in enumerate(sides)
            for side, v in zip(("parent", "change"), pair)]
    out = rec.summarize(runs, {"wall_s": {"better": "lower", "bound": 0.25},
                               "rate": {"better": "higher", "bound": 0.1}})
    assert out["wall_s"]["change_won"] == 3
    assert out["rate"]["change_won"] == 1
    assert out["wall_s"]["pairs"] == 5 and out["wall_s"]["bound"] == 0.25
    assert out["wall_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1}
    assert out["wall_s"]["change"] == {"median": 1.0, "q1": 0.9, "q3": 1.0}


def _load(name):
    path = BENCHMARKS[0].parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_replays_on_a_tiny_grid(monkeypatch):
    # the script's captures and replays of `_recorded` calls, run on small
    # grids: a change to `_recorded`'s signature fails here
    bench = _load("bench_kernels")
    monkeypatch.setattr(bench, "GROWTH_JS", [3, 7])
    monkeypatch.setattr(bench, "GROWTH_N", 12)
    monkeypatch.setattr(bench, "GROWTH_RECORD", [1, 2, 3, 7, 12])
    monkeypatch.setattr(bench, "SWEEPS", [
        ("half", lambda: bench.temporal_green_sweep(bench.O3, [5, 9], [3],
                                                    [1, 2])),
        ("whole", lambda: bench.temporal_green_whole_sweep(bench.O3, [9],
                                                           [-4, 0, 2]))])
    monkeypatch.setattr(bench, "CHUNKS", (4,))
    final = bench._growth_sweep("lfr")()
    assert final.shape == (7 + 12 + 1 + 1, 2)
    res, = evolution.growth_experiment(bench.LFR, [np.inf], [3, 7], 12,
                                       record=[12])
    assert np.max(np.abs(final[1:]), axis=0).tolist() == \
        [res.ratios[3][0], res.ratios[7][0]]
    rows = bench.growth_norm_rows(repeats=1)
    assert [row[0] for row in rows] == ["growth norms lfr", "growth norms o3"]
    assert all(records == 5 and same for *_, records, same in rows)
    # each route's steps: 9 in chunks of at most 4
    assert [(label, whole[2], windowed[2])
            for label, whole, windowed in bench.sweep_rows()] == \
        [("half", 9, 9), ("whole", 9, 9)]
