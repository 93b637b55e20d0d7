"""The scripts under benchmarks/ import the names they time from halflab;
loading each one (their work sits behind a __main__ guard) makes a rename
in the package fail here instead of breaking a script unnoticed."""

import importlib.util
import os
import pathlib

import pytest

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
