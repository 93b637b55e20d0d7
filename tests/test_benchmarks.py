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
