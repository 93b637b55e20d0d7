"""Every seed-7 benchmark job against the committed manifest.

The `paper`, `oracle` and `scan` job lists of `perfbench/workloads.py` run
in process through `benchmarks/artifact_digest.run_jobs`; the sha256 of
every artifact (report.json without `runtime_seconds`), each job's exit
code and each verdict must match `artifact_manifest.json`.  A change that
moves an artifact regenerates the manifest in the same commit:

    PYTHONPATH=src python3 benchmarks/artifact_digest.py --manifest \\
        > tests/artifact_manifest.json
"""

import importlib.util
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "artifact_manifest.json"


def _artifact_digest():
    path = HERE.parent / "benchmarks" / "artifact_digest.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed7_jobs_match_manifest(tmp_path, monkeypatch):
    # the script pins BLAS threads in os.environ, which does not outlive
    # the test; it loads perfbench's job lists by path, so sys.path stays
    monkeypatch.setattr(os, "environ", dict(os.environ))
    digest = _artifact_digest()
    path = list(sys.path)
    got = digest.manifest(tmp_path)
    assert sys.path == path
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    diff = [f"{part} {key}: {want[part].get(key)!r} -> "
            f"{got[part].get(key)!r}"
            for part in sorted(want)
            for key in digest.compare(want[part], got[part])]
    assert not diff, "differs from the manifest:\n" + "\n".join(diff)
    assert len(got["digests"]) == 180 and len(got["exit_codes"]) == 38
