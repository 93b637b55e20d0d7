"""SHA-256 digests of every artifact the seed-7 benchmark jobs write.

Each job of the `paper`, `oracle` and `scan` job lists that
`perfbench/workloads.py` builds for seed 7 runs through `halflab.cli.main`
in a temporary directory, and the script prints one JSON object mapping
"<workload>/<job>/<file>" to the sha256 of that file.  report.json is
hashed without its `runtime_seconds`, the one value that changes from run
to run.  Two maps from two checkouts then show which artifacts a change
alters.

Run:  PYTHONPATH=src python3 benchmarks/artifact_digest.py > digests.json
      PYTHONPATH=src python3 benchmarks/artifact_digest.py --keep DIR
      PYTHONPATH=src python3 benchmarks/artifact_digest.py --compare A B
      PYTHONPATH=src python3 benchmarks/artifact_digest.py --values A B
      PYTHONPATH=src python3 benchmarks/artifact_digest.py --manifest \
          > tests/artifact_manifest.json
(--keep also writes the artifacts to DIR/<workload>/<job>/<file>;
--manifest prints the digests with each job's exit code and report.json
verdict, the manifest `tests/test_artifacts.py` checks every job against;
--compare prints the keys whose digests differ or that one map lacks;
--values reads two kept trees and prints, for each CSV column that differs,
the changed cells and their largest absolute and relative change, each
report.json field that differs but `runtime_seconds`, and every other file
that differs or that one tree lacks.  BLAS is pinned to 1 thread unless the
environment sets it)
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from halflab.cli import main as cli_main  # noqa: E402

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("paper", "oracle", "scan")
SEED = 7


def _report(path: pathlib.Path) -> dict:
    doc = json.loads(path.read_bytes())
    doc.pop("runtime_seconds", None)
    return doc


def _digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = json.dumps(_report(path), indent=2,
                          sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _files(root: pathlib.Path) -> dict:
    """{"<workload>/<job>/<file>": path} over a tree of artifacts."""
    return {p.relative_to(root).as_posix(): p
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_jobs(root: pathlib.Path) -> dict:
    """Runs every seed-7 job, its artifacts in root/<workload>/<job>/, and
    returns {"<workload>/<job>": exit code}."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for job in workloads.build(workload, SEED):
                cfg = pathlib.Path(tmp, f"{workload}-{job.name}.json")
                cfg.write_text(json.dumps(job.config), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[f"{workload}/{job.name}"] = cli_main(
                        [job.command, "--config", str(cfg), "--out",
                         str(root / workload / job.name)])
    return codes


def manifest(root: pathlib.Path) -> dict:
    """The digests of every seed-7 artifact ("digests"), and each job's
    exit code ("exit_codes") and report.json verdict ("verdicts"), from
    the jobs run in root."""
    codes = run_jobs(root)
    return {"digests": {k: _digest(p) for k, p in _files(root).items()},
            "exit_codes": codes,
            "verdicts": {job: _report(root / job / "report.json")["verdict"]
                         for job in codes}}


def digests(keep=None) -> dict:
    """{"<workload>/<job>/<file>": sha256} over every seed-7 job; the
    artifacts stay in the directory keep when it is given."""
    with tempfile.TemporaryDirectory() as tmp:
        return manifest(pathlib.Path(keep or tmp))["digests"]


def compare(a: dict, b: dict) -> list:
    """The keys whose digests differ, or that only one map has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _column_changes(a: list, b: list):
    """(changed cells, largest absolute change, largest relative change)
    between two columns of numeric CSV cells; a change that is not a
    difference of finite numbers counts as infinite."""
    changed, top_abs, top_rel = 0, 0.0, 0.0
    for x, y in zip(a, b):
        if x != y:
            u, v = float(x), float(y)
            diff = abs(u - v) if math.isfinite(u - v) else math.inf
            changed += 1
            top_abs = max(top_abs, diff)
            top_rel = max(top_rel, diff / abs(u) if u else
                          math.inf if diff else 0.0)
    return changed, top_abs, top_rel


def _csv_lines(key: str, a: pathlib.Path, b: pathlib.Path) -> list:
    rows_a, rows_b = (list(csv.reader(p.read_text(
        encoding="utf-8").splitlines())) for p in (a, b))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] \
            or len(rows_a) != len(rows_b):
        return [f"{key}: header or row count differs "
                f"({len(rows_a) - 1} and {len(rows_b) - 1} rows)"]
    lines = []
    for i, name in enumerate(rows_a[0]):
        changed, top_abs, top_rel = _column_changes(
            [r[i] for r in rows_a[1:]], [r[i] for r in rows_b[1:]])
        if changed:
            lines.append(f"{key} {name}: {changed} of {len(rows_a) - 1} "
                         f"cells, max abs {top_abs:.3g}, "
                         f"max rel {top_rel:.3g}")
    return lines


def _fields(doc, prefix=""):
    """{"a.b.c": value} over the leaves of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    out = {}
    for k, v in items:
        out.update(_fields(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _report_lines(key: str, a: pathlib.Path, b: pathlib.Path) -> list:
    fa, fb = _fields(_report(a)), _fields(_report(b))

    def show(fields, name):
        return repr(fields[name]) if name in fields else "absent"

    return [f"{key} {name}: {show(fa, name)} -> {show(fb, name)}"
            for name in sorted(fa.keys() | fb.keys())
            if name not in fa or name not in fb or fa[name] != fb[name]]


def values(a_root: pathlib.Path, b_root: pathlib.Path) -> list:
    """One line per difference between two kept trees: per CSV column, per
    report.json field, per other file that differs or one tree lacks."""
    a, b = _files(a_root), _files(b_root)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {a_root if key in a else b_root}")
        elif _digest(a[key]) == _digest(b[key]):
            continue
        elif key.endswith(".csv"):
            lines.extend(_csv_lines(key, a[key], b[key]))
        elif key.endswith("/report.json"):
            lines.extend(_report_lines(key, a[key], b[key]))
        else:
            lines.append(f"{key}: differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", metavar="DIR",
                      help="also write the artifacts to DIR")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two digest maps to compare")
    mode.add_argument("--values", nargs=2, metavar=("A", "B"),
                      help="two kept artifact trees to compare by value")
    mode.add_argument("--manifest", action="store_true",
                      help="also print each job's exit code and verdict")
    args = parser.parse_args(argv)
    if args.compare or args.values:
        if args.compare:
            a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
                    for p in args.compare)
            diff = compare(a, b)
        else:
            diff = values(*map(pathlib.Path, args.values))
        print("\n".join(diff) if diff else "no artifact differs")
        return 1 if diff else 0
    if args.manifest:
        with tempfile.TemporaryDirectory() as tmp:
            doc = manifest(pathlib.Path(tmp))
    else:
        doc = digests(args.keep)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
