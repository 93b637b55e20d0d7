"""SHA-256 digests of every artifact the seed-7 benchmark jobs write.

Each job of the `paper`, `oracle` and `scan` job lists that
`perfbench/workloads.py` builds for seed 7 runs through `halflab.cli.main`
in a temporary directory, and the script prints one JSON object mapping
"<workload>/<job>/<file>" to the sha256 of that file.  report.json is
hashed without its `runtime_seconds`, the one value that changes from run
to run.  Two maps from two checkouts then show which artifacts a change
alters.

Run:  PYTHONPATH=src python3 benchmarks/artifact_digest.py > digests.json
      PYTHONPATH=src python3 benchmarks/artifact_digest.py --compare A B
(--compare prints the keys whose digests differ or that one map lacks;
BLAS is pinned to 1 thread unless the environment sets it)
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from halflab.cli import main as cli_main  # noqa: E402

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("paper", "oracle", "scan")
SEED = 7


def _digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        doc = json.loads(data)
        doc.pop("runtime_seconds", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digests() -> dict:
    """{"<workload>/<job>/<file>": sha256} over every seed-7 job."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for job in workloads.build(workload, SEED):
                base = pathlib.Path(tmp, workload, job.name)
                base.mkdir(parents=True)
                cfg = base / "config.json"
                cfg.write_text(json.dumps(job.config), encoding="utf-8")
                art = base / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli_main([job.command, "--config", str(cfg),
                              "--out", str(art)])
                for path in sorted(art.iterdir()) if art.is_dir() else ():
                    out[f"{workload}/{job.name}/{path.name}"] = _digest(path)
    return out


def compare(a: dict, b: dict) -> list:
    """The keys whose digests differ, or that only one map has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two digest maps to compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
                for p in args.compare)
        diff = compare(a, b)
        print("\n".join(diff) if diff else "no artifact differs")
        return 1 if diff else 0
    print(json.dumps(digests(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
