"""Paired end-to-end benchmark of two commits, written to BENCH_<label>.json.

Each commit is exported with `git archive` into its own directory, both
under one scratch directory, and `perfbench/run.py --trace 0` runs from
each export on every workload: k pairs of one parent and one change run,
the side that runs first swapped from pair to pair, the workloads
interleaved inside each pair.  So slow drift of the machine falls on both
sides alike.  The file records the `perfbench: env` line, with the
`PYTHONDONTWRITEBYTECODE` setting the runs inherit (`setup_s` counts
compiling when bytecode cannot be written) and the two export directories
(`peak_rss_mb` moves with their names), both commits, the seed and
seconds, every run's end-to-end metrics, `correct` and `failed`, and per
workload and metric each side's median and quartiles and the number of
pairs in which the change did better.  Metric
directions and bounds come from BENCHMARK.json.

--compare prints, for each workload and metric of a BENCH file, both
medians and quartiles, the change of the median (absolute and relative to
the parent's), the parent's IQR, the pairs won and the metric's
BENCHMARK.json bound.

Run:  python3 benchmarks/bench_record.py PARENT CHANGE --label NAME \\
          [--seed 7] [--seconds 8] [--pairs 10] [--scratch DIR]
      python3 benchmarks/bench_record.py --compare BENCH_NAME.json
(PARENT and CHANGE are commits of this repository; BENCH_NAME.json is
written at the repository root; the exports are deleted afterwards)
"""

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "oracle", "scan")
SIDES = ("parent", "change")
ENV_PREFIX = "perfbench: env "


def _spec() -> dict:
    """{metric: {"better": ..., "bound": ...}} of the end-to-end metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in doc["end_to_end"]}


def export(commit: str, dest: pathlib.Path) -> str:
    """Writes the tree of commit into dest and returns its full hash."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{commit}^{{commit}}"], capture_output=True,
                         text=True, check=True).stdout.strip()
    data = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                          capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: int) -> tuple:
    """(env, result) of one untraced perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode} in "
                           f"{checkout} on {workload}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    return env, json.loads(lines[-1])


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, spec: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs in which
    the change is strictly better.  runs holds one entry per run, with its
    "pair", "side" and "metrics" ({name: value})."""
    out = {}
    for name, meta in spec.items():
        per_side = {side: {r["pair"]: r["metrics"][name] for r in runs
                           if r["side"] == side and name in r["metrics"]}
                    for side in SIDES}
        pairs = sorted(per_side["parent"].keys() & per_side["change"].keys())
        if not pairs:
            continue
        sign = 1.0 if meta["better"] == "lower" else -1.0
        change, parent = per_side["change"], per_side["parent"]
        won = sum(1 for i in pairs if sign * (change[i] - parent[i]) < 0)
        out[name] = {**meta, "pairs": len(pairs), "change_won": won,
                     **{side: _quartiles([per_side[side][i] for i in pairs])
                        for side in SIDES}}
    return out


def record(parent: str, change: str, label: str, seed: int, seconds: int,
           pairs: int, scratch=None) -> pathlib.Path:
    """Runs the paired protocol and writes ROOT/BENCH_<label>.json."""
    spec = _spec()
    runs = {w: [] for w in WORKLOADS}
    env = None
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        dirs = {side: pathlib.Path(tmp, side) for side in SIDES}
        commits = {side: export(commit, dirs[side])
                   for side, commit in zip(SIDES, (parent, change))}
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in WORKLOADS:
                for side in order:
                    run_env, result = run_once(dirs[side], w, seed, seconds)
                    env = env or {
                        **{k: v for k, v in run_env.items() if k != "commit"},
                        "PYTHONDONTWRITEBYTECODE":
                            os.environ.get("PYTHONDONTWRITEBYTECODE"),
                        "exports": {s: str(d) for s, d in dirs.items()}}
                    runs[w].append({
                        "pair": i, "side": side, "first": side == order[0],
                        "correct": result["correct"],
                        "failed": result["failed"],
                        "metrics": {k: m["value"] for k, m
                                    in result["metrics"].items()}})
                    print(f"pair {i + 1}/{pairs} {w} {side}: "
                          + ", ".join(f"{k} {v:.4g}" for k, v
                                      in runs[w][-1]["metrics"].items()),
                          file=sys.stderr)
    doc = {"label": label, "env": env, "commits": commits, "seed": seed,
           "seconds": seconds, "pairs": pairs,
           "workloads": {w: {"summary": summarize(runs[w], spec),
                             "runs": runs[w]} for w in WORKLOADS}}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def compare_lines(doc: dict) -> list:
    """One line per workload and metric of a BENCH document, with the bound
    BENCHMARK.json gave when it was recorded."""
    lines = [f"{doc['label']}: parent {doc['commits']['parent'][:12]} -> "
             f"change {doc['commits']['change'][:12]}, seed {doc['seed']}, "
             f"{doc['seconds']} s runs, {doc['pairs']} pairs"]
    for w, body in doc["workloads"].items():
        failed = sum(r["failed"] for r in body["runs"])
        lines.append(f"{w} ({failed} failed checks over "
                     f"{len(body['runs'])} runs)")
        for name, s in body["summary"].items():
            a, b = s["parent"], s["change"]
            diff = b["median"] - a["median"]
            rel = diff / a["median"] if a["median"] else float("nan")
            lines.append(
                f"  {name:12s} parent {a['median']:.4g} "
                f"[{a['q1']:.4g}, {a['q3']:.4g}]  change {b['median']:.4g} "
                f"[{b['q1']:.4g}, {b['q3']:.4g}]  median {diff:+.4g} "
                f"({rel:+.1%}), parent IQR {a['q3'] - a['q1']:.4g}  "
                f"change better in {s['change_won']}/{s['pairs']} pairs  "
                f"(lower is {'better' if s['better'] == 'lower' else 'worse'}"
                f"; bound {s['bound']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commits", nargs="*", metavar="COMMIT",
                        help="the parent and the change commit")
    parser.add_argument("--label", help="names BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", help="directory for the two exports")
    parser.add_argument("--compare", metavar="BENCH",
                        help="print a BENCH file against the bounds")
    args = parser.parse_args(argv)
    if args.compare:
        doc = json.loads(pathlib.Path(args.compare).read_text(
            encoding="utf-8"))
        print("\n".join(compare_lines(doc)))
        return 0
    if len(args.commits) != 2 or not args.label or args.pairs < 2 \
            or args.seconds < 1:
        parser.error("give PARENT CHANGE, --label, --pairs >= 2 and "
                     "--seconds >= 1")
    path = record(*args.commits, args.label, args.seed, args.seconds,
                  args.pairs, args.scratch)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
