"""Closed-loop benchmark of the halflab CLI.

    python3 perfbench/run.py --workload {paper,oracle,scan} --seed N \
        --seconds S --trace {0,1}

It finds the checkout from its own path, imports halflab from the
checkout's `src/` and refuses to run without it.  One client in this one
process calls `halflab.cli.main` for each job of the workload, back to back,
and repeats the whole job list (a pass) while another pass still fits in S
seconds; at least one pass always runs.  Every output is checked (see
workloads.py) and a failed check is counted, never raised.

--trace 0 prints the end-to-end metrics of untraced passes; their times
are in reference seconds, wall seconds corrected for the machine's current
speed by a probe sampled during the pass (speed.py).  CPU time is no
substitute: on a shared host it drifts with wall time, since the drift
comes from contention for the core and its caches, not from time the
process is descheduled.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (tracing.py), plus the overhead of tracing; the span tree
is written to .perfbench_out/trace-<workload>-seed<N>.json.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Metric names and units are those of BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS threads are pinned for every run (before numpy loads) so that runs
# compare; one is within any core count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# fresh interpreters timed per run for setup_s; one more runs first to
# write bytecode and warm the file cache
SETUP_SAMPLES = 5
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe()
with probe.sampling(0.01):
    t = time.perf_counter()
    import halflab.cli
    t = time.perf_counter() - t
print(repr(t), repr(probe.reference_seconds(t)))
"""

# wall seconds between speed-probe samples during a measured pass
PROBE_INTERVAL = 0.05

COMMANDS = ("check", "simulate", "layers", "err-map", "growth", "oracle")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(samples: int):
    """Median import time of halflab.cli in a fresh interpreter, in wall
    and in reference seconds."""
    raw, ref = [], []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"importing halflab.cli failed:\n{proc.stderr}")
        wall, scaled = proc.stdout.split()[-2:]
        raw.append(float(wall))
        ref.append(float(scaled))
    return statistics.median(raw[1:]), statistics.median(ref[1:])


def import_cli():
    if not (SRC / "halflab" / "cli.py").is_file():
        raise BenchError(f"no halflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import halflab
    import halflab.cli
    if Path(halflab.__file__).resolve().parent != SRC / "halflab":
        raise BenchError(f"halflab imported from {halflab.__file__}, "
                         f"not from {SRC}")
    return halflab.cli


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    from halflab import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _read_report(out_dir: Path):
    try:
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _invoke(main, argv, span):
    with contextlib.redirect_stdout(io.StringIO()), span:
        try:
            return main(argv)
        except Exception:
            # an uncaught error in the program fails this job's checks;
            # the run goes on
            traceback.print_exc()
            return None


def run_pass(main, jobs, configs, pass_dir: Path, recorder=None):
    """One pass over the job list: (wall seconds, CPU seconds, [seconds of
    each job], [(job, check, passed)])."""
    job_s = []
    checks = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for job, cfg in zip(jobs, configs):
        out = pass_dir / job.name
        argv = [job.command, "--config", str(cfg), "--out", str(out)]
        span = recorder.span(f"cli.{job.command}") if recorder \
            else contextlib.nullcontext()
        t = time.perf_counter()
        code = _invoke(main, argv, span)
        job_s.append(time.perf_counter() - t)
        checks.extend((job.name, label, ok) for label, ok
                      in workloads.check(job, code, _read_report(out)))
    return (time.perf_counter() - t0, time.process_time() - c0, job_s,
            checks)


# the function the injected passes wrap: halflab's hottest, called a few
# hundred times by each hypothesis sweep
INJECT_TARGET = ("halflab.spectral", "lopatinskii")


@contextlib.contextmanager
def injected(megabytes: int):
    """For the block, every call of INJECT_TARGET is followed by one write
    of each element of a `megabytes` MB array: a fixed amount of extra work
    that also sweeps that much memory through the caches, many times
    between two probe samples."""
    # numpy loads after the BLAS threads are pinned
    import numpy
    buf = numpy.zeros(megabytes * 2 ** 20 // 8)
    mod = importlib.import_module(INJECT_TARGET[0])
    orig = getattr(mod, INJECT_TARGET[1])

    def wrapper(*args, **kwargs):
        try:
            return orig(*args, **kwargs)
        finally:
            numpy.add(buf, 1.0, out=buf)
    setattr(mod, INJECT_TARGET[1], wrapper)
    try:
        yield
    finally:
        setattr(mod, INJECT_TARGET[1], orig)


def measure(main, jobs, work: Path, seconds: float, trace: bool, probe,
            inject_mb: int = 0):
    """Passes while another round fits in `seconds` (at least one round).
    A round is one untraced pass, timed in wall, CPU and reference
    seconds, followed by one traced pass if `trace`, or by one untraced
    pass with extra memory work (`injected`) if `inject_mb`.
    Returns the untraced passes, the extra passes and every check."""
    configs = []
    for i, job in enumerate(jobs):
        path = work / f"config{i:03d}.json"
        path.write_text(json.dumps(job.config), encoding="utf-8")
        configs.append(path)
    plain, extra, checks = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        with probe.sampling(PROBE_INTERVAL):
            wall, cpu, job_s, got = run_pass(main, jobs, configs,
                                             work / f"pass{rounds}-plain")
        plain.append((wall, probe.reference_seconds(wall), cpu, job_s))
        checks.extend(got)
        if trace:
            rec = tracing.Recorder()
            with tracing.installed(rec):
                wall, _, _, got = run_pass(main, jobs, configs,
                                           work / f"pass{rounds}-traced", rec)
            extra.append((wall, rec))
            checks.extend(got)
        elif inject_mb:
            with injected(inject_mb), probe.sampling(PROBE_INTERVAL):
                wall, _, _, got = run_pass(main, jobs, configs,
                                           work / f"pass{rounds}-injected")
            extra.append((wall, probe.reference_seconds(wall)))
            checks.extend(got)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return plain, extra, checks


def command_seconds(jobs, passes) -> dict:
    """Median over passes of the seconds each subcommand took in a pass."""
    commands = sorted({job.command for job in jobs})
    sums = [{c: sum(t for job, t in zip(jobs, job_s) if job.command == c)
             for c in commands} for *_, job_s in passes]
    return {c: statistics.median([s[c] for s in sums]) for c in commands}


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("calls", "cell_updates", "flops")):
        return "count"
    return "s"


def end_to_end(setup_s, plain) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median([ref for _, ref, *_ in plain]),
        # ru_maxrss is in KiB
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def injection(plain, extra) -> dict:
    """How much the injected passes rose over the untraced ones they
    alternate with, in wall and in reference seconds (medians of the
    per-round ratios)."""
    wall = [w1 / w0 for (w0, *_), (w1, _) in zip(plain, extra)]
    ref = [r1 / r0 for (_, r0, *_), (_, r1) in zip(plain, extra)]
    return {"rounds": len(extra), "wall_ratio": statistics.median(wall),
            "reference_ratio": statistics.median(ref)}


def split(values: dict) -> dict:
    """The figures behind the workload split: the share of oracle time
    spent in the contour engine, and the number of banded solves."""
    oracle = values["cli.oracle.s"]
    return {"resolvent_share_of_oracle":
            values["resolvent.inverse_laplace_table.s"] / oracle
            if oracle else None,
            "solve_banded_calls": values["resolvent.solve_banded.calls"]}


def per_layer(plain, traced, checks) -> dict:
    names = {name for name, *_ in tracing.TARGETS} | \
        {f"cli.{c}" for c in COMMANDS}
    zero = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0, "flops": 0}
            for n in names}
    per_pass = [tracing.layer_metrics({**zero, **rec.totals()})
                for _, rec in traced]
    out = {key: statistics.median([m[key] for m in per_pass])
           for key in per_pass[0]}
    out["tracing.overhead_s"] = (
        statistics.median([w for w, _ in traced])
        - statistics.median([w for w, *_ in plain]))
    out["gate.fail_frac"] = sum(1 for *_, ok in checks if not ok) / len(checks)
    return out


def _spec(kind: str):
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        return [(m["name"], m["unit"]) for m in spec[kind]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read {kind} from {path}: {exc}") from exc


def select(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists, each with its unit; a listed
    metric this run cannot produce is an error, not a silent zero."""
    out = {}
    for name, unit in _spec(kind):
        if name not in values:
            raise BenchError(f"metric {name} is not produced")
        if _unit(name) != unit:
            raise BenchError(f"metric {name} is in {_unit(name)}, "
                             f"BENCHMARK.json says {unit}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def report_failures(checks):
    failed = {}
    for job, label, ok in checks:
        if not ok:
            failed[(job, label)] = failed.get((job, label), 0) + 1
    for (job, label), n in sorted(failed.items()):
        print(f"perfbench: check failed: {job} {label} (x{n})")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by selfcheck.py only
    ap.add_argument("--reduced", action="store_true",
                    help="small job list and fewer setup samples")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="expect wrong verdicts, to show the gate fails")
    ap.add_argument("--known-defects", action="store_true",
                    help="run the inputs halflab fails today in place of "
                         "their replacements (see workloads.py)")
    ap.add_argument("--inject-mb", type=int, default=0,
                    help="alternate untraced passes with passes that sweep "
                         "this many MB after every Lopatinskii evaluation, "
                         "and print how wall and reference seconds rise")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.inject_mb and (args.trace or args.inject_mb < 0):
        ap.error("--inject-mb takes a positive size and --trace 0")
    return args


def run(args) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    _spec("end_to_end" if args.trace == 0 else "per_layer")
    cli = import_cli()
    if args.trace:
        # before any pass runs: a target that no longer resolves would
        # read as a silent zero
        try:
            tracing.resolve()
        except LookupError as exc:
            raise BenchError(str(exc)) from exc
    setup = None if args.trace else \
        measure_setup(1 if args.reduced else SETUP_SAMPLES)
    env = environment()
    print("perfbench: env " + json.dumps(env, sort_keys=True))
    jobs = workloads.build(args.workload, args.seed, args.reduced,
                           args.known_defects)
    if args.corrupt_expected:
        for job in jobs:
            job.verdict += " (corrupted)"
    probe = SpeedProbe()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plain, extra, checks = measure(cli.main, jobs, work, args.seconds,
                                       bool(args.trace), probe, args.inject_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report_failures(checks)
    print(f"perfbench: {args.workload} seed={args.seed}: {len(plain)} "
          f"untraced and {len(extra)} "
          f"{'traced' if args.trace else 'injected'} passes of {len(jobs)} "
          f"jobs")
    print("perfbench: wall seconds in cli.main per untraced pass (median): "
          + ", ".join(f"{c} {t:.3f}"
                      for c, t in command_seconds(jobs, plain).items()))
    print(f"perfbench: wall seconds, not scaled: pass "
          f"{statistics.median([w for w, *_ in plain]):.4f}"
          + ("" if setup is None else f", setup {setup[0]:.4f}")
          + f"; CPU seconds: pass "
          f"{statistics.median([c for _, _, c, _ in plain]):.4f}")
    if args.inject_mb:
        print("perfbench: injected " + json.dumps(injection(plain, extra)))
    if args.trace:
        values = per_layer(plain, extra, checks)
        print("perfbench: split " + json.dumps(split(values)))
        metrics = select(values, "per_layer")
        extra[-1][1].write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "env": env,
             "jobs": [job.name for job in jobs]})
    else:
        metrics = select(end_to_end(setup[1], plain), "end_to_end")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    failed = sum(1 for *_, ok in checks if not ok)
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
