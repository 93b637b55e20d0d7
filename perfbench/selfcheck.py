"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs a reduced pass of every workload, untraced and traced, and asserts:
every metric BENCHMARK.json names prints with its unit; no check fails;
corrupting the expected verdicts raises the failure count, so the gate
cannot pass vacuously; the traced runs show the workload split (no banded
solves on paper and scan, resolvent time covering most of oracle); the speed probe
does not depend on the memory the program touches, both sample by sample
and end to end (extra work injected into the program raises reference
seconds by the ratio it raises wall seconds); and run.py refuses, with no
result, in a directory holding only the benchmark.  It also runs the
inputs of the known program defects (run.py --known-defects) and prints the
checks that fail on them, without asserting on them.  Takes about three
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(workload, trace, *extra):
    code, lines, err = bench("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--reduced", *extra)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}:\n{err}")
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        raise AssertionError(f"bad counts {res['attempted']}, {res['failed']}")
    return res


def known_defect_failures(workload):
    """The failure lines of one full pass with the known-defect inputs put
    back (see workloads.py); empty once halflab is fixed."""
    code, lines, err = bench("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             "--known-defects")
    if code != 0:
        raise AssertionError(f"{workload} --known-defects exited {code}:\n"
                             f"{err}")
    prefix = "perfbench: check failed: "
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def expect_metrics(res, kind, spec):
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{kind}: printed {got}, want {want}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} value {m['value']!r}")


def expect_probe_ignores_program_memory():
    """Probe samples taken right after a 128 MB sweep, interleaved with
    samples taken with warm caches, agree within 10 %.  A probe that reads
    data of its own kept between samples fails this by a factor of
    several."""
    import statistics

    import numpy
    probe = SpeedProbe()
    big = numpy.zeros(128 * 2 ** 20 // 8)
    small = numpy.zeros(2 ** 12)
    warm, cold = [], []
    for _ in range(100):
        for buf, out in ((small, warm), (big, cold)):
            numpy.add(buf, 1.0, out=buf)
            probe._sample()
            out.append(probe.samples.pop())
    ratio = statistics.median(cold) / statistics.median(warm)
    if not 0.9 <= ratio <= 1.1:
        raise AssertionError(f"probe after a 128 MB sweep: x{ratio:.3f}")
    return ratio


def expect_injection_scales():
    """Extra work and memory injected into the program (run.py
    --inject-mb) raise reference seconds by the ratio they raise wall
    seconds, within the noise of eight or nine pairs of short passes (10 %)."""
    code, lines, err = bench("--workload", "paper", "--seed", "1",
                             "--seconds", "40", "--trace", "0", "--reduced",
                             "--inject-mb", "8")
    if code != 0:
        raise AssertionError(f"injected run exited {code}:\n{err}")
    prefix = "perfbench: injected "
    got = json.loads(next(line for line in lines
                          if line.startswith(prefix))[len(prefix):])
    wall, ref = got["wall_ratio"], got["reference_ratio"]
    if wall < 1.1:
        raise AssertionError(f"injection raised wall time only x{wall:.3f}")
    if abs(ref / wall - 1.0) > 0.1:
        raise AssertionError(f"injection: wall x{wall:.3f}, "
                             f"reference x{ref:.3f}")
    return got


def expect_refusal_without_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines, _ = bench("--workload", "scan", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError("run.py produced a result without halflab")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        plain = result(workload, 0)
        expect_metrics(plain, "end_to_end", spec)
        if not plain["correct"]:
            raise AssertionError(f"{workload}: {plain['failed']} checks fail")
        traced = result(workload, 1)
        expect_metrics(traced, "per_layer", spec)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        if workload == "oracle":
            share = (layer["resolvent.inverse_laplace_table.s"]
                     / layer["cli.oracle.s"])
            if share < 0.8:
                raise AssertionError(f"resolvent covers {share:.0%} of oracle")
        elif layer["resolvent.solve_banded.calls"] != 0:
            raise AssertionError(f"{workload} makes banded solves")
        corrupt = result(workload, 0, "--corrupt-expected")
        if corrupt["correct"] or corrupt["failed"] <= plain["failed"]:
            raise AssertionError(f"{workload}: corrupted expectations pass")
        print(f"selfcheck: {workload} ok ({plain['attempted']} checks, "
              f"{plain['failed']} failed; {corrupt['failed']} with "
              f"corrupted expectations)")
    ratio = expect_probe_ignores_program_memory()
    print(f"selfcheck: probe after a 128 MB sweep x{ratio:.3f}: ok")
    got = expect_injection_scales()
    print(f"selfcheck: injected work: wall x{got['wall_ratio']:.3f}, "
          f"reference x{got['reference_ratio']:.3f} over {got['rounds']} "
          f"rounds: ok")
    expect_refusal_without_program()
    print("selfcheck: refuses without the program: ok")
    for workload in ("paper", "scan"):
        failures = known_defect_failures(workload)
        print(f"selfcheck: {workload} with the known defects put back: "
              + ("; ".join(failures) if failures else "no check fails"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
