"""Job lists for the three workloads and the checks on their outputs.

A job is one `halflab` CLI invocation: a subcommand, the JSON config it
reads, and what the output must show.  The expectation of every job comes
from how its scheme was built (the paper's claims for the default configs,
the construction of the generated ones), never from halflab's own solvers,
so the checks are an independent second route.

Workloads (one seeded list of jobs each; a pass runs the list once):

- paper:  check, simulate, layers, err-map and growth on the default lfr
          and o3 configs, as a user reproducing the paper's figures runs
          them (o3 err-map on the acceptance gate's j0 grid).
          Evolution-bound; makes no resolvent calls.
- oracle: the inverse-Laplace oracle on the default lfr and o3 configs.
          Bound by the contour engine (banded assembly, per-node guard,
          banded solves).
- scan:   a stability-region scan of generated schemes, many short jobs,
          bound by the hypothesis checks; bypasses resolvent and almost all
          of evolution.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("paper", "oracle", "scan")

STABLE = "ℓ^q-stable for all q"
L1_ONLY = "ℓ¹-stable, ℓ^q-unstable for q>1"
UNSTABLE_PREFIX = "unstable: Lopatinskii determinant vanishes at z = "
DISSIPATIVITY_PREFIX = "hypothesis failure: dissipativity"

# the second-hypothesis sweep every scan config asks for: circles of these
# radii, sampled at this many equally spaced angles from theta = 0
SCAN_SWEEP = {"radii": [1.0, 1.05, 1.25, 2.5], "annulus_samples": 64}

# drifts of the o3 marginal pairs in the scan: even steps across ]-1, 0[
O3_MARGINAL_ALPHAS = (-0.2, -0.4, -0.6, -0.8)

# the j0 grid of the acceptance gate's error-envelope criterion: the default
# step-50 grid plus the o3 activation fronts n|alpha| of the default n_list
ERRMAP_J0_LIST = sorted(set(range(50, 1001, 50)) | {125, 250, 500, 1000})

# tolerances the paper's acceptance criteria assert
ORACLE_TOL = 1e-8          # criterion 7: contour vs time stepping, r0 spread
RC_TOL = 1e-3              # criterion 4: reflected layer at n = 500
SLOPE_TOL = 0.1            # criterion 3: lfr log-log growth slopes
TAIL_VARIATION_TOL = 0.05  # criterion 3: bounded o3 sup-norm ratios
MASS_TOL = 1e-12           # whole-line scheme conserves mass exactly
WITNESS_TOL = 1e-9


@dataclass
class Job:
    """One CLI invocation and the outcome its construction implies."""

    name: str
    command: str
    config: dict
    verdict: str
    exit_code: int = 0
    verdict_is_prefix: bool = False
    expect: dict = field(default_factory=dict)


def build(workload: str, seed: int, reduced: bool = False,
          known_defects: bool = False) -> list[Job]:
    """The seeded job list of one pass.  `reduced` is the small variant the
    harness self-check runs; it keeps every check that the cut grids keep
    meaningful.  `known_defects` puts back the inputs the workloads leave
    out because halflab gets them wrong today (see "Known defects"); their
    checks then fail."""
    rng = random.Random(seed)
    if workload == "paper":
        jobs = _paper(reduced, known_defects)
    elif workload == "oracle":
        jobs = _oracle(reduced)
    elif workload == "scan":
        jobs = _scan(rng, reduced, known_defects)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # one client, jobs back to back; the seed fixes their order
    rng.shuffle(jobs)
    return jobs


def _default(name: str) -> dict:
    return {"scheme": {"builtin": name}}


_PAPER_VERDICT = {"lfr": L1_ONLY, "o3": STABLE}

# Known defects.  halflab fails a check on two inputs today.  A workload
# must run without a failed check, so it runs the replacement named below
# instead; `known_defects` (run.py --known-defects) puts the two inputs
# back, and their checks then fail:
# - o3 err-map on the default j0 grid (50..1000 step 50), which misses the
#   activation front n|alpha| = 125 at n = 250: bound_holds is false
#   (ROADMAP item 2).  The workload runs it on ERRMAP_J0_LIST.
# - the marginal o3 pair halflab derives from alpha alone: at alpha = -0.2
#   and -0.4, b1 + b2 - 1 is about 4e-16, which skips residue_condition's
#   exact-zero shortcut and gives the l1-only verdict.  The scan passes the
#   pair of o3_marginal_pair, with b1 + b2 = 1 exactly.


def _paper(reduced: bool, known_defects: bool = False) -> list[Job]:
    commands = ("check", "simulate", "layers") if reduced else \
        ("check", "simulate", "layers", "err-map", "growth")
    jobs = []
    for scheme in ("lfr", "o3"):
        for command in commands:
            cfg = _default(scheme)
            expect = {}
            if command == "check":
                expect["boundary_zero"] = True
            elif command == "simulate":
                expect["whole_mass"] = 1.0
            elif command == "layers":
                expect["rc_sup_err_n_below"] = RC_TOL
            elif command == "err-map":
                expect["bound_holds"] = True
                if scheme == "o3" and not known_defects:
                    cfg["j0_list"] = ERRMAP_J0_LIST
            elif command == "growth" and scheme == "lfr":
                expect["slopes"] = {"qinf": 1.0, "q2": 0.5}
            elif command == "growth":
                # with the default J_list the l2 ratio decays (the indicator
                # is absorbed at the boundary), so boundedness is judged on
                # the sup-norm tail and the l2 slope must not be positive
                expect["tail_variation_below"] = {"qinf": TAIL_VARIATION_TOL}
                expect["slopes_below"] = {"q2": SLOPE_TOL}
            jobs.append(Job(f"{scheme}-{command}", command, cfg,
                            _PAPER_VERDICT[scheme], expect=expect))
    return jobs


def _oracle(reduced: bool) -> list[Job]:
    jobs = []
    for scheme in ("lfr", "o3"):
        cfg = _default(scheme)
        if reduced:
            cfg.update({"n_max": 10, "j0_list": [1, 5], "j_list": [1, 3],
                        "r0_list": [0.05, 0.2]})
        jobs.append(Job(f"{scheme}-oracle", "oracle", cfg,
                        _PAPER_VERDICT[scheme],
                        expect={"oracle_tol": ORACLE_TOL}))
    return jobs


# --- scan generator ---------------------------------------------------------

def _lfr_coeffs(alpha: float, D: float):
    return (D + alpha) / 2.0, 1.0 - D, (D - alpha) / 2.0


def _lfr_params(rng: random.Random):
    """(alpha, D) inside the dissipativity window alpha^2 < D < 1, with the
    left edge coefficient D + alpha kept away from zero."""
    alpha = rng.uniform(-0.8, -0.2)
    while True:
        D = alpha * alpha + rng.uniform(0.15, 0.85) * (1.0 - alpha * alpha)
        if abs(D + alpha) > 0.05:
            return alpha, D


def lfr_stable_root(alpha: float, D: float, z: float) -> float:
    """The root |kappa| < 1 of a_1 kappa^2 + (a_0 - z) kappa + a_{-1} = 0.

    For real z off the symbol curve with |z| >= 1 the roots split across
    the unit circle, so both are real and exactly one is inside."""
    am, a0, a1 = _lfr_coeffs(alpha, D)
    disc = cmath.sqrt((a0 - z) ** 2 - 4.0 * a1 * am)
    roots = ((z - a0 + disc) / (2.0 * a1), (z - a0 - disc) / (2.0 * a1))
    kappa = min(roots, key=abs)
    if abs(kappa) >= 1.0 or abs(kappa.imag) > 1e-12:
        raise ValueError(f"no real stable root at z = {z}")
    return kappa.real


def o3_marginal_pair(alpha: float) -> tuple[float, float]:
    """Ghost weights (b1, b2) with b1 + b2 = 1 exactly and b2 = -1/kappa_s,
    kappa_s the stable root at z = 1, so that B(1,...,1) = 0 and the stable
    trace at z = 1 is in the kernel of B.

    With kappa = 1 divided out, the characteristic equation of the o3
    interior at z = 1 is a_2 k^2 + (a_1 + a_2) k - a_{-1} = 0.  For alpha in
    ]-1, 0[, b2 > 1, so b1 = 1 - b2 is exact in floating point."""
    am = alpha * (1 + alpha) * (2 + alpha) / 6.0
    a1 = -alpha * (1 - alpha) * (2 + alpha) / 2.0
    a2 = alpha * (1 - alpha ** 2) / 6.0
    lin = a1 + a2
    disc = math.sqrt(lin * lin + 4.0 * a2 * am)
    kappa = min(((-lin + disc) / (2.0 * a2), (-lin - disc) / (2.0 * a2)),
                key=abs)
    b2 = -1.0 / kappa
    b1 = 1.0 - b2
    if not (abs(kappa) < 1.0 and b1 + b2 == 1.0 and 1.0 - b1 == b2):
        raise ValueError(f"no exact marginal o3 pair at alpha = {alpha}")
    return b1, b2


def swept_real_nodes(radii, annulus_samples: int) -> list[float]:
    """The real points z = +-rho among the sweep's nodes rho e^{2 pi i k/M}:
    -rho needs an even M.  z = 1 is left out; it lies on the symbol curve,
    where a boundary zero is the marginal case, not an eigenvalue."""
    if annulus_samples % 2:
        raise ValueError("an odd sample count has no node at theta = pi")
    return [z for rho in radii for z in (-rho, rho) if z != 1.0]


def _scan_config(scheme: dict) -> dict:
    return {"scheme": scheme, **SCAN_SWEEP}


def _lfr_job(name, alpha, D, b, command, verdict, **kw) -> Job:
    cfg = _scan_config({"builtin": "lfr", "alpha": alpha, "D": D, "b": b})
    return Job(name, command, cfg, verdict, **kw)


def _scan(rng: random.Random, reduced: bool,
          known_defects: bool = False) -> list[Job]:
    """Generated schemes, a fixed count per class so that every seed gives
    a pass of the same shape.

    - marginal lfr: b = (D - alpha)/(D + alpha) = 1/kappa_s(1) puts a simple
      Lopatinskii zero at z = 1; r = 1 and B(1,1) != 0 break the residue
      condition, so the verdict is l1-only.  Runs check and layers.
    - unstable lfr: b = 1/kappa_s(z*) with z* a real node of the swept
      circles the config asks for makes z* an eigenvalue; exit 2 with
      witness z*.
    - stable lfr: |b| < 1 keeps |1 - b kappa_s| >= 1 - |b| > 0 outside.
    - marginal o3: the pair of `o3_marginal_pair` (b1 + b2 = 1, stable
      root of z = 1 in the boundary kernel): boundary zero, residue holds
      since B(1,1) = 0.  Runs check and layers on a fixed alpha grid, the
      same for every seed, so a pass always holds the same marginal pairs.
      With `known_defects` the config names alpha only and halflab derives
      the pair itself.
    - perturbed o3: u_0 = (1 + c) u_1 - c u_2 with |c| < 1 gives
      Delta = (1 - kappa_s)(1 - c kappa_s), nonzero off the curve.
    - dissipativity failures: inline lfr coefficients with D > 1, so
      |F(-1)| = 2D - 1 > 1; exit 2 on hypothesis one.
    """
    per_class = 1 if reduced else 3
    real_nodes = swept_real_nodes(SCAN_SWEEP["radii"],
                                  SCAN_SWEEP["annulus_samples"])
    jobs = []
    for i in range(per_class):
        alpha, D = _lfr_params(rng)
        b = (D - alpha) / (D + alpha)
        for command in ("check", "layers"):
            expect = {"boundary_zero": True} if command == "check" else \
                {"rc_sup_err_n_below": RC_TOL}
            jobs.append(_lfr_job(f"lfr-marginal{i}-{command}", alpha, D, b,
                                 command, L1_ONLY, expect=expect))
    for i in range(per_class):
        alpha, D = _lfr_params(rng)
        z = rng.choice(real_nodes)
        b = 1.0 / lfr_stable_root(alpha, D, z)
        jobs.append(_lfr_job(f"lfr-unstable{i}-check", alpha, D, b, "check",
                             UNSTABLE_PREFIX, exit_code=2,
                             verdict_is_prefix=True,
                             expect={"boundary_zero": False, "witness": z}))
    for i in range(per_class):
        alpha, D = _lfr_params(rng)
        jobs.append(_lfr_job(f"lfr-stable{i}-check", alpha, D,
                             rng.uniform(-0.9, 0.9), "check", STABLE,
                             expect={"boundary_zero": False}))
    for alpha in O3_MARGINAL_ALPHAS:
        scheme = {"builtin": "o3", "alpha": alpha}
        if not known_defects:
            scheme["b1"], scheme["b2"] = o3_marginal_pair(alpha)
        cfg = _scan_config(scheme)
        jobs.append(Job(f"o3-marginal{alpha}-check", "check", cfg, STABLE,
                        expect={"boundary_zero": True}))
        jobs.append(Job(f"o3-marginal{alpha}-layers", "layers", cfg, STABLE,
                        expect={"rc_sup_err_n_below": RC_TOL}))
    for i in range(per_class):
        c = rng.uniform(-0.9, 0.9)
        cfg = _scan_config({"builtin": "o3",
                            "alpha": rng.uniform(-0.8, -0.2),
                            "b1": 1.0 + c, "b2": -c})
        jobs.append(Job(f"o3-perturbed{i}-check", "check", cfg, STABLE,
                        expect={"boundary_zero": False}))
    for i in range(per_class):
        alpha = Fraction(-rng.randint(4, 16), 20)
        D = 1 + Fraction(rng.randint(1, 9), 20)
        a = [str((D + alpha) / 2), str(1 - D), str((D - alpha) / 2)]
        b = str(Fraction(rng.randint(-9, 9), 10))
        cfg = _scan_config({"inline": {"r": 1, "p": 1, "a": a, "p_b": 1,
                                       "b": [[b]], "name": f"lfr-D{D}"}})
        jobs.append(Job(f"dissipativity{i}-check", "check", cfg,
                        DISSIPATIVITY_PREFIX, exit_code=2,
                        verdict_is_prefix=True))
    return jobs


# --- checks -----------------------------------------------------------------

def check(job: Job, exit_code, report: dict | None) -> list[tuple[str, bool]]:
    """Every check on one job's outcome as (label, passed).  A job that
    raised, exited with the wrong code or left no report fails the checks
    it could not reach instead of stopping the run."""
    results = [("exit", exit_code == job.exit_code)]
    if report is None:
        return results + [("report", False)]
    verdict = report.get("verdict")
    if job.verdict_is_prefix:
        ok = isinstance(verdict, str) and verdict.startswith(job.verdict)
    else:
        ok = verdict == job.verdict
    results.append(("verdict", ok))
    for key, want in job.expect.items():
        results.extend(_CHECKS[key](report, want))
    return results


def _num(x) -> float:
    """Report floats; non-finite values are written as their repr."""
    return float(x) if isinstance(x, (int, float, str)) else math.nan


def _boundary_zero(report, want):
    two = report.get("hypothesis_two") or {}
    return [("boundary_zero", two.get("boundary_zero") is want)]


def _witness(report, want):
    two = report.get("hypothesis_two") or {}
    w = two.get("witness_z")
    ok = w is not None and abs(complex(w[0], w[1]) - want) <= WITNESS_TOL
    return [("witness", ok)]


def _whole_mass(report, want):
    snaps = report.get("snapshots") or {}
    ok = bool(snaps) and all(abs(_num(s.get("whole_mass")) - want) <= MASS_TOL
                             for s in snaps.values())
    return [("whole_mass", ok)]


def _rc_below(report, tol):
    return [("rc_sup_err_n", _num(report.get("rc_sup_err_n")) < tol)]


def _bound_holds(report, want):
    return [("bound_holds", report.get("bound_holds") is want)]


def _slopes(report, want):
    got = report.get("slopes") or {}
    return [(f"slope_{tag}", abs(_num(got.get(tag)) - v) < SLOPE_TOL)
            for tag, v in want.items()]


def _slopes_below(report, want):
    got = report.get("slopes") or {}
    return [(f"slope_{tag}", _num(got.get(tag)) < v) for tag, v in want.items()]


def _tail_below(report, want):
    got = report.get("tail_variation") or {}
    return [(f"tail_variation_{tag}", _num(got.get(tag)) < v)
            for tag, v in want.items()]


def _oracle_agreement(report, tol):
    per_r0 = report.get("per_r0") or {}
    out = [(f"max_err_r0={r0}", _num(v.get("max_err_vs_timestep")) <= tol)
           for r0, v in sorted(per_r0.items())]
    out.append(("r0_spread", bool(per_r0)
                and _num(report.get("r0_spread")) <= tol))
    return out


_CHECKS = {
    "boundary_zero": _boundary_zero,
    "witness": _witness,
    "whole_mass": _whole_mass,
    "rc_sup_err_n_below": _rc_below,
    "bound_holds": _bound_holds,
    "slopes": _slopes,
    "slopes_below": _slopes_below,
    "tail_variation_below": _tail_below,
    "oracle_tol": _oracle_agreement,
}
