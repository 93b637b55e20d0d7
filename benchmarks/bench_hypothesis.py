"""Timing of the first-hypothesis check (`check_hypothesis_one`, whose
dissipativity margin comes from the critical points of |F|^2) against the
100k-point circle sampling it replaced, which stays here as the reference,
and of the second-hypothesis check (`check_hypothesis_two`: for r = 1 the
roots of the ghost polynomial plus the z = 1 solve) on the same schemes
("-" where the first hypothesis fails: the CLI then skips the second),
beside its root route alone (`spectral._ghost_zeros`) and the Lopatinskii
sweep the root route replaced for r = 1 (Delta at the 4 x 64 nodes of the
default radii less the window at z = 1, from one batched evaluation; the
r >= 2 check still sweeps them).

Cases: the default lfr and o3 builtins, and one scheme of each class of the
seeded stability scan: marginal, unstable and stable lfr (the ghost weight
does not enter the first hypothesis), the o3 marginal pairs, a perturbed o3
rule, and the inline lfr rules with D > 1, which fail dissipativity at
t = +-pi.  The sampled margin may exceed the certified one by at most
h sum |k a_k|, h = 2 pi / 10^5 (Bernstein's bound on d|F|/dt); the last
column is that difference divided by the bound.

Run:  PYTHONPATH=src python3 benchmarks/bench_hypothesis.py
(BLAS is pinned to 1 thread unless the environment sets it)
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

from halflab.scheme import (SchemeDefinition, _SERIES_RADIUS,  # noqa: E402
                            builtin_lfr, builtin_o3, check_hypothesis_one,
                            symbol_eval)
from halflab.spectral import (_SWEEP_EXCLUSION, _SWEEP_RADII,  # noqa: E402
                              _SWEEP_SAMPLES, _ghost_zeros,
                              check_hypothesis_two, lopatinskii_values)

GRID = 100_000
# the nodes of the default sweep, as check_hypothesis_two builds them
SWEEP = [rho * complex(math.cos(th), math.sin(th)) for rho in _SWEEP_RADII
         for th in np.linspace(0.0, 2.0 * np.pi, _SWEEP_SAMPLES,
                               endpoint=False)
         if not (rho == 1.0 and abs(math.remainder(th, 2.0 * math.pi))
                 < _SWEEP_EXCLUSION)]


def _o3_marginal(alpha: float) -> SchemeDefinition:
    # b2 = -1/kappa_s, b1 = 1 - b2, kappa_s the stable root at z = 1
    am = alpha * (1 + alpha) * (2 + alpha) / 6.0
    a1 = -alpha * (1 - alpha) * (2 + alpha) / 2.0
    a2 = alpha * (1 - alpha ** 2) / 6.0
    disc = math.sqrt((a1 + a2) ** 2 + 4.0 * a2 * am)
    kappa = min(((-(a1 + a2) + disc) / (2.0 * a2),
                 (-(a1 + a2) - disc) / (2.0 * a2)), key=abs)
    return builtin_o3(alpha, 1.0 + 1.0 / kappa, -1.0 / kappa)


def _inline_lfr(alpha: Fraction, D: Fraction) -> SchemeDefinition:
    a = [float((D + alpha) / 2), float(1 - D), float((D - alpha) / 2)]
    return SchemeDefinition(r=1, p=1, a=np.array(a), p_b=1,
                            b=np.array([[0.5]]), name=f"lfr-D{D}")


CASES = {
    "lfr (default)": builtin_lfr(-0.5, 0.75, 5.0),
    "o3 (default)": _o3_marginal(-0.5),
    "lfr marginal": builtin_lfr(-0.35, 0.6, 0.95 / 0.25),
    "lfr unstable": builtin_lfr(-0.7, 0.8, 1.9),
    "lfr stable": builtin_lfr(-0.25, 0.3, -0.6),
    **{f"o3 marginal {al}": _o3_marginal(al) for al in (-0.2, -0.4, -0.6,
                                                         -0.8)},
    "o3 perturbed": builtin_o3(-0.3, 1.4, -0.4),
    "lfr D=21/20": _inline_lfr(Fraction(-4, 20), Fraction(21, 20)),
    "lfr D=29/20": _inline_lfr(Fraction(-16, 20), Fraction(29, 20)),
}


def sampled_margin(scheme: SchemeDefinition) -> float:
    t = np.linspace(-math.pi, math.pi, GRID, endpoint=False)
    t = t[np.abs(t) > _SERIES_RADIUS]
    return float(1.0 - np.max(np.abs(symbol_eval(scheme, np.exp(1j * t)))))


def _per_call(fn, repeats: int) -> tuple[float, object]:
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            out = fn()
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best, out


def main():
    header = (f"{'case':18s} {'check ms':>9s} {'sampled ms':>11s}"
              f" {'certified margin':>17s} {'sampled margin':>15s}"
              f" {'gap / bound':>12s} {'hyp2 ms':>8s} {'roots ms':>9s}"
              f" {'sweep ms':>9s}")
    print(header)
    print("-" * len(header))
    for name, scheme in CASES.items():
        t_check, rep = _per_call(lambda: check_hypothesis_one(scheme), 200)
        t_sample, sampled = _per_call(lambda: sampled_margin(scheme), 10)
        two = roots = sweep = "-"
        if rep.satisfied:
            t_two, _ = _per_call(lambda: check_hypothesis_two(scheme), 200)
            t_roots, _ = _per_call(lambda: _ghost_zeros(scheme), 200)
            t_sweep, _ = _per_call(lambda: lopatinskii_values(scheme, SWEEP),
                                   20)
            two, roots, sweep = (f"{t * 1e3:.3f}"
                                 for t in (t_two, t_roots, t_sweep))
        certified = rep.dissipativity_margin
        ks = np.arange(-scheme.r, scheme.p + 1)
        bound = 2.0 * math.pi / GRID * float(np.sum(np.abs(ks * scheme.a)))
        print(f"{name:18s} {t_check * 1e3:9.3f} {t_sample * 1e3:11.3f}"
              f" {certified:17.6e} {sampled:15.6e}"
              f" {(sampled - certified) / bound:12.2e} {two:>8s}"
              f" {roots:>9s} {sweep:>9s}")


if __name__ == "__main__":
    main()
