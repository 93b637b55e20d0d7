import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import halflab as hl

settings.register_profile(
    "lab", settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow]))
settings.load_profile("lab")

# closed forms used across the suite
KAPPA_S_O3 = 4.0 - math.sqrt(17.0)
KAPPA_U_O3 = 4.0 + math.sqrt(17.0)

# consistent, drift -0.18, beta 1.07, but |F(e^{it})| peaks at 1 + 1.0e-12
# near t = 2.0984, a third of a step off the 10^5-point circle grid: a_2
# tuned to 16 digits, a_0 = 1 - a_{-1} - a_1 - a_2 exactly
NEAR_TOUCH_INLINE = {
    "r": 1, "p": 2, "p_b": 0, "b": [], "name": "near-touch",
    "a": ["6117/10000", "-141842059294731/10000000000000000", "9/625",
          "3880842059294731/10000000000000000"]}

# an r = p = 2 scheme: two ghost cells, two stable roots
WIDE = hl.SchemeDefinition(r=2, p=2, a=np.array([0.05, 0.3, 0.4, 0.2, 0.05]),
                           p_b=2, b=np.array([[2.0, -1.0], [3.0, -2.0]]))


def o3_marginal_pair(alpha: float = -0.5):
    """Ghost weights (b1, b2) = ((1+k)/k, -1/k) with k the stable z=1 root."""
    if alpha != -0.5:
        probe = hl.builtin_o3(alpha, 0.0, 0.0)
        roots = hl.characteristic_roots(probe, 1.0)
        k = min((r for r in roots if abs(r) < 1 - 1e-9), key=abs).real
    else:
        k = KAPPA_S_O3
    return (1.0 + k) / k, -1.0 / k


@pytest.fixture(scope="session")
def lfr():
    return hl.builtin_lfr(-0.5, 0.75, 5.0)


@pytest.fixture(scope="session")
def o3():
    b1, b2 = o3_marginal_pair()
    return hl.builtin_o3(-0.5, b1, b2)


def make_half_field(scheme, interior):
    """The ghosts u_{1-r}..u_0 the boundary rule gives the interior, then
    the interior, as one array (`apply_half_line`'s layout)."""
    interior = np.asarray(interior, dtype=float)
    ghosts = np.zeros(scheme.r)
    for i in range(scheme.r):
        for k in range(1, scheme.p_b + 1):
            if k - 1 < interior.size:
                ghosts[scheme.r - 1 - i] += scheme.b[i, k - 1] * interior[k - 1]
    return np.concatenate([ghosts, interior])
