"""halflab: a numerical laboratory for explicit transport schemes on the half-line.

The objects of study are one-step finite difference schemes

    u^{n+1}_j = sum_{k=-r}^{p} a_k u^n_{j+k},   j >= 1,

closed at the boundary by ghost values u_j = sum_{k=1}^{p_b} b_{k,j} u_k for
j in {1-r, ..., 0}.  The package computes their symbols and drift/dissipation
data, the companion-matrix spectral splitting and Lopatinskii determinant,
temporal and spatial Green's functions on the half-line and the whole line,
generalized Gaussian profiles, the analytic and empirical boundary layers, and
the error decomposition that separates the free wave from the layers.
"""

from .scheme import (
    SchemeDefinition,
    HypothesisReport,
    symbol_eval,
    check_hypothesis_one,
    boundary_matrix,
    builtin_lfr,
    builtin_o3,
    scheme_to_json,
    scheme_from_json,
)
from .evolution import (
    apply_half_line,
    temporal_green_sweep,
    temporal_green_whole_sweep,
    adjoint_scheme,
    temporal_green_rows,
    growth_experiment,
)
from .spectral import (
    SpectralSplit,
    ProjectorSet,
    LopatinskiiValue,
    characteristic_roots,
    spectral_split,
    lopatinskii,
    lopatinskii_values,
    lopatinskii_derivative_at_one,
    projector_set,
    residue_condition,
    check_hypothesis_two,
)
from .gaussian import GaussianParams, gaussian_h, gaussian_e, appendix_f
from .layers import (
    BoundaryLayerProfile,
    ErrField,
    rc_analytic,
    rc_empirical,
    ru_analytic,
    err_field,
    err_bound_fit,
    whole_line_asymptotic_check,
)
from .resolvent import (
    ResolventField,
    spatial_green_half,
    spatial_green_whole,
    r_function,
    inverse_laplace_reconstruct,
    inverse_laplace_table,
)

__version__ = "0.1.0"

__all__ = [
    "SchemeDefinition", "HypothesisReport", "symbol_eval",
    "check_hypothesis_one", "boundary_matrix", "builtin_lfr", "builtin_o3",
    "scheme_to_json", "scheme_from_json",
    "apply_half_line", "temporal_green_sweep", "temporal_green_whole_sweep",
    "adjoint_scheme", "temporal_green_rows", "growth_experiment",
    "SpectralSplit", "ProjectorSet", "LopatinskiiValue",
    "characteristic_roots", "spectral_split", "lopatinskii",
    "lopatinskii_values", "lopatinskii_derivative_at_one", "projector_set",
    "residue_condition", "check_hypothesis_two",
    "GaussianParams", "gaussian_h", "gaussian_e", "appendix_f",
    "BoundaryLayerProfile", "ErrField", "rc_analytic", "rc_empirical",
    "ru_analytic", "err_field", "err_bound_fit", "whole_line_asymptotic_check",
    "ResolventField", "spatial_green_half", "spatial_green_whole",
    "r_function", "inverse_laplace_reconstruct", "inverse_laplace_table",
]
