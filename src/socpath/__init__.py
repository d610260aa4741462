"""Second-order cone programming by a short-step interior-point method
on the homogeneous self-dual embedding, with warm-start diagnostics."""

from .analysis import (apply_scaling, arrow_matrix, embed_residual_constants,
                       r_matrix, random_automorphism, t_scaling_matrix,
                       u_p_matrices, w_vector)
from .cones import (ConeSpec, ScalingMatrix, jordan_product, membership,
                    nt_scaling, spectral_bounds, unit_element)
from .errors import (ConeSpecMismatch, DimensionMismatch, EmptyAdmissibleSet,
                     InvalidParams, InvalidPoint, MaxIterationsExceeded,
                     NonFiniteData, NotInterior, ParseError, SingularSystem,
                     SocpathError, StartOutsideNeighborhood)
from .geometry import (Classification, Evaluation, HsdPoint,
                       NeighborhoodParams, classify_status, d2, dinf,
                       in_neighborhood, mu)
from .kkt import (NewtonDirection, assemble, scaled_increment_diagnostics,
                  solve_direction, step_point)
from .problem import Residuals, SocpProblem, compute_residuals
from .solver import (SolveResult, SolveTrace, SolverParams, TraceRow,
                     centering_nu, predicted_iterations, solve,
                     validate_params)
from .warmstart import (WarmStart, WarmStartDiagnostics, choose_omega,
                        cold_start, diagnostics, warm_start,
                        warm_start_point)

__version__ = "0.1.0"

__all__ = [
    "apply_scaling", "arrow_matrix", "embed_residual_constants", "r_matrix",
    "random_automorphism", "t_scaling_matrix", "u_p_matrices", "w_vector",
    "ConeSpec", "ScalingMatrix", "jordan_product", "membership", "nt_scaling",
    "spectral_bounds", "unit_element",
    "ConeSpecMismatch", "DimensionMismatch", "EmptyAdmissibleSet",
    "InvalidParams", "InvalidPoint", "MaxIterationsExceeded",
    "NonFiniteData", "NotInterior", "ParseError", "SingularSystem",
    "SocpathError", "StartOutsideNeighborhood",
    "Classification", "Evaluation", "HsdPoint", "NeighborhoodParams",
    "classify_status", "d2", "dinf", "in_neighborhood", "mu",
    "NewtonDirection", "assemble",
    "scaled_increment_diagnostics", "solve_direction", "step_point",
    "Residuals", "SocpProblem", "compute_residuals",
    "SolveResult", "SolveTrace", "SolverParams", "TraceRow", "centering_nu",
    "predicted_iterations", "solve", "validate_params",
    "WarmStart", "WarmStartDiagnostics", "choose_omega", "cold_start",
    "diagnostics", "warm_start", "warm_start_point",
]
