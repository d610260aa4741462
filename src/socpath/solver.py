"""Short-step interior-point loop on the self-dual embedding.

The centering parameter nu = 1 - delta/sqrt(2(k+1)) is fixed before the
loop and every step is a full Newton step, so mu and both residual norms
contract by exactly nu per iteration and the iteration count is known in
closed form before solving.  The loop runs exactly that count and checks
the stop criterion once, after its last step; a run that does not meet it
there has broken the contraction law and raises MaxIterationsExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ._blas import one_blas_thread
from .cones import ScalingMatrix, nt_scaling_of
from .errors import (InvalidParams, MaxIterationsExceeded, NotInterior,
                     StartOutsideNeighborhood)
from .geometry import (Classification, Evaluation, HsdPoint,
                       NeighborhoodParams, classify_status, mu)
from .kkt import (KktWorkspace, assemble, centering_nu, solve_direction,
                  step_point)
from .problem import Residuals, SocpProblem, compute_residuals

SCALINGS = ("identity", "nt")
STOP_MODES = ("relative", "unified")


@dataclass
class SolverParams:
    gamma: float = 0.08
    delta: float = 0.03
    epsilon: float = 1e-6
    scaling: str = "identity"
    trace_enabled: bool = True
    stop_mode: str = "relative"

    def __post_init__(self):
        self.scaling = str(self.scaling).lower()
        self.stop_mode = str(self.stop_mode).lower()
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParams("gamma must lie in (0,1)")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParams("delta must lie in (0,1)")
        if self.scaling not in SCALINGS:
            raise InvalidParams(f"scaling must be one of {SCALINGS}")
        if self.stop_mode not in STOP_MODES:
            raise InvalidParams(f"stop_mode must be one of {STOP_MODES}")
        if self.stop_mode == "relative":
            if not (0.0 < self.epsilon < 1.0):
                raise InvalidParams("epsilon must lie in (0,1)")
        elif not (0.0 < self.epsilon < math.inf):
            raise InvalidParams("epsilon must be positive and finite")


@dataclass
class TraceRow:
    iteration: int
    mu: float
    d2: float
    dinf: float
    rp_norm: float
    rd_norm: float
    rg_abs: float
    tau: float
    kappa: float
    lambda_min_x: float
    lambda_min_s: float
    orth_defect: float
    kkt_residual: float


@dataclass
class SolveTrace:
    start_mu: float
    start_rp_norm: float
    start_rd_norm: float
    start_rg_abs: float
    rows: List[TraceRow] = field(default_factory=list)
    neighborhood_violations: int = 0


@dataclass
class SolveResult:
    status: Classification
    point: HsdPoint
    solution: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    iterations: int
    trace: Optional[SolveTrace]
    predicted: Optional[int] = None


def validate_params(gamma: float, delta: float, k: int) -> Tuple[bool, float]:
    """Admissibility of (gamma, delta) for cone rank k.

    Evaluates the worst-case post-step centrality coefficient
    G = [4(gamma^2+delta^2)/(1-3gamma)^2] / nu and returns
    (G < gamma, gamma - G).
    """
    nu = centering_nu(delta, k)
    coeff = 4.0 * (gamma * gamma + delta * delta) / (1.0 - 3.0 * gamma) ** 2 / nu
    return coeff < gamma, gamma - coeff


def predicted_iterations(start: HsdPoint, problem: SocpProblem,
                         params: SolverParams) -> int:
    """Closed-form iteration count for the configured stop criterion.

    relative: ceil(log eps / log nu); the same count governs mu and both
    residual norms.  unified: ceil of log(max(||r_p||, ||r_d||, mu)/eps_u)
    over -log nu, and 0 when the start already meets the criterion.
    """
    return _closed_form_count(params, problem.cones.k,
                              compute_residuals(problem, start),
                              mu(start, problem.cones))


def _closed_form_count(params: SolverParams, k: int, res: Residuals,
                       m: float) -> int:
    """predicted_iterations from a start's residuals `res` and mu `m`."""
    nu = centering_nu(params.delta, k)
    if params.stop_mode == "relative":
        return math.ceil(math.log(params.epsilon) / math.log(nu))
    worst, epsilon = max(res.rp_norm, res.rd_norm, m), params.epsilon
    if worst <= epsilon:
        return 0
    if not math.isfinite(worst / epsilon):
        raise InvalidParams(f"epsilon {epsilon!r} is too small for the "
                            f"start's measure {worst!r}: their ratio overflows")
    return math.ceil(math.log(worst / epsilon) / (-math.log(nu)))


def _stopped(params: SolverParams, res, m: float, start) -> bool:
    if params.stop_mode == "unified":
        return max(res.rp_norm, res.rd_norm, m) <= params.epsilon
    eps = params.epsilon
    mu0, rp0, rd0 = start
    ok_p = rp0 == 0.0 or res.rp_norm <= eps * rp0
    ok_d = rd0 == 0.0 or res.rd_norm <= eps * rd0
    return ok_p and ok_d and m <= eps * mu0


@one_blas_thread()
def solve(problem: SocpProblem, start: HsdPoint,
          params: SolverParams) -> SolveResult:
    """Run the closed-form count of full steps from `start`.

    The start must lie in N_2(gamma), strictly interior included, or
    StartOutsideNeighborhood is raised.  Every later iterate must stay
    strictly interior (tau, kappa > 0 and x, s inside the cone); one that
    leaves raises NotInterior naming its iteration.  The stop criterion is
    checked once, after the last step; if it does not hold there,
    MaxIterationsExceeded is raised.  Data whose [A, -b] has dependent
    rows is refused at entry (`SocpProblem.check_rows`).  The solve runs
    on one BLAS thread, so that its bytes do not depend on the machine's
    thread count.
    """
    problem.check_shapes()
    problem.check_finite()
    problem.check_rows()
    spec = problem.cones
    k = spec.k
    ok, margin = validate_params(params.gamma, params.delta, k)
    if not ok:
        raise InvalidParams(
            f"(gamma, delta) inadmissible for k={k}: margin {margin:.3e}")
    nu = centering_nu(params.delta, k)
    z = start.copy()
    # one evaluation and one Residuals per iterate feed its checks, its
    # trace row and the next Newton system; the start's, its N_2 check
    ev = Evaluation(z, spec)
    if not ev.within(NeighborhoodParams(params.gamma)):
        raise StartOutsideNeighborhood(
            "start must lie in the 2-norm neighborhood of the central path")
    res = compute_residuals(problem, z)
    start_norms = (ev.mu, res.rp_norm, res.rd_norm)
    predicted = _closed_form_count(params, k, res, ev.mu)
    trace = SolveTrace(ev.mu, res.rp_norm, res.rd_norm, res.rg_abs) \
        if params.trace_enabled else None
    identity = ScalingMatrix.identity(spec)
    work = KktWorkspace(problem)
    # every iterate's residuals, written over; the shapes were checked above
    res_out = np.empty(problem.p + spec.n)
    for iters in range(1, predicted + 1):
        D = identity if params.scaling == "identity" \
            else nt_scaling_of(ev.x, ev.s)
        direction = solve_direction(
            assemble(problem, z, D, nu, ev.mu, work, res))
        z = step_point(z, direction, 1.0)
        ev = Evaluation(z, spec)
        if not ev.interior():
            raise NotInterior(
                f"iteration {iters} left the interior: tau={ev.tau:.3e}, "
                f"kappa={ev.kappa:.3e}, lambda_min(x)={ev.x.lo.min():.3e}, "
                f"lambda_min(s)={ev.s.lo.min():.3e}")
        res = compute_residuals(problem, z, res_out)
        if trace is not None:
            dist2 = ev.d2()
            if dist2 > params.gamma * ev.mu:
                trace.neighborhood_violations += 1
            trace.rows.append(TraceRow(
                iteration=iters, mu=ev.mu, d2=dist2, dinf=ev.dinf(),
                rp_norm=res.rp_norm, rd_norm=res.rd_norm,
                rg_abs=res.rg_abs, tau=ev.tau, kappa=ev.kappa,
                lambda_min_x=float(ev.x.lo.min()),
                lambda_min_s=float(ev.s.lo.min()),
                orth_defect=direction.orthogonality_defect,
                kkt_residual=direction.system_residual))
    if not _stopped(params, res, ev.mu, start_norms):
        raise MaxIterationsExceeded(
            f"the {params.stop_mode} stop criterion does not hold after the "
            f"closed-form count of {predicted} steps: mu={ev.mu:.3e}, "
            f"||r_p||={res.rp_norm:.3e}, ||r_d||={res.rd_norm:.3e}")
    status = classify_status(z, problem, params.epsilon)
    solution = (status.x, status.y, status.s) if status.status == "optimal" \
        else None
    return SolveResult(status=status, point=z, solution=solution,
                       iterations=predicted, trace=trace, predicted=predicted)
