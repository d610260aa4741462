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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._blas import one_blas_thread
from .cones import ConeSpec, ScalingMatrix, nt_scaling_of
from .errors import (InvalidParams, MaxIterationsExceeded, NotInterior,
                     StartOutsideNeighborhood)
from .geometry import (Classification, Evaluation, HsdPoint, classify_status,
                       evaluate_rows, mu)
from .kkt import (KktWorkspace, assemble, centering_nu, solve_direction,
                  step_point)
from .problem import Residuals, SocpProblem, compute_residuals

SCALINGS = ("identity", "nt")
STOP_MODES = ("relative", "unified")


@dataclass(frozen=True)
class SolverParams:
    """The solve's settings, fixed once made: a changed copy comes from
    dataclasses.replace, which checks it again."""
    gamma: float = 0.08
    delta: float = 0.03
    epsilon: float = 1e-6
    scaling: str = "identity"
    trace_enabled: bool = True
    stop_mode: str = "relative"

    def __post_init__(self):
        object.__setattr__(self, "scaling", str(self.scaling).lower())
        object.__setattr__(self, "stop_mode", str(self.stop_mode).lower())
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


# the trace's columns, one row per step; the CSV puts `iter` before them
TRACE_VALUES = ("mu", "d2", "dinf", "rp_norm", "rd_norm", "rg_abs", "tau",
                "kappa", "lambda_min_x", "lambda_min_s", "orth_defect",
                "kkt_residual")
_TRACE_DTYPE = np.dtype([(name, np.float64) for name in TRACE_VALUES])
# the steps whose centrality columns one evaluation fills
TRACE_BLOCK = 64


@dataclass
class SolveTrace:
    """The start's mu and residual norms, and `rows`, a record array with
    one row per step (row i is step i + 1) and the columns TRACE_VALUES.
    `neighborhood_violations` counts the rows with d2 > gamma mu.

    `solve` writes each step's mu, residual norms, tau, kappa and Newton
    system figures into its row as the step ends.  d2, dinf,
    lambda_min_x and lambda_min_s are filled per block of TRACE_BLOCK
    steps, and after the last step, by one evaluation of the block's
    iterates (`_fill_centrality`), bitwise the values of each iterate's
    own `Evaluation`."""
    start_mu: float
    start_rp_norm: float
    start_rd_norm: float
    start_rg_abs: float
    rows: np.recarray
    neighborhood_violations: int = 0


@dataclass
class SolveResult:
    status: Classification
    point: HsdPoint
    solution: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    iterations: int
    trace: Optional[SolveTrace]
    predicted: int


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


def _fill_centrality(rows: np.recarray, points: np.ndarray, p: int,
                     spec: ConeSpec) -> None:
    """Write d2, dinf, lambda_min_x and lambda_min_s into the trace `rows`
    of the iterates whose hat-layout vectors are the rows of `points`, from
    one evaluation of them all over `spec.stacked(len(rows))`.  The rows'
    mu, tau and kappa are read as the loop wrote them."""
    n = spec.n
    ev = evaluate_rows(points[:, :n], points[:, n + 1 + p:-1], rows.tau,
                       rows.kappa, rows.mu, spec.stacked(len(rows)))
    rows.d2, rows.dinf = ev.d2(), ev.dinf()
    rows.lambda_min_x = ev.per_row(ev.x.lo).min(axis=1)
    rows.lambda_min_s = ev.per_row(ev.s.lo).min(axis=1)


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

    With params.trace_enabled each step's row of the trace is written as
    the step ends, but for its centrality columns, which one evaluation of
    every TRACE_BLOCK steps' points fills (see SolveTrace): the same bytes
    as an evaluation per step, for a fraction of the cost.
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
    if not ev.within(params.gamma):
        raise StartOutsideNeighborhood(
            "start must lie in the 2-norm neighborhood of the central path")
    res = compute_residuals(problem, z)
    start_norms = (ev.mu, res.rp_norm, res.rd_norm)
    predicted = _closed_form_count(params, k, res, ev.mu)
    trace = SolveTrace(ev.mu, res.rp_norm, res.rd_norm, res.rg_abs,
                       np.recarray(predicted, _TRACE_DTYPE)) \
        if params.trace_enabled else None
    identity = ScalingMatrix.identity(spec)
    work = KktWorkspace(problem)
    # every iterate's residuals, written over; the shapes were checked above
    res_out = np.empty(problem.p + spec.n)
    if trace is not None and predicted > 0:
        # the points of the steps whose centrality columns are not yet filled
        block = np.empty((min(predicted, TRACE_BLOCK), z.vec.size))
    for iters in range(1, predicted + 1):
        D = identity if params.scaling == "identity" \
            else nt_scaling_of(ev.x, ev.s)
        direction = solve_direction(assemble(work, z, ev, D, nu, res))
        z = step_point(z, direction, 1.0)
        ev = Evaluation(z, spec)
        if not ev.interior():
            raise NotInterior(
                f"iteration {iters} left the interior: tau={ev.tau:.3e}, "
                f"kappa={ev.kappa:.3e}, lambda_min(x)={ev.x.lo.min():.3e}, "
                f"lambda_min(s)={ev.s.lo.min():.3e}")
        res = compute_residuals(problem, z, res_out)
        if trace is not None:
            j = (iters - 1) % TRACE_BLOCK
            block[j] = z.vec
            trace.rows[iters - 1] = (
                ev.mu, math.nan, math.nan, res.rp_norm, res.rd_norm,
                res.rg_abs, ev.tau, ev.kappa, math.nan, math.nan,
                direction.orthogonality_defect, direction.system_residual)
            if j + 1 == len(block) or iters == predicted:
                _fill_centrality(trace.rows[iters - 1 - j:iters],
                                 block[:j + 1], problem.p, spec)
    if trace is not None:
        trace.neighborhood_violations = int(np.count_nonzero(
            trace.rows.d2 > params.gamma * trace.rows.mu))
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
