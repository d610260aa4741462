"""Checks the benchmark applies to every answer: the closed-form iteration
law, the status, and the residuals and gap of optimal points."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

# An optimal (x, y, s) passes when each data-relative residual below is at
# most ANSWER_TOL_FACTOR * epsilon of the solve.  The stop criteria bound
# the embedding residuals by epsilon (unified) or by epsilon times the
# start residuals (relative); the factor leaves room for the division by
# tau and the start residuals, and is far below what a wrong answer gives.
ANSWER_TOL_FACTOR = 100.0


class LawViolation(RuntimeError):
    """A solve took another number of iterations than the closed form."""


def closed_form_iterations(problem, start, delta: float, epsilon: float,
                           stop_mode: str) -> int:
    """ceil(log eps / log nu) (relative) or ceil(log(worst/eps) / -log nu)
    (unified), with nu = 1 - delta/sqrt(2(k+1))."""
    spec = problem.cones
    k = spec.l + len(spec.soc_dims)
    nu = 1.0 - delta / math.sqrt(2.0 * (k + 1))
    if stop_mode == "relative":
        return math.ceil(math.log(epsilon) / math.log(nu))
    rp = float(np.linalg.norm(problem.A @ start.x - start.tau * problem.b))
    rd = float(np.linalg.norm(problem.A.T @ start.y + start.s
                              - start.tau * problem.c))
    mu = float((start.x @ start.s + start.kappa * start.tau) / (k + 1))
    worst = max(rp, rd, mu)
    if worst <= epsilon:
        return 0
    return math.ceil(math.log(worst / epsilon) / (-math.log(nu)))


def check_law(problem, start, params, iterations: int) -> None:
    expected = closed_form_iterations(problem, start, params.delta,
                                      params.epsilon, params.stop_mode)
    if iterations != expected:
        raise LawViolation(
            f"{problem.name or 'problem'}: {iterations} iterations, "
            f"closed form {expected} ({params.stop_mode}, "
            f"eps={params.epsilon})")


def residuals(problem, x, y, s) -> Dict[str, float]:
    """Primal, dual and gap residuals, each relative to the data."""
    A, b, c = problem.A, problem.b, problem.c
    norm = np.linalg.norm
    cx, by = float(c @ x), float(b @ y)
    return {
        "primal": float(norm(A @ x - b) / (1.0 + norm(b))),
        "dual": float(norm(A.T @ y + s - c) / (1.0 + norm(c))),
        "gap": abs(cx - by) / (1.0 + abs(cx) + abs(by)),
    }


def answer_failure(known_status: str, status: str, problem,
                   point: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                   epsilon: float) -> Optional[str]:
    """Why an answer is wrong, or None when it passes."""
    if status != known_status:
        return f"status {status}, known {known_status}"
    if status != "optimal":
        return None
    if point is None:
        return "optimal without a point"
    tol = ANSWER_TOL_FACTOR * epsilon
    bad: List[str] = [f"{k} residual {v:.3e} > {tol:.0e}"
                      for k, v in residuals(problem, *point).items()
                      if not v <= tol]
    return "; ".join(bad) or None
