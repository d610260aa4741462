"""Seeded problem instances with known statuses.

Everything here is generated by the benchmark itself: the feasible-pair
construction (b and c built from a strictly interior primal-dual pair,
so the optimal status is forced), three fixed infeasible instances with
hand-written certificates, and a drift generator for re-solve chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from socpath import ConeSpec, SocpProblem


@dataclass
class Instance:
    name: str
    problem: SocpProblem
    status: str  # the status a correct solver must report


def interior_vector(spec: ConeSpec, rng: np.random.Generator) -> np.ndarray:
    """Strictly interior cone point with O(1) entries."""
    v = np.empty(spec.n)
    for start, dim in spec.blocks:
        if dim == 1:
            v[start] = rng.uniform(0.2, 2.0)
        else:
            tail = rng.standard_normal(dim - 1)
            v[start] = np.linalg.norm(tail) * (1.0 + rng.uniform(0.1, 1.0)) + 0.05
            v[start + 1:start + dim] = tail
    return v


def feasible(name: str, spec: ConeSpec, p: int,
             rng: np.random.Generator) -> Instance:
    """Gaussian A with b = A x*, c = A'y* + s* for an interior (x*, y*, s*)."""
    A = rng.standard_normal((p, spec.n))
    x_star = interior_vector(spec, rng)
    s_star = interior_vector(spec, rng)
    y_star = rng.standard_normal(p)
    problem = SocpProblem(A=A, b=A @ x_star, c=A.T @ y_star + s_star,
                          cones=spec, name=name)
    return Instance(name, problem, "optimal")


def roadmap4() -> Instance:
    """x1 + x2 + x3 = -1 over R+^3 x Q^3: primal infeasible (y = -1)."""
    problem = SocpProblem(A=np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]]),
                          b=np.array([-1.0]), c=np.ones(6),
                          cones=ConeSpec(3, (3,)), name="roadmap4")
    return Instance("roadmap4", problem, "primal_infeasible")


def farkas_ray() -> Instance:
    """Primal infeasible by the ray y = (1, 0).

    A'y = -(1, 1, 2, -1, 0) lies in -int K for K = R+^2 x Q^3, and
    b'y = 1 > 0.
    """
    problem = SocpProblem(A=np.array([[-1.0, -1.0, -2.0, 1.0, 0.0],
                                      [1.0, 0.0, 1.0, 1.0, 1.0]]),
                          b=np.array([1.0, 1.0]), c=np.ones(5),
                          cones=ConeSpec(2, (3,)), name="farkas-ray")
    return Instance("farkas-ray", problem, "primal_infeasible")


def dual_ray() -> Instance:
    """Dual infeasible by the ray x = (1, 1, 2, 1, 0) in int K.

    A x = 0 and c'x = -1 < 0, while x0 = (1, 2, 3, 1, 1) is strictly
    primal feasible, so the objective is unbounded below.
    """
    problem = SocpProblem(A=np.array([[1.0, -1.0, 0.0, 0.0, 0.0],
                                      [0.0, 0.0, 1.0, -2.0, 0.0]]),
                          b=np.array([-1.0, 1.0]),
                          c=np.array([-1.0, 0.0, 0.0, 0.0, 1.0]),
                          cones=ConeSpec(2, (3,)), name="dual-ray")
    return Instance("dual-ray", problem, "dual_infeasible")


def drift(instance: Instance, size: float, rng: np.random.Generator,
          name: str) -> Instance:
    """Gaussian drift of spectral norm `size` on A and Euclidean norm
    `size` on b and c.  The known status is carried over: the drift is
    small against the instances' interior margins, and the answer check
    of every step would show a status change."""
    problem = instance.problem
    E = rng.standard_normal(problem.A.shape)
    eb = rng.standard_normal(problem.p)
    ec = rng.standard_normal(problem.n)
    drifted = SocpProblem(A=problem.A + size / np.linalg.norm(E, 2) * E,
                          b=problem.b + size / np.linalg.norm(eb) * eb,
                          c=problem.c + size / np.linalg.norm(ec) * ec,
                          cones=problem.cones, name=name)
    return Instance(name, drifted, instance.status)
