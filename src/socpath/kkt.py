"""Assembly and solution of the scaled Newton system on the embedding.

`assemble` works in hat variables: tau joins x as one extra
1-dimensional block and kappa joins s, so the system has order
2(n+1) + p and three row groups

    A_hat dxh                    = -(1-nu) A_hat xh
    C_hat dxh + A_hat' dy + dsh  = -(1-nu) (A_hat'y + C_hat xh + sh)
    Sb Dh^{-T} dxh + Xb Dh dsh   = nu mu e_hat - xb o sb

with A_hat = [A, -b], C_hat skew from c, xb = Dh^{-T}xh, sb = Dh sh,
and Dh = blkdiag(D, 1).  `solve_direction` factors it densely and
returns the 5-variable form (dx, dy, ds, dkappa, dtau).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lu_factor, lu_solve

from .cones import (ConeSpec, ScalingMatrix, arrow_matrix, check_vector,
                    jordan_product, t_apply, t_inverse_apply, unit_element)
from .errors import DimensionMismatch, SingularSystem
from .geometry import HsdPoint
from .problem import SocpProblem


@dataclass
class NewtonDirection:
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    dkappa: float
    dtau: float
    system_residual: float
    orthogonality_defect: float


@dataclass
class KktSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    row_blocks: Dict[str, slice]
    n: int
    p: int


def assemble(problem: SocpProblem, z: HsdPoint, D: ScalingMatrix,
             nu: float, mu: float) -> KktSystem:
    """Build the order-(2n+p+2) system for the current iterate."""
    if D.spec.n != problem.cones.n:
        raise DimensionMismatch("scaling and problem cones disagree")
    problem.check_shapes()
    spec = problem.cones
    hat_spec = spec.hat()
    n, p = problem.n, problem.p
    m = n + 1
    N = 2 * m + p
    x_hat = np.r_[check_vector(z.x, spec), z.tau]
    s_hat = np.r_[check_vector(z.s, spec), z.kappa]
    A_hat = np.hstack([problem.A, -problem.b[:, None]])
    C_hat = np.zeros((m, m))
    C_hat[:n, n] = -problem.c
    C_hat[n, :n] = problem.c
    Dh = np.zeros((m, m))
    Dh[:n, :n] = D.matrix()
    Dh[n, n] = 1.0
    Dh_inv = np.zeros((m, m))
    Dh_inv[:n, :n] = D.inverse_matrix()
    Dh_inv[n, n] = 1.0
    xb = Dh_inv.T @ x_hat
    sb = Dh @ s_hat
    Xb = arrow_matrix(xb, hat_spec)
    Sb = arrow_matrix(sb, hat_spec)
    row_blocks = {
        "primal": slice(0, p),
        "dual": slice(p, p + m),
        "complementarity": slice(p + m, N),
    }
    r1, r2, r3 = row_blocks.values()
    cx, cy, cs = slice(0, m), slice(m, m + p), slice(m + p, N)
    M = np.zeros((N, N))
    rhs = np.empty(N)
    M[r1, cx] = A_hat
    M[r2, cx] = C_hat
    M[r2, cy] = A_hat.T
    M[r2, cs] = np.eye(m)
    M[r3, cx] = Sb @ Dh_inv.T
    M[r3, cs] = Xb @ Dh
    rhs[r1] = -(1.0 - nu) * (A_hat @ x_hat)
    rhs[r2] = -(1.0 - nu) * (A_hat.T @ z.y + C_hat @ x_hat + s_hat)
    rhs[r3] = nu * mu * unit_element(hat_spec) - jordan_product(xb, sb, hat_spec)
    return KktSystem(M, rhs, row_blocks, n, p)


def solve_dense(M: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, float]:
    """LU with partial pivoting, one refinement pass, and a residual check."""
    with warnings.catch_warnings():
        # singularity is diagnosed by the pivot check below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = lu_factor(M)
    diag = np.abs(np.diag(lu))
    if diag.max() == 0.0 or diag.min() < 1e-14 * diag.max():
        raise SingularSystem(
            f"pivot ratio {diag.min():.3e} / {diag.max():.3e}")
    u = lu_solve((lu, piv), rhs)
    resid = rhs - M @ u
    u = u + lu_solve((lu, piv), resid)
    resid = rhs - M @ u
    rel = float(np.linalg.norm(resid)) / (1.0 + float(np.linalg.norm(rhs)))
    return u, rel


def solve_direction(sys: KktSystem) -> NewtonDirection:
    u, rel = solve_dense(sys.matrix, sys.rhs)
    n, p = sys.n, sys.p
    m = n + 1
    dx_hat = u[:m]
    dy = u[m:m + p]
    ds_hat = u[m + p:]
    defect = abs(float(dx_hat @ ds_hat))
    return NewtonDirection(dx=dx_hat[:n], dy=dy, ds=ds_hat[:n],
                           dkappa=float(ds_hat[n]), dtau=float(dx_hat[n]),
                           system_residual=rel, orthogonality_defect=defect)


def step_point(z: HsdPoint, direction: NewtonDirection,
               alpha: float = 1.0) -> HsdPoint:
    return HsdPoint(z.x + alpha * direction.dx,
                    z.y + alpha * direction.dy,
                    z.s + alpha * direction.ds,
                    kappa=z.kappa + alpha * direction.dkappa,
                    tau=z.tau + alpha * direction.dtau)


def increment_bound(gamma: float, delta: float, k: int) -> float:
    """Bound coefficient for the scaled increment norms (hat cone count k+1)."""
    nu = 1.0 - delta / np.sqrt(2.0 * (k + 1))
    return 2.0 * np.sqrt(gamma * gamma / 2.0
                         + (1.0 - nu) ** 2 * (k + 1)) / (1.0 - 3.0 * gamma)


def scaled_increment_diagnostics(z: HsdPoint, direction: NewtonDirection,
                                 spec: ConeSpec, gamma: float,
                                 delta: float) -> Tuple[float, float, float]:
    """Norms of (T_xh^{-1} dxh, T_xh dsh) and their worst-case bound.

    Meaningful for directions computed with the identity scaling.
    """
    hat_spec = spec.hat()
    x_hat = np.r_[z.x, z.tau]
    dx_hat = np.r_[direction.dx, direction.dtau]
    ds_hat = np.r_[direction.ds, direction.dkappa]
    nx = float(np.linalg.norm(t_inverse_apply(x_hat, dx_hat, hat_spec)))
    ns = float(np.linalg.norm(t_apply(x_hat, ds_hat, hat_spec)))
    return nx, ns, increment_bound(gamma, delta, spec.k)
