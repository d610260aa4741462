"""The scaled Newton system on the embedding, solved in reduced form.

In hat variables tau joins x as one extra 1-dimensional block and kappa
joins s.  With the iterate's `Residuals` r_p, r_d, r_g, its Newton system is

    A_hat dxh                    = r1 = -(1-nu) r_p
    C_hat dxh + A_hat' dy + dsh  = r2 = -(1-nu) (r_d, -r_g)
    Sb Dh^{-T} dxh + Xb Dh dsh   = r3 = nu mu e_hat - xb o sb

with A_hat = [A, -b], C_hat skew from c, xb = Dh^{-T}xh, sb = Dh sh,
Dh = blkdiag(D, 1), and Xb, Sb the arrow matrices of xb and sb.

It is solved in the scaled unknowns u = Dh^{-T} dxh and v = Dh dsh, in
which it is the identity-scaled system of the data (A_hat Dh', Dh C_hat
Dh') at (xb, sb); the second row is multiplied by Dh.  The third row
gives v = Xb^{-1} r3 - M u with M = Xb^{-1} Sb.  Per cone block, with a
the head of xb, ||t|| its `tail_norms`, det = (a - ||t||)(a + ||t||),
Q = diag(1, -I) and Xb^{-1} = (Q xb)(Q xb)'/(a det) + (I - e e')/a,

    M = g rho'/det + E,   g = Q xb / a,   rho = sb o Q xb,

where E holds the tail rows of Sb over a.  A 1-dimensional block has
M = sb/xb, which E holds whole.  A block with a tail keeps its rank-one
part as one extra unknown w = rho'u / det, so (u, dy, w) solves

    [[Dh C_hat Dh' - E, Dh A_hat', -G], [A_hat Dh', 0, 0], [-R, 0, diag(det)]]
        (u, dy, w) = (Dh r2 - Xb^{-1} r3, r1, 0)

of order n+1+p+q, q the number of blocks with a tail (G holds each
block's g in its column, R each block's rho' in its row), and then
v = Xb^{-1} r3 - E u - G w.  Late in a solve M spans about 1/mu^2
between its eigenvalues under the identity scaling, and D^{-1}D^{-T}
does under NT; formed densely, such a block loses its small
eigenvalues.  In this form the entries stay moderate: the rank-one part
of M is never formed, and the spread of D sits in A_hat Dh' and Dh c,
with M near I under NT.

A `KktWorkspace` holds what one solve keeps: A_hat, the matrix with
A_hat, A_hat' and C_hat written once, a factor buffer, and the positions
of the entries each step writes.  `solve_direction` writes the step's
entries into a fresh copy of that matrix, factors it with LAPACK getrf,
runs one refinement pass against the full three-row system in dxh =
Dh' u and dsh = Dh^{-1} v, and reports that system's relative residual,
which it computes without forming the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .cones import (ConeSpec, ScalingMatrix, check_vector, jordan, t_apply,
                    t_inverse_apply, tail_norms)
from .errors import DimensionMismatch, SingularSystem
from .geometry import HsdPoint
from .problem import Residuals, SocpProblem, compute_residuals

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass
class NewtonDirection:
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    dkappa: float
    dtau: float
    system_residual: float
    orthogonality_defect: float


class KktWorkspace:
    """The solve-constant part of the reduced Newton system of one problem.

    `spec` is the hat cone, whose layout every step reads.
    `base` is [[C_hat, A_hat', 0], [A_hat, 0, 0], [0, 0, 0]] of order
    N = n+1+p+q, in Fortran order for getrf, and `core` its leading block
    of order n+1+p; `matrix` is the buffer that each solve copies `base`
    into and factors in place.  `pos` lists the flat
    positions each step writes, in the order of `KktSystem.values`: the
    g entries of the columns of w, the rho entries of its rows, its
    diagonal, then E's diagonal and E's head column.
    """

    def __init__(self, problem: SocpProblem):
        problem.check_shapes()
        spec = problem.cones.hat()
        n, p = problem.n, problem.p
        m = n + 1
        blk, tail = spec.block_of, spec.tail
        expanded = np.add.reduceat(tail, spec.heads) > 0  # blocks with a tail
        N = m + p + int(expanded.sum())
        self.n, self.p, self.m = n, p, m
        self.row_blocks = {"primal": slice(0, p), "dual": slice(p, p + m),
                           "complementarity": slice(p + m, p + 2 * m)}
        self.A_hat = np.hstack([problem.A, -problem.b[:, None]])
        self.c = problem.c
        base = np.zeros((N, N), order="F")
        base[:n, n] = -problem.c
        base[n, :n] = problem.c
        base[:m, m:m + p] = self.A_hat.T
        base[m:m + p, :m] = self.A_hat
        self.base = base
        self.core = base[:m + p, :m + p]
        self.matrix = np.empty_like(base)
        self.eye = np.eye(m)
        self._matrix_flat = self.matrix.reshape(-1, order="F")
        self.spec = spec
        self.tail = tail.astype(float)
        on = expanded[blk]
        self.on = on.astype(float)
        # E's diagonal: every entry but the head of a block with a tail
        self.on_diag = (tail | ~on).astype(float)
        # the unknown w of each entry's block; any index where g is 0
        w_col = np.cumsum(expanded) - 1 + m + p
        self.w_of = np.where(on, w_col[blk], 0)
        self.zeros_w = np.zeros(N - m - p)
        ex, diag = np.flatnonzero(on), np.flatnonzero(self.on_diag)
        ti = spec.tail_index
        self.ex, self.diag, self.expanded = ex, diag, expanded
        self.pos = np.concatenate((
            ex + self.w_of[ex] * N, self.w_of[ex] + ex * N,
            w_col[expanded] * (N + 1), diag * (N + 1),
            ti + spec.head_of[ti] * N))


@dataclass
class KktSystem:
    """One step's Newton system.

    `rhs` is the full three-row right-hand side, split by `row_blocks`.
    The rest is what the reduced solve reads: the scaled point (xb, sb),
    Q xb, the head a of each entry's block, det per block, g, the
    diagonal and head column of E, the step's entries `values` (see
    `KktWorkspace.pos`) and, for a scaling other than the identity, Dh,
    Dh^{-1}, A_hat Dh' and D c.  A system owns its arrays, so it may be
    solved again after other systems of its workspace.
    """

    rhs: np.ndarray
    row_blocks: Dict[str, slice]
    n: int
    p: int
    work: KktWorkspace
    xb: np.ndarray
    sb: np.ndarray
    xq: np.ndarray
    a: np.ndarray
    det: np.ndarray
    g: np.ndarray
    e_diag: np.ndarray
    e_head: np.ndarray
    values: np.ndarray
    dh: Optional[np.ndarray] = None
    dh_inv: Optional[np.ndarray] = None
    ad: Optional[np.ndarray] = None
    dc: Optional[np.ndarray] = None

    def matrix(self) -> np.ndarray:
        """The reduced matrix, written into a fresh copy of the
        workspace's base in its factor buffer."""
        work, n, m = self.work, self.n, self.work.m
        K = work.matrix
        np.copyto(K, work.base)
        work._matrix_flat[work.pos] = self.values
        if self.dh is not None:
            K[m:m + self.p, :m] = self.ad
            K[:m, m:m + self.p] = self.ad.T
            K[:n, n] = -self.dc
            K[n, :n] = self.dc
        return K

    def xinv(self, r: np.ndarray) -> np.ndarray:
        """Xb^{-1} r."""
        work, hat = self.work, self.work.spec
        dot = np.add.reduceat(self.xq * r, hat.heads) / self.det
        return (self.xq * dot[hat.block_of] + work.tail * r) / self.a


def assemble(problem: SocpProblem, z: HsdPoint, D: ScalingMatrix,
             nu: float, mu: float, work: Optional[KktWorkspace] = None,
             res: Optional[Residuals] = None) -> KktSystem:
    """Build the reduced system for the current iterate.

    `work` and `res`, the workspace and the residuals, are built if absent.
    """
    if D.spec.n != problem.cones.n:
        raise DimensionMismatch("scaling and problem cones disagree")
    work = KktWorkspace(problem) if work is None else work
    n, m = work.n, work.m
    xh, sh = np.empty(m), np.empty(m)
    xh[:n] = check_vector(z.x, problem.cones)
    sh[:n] = check_vector(z.s, problem.cones)
    xh[n], sh[n] = z.tau, z.kappa
    dh = dh_inv = ad = dc = None
    if D.is_identity:
        xb, sb = xh, sh
    else:
        dh, dh_inv = work.eye.copy(), work.eye.copy()
        dh[:n, :n] = D.matrix()
        dh_inv[:n, :n] = D.inverse_matrix()
        xb, sb = dh_inv.T @ xh, dh @ sh
        ad, dc = work.A_hat @ dh.T, dh[:n, :n] @ work.c
    hat = work.spec
    head = xb[hat.heads]
    t = tail_norms(xb, hat)
    det = (head - t) * (head + t)
    a = head[hat.block_of]
    xq = hat.q * xb
    g = work.on * xq / a
    rho = jordan(sb, xq, hat)
    e_diag = work.on_diag * sb[hat.head_of] / a
    e_head = work.tail * sb / a
    values = np.concatenate((-g[work.ex], -rho[work.ex], det[work.expanded],
                             -e_diag[work.diag], -e_head[hat.tail_index]))
    res = compute_residuals(problem, z) if res is None else res
    r12 = np.concatenate((res.r_p, res.r_d, (-res.r_g,)))
    rhs = np.concatenate((-(1.0 - nu) * r12,
                          nu * mu * hat.e - jordan(xb, sb, hat)))
    return KktSystem(rhs, work.row_blocks, n, work.p, work, xb, sb, xq, a,
                     det, g, e_diag, e_head, values, dh, dh_inv, ad, dc)


def solve_dense(K: np.ndarray, rhs: np.ndarray
                ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Solve K u = rhs by LU with partial pivoting, factoring the
    Fortran-ordered K in place; returns u and the factors (lu, piv)."""
    lu, piv, info = _getrf(K, overwrite_a=1)
    if info > 0:
        raise SingularSystem(f"exactly zero pivot in column {info}")
    u, _ = _getrs(lu, piv, rhs)
    return u, (lu, piv)


def _reduced_rhs(sys: KktSystem, r: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Xb^{-1} r3 and the reduced right-hand side of the three-row r."""
    primal, dual, comp = sys.row_blocks.values()
    f3 = sys.xinv(r[comp])
    top = r[dual] if sys.dh is None else sys.dh @ r[dual]
    return f3, np.concatenate((top - f3, r[primal], sys.work.zeros_w))


def _recover(sys: KktSystem, u: np.ndarray, f3: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dxh, dy, dsh) from the reduced solution u = (Dh^{-T} dxh, dy, w)."""
    work, m = sys.work, sys.work.m
    ub = u[:m]
    vb = f3 - (sys.g * u[work.w_of] + sys.e_diag * ub
               + sys.e_head * ub[work.spec.head_of])
    dy = u[m:m + sys.p]
    if sys.dh is None:
        return ub, dy, vb
    return sys.dh.T @ ub, dy, sys.dh_inv @ vb


def _residual(sys: KktSystem, dxh: np.ndarray, dy: np.ndarray,
              dsh: np.ndarray) -> np.ndarray:
    """The full three-row residual rhs - M (dxh, dy, dsh), matrix-free:
    A_hat dxh, C_hat dxh + A_hat' dy + dsh, sb o (Dh^{-T} dxh) + xb o (Dh dsh)."""
    work, m = sys.work, sys.work.m
    v = work.core @ np.concatenate((dxh, dy))
    dxb, dsb = dxh, dsh
    if sys.dh is not None:
        dxb, dsb = sys.dh_inv.T @ dxh, sys.dh @ dsh
    comp = jordan(sys.sb, dxb, work.spec) + jordan(sys.xb, dsb, work.spec)
    return sys.rhs - np.concatenate((v[m:], v[:m] + dsh, comp))


def solve_direction(sys: KktSystem) -> NewtonDirection:
    """Factor the reduced system, solve, and refine once against the full
    system.  An exactly zero pivot or a non-finite residual raises
    SingularSystem."""
    f3, red = _reduced_rhs(sys, sys.rhs)
    u, factors = solve_dense(sys.matrix(), red)
    step = _recover(sys, u, f3)
    f3, red = _reduced_rhs(sys, _residual(sys, *step))
    du, _ = _getrs(*factors, red)
    step = tuple(s + d for s, d in zip(step, _recover(sys, du, f3)))
    e = _residual(sys, *step)
    rel = math.sqrt(e @ e) / (1.0 + float(np.linalg.norm(sys.rhs)))
    if not math.isfinite(rel):
        raise SingularSystem("the Newton direction is not finite")
    dxh, dy, dsh = step
    n = sys.n
    return NewtonDirection(dx=dxh[:n], dy=dy, ds=dsh[:n],
                           dkappa=float(dsh[n]), dtau=float(dxh[n]),
                           system_residual=rel,
                           orthogonality_defect=abs(float(dxh @ dsh)))


def step_point(z: HsdPoint, direction: NewtonDirection,
               alpha: float = 1.0) -> HsdPoint:
    return HsdPoint(z.x + alpha * direction.dx,
                    z.y + alpha * direction.dy,
                    z.s + alpha * direction.ds,
                    kappa=z.kappa + alpha * direction.dkappa,
                    tau=z.tau + alpha * direction.dtau)


def centering_nu(delta: float, k: int) -> float:
    """Fixed centering parameter 1 - delta/sqrt(2(k+1))."""
    return 1.0 - delta / math.sqrt(2.0 * (k + 1))


def increment_bound(gamma: float, delta: float, k: int) -> float:
    """Bound coefficient for the scaled increment norms (hat cone count k+1)."""
    nu = centering_nu(delta, k)
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
