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

A point and a direction are one vector each in the hat layout
[x, tau | y | s, kappa] (see `HsdPoint`), so that xh and sh, and dxh and
dsh, are its leading and trailing m entries, and core's unknowns
(dxh, dy) its leading m+p.  A `KktWorkspace` holds what one solve keeps:
A_hat, the matrix with A_hat, A_hat' and C_hat written once, a factor
buffer, the positions of the entries each step writes, and the buffers
of one step.  It holds one step at a time: `assemble` writes the step
into the workspace and returns it, and the next `assemble` writes over
it.  `solve_direction` writes the step's entries into a fresh copy of
that matrix, factors it with LAPACK getrf, runs one refinement pass
against the full three-row system in dxh = Dh' u and dsh = Dh^{-1} v,
and reports that system's relative residual, which it computes without
forming the system.  What a caller may keep owns its arrays: a point
and a `NewtonDirection`; no buffer of the workspace leaves
`solve_direction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .cones import (ConeSpec, ScalingMatrix, jordan, t_apply, t_inverse_apply,
                    tail_norms)
from .errors import DimensionMismatch, SingularSystem
from .geometry import Evaluation, HsdPoint
from .problem import Residuals, SocpProblem

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass
class NewtonDirection:
    """A Newton direction, which owns its vector `vec` in the point layout
    [dx, dtau | dy | ds, dkappa]; dx, dy and ds are views into it."""

    vec: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    dkappa: float
    dtau: float
    system_residual: float
    orthogonality_defect: float


class KktWorkspace:
    """The reduced Newton system of one problem: its solve-constant part
    and the one step that `assemble` last wrote.

    `spec` is the hat cone, whose layout every step reads.
    `base` is [[C_hat, A_hat', 0], [A_hat, 0, 0], [0, 0, 0]] of order
    N = n+1+p+q, in Fortran order for getrf, and `core` its leading block
    of order n+1+p; `matrix` is the buffer that each solve copies `base`
    into and factors in place.  `pos` lists the flat positions each step
    writes: the g entries of the columns of w, the rho entries of its
    rows, its diagonal, then E's diagonal and E's head column; a step's
    `values` are concatenate((g, rho, det, E's diagonal, E's head
    column))[src] * sign.  `red` (whose w rows stay 0), `core_out`,
    `residual` and `step` are the scratch vectors of `solve_direction`.

    The step is the full right-hand side `rhs` (its primal, dual and
    complementarity rows, of lengths p, n+1 and n+1), and what the
    reduced solve reads: the scaled point (xb, sb), Q xb, the head a of
    each entry's block, det per block, g, the diagonal and head column of
    E and `values`.  Under a scaling other than the identity (`scaled`)
    it also holds Dh and Dh^{-1} (identities of order n+1 whose leading
    n x n block the step writes), A_hat Dh' and D c.  `rhs`, `dh`,
    `dh_inv`, `ad` and `dc` are allocated once; the next step writes over
    them and the rest.
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
        ex, diag = np.flatnonzero(on), np.flatnonzero(self.on_diag)
        ti, k = spec.tail_index, spec.k
        self.pos = np.concatenate((
            ex + self.w_of[ex] * N, self.w_of[ex] + ex * N,
            w_col[expanded] * (N + 1), diag * (N + 1),
            ti + spec.head_of[ti] * N))
        self.src = np.concatenate((ex, m + ex, 2 * m + np.flatnonzero(expanded),
                                   2 * m + k + diag, 3 * m + k + ti))
        self.sign = np.where(
            (self.src < 2 * m) | (self.src >= 2 * m + k), -1.0, 1.0)
        self.red, self.core_out = np.zeros(N), np.empty(m + p)
        self.residual, self.step = np.empty(p + 2 * m), np.empty(p + 2 * m)
        self.rhs = np.empty(p + 2 * m)
        self.dh, self.dh_inv = np.eye(m), np.eye(m)
        self.ad, self.dc = np.empty((p, m)), np.empty(n)


def assemble(work: KktWorkspace, z: HsdPoint, ev: Evaluation,
             D: ScalingMatrix, nu: float, res: Residuals) -> KktWorkspace:
    """Write the reduced system of the iterate z into the workspace over
    its last step, and return the workspace.  `ev` and `res` are z's
    `Evaluation` and `Residuals`; mu is ev.mu."""
    n, m, p = work.n, work.m, work.p
    if D.spec.n != n:
        raise DimensionMismatch("scaling and problem cones disagree")
    if z.x.shape != (n,) or z.s.shape != (n,) or z.y.shape != (p,):
        raise DimensionMismatch(
            f"expected a point with x and s of length {n} and y of length "
            f"{p}, got {z.x.size}, {z.s.size} and {z.y.size}")
    hat = work.spec
    work.scaled = not D.is_identity
    if work.scaled:
        dh, dh_inv = work.dh, work.dh_inv
        dh[:n, :n] = D.matrix()
        dh_inv[:n, :n] = D.inverse_matrix()
        xb, sb = dh_inv.T @ z.vec[:m], dh @ z.vec[m + p:]
        np.matmul(work.A_hat, dh.T, out=work.ad)
        np.matmul(dh[:n, :n], work.c, out=work.dc)
        head, t = xb[hat.heads], tail_norms(xb, hat)
    else:
        # xh's heads and tail norms are x's, with tau's 1-dimensional block
        xb, sb = z.vec[:m], z.vec[m + p:]
        head = np.concatenate((ev.x.head, (ev.tau,)))
        t = np.concatenate((ev.x.tail, (0.0,)))
    det = (head - t) * (head + t)
    a = head[hat.block_of]
    xq = hat.q * xb
    g = work.on * xq / a
    rho = jordan(sb, xq, hat)
    e_diag = work.on_diag * sb[hat.head_of] / a
    e_head = work.tail * sb / a
    # one gather; the product with -1.0 is an exact negation
    values = np.concatenate((g, rho, det, e_diag, e_head))[work.src] * work.sign
    work.xb, work.sb, work.xq, work.a, work.det = xb, sb, xq, a, det
    work.g, work.e_diag, work.e_head, work.values = g, e_diag, e_head, values
    rhs = work.rhs
    rhs[:p], rhs[p:p + n], rhs[p + n] = res.r_p, res.r_d, -res.r_g
    rhs[:p + m] *= -(1.0 - nu)
    np.subtract(nu * ev.mu * hat.e, jordan(xb, sb, hat), out=rhs[p + m:])
    return work


def solve_dense(K: np.ndarray, rhs: np.ndarray
                ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Solve K u = rhs by LU with partial pivoting, factoring the
    Fortran-ordered K in place; returns u and the factors (lu, piv)."""
    lu, piv, info = _getrf(K, overwrite_a=1)
    if info > 0:
        raise SingularSystem(f"exactly zero pivot in column {info}")
    u, _ = _getrs(lu, piv, rhs)
    return u, (lu, piv)


def _reduced_rhs(work: KktWorkspace, r: np.ndarray) -> np.ndarray:
    """f3 = Xb^{-1} r3 of the three-row r; writes r's reduced right-hand
    side into the workspace's `red`."""
    hat, m, p = work.spec, work.m, work.p
    r3 = r[p + m:]
    dot = np.add.reduceat(work.xq * r3, hat.heads) / work.det
    f3 = (work.xq * dot[hat.block_of] + work.tail * r3) / work.a
    top = work.dh @ r[p:p + m] if work.scaled else r[p:p + m]
    np.subtract(top, f3, out=work.red[:m])
    work.red[m:m + p] = r[:p]
    return f3


def _recover(work: KktWorkspace, u: np.ndarray, f3: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """(dxh, dy, dsh) from the reduced solution u = (Dh^{-T} dxh, dy, w),
    written into out in the point layout."""
    m, p = work.m, work.p
    ub = u[:m]
    vb = f3 - (work.g * u[work.w_of] + work.e_diag * ub
               + work.e_head * ub[work.spec.head_of])
    if work.scaled:
        np.matmul(work.dh.T, ub, out=out[:m])
        out[m:m + p] = u[m:m + p]
        np.matmul(work.dh_inv, vb, out=out[m + p:])
    else:
        out[:m + p], out[m + p:] = u[:m + p], vb
    return out


def _residual(work: KktWorkspace, d: np.ndarray) -> np.ndarray:
    """The full three-row residual rhs - M d of a direction d in the point
    layout, matrix-free and in the workspace's `residual`: A_hat dxh,
    C_hat dxh + A_hat' dy + dsh, sb o (Dh^{-T} dxh) + xb o (Dh dsh)."""
    m, p = work.m, work.p
    v = np.matmul(work.core, d[:m + p], out=work.core_out)
    dxb, dsh = d[:m], d[m + p:]
    dsb = dsh
    if work.scaled:
        dxb, dsb = work.dh_inv.T @ dxb, work.dh @ dsh
    e, rhs = work.residual, work.rhs
    np.subtract(rhs[:p], v[m:], out=e[:p])
    np.subtract(rhs[p:p + m], v[:m] + dsh, out=e[p:p + m])
    np.subtract(rhs[p + m:], jordan(work.sb, dxb, work.spec)
                + jordan(work.xb, dsb, work.spec), out=e[p + m:])
    return e


def solve_direction(work: KktWorkspace) -> NewtonDirection:
    """Factor the reduced system of the step that `assemble` last wrote,
    solve, and refine once against the full system.  An exactly zero
    pivot or a non-finite residual raises SingularSystem."""
    n, m, p = work.n, work.m, work.p
    f3 = _reduced_rhs(work, work.rhs)
    K = work.matrix
    K[...] = work.base
    work._matrix_flat[work.pos] = work.values
    if work.scaled:
        K[m:m + p, :m] = work.ad
        K[:m, m:m + p] = work.ad.T
        K[:n, n] = -work.dc
        K[n, :n] = work.dc
    u, factors = solve_dense(K, work.red)
    d = _recover(work, u, f3, np.empty(p + 2 * m))
    f3 = _reduced_rhs(work, _residual(work, d))
    du, _ = _getrs(*factors, work.red)
    d += _recover(work, du, f3, work.step)
    e = _residual(work, d)
    rel = math.sqrt(e @ e) / (1.0 + math.sqrt(work.rhs.dot(work.rhs)))
    if not math.isfinite(rel):
        raise SingularSystem("the Newton direction is not finite")
    return NewtonDirection(d, d[:n], d[m:m + p], d[m + p:-1],
                           dkappa=d.item(-1), dtau=d.item(n),
                           system_residual=rel,
                           orthogonality_defect=abs(float(d[:m] @ d[m + p:])))


def step_point(z: HsdPoint, direction: NewtonDirection,
               alpha: float = 1.0) -> HsdPoint:
    """The fresh point z + alpha d."""
    return z.over(z.vec + alpha * direction.vec)


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
    hat_spec, m = spec.hat(), spec.n + 1
    x_hat, dx_hat = z.vec[:m], direction.vec[:m]
    ds_hat = direction.vec[-m:]
    nx = float(np.linalg.norm(t_inverse_apply(x_hat, dx_hat, hat_spec)))
    ns = float(np.linalg.norm(t_apply(x_hat, ds_hat, hat_spec)))
    return nx, ns, increment_bound(gamma, delta, spec.k)
