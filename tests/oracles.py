"""Independent reference implementations.

Everything here is built from generic dense linear algebra (sqrtm, eigvalsh,
np.linalg.solve) and the literal defining formulas, never from the package's
own closed forms. Tests freeze values produced by these.
"""

import numpy as np
import scipy.linalg as sla


def _block_slices(spec):
    return [(start, start + dim) for start, dim in spec.blocks]


def block_arrow(block):
    """Dense arrow matrix of one block, built entrywise."""
    d = block.shape[0]
    if d == 1:
        return block.reshape(1, 1).copy()
    M = block[0] * np.eye(d)
    M[0, 1:] = block[1:]
    M[1:, 0] = block[1:]
    return M


def arrow_oracle(v, spec):
    n = spec.n
    M = np.zeros((n, n))
    for a, b in _block_slices(spec):
        M[a:b, a:b] = block_arrow(v[a:b])
    return M


def t_oracle(v, spec):
    """T_v as the PSD matrix square root of Q_v = 2vv^T - det(v)Q,
    via scipy's generic sqrtm."""
    n = spec.n
    T = np.zeros((n, n))
    for a, b in _block_slices(spec):
        blk = v[a:b]
        d = b - a
        if d == 1:
            T[a, a] = blk[0]
            continue
        Q = np.eye(d)
        Q[1:, 1:] *= -1.0
        det = blk[0] ** 2 - blk[1:] @ blk[1:]
        Qv = 2.0 * np.outer(blk, blk) - det * Q
        T[a:b, a:b] = np.real(sla.sqrtm(Qv))
    return T


def spectral_oracle(v, spec):
    """Per-block extreme eigenvalues through a generic symmetric
    eigensolver on the arrow matrix."""
    out = np.empty((spec.k, 2))
    for i, (a, b) in enumerate(_block_slices(spec)):
        eig = np.linalg.eigvalsh(block_arrow(v[a:b]))
        out[i, 0] = eig[0]
        out[i, 1] = eig[-1]
    return out


def joint_eigenvalues(x, s, spec):
    """Eigenvalues of T_x s, blockwise, via the sqrtm oracle."""
    w = t_oracle(x, spec) @ s
    return spectral_oracle(w, spec), w


def mu_oracle(x, y, s, kappa, tau, k):
    return (x @ s + kappa * tau) / (k + 1)


def d2_oracle(x, s, kappa, tau, spec):
    """sqrt(2)*distance of the joint spectrum from mu, including the
    kappa-tau coordinate, from eigenvalues alone."""
    bounds, _ = joint_eigenvalues(x, s, spec)
    m = mu_oracle(x, None, s, kappa, tau, spec.k)
    total = 2.0 * (kappa * tau - m) ** 2
    for i, (_, dim) in enumerate(spec.blocks):
        lo, hi = bounds[i]
        if dim == 1:
            total += 2.0 * (lo - m) ** 2
        else:
            total += (lo - m) ** 2 + (hi - m) ** 2
    return np.sqrt(total)


def kkt_oracle(problem, z, D_mat, Dinv_mat, nu, mu_val):
    """Solve the five-row Newton system directly in the ordering
    [dx; dtau; dy; ds; dkappa] with np.linalg.solve.

    Rows: (i) A dx - b dtau, (ii) -A^T dy + c dtau - ds,
    (iii) b^T dy - c^T dx - dkappa, (iv) Sbar D^{-T} dx + Xbar D ds,
    (v) kappa dtau + tau dkappa. D_mat and Dinv_mat are dense n-by-n.
    """
    A, b, c, spec = problem.A, problem.b, problem.c, problem.cones
    p, n = A.shape
    x, y, s, kappa, tau = z.x, z.y, z.s, z.kappa, z.tau

    xbar = Dinv_mat.T @ x
    sbar = D_mat @ s
    Xbar = arrow_oracle(xbar, spec)
    Sbar = arrow_oracle(sbar, spec)
    e = np.zeros(n)
    for a, _ in _block_slices(spec):
        e[a] = 1.0

    N = 2 * n + p + 2
    M = np.zeros((N, N))
    rhs = np.zeros(N)
    ix = slice(0, n)
    it = n
    iy = slice(n + 1, n + 1 + p)
    isv = slice(n + 1 + p, 2 * n + 1 + p)
    ik = 2 * n + 1 + p

    r = 0
    M[r : r + p, ix] = A
    M[r : r + p, it] = -b
    rhs[r : r + p] = -(1.0 - nu) * (A @ x - tau * b)
    r += p

    M[r : r + n, iy] = -A.T
    M[r : r + n, it] = c
    M[r : r + n, isv] = -np.eye(n)
    rhs[r : r + n] = -(1.0 - nu) * (-A.T @ y + tau * c - s)
    r += n

    M[r, iy] = b
    M[r, ix] = -c
    M[r, ik] = -1.0
    rhs[r] = -(1.0 - nu) * (b @ y - c @ x - kappa)
    r += 1

    M[r : r + n, ix] = Sbar @ Dinv_mat.T
    M[r : r + n, isv] = Xbar @ D_mat
    rhs[r : r + n] = nu * mu_val * e - Xbar @ Sbar @ e
    r += 1 * n

    M[r, it] = kappa
    M[r, ik] = tau
    rhs[r] = nu * mu_val - kappa * tau

    sol = np.linalg.solve(M, rhs)
    return sol[ix], sol[iy], sol[isv], sol[ik], sol[it]


def group_defect(D_mat, spec):
    """Worst blockwise deviation of D/theta from the quadratic-form group,
    computed straight from the dense matrix; NaN when a block holds one."""
    defects = []
    for a, b in _block_slices(spec):
        blk = D_mat[a:b, a:b]
        d = b - a
        Q = np.eye(d)
        Q[1:, 1:] *= -1.0
        theta2 = (blk @ Q @ blk.T)[0, 0]
        G = blk / np.sqrt(theta2)
        defects.append(np.linalg.norm(G.T @ Q @ G - Q))
    return float(np.max(defects))


def choose_omega_oracle(diag):
    """The largest admissible weight on the 1e-4 grid, one at_omega record
    per candidate from 1 downward (this reads the package's at_omega; it
    is the reference for the scan, not for the formulas), or None."""
    for i in range(10001):
        d = diag.at_omega(max(0.0, 1.0 - i * 1e-4))
        if d.infeasible or not d.conditions_hold or not d.c_w < 1.0:
            continue
        if d.omega_eval >= d.omega_min:
            return d.omega_eval
    return None
