"""Jordan-algebra primitives for products of linear and second-order cones.

The cone is K = R+^l x Q^{n_1} x ... x Q^{n_m}, where
Q^d = {v in R^d : v_1 >= ||v_{2:}||} is the second-order (Lorentz) cone.

Each block carries the Jordan product u o v = (u'v, u_1 v_{2:} + v_1 u_{2:}),
unit e = (1, 0, ..., 0), and spectral values v_1 -/+ ||v_{2:}||.  For an
interior v the scaling matrix T_v is the symmetric positive definite square
root of the quadratic representation of v; it is built in closed form here,
no matrix square roots are taken.

Every block, linear entries included, is a head v_1 and a possibly empty
tail v_{2:}, and the primitives are whole-vector expressions over the
layout that ConeSpec builds once: a 1-dimensional block (a linear entry or
a (1,) second-order block) is a block with an empty tail, and the general
formulas give its values.  Only the tail norms loop over the blocks, one
np.linalg.norm per tail, so that a boundary point whose head was built as
that same norm stays in the cone under the exact membership test; dense
per-block matrices (T_v, ScalingMatrix blocks) are assembled block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NotInterior


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone structure: l linear entries first, then SOC blocks.

    Parameters
    ----------
    l : number of linear entries (each is its own block).
    soc_dims : dimensions of the second-order blocks, in variable order.

    The block layout is built once, as plain attributes that ==, hash and
    repr do not see: `heads` (offset of each block's first entry),
    `block_of` (block index of each entry) and `tail` (True off the heads).
    """

    l: int = 0
    soc_dims: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "soc_dims", tuple(int(d) for d in self.soc_dims))
        if self.l < 0:
            raise ValueError("l must be nonnegative")
        if any(d < 1 for d in self.soc_dims):
            raise ValueError("every second-order block dimension must be >= 1")
        if self.l + len(self.soc_dims) < 1:
            raise ValueError("the cone must contain at least one block")
        dims = (1,) * self.l + self.soc_dims
        heads = np.cumsum((0,) + dims[:-1])
        tail = np.ones(sum(dims), dtype=bool)
        tail[heads] = False
        block_of = np.repeat(np.arange(len(dims)), dims)
        for name, value in (("heads", heads), ("tail", tail),
                            ("block_of", block_of)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_blocks", tuple(zip(heads.tolist(), dims)))

    @property
    def k(self) -> int:
        """Number of blocks (cone rank)."""
        return self.l + len(self.soc_dims)

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.l + sum(self.soc_dims)

    @property
    def blocks(self) -> Tuple[Tuple[int, int], ...]:
        """(offset, dim) per block, in variable order."""
        return self._blocks

    def hat(self) -> "ConeSpec":
        """Spec with one extra trailing 1-dimensional block (for tau/kappa),
        built on first use and kept."""
        if "_hat" not in self.__dict__:
            object.__setattr__(self, "_hat", ConeSpec(self.l, self.soc_dims + (1,)))
        return self._hat


def check_vector(v, spec: ConeSpec) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise DimensionMismatch(
            f"expected vector of length {spec.n}, got shape {v.shape}")
    return v


def tail_norms(v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """||v_{2:}|| per block, 0 for an empty tail.

    One np.linalg.norm per tail: a segmented sum of squares rounds
    differently, and a boundary point whose head was built as
    np.linalg.norm(tail) would then fall outside the cone.
    """
    t = np.zeros(spec.k)
    for i, (o, d) in enumerate(spec.blocks[spec.l:], spec.l):
        t[i] = np.linalg.norm(v[o + 1:o + d])
    return t


def _det(v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Per-block determinant; the factored form (v_1 - t)(v_1 + t) avoids
    cancellation near the boundary."""
    h, t = v[spec.heads], tail_norms(v, spec)
    return (h - t) * (h + t)


def unit_element(spec: ConeSpec) -> np.ndarray:
    """Identity of the Jordan algebra: (1, 0, ..., 0) per block."""
    e = np.zeros(spec.n)
    e[spec.heads] = 1.0
    return e


def jordan_product(u, v, spec: ConeSpec) -> np.ndarray:
    u = check_vector(u, spec)
    v = check_vector(v, spec)
    out = u[spec.heads][spec.block_of] * v + v[spec.heads][spec.block_of] * u
    out[spec.heads] = np.add.reduceat(u * v, spec.heads)
    return out


def arrow_matrix(v, spec: ConeSpec) -> np.ndarray:
    """Block-diagonal matrix representation of the Jordan product by v."""
    v = check_vector(v, spec)
    head_of = spec.heads[spec.block_of]
    idx = np.arange(spec.n)
    M = np.zeros((spec.n, spec.n))
    M[head_of, idx] = v
    M[idx, head_of] = v
    M[idx, idx] = v[head_of]
    return M


def spectral_bounds(v, spec: ConeSpec) -> np.ndarray:
    """Per-block spectral values, shape (k, 2): columns (lambda_min, lambda_max)."""
    v = check_vector(v, spec)
    h, t = v[spec.heads], tail_norms(v, spec)
    return np.column_stack((h - t, h + t))


def membership(v, spec: ConeSpec, strict: bool = False) -> bool:
    """Exact cone membership test (no numerical slack)."""
    lo = spectral_bounds(v, spec)[:, 0]
    return bool(np.all(lo > 0.0)) if strict else bool(np.all(lo >= 0.0))


def _require_interior(v: np.ndarray, spec: ConeSpec, what: str) -> None:
    if not membership(v, spec, strict=True):
        raise NotInterior(f"{what} must lie strictly inside the cone")


def _t_block(vb: np.ndarray, beta: float) -> np.ndarray:
    """Dense T_v of one interior block with sqrt(det) beta:
    [[v_1, t'], [t, beta I + t t'/(beta + v_1)]] for the tail t."""
    d = vb.shape[0]
    T = np.outer(vb, vb) / (beta + vb[0])
    T[0] = vb
    T[:, 0] = vb
    T.flat[d + 1::d + 1] += beta
    return T


def t_scaling_matrix(v, spec: ConeSpec) -> np.ndarray:
    """Dense symmetric PD square root of the quadratic representation of v."""
    v = check_vector(v, spec)
    _require_interior(v, spec, "argument of t_scaling_matrix")
    beta = np.sqrt(_det(v, spec))
    M = np.zeros((spec.n, spec.n))
    for (o, d), b in zip(spec.blocks, beta):
        M[o:o + d, o:o + d] = _t_block(v[o:o + d], b)
    return M


def t_apply(v, u, spec: ConeSpec) -> np.ndarray:
    """T_v u without forming the dense matrix.  Requires interior v."""
    v = check_vector(v, spec)
    u = check_vector(u, spec)
    _require_interior(v, spec, "scaling point of t_apply")
    heads, blk = spec.heads, spec.block_of
    beta = np.sqrt(_det(v, spec))
    vu = v * u
    tail_dot = np.add.reduceat(np.where(spec.tail, vu, 0.0), heads)
    out = (u[heads][blk] * v + beta[blk] * u
           + v * tail_dot[blk] / (beta + v[heads])[blk])
    out[heads] = np.add.reduceat(vu, heads)
    return out


def t_inverse_apply(v, u, spec: ConeSpec) -> np.ndarray:
    """T_v^{-1} u via the reflection identity T_v^{-1} = Q T_v Q / det(v)."""
    v = check_vector(v, spec)
    u = check_vector(u, spec)
    _require_interior(v, spec, "scaling point of t_inverse_apply")
    w = t_apply(v, np.where(spec.tail, -u, u), spec)
    det = _det(v, spec)[spec.block_of]
    return w / np.where(spec.tail, -det, det)


def u_p_matrices(v, spec: ConeSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Split mat(v) = T_v + U_v; returns (U_v, P_v).

    U_v acts only on block tails: U_v = (v_1 - beta_v) P_v embedded with a
    zero first row and column, where P_v projects onto the orthogonal
    complement of the tail direction.  Blocks with zero tail (and linear
    blocks) contribute zero to both matrices.
    """
    v = check_vector(v, spec)
    _require_interior(v, spec, "argument of u_p_matrices")
    U = np.zeros((spec.n, spec.n))
    P = np.zeros((spec.n, spec.n))
    beta = np.sqrt(_det(v, spec))
    for (o, d), t, b in zip(spec.blocks, tail_norms(v, spec), beta):
        if t == 0.0:
            continue
        tail = v[o + 1:o + d]
        proj = np.eye(d - 1) - np.outer(tail, tail) / (t * t)
        P[o + 1:o + d, o + 1:o + d] = proj
        U[o + 1:o + d, o + 1:o + d] = (v[o] - b) * proj
    return U, P


def w_vector(x, s, spec: ConeSpec) -> np.ndarray:
    """Scaled product point T_x s.  Requires strictly interior x."""
    return t_apply(x, s, spec)


def r_matrix(x, s, spec: ConeSpec) -> np.ndarray:
    """Dense T_x mat(x)^{-1} mat(s) T_x.  Requires interior x and s."""
    x = check_vector(x, spec)
    s = check_vector(s, spec)
    _require_interior(x, spec, "x in r_matrix")
    _require_interior(s, spec, "s in r_matrix")
    T = t_scaling_matrix(x, spec)
    X = arrow_matrix(x, spec)
    S = arrow_matrix(s, spec)
    return T @ np.linalg.solve(X, S @ T)


class ScalingMatrix:
    """Block-diagonal member D of the scaling group, D = (Theta G)^{-1}.

    Per block i, G_i preserves the reflection form (G_i' Q G_i = Q with
    Q = diag(1, -I)) and theta_i > 0 scales it.  Linear blocks carry
    G_i = 1.  Application methods avoid forming the full dense matrix;
    dense forms are available for assembly and tests.
    """

    def __init__(self, spec: ConeSpec, g_blocks: Sequence[np.ndarray],
                 thetas: Sequence[float], d_blocks: Optional[Sequence[np.ndarray]] = None):
        if len(g_blocks) != spec.k or len(thetas) != spec.k:
            raise DimensionMismatch("one G block and one theta per cone block")
        self.spec = spec
        self.g_blocks = [np.asarray(g, dtype=float) for g in g_blocks]
        self.thetas = np.asarray(thetas, dtype=float)
        if np.any(self.thetas <= 0.0):
            raise ValueError("thetas must be positive")
        for (o, d), g in zip(spec.blocks, self.g_blocks):
            if g.shape != (d, d):
                raise DimensionMismatch(
                    f"G block at offset {o} must be {d}x{d}, got {g.shape}")
        if d_blocks is None:
            d_blocks = [np.linalg.inv(th * g)
                        for th, g in zip(self.thetas, self.g_blocks)]
        self.d_blocks = [np.asarray(db, dtype=float) for db in d_blocks]

    @classmethod
    def identity(cls, spec: ConeSpec) -> "ScalingMatrix":
        gs = [np.eye(d) for _, d in spec.blocks]
        return cls(spec, gs, np.ones(spec.k), d_blocks=[g.copy() for g in gs])

    def _blockwise(self, v, mats) -> np.ndarray:
        v = check_vector(v, self.spec)
        out = np.empty(self.spec.n)
        for (o, d), M in zip(self.spec.blocks, mats):
            out[o:o + d] = M @ v[o:o + d]
        return out

    def apply(self, v) -> np.ndarray:
        """D v"""
        return self._blockwise(v, self.d_blocks)

    def apply_transpose(self, v) -> np.ndarray:
        """D' v"""
        return self._blockwise(v, [db.T for db in self.d_blocks])

    def apply_inverse(self, v) -> np.ndarray:
        """D^{-1} v = Theta G v"""
        return self._blockwise(
            v, [th * g for th, g in zip(self.thetas, self.g_blocks)])

    def apply_inverse_transpose(self, v) -> np.ndarray:
        """D^{-T} v = Theta G' v"""
        return self._blockwise(
            v, [th * g.T for th, g in zip(self.thetas, self.g_blocks)])

    def matrix(self) -> np.ndarray:
        M = np.zeros((self.spec.n, self.spec.n))
        for (o, d), db in zip(self.spec.blocks, self.d_blocks):
            M[o:o + d, o:o + d] = db
        return M

    def inverse_matrix(self) -> np.ndarray:
        M = np.zeros((self.spec.n, self.spec.n))
        for (o, d), th, g in zip(self.spec.blocks, self.thetas, self.g_blocks):
            M[o:o + d, o:o + d] = th * g
        return M

    def group_residual(self) -> float:
        """Largest per-block Frobenius defect ||G'QG - Q||_F."""
        worst = 0.0
        for (_, d), g in zip(self.spec.blocks, self.g_blocks):
            q = np.diag(np.r_[1.0, -np.ones(d - 1)])
            worst = max(worst, float(np.linalg.norm(g.T @ q @ g - q)))
        return worst


def apply_scaling(D: ScalingMatrix, x, s) -> Tuple[np.ndarray, np.ndarray]:
    """Primal-dual change of variables (D^{-T} x, D s)."""
    return D.apply_inverse_transpose(x), D.apply(s)


def nt_scaling(x, s, spec: ConeSpec) -> ScalingMatrix:
    """Nesterov-Todd scaling point in closed form: D^2 s = x exactly.

    Per block the normalized geometric mean
    w = (x/beta_x + Q s/beta_s) / (2 gamma), gamma^2 = (1 + x's/(beta_x beta_s))/2,
    has unit determinant, and D = sqrt(beta_x/beta_s) T_w.  G = Q T_w Q is
    the inverse of T_w for det-one w, so no matrix inversion is needed.
    """
    x = check_vector(x, spec)
    s = check_vector(s, spec)
    _require_interior(x, spec, "x in nt_scaling")
    _require_interior(s, spec, "s in nt_scaling")
    heads, blk = spec.heads, spec.block_of
    bx, bs = np.sqrt(_det(x, spec)), np.sqrt(_det(s, spec))
    xt, st = x / bx[blk], s / bs[blk]
    gam = np.sqrt((1.0 + np.add.reduceat(xt * st, heads)) / 2.0)
    w = (xt + np.where(spec.tail, -st, st)) / (2.0 * gam)[blk]
    eta = np.sqrt(bx / bs)
    g_blocks: List[np.ndarray] = []
    d_blocks: List[np.ndarray] = []
    for (o, d), bw, e in zip(spec.blocks, np.sqrt(_det(w, spec)), eta):
        Tw = _t_block(w[o:o + d], bw)
        G = Tw.copy()
        G[0, 1:] *= -1.0
        G[1:, 0] *= -1.0
        g_blocks.append(G)
        d_blocks.append(e * Tw)
    return ScalingMatrix(spec, g_blocks, 1.0 / eta, d_blocks=d_blocks)


def random_automorphism(spec: ConeSpec, seed=None) -> ScalingMatrix:
    """Random member of the scaling group, reproducible from the seed.

    Per SOC block: product of two tail rotations (QR of a Gaussian matrix)
    and a hyperbolic rotation with angle in [-0.7, 0.7] acting in the
    (1, 2) coordinate plane; thetas drawn from [0.5, 2].
    """
    rng = np.random.default_rng(seed)
    g_blocks: List[np.ndarray] = []
    thetas = rng.uniform(0.5, 2.0, size=spec.k)
    for _, d in spec.blocks:
        G = np.eye(d)
        # both rotations need a tail; an empty tail keeps G = 1
        for _ in range(2 if d > 1 else 0):
            R = np.eye(d)
            if d == 2:
                R[1, 1] = rng.choice([-1.0, 1.0])
            else:
                Qf, Rf = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
                R[1:, 1:] = Qf * np.sign(np.diag(Rf))
            t = rng.uniform(-0.7, 0.7)
            H = np.eye(d)
            H[0, 0] = H[1, 1] = math.cosh(t)
            H[0, 1] = H[1, 0] = math.sinh(t)
            G = R @ H @ G
        g_blocks.append(G)
    return ScalingMatrix(spec, g_blocks, thetas)
