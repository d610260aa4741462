"""Problem data, its checks, and residuals of the self-dual embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeSpec, check_vector
from .errors import DimensionMismatch, NonFiniteData, SingularSystem

# relative size below which a singular value counts as zero
RANK_TOL = 1e-10


@dataclass
class SocpProblem:
    """Conic program  min c'x  s.t.  Ax = b,  x in K.

    Construction only normalizes array types; check_shapes, check_finite
    and check_rows run at the operation boundaries.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cones: ConeSpec
    name: str = ""

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c = np.asarray(self.c, dtype=float).ravel()

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def check_shapes(self) -> None:
        """Raise DimensionMismatch on the first failed dimension check:
        A a matrix, then its columns against the cone, then b, then c."""
        A, b, c = self.A, self.b, self.c
        if A.ndim != 2:
            raise DimensionMismatch("A must be a matrix")
        (p, n), dim = A.shape, self.cones.n
        if n != dim:
            raise DimensionMismatch(
                f"A has {n} columns but the cone has dimension {dim}")
        if b.shape != (p,):
            raise DimensionMismatch(f"b has length {b.shape[0]}, expected {p}")
        if c.shape != (n,):
            raise DimensionMismatch(f"c has length {c.shape[0]}, expected {n}")

    def check_finite(self) -> None:
        """Raise NonFiniteData when A, b or c holds NaN or inf, or entries
        so large (about 1e154 and up) that its sum of squares, which the
        residual norms and the row check take, overflows."""
        for name in ("A", "b", "c"):
            v = getattr(self, name).ravel()
            if not np.all(np.isfinite(v)):
                raise NonFiniteData(f"{name} contains NaN or inf")
            with np.errstate(over="ignore"):
                if not math.isfinite(v @ v):
                    raise NonFiniteData(
                        f"{name} is too large: its sum of squares overflows")

    def check_rows(self) -> None:
        """[A, -b] must have independent rows, or every Newton system of
        the embedding is singular.  More rows than its n+1 columns raise
        DimensionMismatch, numerically dependent rows SingularSystem.  The
        rank test scales the -b column to A's largest column norm first,
        so that a large b alone does not read as dependent rows; the rows
        are dependent when sigma_min <= RANK_TOL sigma_max."""
        p, n = self.A.shape
        if p > n + 1:
            raise DimensionMismatch(
                f"{p} equality rows exceed the {n + 1} columns of [A, -b]")
        if p == 0:
            return
        b_norm = float(np.linalg.norm(self.b))
        a_norm = float(np.sqrt((self.A * self.A).sum(axis=0).max()))
        scale = a_norm / b_norm if a_norm > 0.0 and b_norm > 0.0 else 1.0
        sv = np.linalg.svd(np.column_stack((self.A, scale * self.b)),
                           compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
            raise SingularSystem(
                f"the rows of [A, -b] are numerically dependent "
                f"(sigma_min/sigma_max = {ratio:.3e})")


@dataclass
class Residuals:
    """Embedding residuals at a point; norms are cached at construction.

    r_p = A x - tau b,  r_d = A' y + s - tau c,  r_g = b'y - c'x - kappa.
    """

    r_p: np.ndarray
    r_d: np.ndarray
    r_g: float
    rp_norm: float = field(init=False)
    rd_norm: float = field(init=False)
    rg_abs: float = field(init=False)

    def __post_init__(self):
        self.r_p = np.asarray(self.r_p, dtype=float)
        self.r_d = np.asarray(self.r_d, dtype=float)
        self.r_g = float(self.r_g)
        # np.linalg.norm's operations, sqrt(v.v), without its call overhead;
        # a sum of squares that overflows is taken again, scaled
        with np.errstate(over="ignore"):
            rp, rd = self.r_p.dot(self.r_p), self.r_d.dot(self.r_d)
        self.rp_norm = math.sqrt(rp) if math.isfinite(rp) \
            else _scaled_norm(self.r_p)
        self.rd_norm = math.sqrt(rd) if math.isfinite(rd) \
            else _scaled_norm(self.r_d)
        self.rg_abs = abs(self.r_g)


def _scaled_norm(v: np.ndarray) -> float:
    """||v|| of a v whose sum of squares overflows: v is divided by its
    largest magnitude first, so that only a norm beyond the float range
    reads inf.  An inf or NaN entry is the norm."""
    big = float(np.max(np.abs(v)))
    if not math.isfinite(big):
        return big
    u = v / big
    return big * math.sqrt(u.dot(u))


def compute_residuals(problem: SocpProblem, z, out=None) -> Residuals:
    """Residuals of the embedding at an HSD point z = (x, y, s, kappa, tau).

    Without `out` the data's and the point's shapes are checked first.
    `solve`, which checked them at entry, hands in one buffer `out` of
    length p + n for all its iterates; r_p and r_d are views into it.
    """
    x, y, s, tau = z.x, z.y, z.s, z.tau
    if out is None:
        problem.check_shapes()
        x, s = check_vector(x, problem.cones), check_vector(s, problem.cones)
        y = np.asarray(y, dtype=float).ravel()
        if y.shape != (problem.p,):
            raise DimensionMismatch(
                f"y has length {y.shape[0]}, expected {problem.p}")
        out = np.empty(problem.p + problem.n)
    A, b, c = problem.A, problem.b, problem.c
    r_p, r_d = out[:b.size], out[b.size:]
    np.matmul(A, x, out=r_p)
    r_p -= tau * b
    np.matmul(A.T, y, out=r_d)
    r_d += s
    r_d -= tau * c
    return Residuals(r_p, r_d, b @ y - c @ x - z.kappa)
