"""Problem data, validation, and residuals of the self-dual embedding."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cones import ConeSpec, check_vector
from .errors import DimensionMismatch, NonFiniteData, SingularSystem

# relative size below which a singular value counts as zero
RANK_TOL = 1e-10


@dataclass
class SocpProblem:
    """Conic program  min c'x  s.t.  Ax = b,  x in K.

    Construction only normalizes array types; structural checks are
    reported by validate_problem and enforced at operation boundaries.
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
        if mismatches := _shape_mismatches(self):
            raise DimensionMismatch(mismatches[0])

    def check_finite(self) -> None:
        for name in ("A", "b", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteData(f"{name} contains NaN or inf")

    def check_rows(self) -> None:
        """[A, -b] must have independent rows, or every Newton system of
        the embedding is singular.  More rows than its n+1 columns raise
        DimensionMismatch, numerically dependent rows SingularSystem.  The
        rank test scales the -b column to A's largest column norm first,
        so that a large b alone does not read as dependent rows."""
        p, n = self.A.shape
        if p > n + 1:
            raise DimensionMismatch(
                f"{p} equality rows exceed the {n + 1} columns of [A, -b]")
        if p == 0:
            return
        b_norm = float(np.linalg.norm(self.b))
        a_norm = float(np.sqrt((self.A * self.A).sum(axis=0).max()))
        scale = a_norm / b_norm if a_norm > 0.0 and b_norm > 0.0 else 1.0
        dependent = _dependent_rows(np.linalg.svd(
            np.column_stack((self.A, scale * self.b)), compute_uv=False))
        if dependent:
            raise SingularSystem(f"the rows of [A, -b] {dependent}")


def _shape_mismatches(problem: SocpProblem) -> List[str]:
    """Failed dimension checks of A, b and c; a non-matrix A ends them."""
    A, b, c = problem.A, problem.b, problem.c
    if A.ndim != 2:
        return ["A must be a matrix"]
    (p, n), dim = A.shape, problem.cones.n
    found = []
    if n != dim:
        found.append(f"A has {n} columns but the cone has dimension {dim}")
    if b.shape != (p,):
        found.append(f"b has length {b.shape[0]}, expected {p}")
    if c.shape != (n,):
        found.append(f"c has length {c.shape[0]}, expected {n}")
    return found


def _dependent_rows(sv: np.ndarray) -> Optional[str]:
    """The rank test of a matrix with no more rows than columns, from its
    singular values sv, largest first: its rows are numerically dependent
    when sigma_min <= RANK_TOL sigma_max.  Returns what is found, or None."""
    if sv[-1] > RANK_TOL * sv[0]:
        return None
    ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
    return f"are numerically dependent (sigma_min/sigma_max = {ratio:.3e})"


@dataclass
class ValidationReport:
    ok: bool
    findings: List[Tuple[str, str]]
    sigma_max: Optional[float] = None
    sigma_min: Optional[float] = None
    rank_estimate: Optional[int] = None


def validate_problem(problem: SocpProblem) -> ValidationReport:
    """Report-based structural checks; never raises.

    Findings cover dimension consistency, p <= n, and numerical row rank
    of A (smallest singular value above 1e-10 times the largest).
    """
    A = problem.A
    findings = [("dimension", msg) for msg in _shape_mismatches(problem)]
    if A.ndim != 2:
        return ValidationReport(False, findings)
    p, n = A.shape
    if p > n:
        findings.append(("rank", f"more rows than columns ({p} > {n})"))
    sigma_max = sigma_min = None
    rank_estimate = None
    if p >= 1 and n >= 1 and np.all(np.isfinite(A)):
        sv = np.linalg.svd(A, compute_uv=False)
        sigma_max = float(sv[0])
        sigma_min = float(sv[min(p, n) - 1])
        if sigma_max == 0.0:
            findings.append(("rank", "A is identically zero"))
            rank_estimate = 0
        else:
            rank_estimate = int(np.sum(sv > RANK_TOL * sigma_max))
            dependent = _dependent_rows(sv) if p <= n else None
            if dependent:
                findings.append(("rank", f"rows {dependent}"))
    elif not np.all(np.isfinite(A)):
        findings.append(("value", "A contains non-finite entries"))
    return ValidationReport(ok=not findings, findings=findings,
                            sigma_max=sigma_max, sigma_min=sigma_min,
                            rank_estimate=rank_estimate)


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
        self.rp_norm = float(np.linalg.norm(self.r_p))
        self.rd_norm = float(np.linalg.norm(self.r_d))
        self.rg_abs = abs(self.r_g)


def compute_residuals(problem: SocpProblem, z) -> Residuals:
    """Residuals of the embedding at an HSD point z = (x, y, s, kappa, tau)."""
    problem.check_shapes()
    x = check_vector(z.x, problem.cones)
    s = check_vector(z.s, problem.cones)
    y = np.asarray(z.y, dtype=float).ravel()
    if y.shape != (problem.p,):
        raise DimensionMismatch(f"y has length {y.shape[0]}, expected {problem.p}")
    r_p = problem.A @ x - z.tau * problem.b
    r_d = problem.A.T @ y + s - z.tau * problem.c
    r_g = float(problem.b @ y - problem.c @ x - z.kappa)
    return Residuals(r_p, r_d, r_g)

