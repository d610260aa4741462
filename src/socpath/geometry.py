"""Central-path geometry of the homogeneous self-dual embedding.

Points carry (x, y, s, kappa, tau); the complementarity parameter is
mu = (x's + kappa tau)/(k+1) and centrality is measured through the
scaled product point w = T_x s together with the kappa*tau coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cones import ConeSpec, Spectrum, spectral_bounds, t_apply_of
from .errors import InvalidPoint
from .problem import SocpProblem


class HsdPoint:
    """A point (x, y, s, kappa, tau) of the embedding, held as one vector
    `vec` in the hat layout [x, tau | y | s, kappa] of the Newton system:
    x, y and s are views into vec, and tau and kappa properties over it.
    The constructor copies its arguments, so a point never aliases them."""

    __slots__ = ("vec", "x", "y", "s")

    def __init__(self, x, y, s, kappa, tau):
        x, y, s = (np.asarray(v, dtype=float).ravel() for v in (x, y, s))
        self._view(np.concatenate((x, [float(tau)], y, s, [float(kappa)])),
                   x.size, y.size)

    def _view(self, vec: np.ndarray, n: int, p: int) -> "HsdPoint":
        self.vec = vec
        self.x, self.y, self.s = vec[:n], vec[n + 1:n + 1 + p], vec[n + 1 + p:-1]
        return self

    def over(self, vec: np.ndarray) -> "HsdPoint":
        """The point of vec, kept without a copy, in this point's layout."""
        return HsdPoint.__new__(HsdPoint)._view(vec, self.x.size, self.y.size)

    def copy(self) -> "HsdPoint":
        return self.over(self.vec.copy())

    def __reduce__(self):
        return HsdPoint, (self.x, self.y, self.s, self.kappa, self.tau)

    tau = property(lambda z: z.vec.item(z.x.size),
                   lambda z, value: z.vec.put(z.x.size, value))
    kappa = property(lambda z: z.vec.item(-1),
                     lambda z, value: z.vec.put(z.vec.size - 1, value))


class Evaluation:
    """One evaluation of an HSD point z, which every reader of its
    interiority, mu and centrality shares.

    It holds the Spectrum of x and of s, tau, kappa and mu.  interior()
    asks for tau, kappa > 0 and both spectra interior; within(gamma) is
    membership in N_2(gamma), and a non-interior point is out.  The scaled
    product point w = T_x s is taken once, on first use; d2 reads w alone,
    and only dinf takes the spectral bounds of w.
    """

    def __init__(self, z: HsdPoint, spec: ConeSpec):
        self.tau, self.kappa = z.tau, z.kappa
        self.x, self.s = Spectrum(z.x, spec), Spectrum(z.s, spec)
        self.mu = float((self.x.v @ self.s.v + self.kappa * self.tau)
                        / (spec.k + 1))

    def interior(self) -> bool:
        return (self.tau > 0.0 and self.kappa > 0.0
                and self.x.interior() and self.s.interior())

    @cached_property
    def w(self) -> np.ndarray:
        return t_apply_of(self.x.require_interior("scaling point of t_apply"),
                          self.s.v)

    def d2(self) -> float:
        dev = self.w - self.mu * self.x.spec.e
        extra = self.kappa * self.tau - self.mu
        return math.sqrt(2.0) * math.sqrt(float(dev @ dev) + extra * extra)

    def dinf(self) -> float:
        bounds = spectral_bounds(self.w, self.x.spec)
        worst = float(np.max(np.abs(bounds - self.mu)))
        return max(worst, abs(self.kappa * self.tau - self.mu))

    def within(self, gamma: float) -> bool:
        return self.interior() and self.d2() <= gamma * self.mu


def mu(z: HsdPoint, spec: ConeSpec) -> float:
    """The complementarity parameter (x's + kappa tau)/(k+1)."""
    return Evaluation(z, spec).mu


def d2(z: HsdPoint, spec: ConeSpec) -> float:
    """Euclidean centrality distance sqrt(2)*||(w, kappa tau) - mu*(e, 1)||."""
    return Evaluation(z, spec).d2()


def dinf(z: HsdPoint, spec: ConeSpec) -> float:
    """Worst spectral deviation of (w, kappa tau) from mu."""
    return Evaluation(z, spec).dinf()


def in_neighborhood(z: HsdPoint, spec: ConeSpec, gamma: float) -> bool:
    """Membership in N_2(gamma); non-interior points are out."""
    return Evaluation(z, spec).within(gamma)


@dataclass
class Classification:
    """Terminal status with the associated payload.

    status 'optimal': x, y, s hold the tau-scaled solution.
    status 'primal_infeasible': y, s hold the dual ray (b'y > 0).
    status 'dual_infeasible': x holds the primal ray (c'x < 0, Ax ~ 0).
    status 'ill_posed': no certificate at this accuracy.
    """

    status: str
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None


def classify_status(z: HsdPoint, problem: SocpProblem,
                    eps: float) -> Classification:
    """Terminal dichotomy on (tau, kappa) at accuracy eps."""
    if z.tau <= 0.0 and z.kappa <= 0.0:
        raise InvalidPoint("tau and kappa are both nonpositive")
    if z.tau >= eps * max(1.0, z.kappa):
        return Classification("optimal", z.x / z.tau, z.y / z.tau, z.s / z.tau)
    if problem.b @ z.y > 0.0:
        return Classification("primal_infeasible", y=z.y.copy(), s=z.s.copy())
    if problem.c @ z.x < 0.0:
        return Classification("dual_infeasible", x=z.x.copy())
    return Classification("ill_posed")
