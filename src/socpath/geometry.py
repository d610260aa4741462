"""Central-path geometry of the homogeneous self-dual embedding.

Points carry (x, y, s, kappa, tau); the complementarity parameter is
mu = (x's + kappa tau)/(k+1) and centrality is measured through the
scaled product point w = T_x s together with the kappa*tau coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cones import (ConeSpec, Spectrum, check_vector, spectral_bounds,
                    t_apply_of, unit_element)
from .errors import InvalidPoint
from .problem import SocpProblem


@dataclass
class HsdPoint:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    kappa: float
    tau: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).ravel()
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.s = np.asarray(self.s, dtype=float).ravel()
        self.kappa = float(self.kappa)
        self.tau = float(self.tau)

    def copy(self) -> "HsdPoint":
        return HsdPoint(self.x.copy(), self.y.copy(), self.s.copy(),
                        self.kappa, self.tau)


@dataclass(frozen=True)
class NeighborhoodParams:
    gamma: float
    flavor: str = "2"

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0,1)")
        if self.flavor not in ("2", "inf"):
            raise ValueError("flavor must be '2' or 'inf'")


def mu(z: HsdPoint, spec: ConeSpec) -> float:
    x = check_vector(z.x, spec)
    s = check_vector(z.s, spec)
    return float((x @ s + z.kappa * z.tau) / (spec.k + 1))


def distances(z: HsdPoint, spec: ConeSpec, m: float) -> Tuple[float, float]:
    """(d2, dinf) of z at its mu m, from one scaled product point w = T_x s."""
    x = Spectrum(z.x, spec).require_interior("scaling point of t_apply")
    return distances_of(z, x, m)


def distances_of(z: HsdPoint, x: Spectrum, m: float) -> Tuple[float, float]:
    """distances from the evaluation x of an interior z.x."""
    spec = x.spec
    w = t_apply_of(x, check_vector(z.s, spec))
    dev = w - m * unit_element(spec)
    extra = z.kappa * z.tau - m
    dist2 = math.sqrt(2.0) * math.sqrt(float(dev @ dev) + extra * extra)
    bounds = spectral_bounds(w, spec)
    worst = float(np.max(np.abs(bounds - m)))
    return dist2, max(worst, abs(extra))


def d2(z: HsdPoint, spec: ConeSpec) -> float:
    """Euclidean centrality distance sqrt(2)*||(w, kappa tau) - mu*(e, 1)||."""
    return distances(z, spec, mu(z, spec))[0]


def dinf(z: HsdPoint, spec: ConeSpec) -> float:
    """Worst spectral deviation of (w, kappa tau) from mu."""
    return distances(z, spec, mu(z, spec))[1]


def in_neighborhood(z: HsdPoint, spec: ConeSpec,
                    params: NeighborhoodParams) -> bool:
    """Membership in N_2(gamma) or N_inf(gamma); non-interior points are out."""
    if z.kappa <= 0.0 or z.tau <= 0.0:
        return False
    x = Spectrum(z.x, spec)
    if not x.interior() or not Spectrum(z.s, spec).interior():
        return False
    m = mu(z, spec)
    dist2, distinf = distances_of(z, x, m)
    return (dist2 if params.flavor == "2" else distinf) <= params.gamma * m


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
