"""Warm-start construction between neighboring problem instances.

A previous primal-dual pair (x_o, y_o, s_o) is blended with the cold
start along omega in [0,1]; the diagnostics quantify how the blend's
residuals, duality gap, and centrality relate to a cold start on the
new instance, and bound the iteration savings under the unified stop
criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .cones import ConeSpec, Spectrum, t_apply_of, unit_element
from .errors import (ConeSpecMismatch, DimensionMismatch, EmptyAdmissibleSet,
                     NotInterior)
from .geometry import HsdPoint, NeighborhoodParams, in_neighborhood
from .problem import SocpProblem
from .solver import centering_nu

OMEGA_GRID = 1e-4


def cold_start(spec: ConeSpec, p: int = 0) -> HsdPoint:
    """The canonical start (e, 0, e, 1, 1); `p` sizes the dual vector."""
    e = unit_element(spec)
    return HsdPoint(e, np.zeros(p), e.copy(), kappa=1.0, tau=1.0)


def check_omega(omega: Union[str, float]) -> None:
    """A blend weight request is "max-admissible" or a fixed weight in
    [0,1], so NaN and inf fail too."""
    if isinstance(omega, str):
        if omega != "max-admissible":
            raise ValueError("omega must be 'max-admissible' or a weight "
                             f"in [0,1], not {omega!r}")
    elif not (0.0 <= omega <= 1.0):
        raise ValueError("omega must lie in [0,1]")


def warm_start_point(prev, omega: float, spec: ConeSpec,
                     p: Optional[int] = None) -> HsdPoint:
    """Blend of the previous pair with the cold start at weight omega.

    kappa is set to x_w's_w/k and tau to 1, which puts the blend's
    kappa*tau coordinate exactly at its own mu.
    """
    x_o, y_o, s_o = prev
    xs, ss = Spectrum(x_o, spec), Spectrum(s_o, spec)
    x_o, s_o = xs.v, ss.v
    y_o = np.asarray(y_o, dtype=float).ravel()
    if p is not None and y_o.shape != (p,):
        raise DimensionMismatch(f"y_o has length {y_o.shape[0]}, expected {p}")
    check_omega(omega)
    if not (np.all(xs.lo >= 0.0) and np.all(ss.lo >= 0.0)):
        raise NotInterior("previous pair must lie in the cone")
    if omega == 1.0 and not (xs.interior() and ss.interior()):
        raise NotInterior("omega=1 requires a strictly interior previous pair")
    e = unit_element(spec)
    x_w = omega * x_o + (1.0 - omega) * e
    s_w = omega * s_o + (1.0 - omega) * e
    kappa = float(x_w @ s_w) / spec.k
    return HsdPoint(x_w, omega * y_o, s_w, kappa=kappa, tau=1.0)


@dataclass(kw_only=True)
class WarmStartDiagnostics:
    """Sufficient-condition constants evaluated at a stated omega.

    rho and xi_o carry the clamped values used by the admissibility
    dichotomy; the raw signed evaluations are reported alongside.
    omega_min is None exactly when `infeasible` is set (gamma <= gamma_o
    with xi_o > 0).  at_omega sets the fields with defaults from the
    others; soc_first and soc_beta hold the first components and betas
    of the SOC blocks with nonzero tail.
    """

    c_a: float
    c_b: float
    c_p: float
    c_at: float
    c_c: float
    c_d: float
    c_mu: float
    c_xs: float = math.nan
    psi_o: float
    rho: float = math.nan
    rho_raw: float = math.nan
    xi_o: float = math.nan
    xi_o_raw: float = math.nan
    omega_min: Optional[float] = None
    infeasible: bool = False
    gamma_o: float
    c_w: float = math.inf
    predicted_saving: int = 0
    primal_vacuous: bool
    dual_vacuous: bool
    conditions_hold: bool = False
    gamma: float
    delta: float
    omega_eval: float = math.nan
    k: int = field(repr=False)
    dev_norm: float = field(repr=False)    # ||(x_o+s_o) - psi_o e||
    s_o_norm: float = field(repr=False)
    soc_first: np.ndarray = field(repr=False)
    soc_beta: np.ndarray = field(repr=False)

    def at_omega(self, omega: float) -> "WarmStartDiagnostics":
        """A copy with the omega-dependent fields evaluated at omega."""
        rho = rho_raw = 0.0
        if self.soc_first.size:
            x1, beta_o = self.soc_first, self.soc_beta
            beta_w = np.sqrt(omega * omega * beta_o * beta_o
                             + 2.0 * omega * (1.0 - omega) * x1
                             + (1.0 - omega) ** 2)
            frac = (2.0 * omega * x1 + 1.0 - omega) / (beta_w + omega * beta_o)
            rho_raw = float(np.max(1.0 - frac))
            rho = max(0.0, float(np.max(frac - 1.0)))
        bracket = self.dev_norm + rho * self.s_o_norm
        xi_o = math.sqrt(2.0) * bracket - self.gamma * self.psi_o
        xi_o_raw = bracket - self.gamma * self.psi_o
        infeasible = False
        if xi_o <= 0.0:
            omega_min: Optional[float] = 0.0
        elif self.gamma > self.gamma_o:
            omega_min = xi_o / (xi_o + (self.gamma - self.gamma_o) * self.c_mu)
        else:
            omega_min = None
            infeasible = True
        c_xs = (1.0 - omega) * (self.psi_o + 1.0)
        bounds: List[float] = []
        conditions_hold = True
        if not self.primal_vacuous:
            if self.c_a + self.c_b + self.c_p <= 1.0:
                bounds.append(1.0 - omega * (1.0 - (self.c_a + self.c_b + self.c_p)))
            else:
                conditions_hold = False
        if not self.dual_vacuous:
            if self.c_at + self.c_c + self.c_d <= 1.0:
                bounds.append(1.0 - omega * (1.0 - (self.c_at + self.c_c + self.c_d)))
            else:
                conditions_hold = False
        if self.c_mu + c_xs <= 1.0:
            bounds.append(omega * omega * self.c_mu + c_xs)
        else:
            conditions_hold = False
        c_w = max(bounds) if (conditions_hold and bounds) else math.inf
        nu = centering_nu(self.delta, self.k)
        if conditions_hold and 0.0 < c_w < 1.0:
            predicted_saving = math.floor(-math.log(c_w) / (-math.log(nu)))
        else:
            predicted_saving = 0
        return replace(
            self, c_xs=c_xs, rho=rho, rho_raw=rho_raw, xi_o=xi_o,
            xi_o_raw=xi_o_raw, omega_min=omega_min, infeasible=infeasible,
            c_w=c_w, predicted_saving=predicted_saving,
            conditions_hold=conditions_hold, omega_eval=omega)


def _pair_centrality(xs: Spectrum, ss: Spectrum) -> Tuple[float, float]:
    """(mu, gamma) of a primal-dual pair from its evaluations; inf when
    not strictly interior."""
    spec = xs.spec
    mu_o = float(xs.v @ ss.v) / spec.k
    if not (xs.interior() and ss.interior()):
        return mu_o, math.inf
    w = t_apply_of(xs, ss.v)
    dev = w - mu_o * unit_element(spec)
    d2_pair = math.sqrt(2.0) * float(np.linalg.norm(dev))
    return mu_o, d2_pair / mu_o


def diagnostics(prev_p: SocpProblem, new_p: SocpProblem, prev,
                gamma: float, omega_eval: float = 1.0,
                delta: float = 0.03) -> WarmStartDiagnostics:
    """Evaluate the warm-start sufficient conditions at omega_eval.

    `prev` is the previous instance's pair (x_o, y_o, s_o), already
    scaled back from the embedding (tau divided out).  delta feeds the
    contraction rate used for predicted_saving.
    """
    if prev_p.cones != new_p.cones:
        raise ConeSpecMismatch("problems must share a cone structure")
    prev_p.check_shapes()
    new_p.check_shapes()
    if prev_p.A.shape != new_p.A.shape:
        raise DimensionMismatch("problems must share matrix dimensions")
    if not (0.0 <= omega_eval <= 1.0):
        raise ValueError("omega_eval must lie in [0,1]")
    spec = new_p.cones
    x_o, y_o, s_o = prev
    xs, ss = Spectrum(x_o, spec), Spectrum(s_o, spec)
    x_o, s_o = xs.v, ss.v
    y_o = np.asarray(y_o, dtype=float).ravel()
    if y_o.shape != (new_p.p,):
        raise DimensionMismatch(f"y_o has length {y_o.shape[0]}, expected {new_p.p}")
    if not (np.all(xs.lo >= 0.0) and np.all(ss.lo >= 0.0)):
        raise NotInterior("previous pair must lie in the cone")

    dA = new_p.A - prev_p.A
    db = new_p.b - prev_p.b
    dc = new_p.c - prev_p.c
    dA_norm = float(np.linalg.norm(dA, 2)) if np.any(dA) else 0.0
    e = unit_element(spec)
    rp_cold = float(np.linalg.norm(new_p.A @ e - new_p.b))
    rd_cold = float(np.linalg.norm(e - new_p.c))
    rp_prev = float(np.linalg.norm(prev_p.A @ x_o - prev_p.b))
    rd_prev = float(np.linalg.norm(prev_p.A.T @ y_o + s_o - prev_p.c))

    primal_vacuous = rp_cold == 0.0
    if primal_vacuous:
        c_a = c_b = c_p = 0.0
    else:
        c_a = dA_norm * float(np.linalg.norm(x_o)) / rp_cold
        c_b = float(np.linalg.norm(db)) / rp_cold
        c_p = rp_prev / rp_cold
    dual_vacuous = rd_cold == 0.0
    if dual_vacuous:
        c_at = c_c = c_d = 0.0
    else:
        c_at = dA_norm * float(np.linalg.norm(y_o)) / rd_cold
        c_c = float(np.linalg.norm(dc)) / rd_cold
        c_d = rd_prev / rd_cold

    mu_o, gamma_o = _pair_centrality(xs, ss)
    psi_o = float(e @ (x_o + s_o)) / spec.k
    dev_norm = float(np.linalg.norm((x_o + s_o) - psi_o * e))
    soc = xs.tail != 0.0
    diag = WarmStartDiagnostics(
        c_a=c_a, c_b=c_b, c_p=c_p, c_at=c_at, c_c=c_c, c_d=c_d, c_mu=mu_o,
        psi_o=psi_o, gamma_o=gamma_o, primal_vacuous=primal_vacuous,
        dual_vacuous=dual_vacuous, gamma=gamma, delta=delta, k=spec.k,
        dev_norm=dev_norm, s_o_norm=float(np.linalg.norm(s_o)),
        soc_first=xs.head[soc], soc_beta=xs.beta()[soc])
    return diag.at_omega(omega_eval)


def _admissible(d: WarmStartDiagnostics) -> bool:
    if d.infeasible or not d.conditions_hold or not d.c_w < 1.0:
        return False
    return d.omega_eval >= d.omega_min


def choose_omega(diag: WarmStartDiagnostics) -> float:
    """The largest admissible blend weight on a 1e-4 grid scanned downward
    from 1, re-evaluating the omega-dependent quantities at each candidate."""
    steps = int(round(1.0 / OMEGA_GRID))
    for i in range(steps + 1):
        omega = max(0.0, 1.0 - i * OMEGA_GRID)
        if _admissible(diag.at_omega(omega)):
            return omega
    raise EmptyAdmissibleSet("no omega on the grid is admissible")


@dataclass
class WarmStart:
    """A blend for the new instance, or the cold start at omega 0 with the
    `fallback` reason.  `diagnostics` are evaluated at omega_eval=1."""

    start: HsdPoint
    omega: float
    fallback: Optional[str]
    diagnostics: WarmStartDiagnostics


def warm_start(prev_p: SocpProblem, new_p: SocpProblem, prev, gamma: float,
               delta: float = 0.03,
               omega: Union[str, float] = "max-admissible") -> WarmStart:
    """Choose omega ("max-admissible" for choose_omega's scan, or a weight
    in [0,1] used as given) and blend; fall back to the cold start when no
    weight is admissible or the blend lies outside N_2(gamma)."""
    check_omega(omega)
    diag = diagnostics(prev_p, new_p, prev, gamma=gamma, delta=delta)
    spec, p = new_p.cones, new_p.p
    fallback = None
    if isinstance(omega, str):
        try:
            omega = choose_omega(diag)
        except EmptyAdmissibleSet:
            fallback = "empty admissible set"
    if fallback is None:
        start = warm_start_point(prev, omega, spec, p=p)
        if in_neighborhood(start, spec, NeighborhoodParams(gamma, "2")):
            return WarmStart(start, float(omega), None, diag)
        fallback = "outside neighborhood"
    return WarmStart(cold_start(spec, p=p), 0.0, fallback, diag)
