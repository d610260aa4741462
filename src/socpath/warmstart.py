"""Warm-start construction between neighboring problem instances.

A previous primal-dual pair (x_o, y_o, s_o) is blended with the cold
start along omega in [0,1]; the diagnostics quantify how the blend's
residuals, duality gap, and centrality relate to a cold start on the
new instance, and bound the iteration savings under the unified stop
criterion.  run_bench measures those savings along a drift sequence of
perturbed instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .cones import ConeSpec, Spectrum, t_apply_of, unit_element
from .errors import (ConeSpecMismatch, DimensionMismatch, EmptyAdmissibleSet,
                     InvalidParams, NotInterior)
from .geometry import HsdPoint, in_neighborhood
from .kkt import centering_nu
from .problem import SocpProblem, compute_residuals
from .solver import SolverParams, solve

OMEGA_GRID = 1e-4
# choose_omega takes the grid this many weights at a time from the top: the
# whole grid at once costs milliseconds when a weight near 1 is admissible
OMEGA_BLOCK = 128
# run_bench's unified stop tolerance, also the default of `bench --epsilon`
BENCH_EPSILON = 1e-3

_Pair = Tuple[Spectrum, np.ndarray, Spectrum]  # x_o, y_o, s_o evaluated


def _finite_or_none(v: float) -> Optional[float]:
    return float(v) if math.isfinite(v) else None


def cold_start(spec: ConeSpec, p: int = 0) -> HsdPoint:
    """The canonical start (e, 0, e, 1, 1); `p` sizes the dual vector."""
    e = unit_element(spec)
    return HsdPoint(e, np.zeros(p), e.copy(), kappa=1.0, tau=1.0)


def check_weight(omega: float) -> None:
    """A blend weight is a number in [0,1], so NaN, inf and strings fail."""
    if isinstance(omega, str) or not (0.0 <= omega <= 1.0):
        raise InvalidParams("omega must lie in [0,1]")


def check_omega(omega: Union[str, float]) -> None:
    """A blend weight request is "max-admissible" or a fixed weight."""
    if isinstance(omega, str):
        if omega != "max-admissible":
            raise InvalidParams("omega must be 'max-admissible' or a "
                                f"weight in [0,1], not {omega!r}")
    else:
        check_weight(omega)


def _previous_pair(prev, spec: ConeSpec, p: Optional[int]) -> _Pair:
    """Spectra of x_o and s_o, which must lie in the cone, and y_o, which
    must have length p when p is given."""
    x_o, y_o, s_o = prev
    xs, ss = Spectrum(x_o, spec), Spectrum(s_o, spec)
    y_o = np.asarray(y_o, dtype=float).ravel()
    if p is not None and y_o.shape != (p,):
        raise DimensionMismatch(f"y_o has length {y_o.shape[0]}, expected {p}")
    if not (np.all(xs.lo >= 0.0) and np.all(ss.lo >= 0.0)):
        raise NotInterior("previous pair must lie in the cone")
    return xs, y_o, ss


def warm_start_point(prev, omega: float, spec: ConeSpec,
                     p: Optional[int] = None) -> HsdPoint:
    """Blend of the previous pair with the cold start at weight omega.

    kappa is set to x_w's_w/k and tau to 1, which puts the blend's
    kappa*tau coordinate exactly at its own mu.
    """
    check_weight(omega)
    return _blend(_previous_pair(prev, spec, p), omega)


def _blend(pair: _Pair, omega: float) -> HsdPoint:
    xs, y_o, ss = pair
    if omega == 1.0 and not (xs.interior() and ss.interior()):
        raise NotInterior("omega=1 requires a strictly interior previous pair")
    spec = xs.spec
    x_w = omega * xs.v + (1.0 - omega) * spec.e
    s_w = omega * ss.v + (1.0 - omega) * spec.e
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
    of the SOC blocks with nonzero tail, and `pair` the evaluated previous
    pair, which warm_start blends.
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
    pair: _Pair = field(repr=False)

    def _at(self, omega: np.ndarray) -> Dict[str, np.ndarray]:
        """The omega-dependent fields at each weight of `omega`, omega_min
        NaN where infeasible; at_omega is its one-point case."""
        rho = rho_raw = np.zeros_like(omega)
        if self.soc_first.size:
            x1, beta_o, w = self.soc_first, self.soc_beta, omega[:, None]
            # float_power is C pow, as Python's ** on a float; numpy's
            # ** 2 squares, which can differ in the last bit
            beta_w = np.sqrt(w * w * beta_o * beta_o
                             + 2.0 * w * (1.0 - w) * x1
                             + np.float_power(1.0 - w, 2))
            frac = (2.0 * w * x1 + 1.0 - w) / (beta_w + w * beta_o)
            rho_raw = np.max(1.0 - frac, axis=1)
            rho = np.maximum(0.0, np.max(frac - 1.0, axis=1))
        bracket = self.dev_norm + rho * self.s_o_norm
        xi_o = math.sqrt(2.0) * bracket - self.gamma * self.psi_o
        positive = ~(xi_o <= 0.0)
        infeasible = positive & (not self.gamma > self.gamma_o)
        omega_min = np.divide(xi_o, xi_o + (self.gamma - self.gamma_o) * self.c_mu,
                              out=np.where(infeasible, math.nan, 0.0),
                              where=positive & ~infeasible)
        c_xs = (1.0 - omega) * (self.psi_o + 1.0)
        conditions_hold = self.c_mu + c_xs <= 1.0
        bounds = []
        for vacuous, c_sum in ((self.primal_vacuous, self.c_a + self.c_b + self.c_p),
                               (self.dual_vacuous, self.c_at + self.c_c + self.c_d)):
            if not vacuous:
                conditions_hold &= c_sum <= 1.0
                bounds.append(1.0 - omega * (1.0 - c_sum))
        bounds.append(omega * omega * self.c_mu + c_xs)
        c_w = np.where(conditions_hold, np.max(bounds, axis=0), math.inf)
        return dict(c_xs=c_xs, rho=rho, rho_raw=rho_raw, xi_o=xi_o,
                    xi_o_raw=bracket - self.gamma * self.psi_o,
                    omega_min=omega_min, infeasible=infeasible, c_w=c_w,
                    conditions_hold=conditions_hold)

    def at_omega(self, omega: float) -> "WarmStartDiagnostics":
        """A copy with the omega-dependent fields evaluated at omega."""
        at = {f: v[0].item() for f, v in self._at(np.array([omega], float)).items()}
        if at["infeasible"]:
            at["omega_min"] = None
        nu = centering_nu(self.delta, self.k)
        predicted_saving = 0
        if at["conditions_hold"] and 0.0 < at["c_w"] < 1.0:
            predicted_saving = math.floor(-math.log(at["c_w"]) / (-math.log(nu)))
        return replace(self, **at, predicted_saving=predicted_saving,
                       omega_eval=omega)


def diagnostics(prev_p: SocpProblem, new_p: SocpProblem, prev,
                params: SolverParams) -> WarmStartDiagnostics:
    """Evaluate the warm-start sufficient conditions at omega 1; `at_omega`
    evaluates them at another weight.

    `prev` is the previous instance's pair (x_o, y_o, s_o), already
    scaled back from the embedding (tau divided out).  `params` are those
    of the solve the blend starts: its gamma is the radius of the target
    neighborhood, and its delta the contraction rate behind
    predicted_saving.
    """
    if prev_p.cones != new_p.cones:
        raise ConeSpecMismatch("problems must share a cone structure")
    prev_p.check_shapes()
    new_p.check_shapes()
    if prev_p.A.shape != new_p.A.shape:
        raise DimensionMismatch("problems must share matrix dimensions")
    spec = new_p.cones
    pair = xs, y_o, ss = _previous_pair(prev, spec, new_p.p)
    x_o, s_o = xs.v, ss.v

    dA = new_p.A - prev_p.A
    db = new_p.b - prev_p.b
    dc = new_p.c - prev_p.c
    dA_norm = float(np.linalg.norm(dA, 2)) if np.any(dA) else 0.0
    cold = compute_residuals(new_p, cold_start(spec, new_p.p))
    prev_r = compute_residuals(prev_p, HsdPoint(x_o, y_o, s_o, 0.0, 1.0))

    primal_vacuous = cold.rp_norm == 0.0
    if primal_vacuous:
        c_a = c_b = c_p = 0.0
    else:
        c_a = dA_norm * float(np.linalg.norm(x_o)) / cold.rp_norm
        c_b = float(np.linalg.norm(db)) / cold.rp_norm
        c_p = prev_r.rp_norm / cold.rp_norm
    dual_vacuous = cold.rd_norm == 0.0
    if dual_vacuous:
        c_at = c_c = c_d = 0.0
    else:
        c_at = dA_norm * float(np.linalg.norm(y_o)) / cold.rd_norm
        c_c = float(np.linalg.norm(dc)) / cold.rd_norm
        c_d = prev_r.rd_norm / cold.rd_norm

    e = spec.e
    mu_o, gamma_o = float(x_o @ s_o) / spec.k, math.inf
    # an interior pair whose x_o's_o underflows to 0 has no centrality
    if mu_o > 0.0 and xs.interior() and ss.interior():
        dev = t_apply_of(xs, s_o) - mu_o * e
        gamma_o = math.sqrt(2.0) * float(np.linalg.norm(dev)) / mu_o
    psi_o = float(e @ (x_o + s_o)) / spec.k
    dev_norm = float(np.linalg.norm((x_o + s_o) - psi_o * e))
    soc = xs.tail != 0.0
    diag = WarmStartDiagnostics(
        c_a=c_a, c_b=c_b, c_p=c_p, c_at=c_at, c_c=c_c, c_d=c_d, c_mu=mu_o,
        psi_o=psi_o, gamma_o=gamma_o, primal_vacuous=primal_vacuous,
        dual_vacuous=dual_vacuous, gamma=params.gamma, delta=params.delta,
        k=spec.k, dev_norm=dev_norm, s_o_norm=float(np.linalg.norm(s_o)),
        soc_first=xs.head[soc], soc_beta=xs.beta()[soc], pair=pair)
    return diag.at_omega(1.0)


def choose_omega(diag: WarmStartDiagnostics) -> float:
    """The largest admissible blend weight on a 1e-4 grid scanned downward
    from 1, OMEGA_BLOCK weights at a time."""
    grid = np.maximum(0.0, 1.0 - np.arange(round(1.0 / OMEGA_GRID) + 1)
                      * OMEGA_GRID)
    for start in range(0, grid.size, OMEGA_BLOCK):
        omega = grid[start:start + OMEGA_BLOCK]
        at = diag._at(omega)
        # c_w < 1 implies conditions_hold; a NaN omega_min (infeasible) is never met
        hit = np.flatnonzero((at["c_w"] < 1.0) & (omega >= at["omega_min"]))
        if hit.size:
            return float(omega[hit[0]])
    raise EmptyAdmissibleSet("no omega on the grid is admissible")


@dataclass
class WarmStart:
    """A blend for the new instance, or the cold start at omega 0 with the
    `fallback` reason.  `diagnostics` are evaluated at omega 1."""

    start: HsdPoint
    omega: float
    fallback: Optional[str]
    diagnostics: WarmStartDiagnostics


def warm_start(prev_p: SocpProblem, new_p: SocpProblem, prev,
               params: SolverParams,
               omega: Union[str, float] = "max-admissible") -> WarmStart:
    """Choose omega ("max-admissible" for choose_omega's scan, or a weight
    in [0,1] used as given) and blend; fall back to the cold start when no
    weight is admissible or the blend lies outside N_2(gamma) of `params`,
    those of the solve the blend starts."""
    check_omega(omega)
    diag = diagnostics(prev_p, new_p, prev, params)
    spec, p = new_p.cones, new_p.p
    fallback = None
    if isinstance(omega, str):
        try:
            omega = choose_omega(diag)
        except EmptyAdmissibleSet:
            fallback = "empty admissible set"
    if fallback is None:
        start = _blend(diag.pair, omega)
        if in_neighborhood(start, spec, params.gamma):
            return WarmStart(start, float(omega), None, diag)
        fallback = "outside neighborhood"
    return WarmStart(cold_start(spec, p=p), 0.0, fallback, diag)


def check_bounds(bound_a: float, bound_b: float, bound_c: float) -> None:
    """A drift bound is a finite number >= 0, so NaN, inf and negatives fail."""
    for name, bound in (("a", bound_a), ("b", bound_b), ("c", bound_c)):
        if not (0.0 <= bound < math.inf):
            raise InvalidParams(f"perturbation bound {name} must be finite "
                                f"and >= 0, not {bound!r}")


def perturb_problem(problem: SocpProblem, bound_a: float, bound_b: float,
                    bound_c: float, rng: np.random.Generator) -> SocpProblem:
    """Additive Gaussian drift projected to the requested norm bounds.

    Matrix noise is applied to the stored nonzero pattern of A only and
    projected to the spectral-norm bound; b and c get dense noise
    projected to the Euclidean bound.  A zero bound leaves the term
    untouched; a bound that is not finite and >= 0 raises InvalidParams.
    """
    check_bounds(bound_a, bound_b, bound_c)
    A = _drift(problem.A, bound_a, rng)
    b = _drift(problem.b, bound_b, rng)
    c = _drift(problem.c, bound_c, rng)
    return SocpProblem(A, b, c, problem.cones, name=problem.name)


def _drift(v: np.ndarray, bound: float,
           rng: np.random.Generator) -> np.ndarray:
    """v plus perturb_problem's drift, as a new array; no draw at bound 0."""
    if bound == 0.0:
        return v.copy()
    e = rng.standard_normal(v.shape)
    if v.ndim == 2:
        e *= v != 0.0
    norm = float(np.linalg.norm(e, 2)) if np.any(e) else 0.0
    if norm > bound:
        e *= bound / norm
    return v + e


def run_bench(base: SocpProblem, steps: int, perturb_a: float,
              perturb_b: float, perturb_c: float, seed: int,
              gamma: float = SolverParams.gamma,
              delta: float = SolverParams.delta,
              epsilon: float = BENCH_EPSILON,
              omega_policy: Union[str, float] = "max-admissible") -> Dict:
    """Drift sequence benchmark: cold vs warm iteration counts.

    Each step perturbs the previous instance within the given bounds,
    solves it cold under the unified stop at `epsilon`, and warm-starts
    from the previous instance's cold solution when diagnostics admit
    an omega.  Fully deterministic for a given seed.  A negative step
    count, a fixed omega outside [0,1], or a bound that perturb_problem
    refuses raises InvalidParams before any solve.
    """
    if steps < 0:
        raise InvalidParams(f"steps must be >= 0, not {steps!r}")
    check_omega(omega_policy)
    check_bounds(perturb_a, perturb_b, perturb_c)
    rng = np.random.default_rng(seed)
    params = SolverParams(gamma=gamma, delta=delta, epsilon=epsilon,
                          stop_mode="unified", trace_enabled=False)
    prev_problem = base
    prev_result = solve(base, cold_start(base.cones, p=base.p), params)
    baseline_iterations = prev_result.iterations
    rows = []
    for step in range(1, steps + 1):
        new_problem = perturb_problem(prev_problem, perturb_a, perturb_b,
                                      perturb_c, rng)
        cold_result = solve(new_problem, cold_start(new_problem.cones,
                                                    p=new_problem.p), params)
        row: Dict = {
            "step": step,
            "status": cold_result.status.status,
            "cold_iterations": cold_result.iterations,
            "omega": None,
            "c_w": None,
            "predicted_saving": None,
            "warm_iterations": None,
            "measured_saving": None,
            "fallback": None,
        }
        if prev_result.solution is None:
            row["fallback"] = "previous solve not optimal"
        else:
            ws = warm_start(prev_problem, new_problem, prev_result.solution,
                            params, omega_policy)
            row["fallback"] = ws.fallback
            if ws.fallback is None:
                warm_result = cold_result if ws.omega == 0.0 \
                    else solve(new_problem, ws.start, params)
                diag_at = ws.diagnostics.at_omega(ws.omega)
                row["omega"] = ws.omega
                row["c_w"] = _finite_or_none(diag_at.c_w)
                row["predicted_saving"] = diag_at.predicted_saving
                row["warm_iterations"] = warm_result.iterations
                row["measured_saving"] = (cold_result.iterations
                                          - warm_result.iterations)
        rows.append(row)
        prev_problem, prev_result = new_problem, cold_result
    return {
        "base": base.name,
        "steps": steps,
        "seed": seed,
        "epsilon": epsilon,
        "gamma": gamma,
        "delta": delta,
        "perturb": {"a": perturb_a, "b": perturb_b, "c": perturb_c},
        "omega_policy": omega_policy if isinstance(omega_policy, str)
        else float(omega_policy),
        "baseline_iterations": baseline_iterations,
        "rows": rows,
    }

