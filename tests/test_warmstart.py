"""Warm-start construction, sufficient-condition diagnostics, omega policy."""

import inspect
import math

import numpy as np
import pytest

import socpath as sp
from socpath import (
    ConeSpec,
    ConeSpecMismatch,
    DimensionMismatch,
    EmptyAdmissibleSet,
    NotInterior,
    SocpProblem,
    SolverParams,
)

from oracles import choose_omega_oracle, t_oracle
from util import (
    boundary_vector,
    spec_at_least,
    cold_point,
    count_calls,
    feasible_problem_with_pair,
    infeasible_lp,
    interior_vector,
    mixed_spec,
    toy_lp,
)


def test_cold_start_shape_and_centering():
    spec = ConeSpec(l=2, soc_dims=())
    q = sp.cold_start(spec, p=3)
    assert np.array_equal(q.x, [1.0, 1.0])
    assert np.array_equal(q.y, np.zeros(3))
    assert np.array_equal(q.s, [1.0, 1.0])
    assert q.kappa == 1.0 and q.tau == 1.0


def test_cold_start_unit_mu_any_spec():
    rng = np.random.default_rng(501)
    for _ in range(20):
        spec = mixed_spec(rng)
        q = sp.cold_start(spec)
        assert sp.mu(q, spec) == 1.0
        assert sp.d2(q, spec) < 1e-14


class TestWarmStartPoint:
    def _prev(self, spec, rng, scale=1.0):
        return (
            interior_vector(spec, rng, scale),
            rng.standard_normal(3),
            interior_vector(spec, rng, scale),
        )

    def test_omega_zero_is_cold(self):
        rng = np.random.default_rng(503)
        spec = mixed_spec(rng)
        prev = self._prev(spec, rng)
        q = sp.warm_start_point(prev, 0.0, spec, p=3)
        cold = sp.cold_start(spec, p=3)
        assert np.array_equal(q.x, cold.x)
        assert np.array_equal(q.y, cold.y)
        assert np.array_equal(q.s, cold.s)
        assert q.kappa == cold.kappa and q.tau == cold.tau

    def test_omega_one_is_prev(self):
        rng = np.random.default_rng(509)
        spec = mixed_spec(rng)
        x_o, y_o, s_o = self._prev(spec, rng)
        q = sp.warm_start_point((x_o, y_o, s_o), 1.0, spec, p=3)
        assert np.allclose(q.x, x_o, rtol=0, atol=0)
        assert np.allclose(q.y, y_o, rtol=0, atol=0)
        assert np.allclose(q.s, s_o, rtol=0, atol=0)
        assert q.tau == 1.0
        assert abs(q.kappa - (x_o @ s_o) / spec.k) < 1e-15 * abs(q.kappa)

    def test_mu_equals_product_over_k(self):
        rng = np.random.default_rng(521)
        for _ in range(50):
            spec = mixed_spec(rng)
            prev = self._prev(spec, rng)
            omega = float(rng.uniform(0, 1))
            q = sp.warm_start_point(prev, omega, spec, p=3)
            m = sp.mu(q, spec)
            assert abs(m - (q.x @ q.s) / spec.k) <= 1e-14 * m
            # the kappa-tau coordinate sits exactly at mu
            assert abs(q.kappa * q.tau - m) <= 1e-15 * m

    def test_interior_for_omega_below_one(self):
        rng = np.random.default_rng(523)
        for _ in range(30):
            spec = mixed_spec(rng)
            x_o = boundary_vector(spec, rng)
            s_o = boundary_vector(spec, rng)
            q = sp.warm_start_point(
                (x_o, np.zeros(3), s_o), 0.999, spec, p=3
            )
            assert sp.membership(q.x, spec, strict=True)
            assert sp.membership(q.s, spec, strict=True)

    def test_boundary_prev_rejected_at_omega_one(self):
        rng = np.random.default_rng(527)
        spec = ConeSpec(l=0, soc_dims=(3,))
        x_o = boundary_vector(spec, rng)
        with pytest.raises(NotInterior):
            sp.warm_start_point(
                (x_o, np.zeros(2), interior_vector(spec, rng)), 1.0, spec, p=2
            )

    @pytest.mark.parametrize("omega", ["max-admissible", "auto", 1.5, -0.5,
                                       float("nan"), float("inf")])
    def test_weight_outside_unit_interval_rejected(self, omega):
        """A blend takes a weight in [0,1]; the "max-admissible" policy is
        warm_start's to resolve, so here it fails like any non-weight."""
        rng = np.random.default_rng(529)
        spec = ConeSpec(l=1, soc_dims=(3,))
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            sp.warm_start_point(self._prev(spec, rng), omega, spec, p=3)


def _converged_prev(prob, eps=1e-3):
    """Partially converged solution of prob, scaled back by tau."""
    params = SolverParams(epsilon=eps, stop_mode="unified")
    res = sp.solve(prob, cold_point(prob), params)
    z = res.point
    return (z.x / z.tau, z.y / z.tau, z.s / z.tau)


def _drifted(prob, rng, size=1e-4):
    A = prob.A + size * rng.standard_normal(prob.A.shape)
    b = prob.b + size * rng.standard_normal(prob.p)
    c = prob.c + size * rng.standard_normal(prob.n)
    return SocpProblem(A=A, b=b, c=c, cones=prob.cones, name=prob.name)


class TestDiagnostics:
    def test_identity_on_unit_prev(self):
        # hand-computable case: both problems equal, prev = (e, 0, e)
        prob = toy_lp()
        spec = prob.cones
        e = sp.unit_element(spec)
        d = sp.diagnostics(prob, prob, (e, np.zeros(1), e), SolverParams())
        assert d.psi_o == 2.0
        assert d.rho == 0.0
        assert abs(d.xi_o - (-2.0 * 0.08)) < 1e-15
        assert d.omega_min == 0.0
        assert not d.infeasible

    def test_constants_recompute(self):
        rng = np.random.default_rng(541)
        spec = spec_at_least(rng, 4)
        prob, _ = feasible_problem_with_pair(spec, 3, rng)
        prev = _converged_prev(prob)
        new = _drifted(prob, rng)
        d = sp.diagnostics(prob, new, prev, SolverParams())
        x_o, y_o, s_o = prev

        dA = new.A - prob.A
        qc = sp.cold_start(spec, p=3)
        rc = sp.compute_residuals(new, qc)
        r_old = sp.compute_residuals(
            prob, sp.HsdPoint(x=x_o, y=y_o, s=s_o, kappa=0.0, tau=1.0)
        )
        nA = np.linalg.norm(dA, 2)
        assert abs(d.c_a - nA * np.linalg.norm(x_o) / rc.rp_norm) < 1e-12
        assert abs(d.c_b - np.linalg.norm(new.b - prob.b) / rc.rp_norm) < 1e-12
        assert abs(d.c_p - r_old.rp_norm / rc.rp_norm) < 1e-12
        assert abs(d.c_at - nA * np.linalg.norm(y_o) / rc.rd_norm) < 1e-12
        assert abs(d.c_c - np.linalg.norm(new.c - prob.c) / rc.rd_norm) < 1e-12
        assert abs(d.c_d - r_old.rd_norm / rc.rd_norm) < 1e-12

        k = spec.k
        assert abs(d.psi_o - (sp.unit_element(spec) @ (x_o + s_o)) / k) < 1e-14 * d.psi_o
        mu_o = (x_o @ s_o) / k
        assert abs(d.c_mu - mu_o) < 1e-14 * mu_o
        # measured centrality of the previous pair, via the sqrtm oracle
        w = t_oracle(x_o, spec) @ s_o
        d2_pair = math.sqrt(2.0) * np.linalg.norm(w - mu_o * sp.unit_element(spec))
        assert abs(d.gamma_o - d2_pair / mu_o) < 1e-10 * (1 + d.gamma_o)

    def test_xi_and_cxs_formulas(self):
        rng = np.random.default_rng(547)
        spec = spec_at_least(rng, 3)
        prob, _ = feasible_problem_with_pair(spec, 2, rng)
        prev = _converged_prev(prob)
        x_o, _, s_o = prev
        for omega in (0.3, 0.8, 1.0):
            d = sp.diagnostics(prob, prob, prev, SolverParams()).at_omega(omega)
            k = spec.k
            e = sp.unit_element(spec)
            dev = np.linalg.norm((x_o + s_o) - d.psi_o * e)
            bracket = dev + d.rho * np.linalg.norm(s_o)
            assert abs(d.xi_o - (math.sqrt(2.0) * bracket - 0.08 * d.psi_o)) < 1e-12
            assert abs(d.xi_o_raw - (bracket - 0.08 * d.psi_o)) < 1e-12
            assert abs(d.c_xs - (1.0 - omega) * (d.psi_o + 1.0)) < 1e-14

    def test_previous_pair_evaluated_once(self, monkeypatch):
        """The heads and tail norms of x_o and s_o are taken once each and
        read by the membership tests, gamma_o's T_x s and the SOC betas."""
        calls = []
        original = sp.cones.tail_norms

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)
        monkeypatch.setattr(sp.cones, "tail_norms", counted)
        rng = np.random.default_rng(563)
        spec = ConeSpec(l=2, soc_dims=(3, 4))
        prob, pair = feasible_problem_with_pair(spec, 2, rng)
        d = sp.diagnostics(prob, prob, pair, SolverParams())
        assert math.isfinite(d.gamma_o) and d.soc_first.size == 2
        assert len(calls) == 2

    def test_residual_ratios_read_the_embedding_residuals_bitwise(self):
        """The four residual norms are compute_residuals' at the cold start
        and at (x_o, y_o, s_o, kappa 0, tau 1): the same bits as the direct
        norms of A e - b, e - c, A x_o - b and A'y_o + s_o - c."""
        rng = np.random.default_rng(569)
        for _ in range(20):
            spec = spec_at_least(rng, 3)
            prob, pair = feasible_problem_with_pair(spec, 2, rng)
            new = _drifted(prob, rng)
            x_o, y_o, s_o = pair
            d = sp.diagnostics(prob, new, pair, SolverParams())
            e = sp.unit_element(spec)
            rp_cold = np.linalg.norm(new.A @ e - new.b)
            rd_cold = np.linalg.norm(e - new.c)
            assert d.c_p == np.linalg.norm(prob.A @ x_o - prob.b) / rp_cold
            assert d.c_d == np.linalg.norm(prob.A.T @ y_o + s_o - prob.c) \
                / rd_cold
            assert d.c_b == np.linalg.norm(new.b - prob.b) / rp_cold
            assert d.c_c == np.linalg.norm(new.c - prob.c) / rd_cold

    def test_exact_prev_zero_constants(self):
        rng = np.random.default_rng(557)
        spec = mixed_spec(rng)
        prob, pair = feasible_problem_with_pair(spec, 3, rng, scale=0.4)
        d = sp.diagnostics(prob, prob, pair, SolverParams()).at_omega(0.6)
        assert d.c_a == 0.0 and d.c_b == 0.0
        assert d.c_p < 1e-12 and d.c_d < 1e-12
        assert d.c_at == 0.0 and d.c_c == 0.0
        # primal bound collapses to 1 - omega
        if d.conditions_hold:
            assert d.c_w >= 1.0 - 0.6

    def test_omega_min_dichotomy(self):
        rng = np.random.default_rng(563)
        hits = {"zero": 0, "interior": 0, "infeasible": 0}

        def classify(d, gamma):
            if d.xi_o <= 0:
                assert d.omega_min == 0.0
                hits["zero"] += 1
            elif gamma > d.gamma_o:
                want = d.xi_o / (d.xi_o + (gamma - d.gamma_o) * d.c_mu)
                assert abs(d.omega_min - want) < 1e-12
                assert 0.0 < d.omega_min <= 1.0
                hits["interior"] += 1
            else:
                assert d.infeasible and d.omega_min is None
                hits["infeasible"] += 1

        # hand-built previous solutions covering each branch of the formula
        spec3 = ConeSpec(l=3, soc_dims=())
        lp3 = SocpProblem(
            A=np.array([[1.0, 1.0, 1.0]]),
            b=np.array([2.5]),
            c=np.array([1.0, 2.0, 3.0]),
            cones=spec3,
        )
        y0 = np.array([0.0])
        e3 = np.ones(3)
        # central pair: xi_o = -gamma*psi_o < 0
        classify(sp.diagnostics(lp3, lp3, (0.7 * e3, y0, 0.7 * e3),
                                SolverParams(gamma=0.08)), 0.08)
        # equal products keep gamma_o = 0 while x_o + s_o stays uneven
        x_u = np.array([2.0, 0.5, 1.0])
        classify(sp.diagnostics(lp3, lp3, (x_u, y0, 1.0 / x_u),
                                SolverParams(gamma=0.1)), 0.1)
        # spread products push gamma_o above the requested gamma
        x_s = np.array([1.2, 1.0 / 1.2, 1.0])
        classify(sp.diagnostics(lp3, lp3, (x_s, y0, x_s.copy()),
                                SolverParams(gamma=0.3)), 0.3)

        for trial in range(20):
            spec = spec_at_least(rng, 3)
            prob, _ = feasible_problem_with_pair(spec, 2, rng)
            prev = _converged_prev(prob, eps=10 ** rng.uniform(-3, -1))
            gamma = float(rng.uniform(0.02, 0.3))
            classify(sp.diagnostics(prob, _drifted(prob, rng), prev,
                                    SolverParams(gamma=gamma)), gamma)
        assert min(hits.values()) > 0

    def test_cone_mismatch_raises(self):
        prob = toy_lp()
        spec2 = ConeSpec(l=0, soc_dims=(2,))
        other = SocpProblem(
            A=prob.A.copy(), b=prob.b.copy(), c=prob.c.copy(), cones=spec2
        )
        e = np.ones(2)
        with pytest.raises(ConeSpecMismatch):
            sp.diagnostics(prob, other, (e, np.zeros(1), e), SolverParams())

    def test_shape_mismatch_raises(self):
        prob = toy_lp()
        taller = SocpProblem(A=np.ones((2, 2)), b=np.ones(2), c=prob.c.copy(),
                             cones=prob.cones)
        e = np.ones(2)
        with pytest.raises(DimensionMismatch, match="share matrix dimensions"):
            sp.diagnostics(prob, taller, (e, np.zeros(1), e), SolverParams())
        with pytest.raises(DimensionMismatch, match="y_o has length 2, expected 1"):
            sp.diagnostics(prob, prob, (e, np.zeros(2), e), SolverParams())

    @pytest.mark.parametrize("omega", ["max-admissible", 0.5])
    def test_prev_outside_cone_raises(self, omega):
        # a second-order block with head below its tail norm
        spec = ConeSpec(l=1, soc_dims=(3,))
        prob = SocpProblem(A=np.array([[1.0, 1.0, 0.0, 0.0]]), b=np.array([1.0]),
                           c=np.ones(4), cones=spec)
        x_o = np.array([1.0, 0.5, 1.0, 0.0])
        with pytest.raises(NotInterior):
            sp.diagnostics(prob, prob, (x_o, np.zeros(1), x_o.copy()),
                           SolverParams())
        with pytest.raises(NotInterior):
            sp.warm_start(prob, prob, (x_o, np.zeros(1), x_o.copy()),
                          SolverParams(), omega=omega)

    def test_vacuous_flags(self):
        # cold-start primal residual vanishes when b = A e
        rng = np.random.default_rng(569)
        spec = mixed_spec(rng)
        e = sp.unit_element(spec)
        A = rng.standard_normal((2, spec.n))
        new = SocpProblem(A=A, b=A @ e, c=e.copy(), cones=spec)
        prev = (
            interior_vector(spec, rng),
            rng.standard_normal(2),
            interior_vector(spec, rng),
        )
        d = sp.diagnostics(new, new, prev, SolverParams())
        assert d.primal_vacuous and d.dual_vacuous


def test_neighborhood_sufficiency():
    """omega at least omega_min with gamma above gamma_o puts the
    constructed point inside the target neighborhood."""
    rng = np.random.default_rng(571)
    checked = 0
    for trial in range(12):
        spec = spec_at_least(rng, 3)
        prob, _ = feasible_problem_with_pair(spec, 2, rng)
        prev = _converged_prev(prob, eps=10 ** rng.uniform(-3, -1))
        gamma = float(rng.uniform(0.05, 0.3))
        d = sp.diagnostics(prob, prob, prev, SolverParams(gamma=gamma))
        if d.infeasible or d.gamma_o >= gamma:
            continue
        # the admissible segment sits near 1 for partially converged
        # previous solutions, so sample inside [omega_min, 1]
        for u in rng.uniform(0, 1, size=6):
            omega = float(d.omega_min + u * (1.0 - d.omega_min))
            da = d.at_omega(omega)
            if da.omega_min is None or omega < da.omega_min:
                continue
            q = sp.warm_start_point(prev, omega, spec, p=prob.p)
            assert sp.in_neighborhood(q, spec, gamma), \
                (trial, omega, da.omega_min)
            checked += 1
    assert checked >= 30


def test_residual_interpolation_identity():
    rng = np.random.default_rng(577)
    for trial in range(25):
        spec = spec_at_least(rng, 4)
        prob, _ = feasible_problem_with_pair(spec, 3, rng)
        prev = _converged_prev(prob, eps=1e-2)
        new = _drifted(prob, rng, size=1e-3)
        x_o, y_o, s_o = prev
        omega = float(rng.uniform(0, 1))
        q = sp.warm_start_point(prev, omega, spec, p=3)
        r_w = sp.compute_residuals(new, q)
        r_o = sp.compute_residuals(
            prob, sp.HsdPoint(x=x_o, y=y_o, s=s_o, kappa=0.0, tau=1.0)
        )
        qc = sp.cold_start(spec, p=3)
        r_c = sp.compute_residuals(new, qc)
        dA, db, dc = new.A - prob.A, new.b - prob.b, new.c - prob.c

        want_p = omega * r_o.r_p + omega * (dA @ x_o - db) + (1 - omega) * r_c.r_p
        assert np.abs(r_w.r_p - want_p).max() < 1e-12 * (1 + np.abs(want_p).max())

        want_d = (
            omega * r_o.r_d
            + omega * (dA.T @ y_o - dc)
            + (1 - omega) * r_c.r_d
        )
        assert np.abs(r_w.r_d - want_d).max() < 1e-12 * (1 + np.abs(want_d).max())


def test_gap_expansion_identity():
    rng = np.random.default_rng(587)
    for _ in range(25):
        spec = spec_at_least(rng, 3)
        prob, _ = feasible_problem_with_pair(spec, 2, rng)
        prev = _converged_prev(prob, eps=1e-2)
        x_o, _, s_o = prev
        mu_o = (x_o @ s_o) / spec.k
        psi_o = (sp.unit_element(spec) @ (x_o + s_o)) / spec.k
        omega = float(rng.uniform(0, 1))
        q = sp.warm_start_point(prev, omega, spec, p=prob.p)
        want = omega**2 * mu_o + omega * (1 - omega) * psi_o + (1 - omega) ** 2
        assert abs(sp.mu(q, spec) - want) < 1e-12 * (1 + want)


class TestChooseOmega:
    def _slack_diag(self):
        # exact central previous solution: x_o = s_o = t*e with t < 1 keeps
        # every constant at or near zero and the gap condition slack
        rng = np.random.default_rng(593)
        spec = spec_at_least(rng, 3)
        t = 0.6
        e = sp.unit_element(spec)
        A = rng.standard_normal((2, spec.n))
        y_star = rng.standard_normal(2)
        prob = SocpProblem(A=A, b=A @ (t * e), c=A.T @ y_star + t * e, cones=spec)
        return sp.diagnostics(prob, prob, (t * e, y_star, t * e), SolverParams())

    def test_unconstrained_returns_grid_max(self):
        d = self._slack_diag()
        assert d.omega_min == 0.0
        omega = sp.choose_omega(d)
        assert omega == 1.0

    def _lp3(self):
        return SocpProblem(
            A=np.array([[1.0, 1.0, 1.0]]),
            b=np.array([2.5]),
            c=np.array([1.0, 2.0, 3.0]),
            cones=ConeSpec(l=3, soc_dims=()),
        )

    def test_infeasible_raises_empty_set(self):
        # an off-center previous solution has high measured centrality;
        # asking for a tighter neighborhood than that is unsatisfiable
        lp3 = self._lp3()
        x_s = np.array([1.2, 1.0 / 1.2, 1.0])
        d = sp.diagnostics(lp3, lp3, (x_s, np.array([0.0]), x_s.copy()),
                           SolverParams(gamma=0.3))
        assert d.gamma_o > 0.3
        assert d.xi_o > 0
        assert d.infeasible and d.omega_min is None
        with pytest.raises(EmptyAdmissibleSet):
            sp.choose_omega(d)

    def _interior_diag(self, seed):
        # SOC blocks of both x_o and s_o just inside the boundary, head at
        # (1+t)||tail||, push rho up near omega 1; seeds picked so that the
        # largest admissible weight lies strictly inside (0, 1)
        rng = np.random.default_rng(seed)
        spec = mixed_spec(rng)

        def near_boundary():
            v = np.empty(spec.n)
            for start, dim in spec.blocks:
                if dim == 1:
                    v[start] = rng.uniform(0.2, 2.0)
                else:
                    tail = rng.standard_normal(dim - 1)
                    t = 10.0 ** rng.uniform(-3.0, 0.0)
                    v[start] = (1.0 + t) * np.linalg.norm(tail)
                    v[start + 1 : start + dim] = tail
            return v
        x_o, s_o = near_boundary(), near_boundary()
        A = rng.standard_normal((1, spec.n))
        y_o = rng.standard_normal(1)
        prob = SocpProblem(A=A, b=A @ x_o, c=A.T @ y_o + s_o, cones=spec)
        return sp.diagnostics(prob, prob, (x_o, y_o, s_o), SolverParams(gamma=0.9))

    @pytest.mark.parametrize("seed", [15587, 11178, 10144])
    def test_interior_weight_matches_scan_oracle(self, seed):
        d = self._interior_diag(seed)
        omega = sp.choose_omega(d)
        assert 0.0 < omega < 1.0
        assert omega == choose_omega_oracle(d)

    def test_slack_and_empty_match_scan_oracle(self):
        d = self._slack_diag()
        assert sp.choose_omega(d) == choose_omega_oracle(d) == 1.0
        lp3 = self._lp3()
        x_s = np.array([1.2, 1.0 / 1.2, 1.0])
        d = sp.diagnostics(lp3, lp3, (x_s, np.array([0.0]), x_s.copy()),
                           SolverParams(gamma=0.3))
        assert choose_omega_oracle(d) is None
        with pytest.raises(EmptyAdmissibleSet):
            sp.choose_omega(d)

    def test_predicted_saving_formula(self):
        d = self._slack_diag()
        omega = sp.choose_omega(d)
        da = d.at_omega(omega)
        if da.conditions_hold and 0 < da.c_w < 1:
            nu = sp.centering_nu(0.03, d.k)
            want = math.floor(-math.log(da.c_w) / (-math.log(nu)))
            assert da.predicted_saving == want


@pytest.mark.parametrize("omega", [1.5, -0.5, float("nan"), "auto"])
def test_warm_start_rejects_omega_first(monkeypatch, omega):
    def no_diagnostics(*args, **kwargs):
        raise AssertionError("diagnostics evaluated before checking omega")
    monkeypatch.setattr(sp.warmstart, "diagnostics", no_diagnostics)
    prob = toy_lp()
    prev = (np.ones(prob.n), np.zeros(prob.p), np.ones(prob.n))
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        sp.warm_start(prob, prob, prev, SolverParams(), omega=omega)


@pytest.mark.parametrize("fn", ["diagnostics", "warm_start"])
@pytest.mark.parametrize("gamma, delta", [
    (0.08, 0.0), (0.08, -0.5), (0.08, math.nan), (0.08, 1.0), (0.08, 2.0),
    (0.0, 0.03), (-1.0, 0.03), (math.nan, 0.03), (1.0, 0.03), (1.5, 0.03)])
def test_out_of_range_gamma_delta_raise_first(monkeypatch, fn, gamma, delta):
    """diagnostics and warm_start take gamma and delta only from the
    solve's SolverParams, which refuses a pair outside (0,1) with
    InvalidParams, so such a pair never reaches the previous pair's
    evaluation."""
    signature = inspect.signature(getattr(sp, fn)).parameters
    assert "params" in signature
    assert not {"gamma", "delta"} & set(signature)
    calls = count_calls(monkeypatch, sp.warmstart, "_previous_pair")
    prob = toy_lp()
    prev = (np.ones(prob.n), np.zeros(prob.p), np.ones(prob.n))
    with pytest.raises(sp.InvalidParams):
        getattr(sp, fn)(prob, prob, prev,
                        SolverParams(gamma=gamma, delta=delta))
    assert calls == []


def test_warm_start_tail_norms(monkeypatch):
    """At omega 1, x_o and s_o are evaluated once, for both the
    diagnostics and the blend, and the blend's N_2 check evaluates its x
    and s without the spectral bounds of T_x s."""
    rng = np.random.default_rng(563)
    prob, pair = feasible_problem_with_pair(ConeSpec(l=2, soc_dims=(3, 4)),
                                            2, rng)
    calls = count_calls(monkeypatch, sp.cones, "tail_norms")
    sp.warm_start(prob, prob, pair, SolverParams(), omega=1.0)
    assert len(calls) == 4


def test_pair_whose_product_underflows_has_no_centrality():
    """An interior previous pair whose x_o's_o underflows to 0 gets
    gamma_o = inf, as a boundary pair does, rather than dividing by its
    zero mu; warm_start then falls back to the cold start."""
    prob = toy_lp()
    tiny = (1e-200 * np.ones(2), np.zeros(1), 1e-200 * np.ones(2))
    assert sp.diagnostics(prob, prob, tiny, SolverParams()).gamma_o == math.inf
    ws = sp.warm_start(prob, prob, tiny, SolverParams())
    assert (ws.omega, ws.fallback) == (0.0, "empty admissible set")


def test_warm_start_falls_back_on_empty_admissible_set():
    """A previous pair far from the cold start's scale admits no weight:
    warm_start returns the cold start at omega 0 and says why."""
    prob = toy_lp()
    far = (1e3 * np.ones(2), np.zeros(1), 1e3 * np.ones(2))
    with pytest.raises(EmptyAdmissibleSet):
        sp.choose_omega(sp.diagnostics(prob, prob, far, SolverParams()))
    ws = sp.warm_start(prob, prob, far, SolverParams())
    assert (ws.omega, ws.fallback) == (0.0, "empty admissible set")
    assert ws.start.vec.tobytes() == cold_point(prob).vec.tobytes()


def test_run_bench_skips_warm_start_after_a_non_optimal_solve():
    """A previous instance that did not solve optimal has no solution to
    warm-start from: its row is cold only, with the reason."""
    report = sp.warmstart.run_bench(infeasible_lp(), 1, 0.0, 0.0, 0.0, 0,
                                    epsilon=1e-2)
    (row,) = report["rows"]
    assert row["status"] == "primal_infeasible"
    assert row["fallback"] == "previous solve not optimal"
    assert row["cold_iterations"] == report["baseline_iterations"]
    assert row["omega"] is row["warm_iterations"] is None


def test_keyword_defaults_are_solver_params():
    params = inspect.signature(sp.warmstart.run_bench).parameters
    assert params["gamma"].default == SolverParams.gamma
    assert params["delta"].default == SolverParams.delta


def test_warm_start_checks_the_neighborhood_of_the_solve_it_feeds():
    """warm_start checks the blend against N_2(gamma) of the params the
    solve then runs under.  A blend with d2/mu = 0.070 lies in N_2(0.08)
    and outside N_2(0.06): under gamma 0.06 the warm start falls back to
    the cold start, which the solve accepts, and under the default gamma
    the solve runs from the blend."""
    spec = ConeSpec(4, ())
    x, s = np.ones(4), np.array([1.0, 1.035, 0.965, 1.0])
    prob = SocpProblem(A=np.ones((1, 4)), b=np.array([4.0]), c=s.copy(),
                       cones=spec)
    pair = (x, np.zeros(1), s)
    blend = sp.warm_start_point(pair, 1.0, spec, p=1)
    assert 0.069 < sp.d2(blend, spec) / sp.mu(blend, spec) < 0.071
    for params, fallback, steps in (
            (SolverParams(gamma=0.06, delta=0.05, stop_mode="unified",
                          epsilon=1e-4), "outside neighborhood", 578),
            (SolverParams(stop_mode="unified", epsilon=1e-4), None, 967)):
        ws = sp.warm_start(prob, prob, pair, params, omega=1.0)
        assert ws.fallback == fallback
        result = sp.solve(prob, ws.start, params)
        assert (result.status.status, result.iterations) == ("optimal", steps)
