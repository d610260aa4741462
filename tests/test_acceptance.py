"""End-to-end guarantees the package ships under.

Each test gates one released behavior; the tolerances are contractual,
so none of them may be loosened without a release note.
"""

import math

import numpy as np
import pytest

import socpath as sp
from socpath import ConeSpec, HsdPoint, SolverParams
from socpath.cli import run_bench
from socpath.cones import t_inverse_apply
from socpath.kkt import increment_bound
from socpath.problem import compute_residuals

from oracles import arrow_oracle, group_defect
from util import (apply_scaling, cold_point, dual_infeasible_lp,
                  infeasible_lp, interior_vector, r_matrix,
                  random_automorphism, random_problem, soc_fixture, toy_lp,
                  feasible_problem_with_pair)

GAMMA, DELTA, EPSILON = 0.08, 0.03, 1e-2
RUN_COUNT = 20


def _mixed_spec(rng):
    # every instance carries both cone kinds, k <= 12, n <= 60
    l = int(rng.integers(1, 6))
    soc = tuple(int(rng.integers(3, 7)) for _ in range(rng.integers(1, 6)))
    return ConeSpec(l=l, soc_dims=soc)


@pytest.fixture(scope="module")
def contraction_runs():
    """Cold solves of random mixed problems under both scalings, with
    full traces and, per Newton step, the point it starts from, its
    direction and that point's mu; the steps are recorded where `solve`
    takes them, at `socpath.solver.step_point`."""
    rng = np.random.default_rng(20260822)
    runs, steps = [], []
    step_point = sp.solver.step_point

    def recorded(z, direction, alpha):
        steps.append((z, direction))
        return step_point(z, direction, alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sp.solver, "step_point", recorded)
        for i in range(RUN_COUNT):
            spec = _mixed_spec(rng)
            p = int(rng.integers(2, min(5, spec.n)))
            prob, _ = feasible_problem_with_pair(spec, p, rng, name=f"run{i}")
            for scaling in ("identity", "nt"):
                params = SolverParams(gamma=GAMMA, delta=DELTA,
                                      epsilon=EPSILON, scaling=scaling,
                                      stop_mode="unified", trace_enabled=True)
                steps.clear()
                result = sp.solve(prob, cold_point(prob), params)
                assert len(steps) == result.iterations > 0
                runs.append((prob, scaling, result,
                             [(z, d, sp.mu(z, spec)) for z, d in steps]))
    return runs


def test_per_iteration_contraction_is_exact(contraction_runs):
    """mu and both residual norms shrink by the centering factor at
    every single iteration, for both scalings."""
    assert len(contraction_runs) == 2 * RUN_COUNT
    assert any(r[1] == "nt" for r in contraction_runs)
    for prob, scaling, result, _ in contraction_runs:
        nu = sp.centering_nu(DELTA, prob.cones.k)
        tr = result.trace
        chains = (
            [tr.start_mu] + [row.mu for row in tr.rows],
            [tr.start_rp_norm] + [row.rp_norm for row in tr.rows],
            [tr.start_rd_norm] + [row.rd_norm for row in tr.rows],
        )
        for chain in chains:
            for prev, cur in zip(chain, chain[1:]):
                if prev == 0.0:
                    assert cur == 0.0
                else:
                    assert abs(cur / prev - nu) <= 1e-9 * nu, (prob.name,
                                                               scaling)


def _binding_gap_problem(spec, p, rng):
    """Strictly feasible instance whose cold-start residual norms stay
    below 1, so the gap chain alone decides the unified stop."""
    from socpath import SocpProblem, unit_element
    e = unit_element(spec)
    A = rng.standard_normal((p, spec.n))
    x_star = interior_vector(spec, rng)
    y_star = rng.standard_normal(p)
    s_star = interior_vector(spec, rng)
    rp = float(np.linalg.norm(A @ (x_star - e)))
    tp = min(1.0, 0.9 / rp) if rp > 0 else 1.0
    b = A @ (e + tp * (x_star - e))
    rd = float(np.linalg.norm(A.T @ y_star + s_star - e))
    td = min(1.0, 0.9 / rd) if rd > 0 else 1.0
    c = A.T @ (td * y_star) + e + td * (s_star - e)
    return SocpProblem(A=A, b=b, c=c, cones=spec)


def test_iteration_count_law():
    """Measured iterations equal ceil(log eps / log nu) exactly across
    two decades of block counts."""
    expected = {2: 374, 8: 649, 32: 1245, 128: 2464}
    rng = np.random.default_rng(701)
    for k, count in expected.items():
        spec = ConeSpec(l=k, soc_dims=())
        prob = _binding_gap_problem(spec, 2, rng)
        start = cold_point(prob)
        res0 = compute_residuals(prob, start)
        assert max(res0.rp_norm, res0.rd_norm) < 1.0
        params = SolverParams(gamma=GAMMA, delta=DELTA, epsilon=EPSILON,
                              stop_mode="unified", trace_enabled=False)
        result = sp.solve(prob, start, params)
        nu = sp.centering_nu(DELTA, k)
        assert result.iterations == count
        assert count == math.ceil(math.log(EPSILON) / math.log(nu))
        assert result.predicted == count


def test_neighborhood_preserved_and_improved(contraction_runs):
    """No iterate leaves the working neighborhood, and every post-step
    point lands inside the tighter post-step band."""
    for prob, scaling, result, _ in contraction_runs:
        k = prob.cones.k
        ok, margin = sp.validate_params(GAMMA, DELTA, k)
        assert ok
        tightened = GAMMA - margin
        tr = result.trace
        assert tr.neighborhood_violations == 0
        for row in tr.rows:
            assert row.d2 <= GAMMA * row.mu
            assert row.d2 <= tightened * row.mu


def test_direction_identities(contraction_runs):
    """Orthogonality of the increments, small assembled-system residual,
    and exact residual contraction at fractional step lengths."""
    alphas = (0.25, 0.5)
    for prob, scaling, result, steps in contraction_runs:
        k = prob.cones.k
        nu = sp.centering_nu(DELTA, k)
        for z, direction, m in steps:
            orth = direction.dx @ direction.ds \
                + direction.dkappa * direction.dtau
            assert abs(orth) <= 1e-9 * (k + 1) * m
            assert direction.system_residual <= 1e-10
        for z, direction, m in steps[::25]:
            res = compute_residuals(prob, z)
            for alpha in alphas:
                za = sp.step_point(z, direction, alpha)
                ra = compute_residuals(prob, za)
                factor = 1.0 - (1.0 - nu) * alpha
                for got, base in ((ra.rp_norm, res.rp_norm),
                                  (ra.rd_norm, res.rd_norm),
                                  (ra.rg_abs, res.rg_abs)):
                    assert abs(got - factor * base) <= 1e-10 * (1.0 + base)
                assert abs(sp.mu(za, prob.cones) - factor * m) \
                    <= 1e-10 * (1.0 + m)


def _same_frame_pair(spec, rng, zero_block=None):
    """Pair sharing a Jordan frame; eigenvalue products cluster around
    a common value unless a block is forced onto the boundary."""
    nu_t = float(rng.uniform(0.5, 2.0))
    x = np.empty(spec.n)
    s = np.empty(spec.n)
    spread = 0.05 * nu_t
    for bi, (o, d) in enumerate(spec.blocks):
        if d == 1:
            a = float(rng.uniform(0.2, 3.0))
            if bi == zero_block:
                a = 0.0
                x[o] = a
                s[o] = float(rng.uniform(0.2, 3.0))
            else:
                x[o] = a
                s[o] = (nu_t + float(rng.uniform(-spread, spread))) / a
        else:
            u = rng.standard_normal(d - 1)
            u /= np.linalg.norm(u)
            a_plus = float(rng.uniform(0.2, 3.0))
            a_minus = float(rng.uniform(0.2, 3.0))
            if bi == zero_block:
                # axis-aligned frame keeps the zero eigenvalue exact
                u = np.zeros(d - 1)
                u[0] = 1.0
                a_minus = 0.0
                b_plus = float(rng.uniform(0.2, 3.0))
                b_minus = float(rng.uniform(0.2, 3.0))
            else:
                b_plus = (nu_t + float(rng.uniform(-spread, spread))) / a_plus
                b_minus = (nu_t + float(rng.uniform(-spread, spread))) / a_minus
            x[o] = (a_plus + a_minus) / 2.0
            x[o + 1:o + d] = (a_plus - a_minus) / 2.0 * u
            s[o] = (b_plus + b_minus) / 2.0
            s[o + 1:o + d] = (b_plus - b_minus) / 2.0 * u
    return x, s, nu_t


def test_algebraic_bound_suite(contraction_runs):
    """Product-norm bound, scaled-increment bounds, operator proximity
    on banded points, automorphism one-sidedness, and interiority
    propagation, with zero violations."""
    rng = np.random.default_rng(709)

    # ||u o v|| <= sqrt(2) ||u|| ||v|| for arbitrary vectors
    for _ in range(10_000):
        spec = _mixed_spec(rng)
        u = rng.standard_normal(spec.n)
        v = rng.standard_normal(spec.n)
        lhs = np.linalg.norm(sp.jordan_product(u, v, spec))
        assert lhs <= math.sqrt(2.0) * np.linalg.norm(u) * np.linalg.norm(v) \
            + 1e-12

    # scaled increments on every identity-scaling direction
    for prob, scaling, result, steps in contraction_runs:
        if scaling != "identity":
            continue
        bound = increment_bound(GAMMA, DELTA, prob.cones.k)
        for z, direction, m in steps:
            nx, ns, b = sp.scaled_increment_diagnostics(
                z, direction, prob.cones, GAMMA, DELTA)
            assert b == bound
            assert nx <= bound / 2.0
            assert ns <= bound * m

    # operator proximity when the joint spectrum sits in a band
    for _ in range(50):
        spec = _mixed_spec(rng)
        x = interior_vector(spec, rng)
        nu_dot = float(rng.uniform(0.5, 2.0))
        w = np.empty(spec.n)
        for o, d in spec.blocks:
            if d == 1:
                w[o] = nu_dot * (1.0 + GAMMA * rng.uniform(-1, 1))
            else:
                lam = np.sort(nu_dot * (1.0 + GAMMA * rng.uniform(-1, 1, 2)))
                u = rng.standard_normal(d - 1)
                u /= np.linalg.norm(u)
                w[o] = (lam[1] + lam[0]) / 2.0
                w[o + 1:o + d] = (lam[1] - lam[0]) / 2.0 * u
        s = t_inverse_apply(x, w, spec)
        R = r_matrix(x, s, spec)
        W = arrow_oracle(sp.cones.t_apply(x, s, spec), spec)
        eye = np.eye(spec.n)
        cushion = 1e-9 * nu_dot
        assert np.linalg.norm(R - W, 2) <= 2.0 * GAMMA * nu_dot + cushion
        assert np.linalg.norm(W - nu_dot * eye, 2) <= GAMMA * nu_dot + cushion
        assert np.linalg.norm(R - nu_dot * eye, 2) \
            <= 3.0 * GAMMA * nu_dot + cushion

    # the scaled product deviation is smallest in the native frame
    for i in range(10):
        spec = _mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        e = sp.unit_element(spec)
        mu_pair = (x @ s) / spec.k
        d2_pair = math.sqrt(2.0) * np.linalg.norm(
            sp.cones.t_apply(x, s, spec) - mu_pair * e)
        for j in range(100):
            D = random_automorphism(spec, seed=1000 * i + j)
            xb, sb = apply_scaling(D, x, s)
            other = math.sqrt(2.0) * np.linalg.norm(
                sp.jordan_product(xb, sb, spec) - mu_pair * e)
            assert d2_pair <= other + 1e-10 * (1.0 + other)

    # an interior product certifies both factors interior, and a
    # boundary factor forbids an interior product
    for trial in range(500):
        spec = _mixed_spec(rng)
        x, s, nu_t = _same_frame_pair(spec, rng)
        z = sp.jordan_product(x, s, spec)
        assert math.sqrt(2.0) * np.linalg.norm(z - nu_t * sp.unit_element(spec)) \
            <= 0.5 * nu_t
        assert sp.membership(z, spec, strict=True)
        assert sp.membership(x, spec, strict=True)
        assert sp.membership(s, spec, strict=True)
    for trial in range(500):
        spec = _mixed_spec(rng)
        zero_block = int(rng.integers(0, spec.k))
        x, s, _ = _same_frame_pair(spec, rng, zero_block=zero_block)
        assert not sp.membership(x, spec, strict=True)
        # the product's smallest eigenvalue is pinned to zero, so the
        # product cannot sit strictly inside (up to roundoff)
        z = sp.jordan_product(x, s, spec)
        lam_min = float(sp.spectral_bounds(z, spec)[:, 0].min())
        assert lam_min <= 1e-12 * (1.0 + np.linalg.norm(z))


def test_scaling_invariance():
    """Blockwise inner products, interiority, and both centrality
    distances survive any automorphism to 1e-9 relative."""
    rng = np.random.default_rng(719)
    for i in range(10):
        spec = _mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        kappa = float(rng.uniform(0.3, 2.0))
        tau = float(rng.uniform(0.3, 2.0))
        y = np.zeros(1)
        z = HsdPoint(x, y, s, kappa=kappa, tau=tau)
        base_d2 = sp.d2(z, spec)
        base_dinf = sp.dinf(z, spec)
        base_dots = [x[o:o + d] @ s[o:o + d] for o, d in spec.blocks]
        for j in range(100):
            D = random_automorphism(spec, seed=2000 * i + j)
            xb, sb = apply_scaling(D, x, s)
            assert sp.membership(xb, spec, strict=True)
            assert sp.membership(sb, spec, strict=True)
            zb = HsdPoint(xb, y, sb, kappa=kappa, tau=tau)
            assert abs(sp.d2(zb, spec) - base_d2) <= 1e-9 * (1.0 + base_d2)
            assert abs(sp.dinf(zb, spec) - base_dinf) \
                <= 1e-9 * (1.0 + base_dinf)
            for (o, d), dot in zip(spec.blocks, base_dots):
                got = xb[o:o + d] @ sb[o:o + d]
                assert abs(got - dot) <= 1e-9 * (1.0 + abs(dot))


def test_status_classification():
    """The four hand fixtures classify correctly at tight tolerance."""
    params = SolverParams(epsilon=1e-6)

    prob = toy_lp()
    result = sp.solve(prob, cold_point(prob), params)
    assert result.status.status == "optimal"
    assert np.abs(result.status.x - np.array([0.0, 1.0])).max() < 1e-5

    prob = infeasible_lp()
    result = sp.solve(prob, cold_point(prob), params)
    assert result.status.status == "primal_infeasible"
    assert prob.b @ result.status.y > 0.0

    prob = dual_infeasible_lp()
    result = sp.solve(prob, cold_point(prob), params)
    assert result.status.status == "dual_infeasible"
    assert prob.c @ result.status.x < 0.0

    prob = soc_fixture()
    result = sp.solve(prob, cold_point(prob), params)
    assert result.status.status == "optimal"
    assert np.abs(result.status.x - np.array([1.0, 1.0, 0.0])).max() < 1e-5


def test_warm_start_benefit():
    """On a certified drift sequence every warm solve is strictly
    cheaper, the saving meets its certificate, and omega = 0 degrades
    exactly to the cold run."""
    report = run_bench(toy_lp(), steps=10, perturb_a=1e-6, perturb_b=1e-6,
                       perturb_c=1e-6, seed=42, epsilon=1e-3,
                       omega_policy="max-admissible")
    assert len(report["rows"]) == 10
    for row in report["rows"]:
        assert row["fallback"] is None
        assert row["c_w"] is not None and row["c_w"] < 1.0
        assert row["warm_iterations"] < row["cold_iterations"]
        assert row["measured_saving"] >= row["predicted_saving"] - 1

    cold = run_bench(toy_lp(), steps=10, perturb_a=1e-6, perturb_b=1e-6,
                     perturb_c=1e-6, seed=42, epsilon=1e-3, omega_policy=0.0)
    for row in cold["rows"]:
        assert row["omega"] == 0.0
        assert row["warm_iterations"] == row["cold_iterations"]
        assert row["measured_saving"] == 0


def test_warm_start_identities():
    """Residual interpolation and the gap expansion hold to 1e-12 on a
    thousand random previous-solution and weight combinations."""
    rng = np.random.default_rng(727)
    for _ in range(1000):
        spec = _mixed_spec(rng)
        p = int(rng.integers(1, 4))
        prob = random_problem(spec, p, rng)
        new = random_problem(spec, p, rng)
        x_o = interior_vector(spec, rng)
        s_o = interior_vector(spec, rng)
        y_o = rng.standard_normal(p)
        omega = float(rng.uniform(0, 1))
        q = sp.warm_start_point((x_o, y_o, s_o), omega, spec, p=p)

        r_w = compute_residuals(new, q)
        r_o = compute_residuals(
            prob, HsdPoint(x_o, y_o, s_o, kappa=0.0, tau=1.0))
        r_c = compute_residuals(new, sp.cold_start(spec, p=p))
        dA, db, dc = new.A - prob.A, new.b - prob.b, new.c - prob.c
        want_p = omega * r_o.r_p + omega * (dA @ x_o - db) \
            + (1 - omega) * r_c.r_p
        scale_p = 1.0 + np.abs(want_p).max()
        assert np.abs(r_w.r_p - want_p).max() <= 1e-12 * scale_p
        want_d = omega * r_o.r_d + omega * (dA.T @ y_o - dc) \
            + (1 - omega) * r_c.r_d
        scale_d = 1.0 + np.abs(want_d).max()
        assert np.abs(r_w.r_d - want_d).max() <= 1e-12 * scale_d

        mu_o = (x_o @ s_o) / spec.k
        psi_o = (sp.unit_element(spec) @ (x_o + s_o)) / spec.k
        want_mu = omega**2 * mu_o + omega * (1 - omega) * psi_o \
            + (1 - omega)**2
        assert abs(sp.mu(q, spec) - want_mu) <= 1e-12 * (1.0 + want_mu)


def test_nt_scaling_contract():
    """The scaling is symmetric, sits in the group blockwise, and maps
    s onto x, on a thousand random interior pairs."""
    rng = np.random.default_rng(733)
    for _ in range(1000):
        spec = _mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        D = sp.nt_scaling(x, s, spec)
        dense = D.matrix()
        assert np.linalg.norm(dense - dense.T) \
            <= 1e-10 * (1.0 + np.linalg.norm(dense))
        assert group_defect(dense, spec) <= 1e-10
        assert np.linalg.norm(dense @ (dense @ s) - x) \
            <= 1e-10 * (1.0 + np.linalg.norm(x))
