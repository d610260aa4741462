"""Problem container, its checks, residual evaluation."""

import numpy as np
import pytest

import socpath as sp
from socpath import (ConeSpec, DimensionMismatch, HsdPoint, SingularSystem,
                     SocpProblem)

from util import (
    cold_point,
    feasible_problem,
    interior_hsd_point,
    interior_vector,
    mixed_spec,
    random_problem,
    toy_lp,
)


def test_shapes_accepted():
    prob = toy_lp()
    assert prob.p == 1
    assert prob.n == 2
    prob.check_shapes()


def test_shape_mismatch_raises():
    spec = ConeSpec(l=2, soc_dims=())
    bad = SocpProblem(A=np.ones((1, 3)), b=np.ones(1), c=np.ones(3), cones=spec)
    with pytest.raises(DimensionMismatch):
        bad.check_shapes()
    bad_b = SocpProblem(A=np.ones((1, 2)), b=np.ones(2), c=np.ones(2), cones=spec)
    with pytest.raises(DimensionMismatch):
        bad_b.check_shapes()
    bad_c = SocpProblem(A=np.ones((1, 2)), b=np.ones(1), c=np.ones(3), cones=spec)
    with pytest.raises(DimensionMismatch, match="^c has length 3, expected 2$"):
        bad_c.check_shapes()
    not_matrix = SocpProblem(A=np.ones((1, 2, 3)), b=np.ones(1), c=np.ones(2),
                             cones=spec)
    with pytest.raises(DimensionMismatch, match="^A must be a matrix$"):
        not_matrix.check_shapes()


def test_check_rows_refuses_dependent_rows():
    """Dependent rows of [A, -b] raise SingularSystem; more rows than its
    n+1 columns raise DimensionMismatch."""
    spec = ConeSpec(l=2, soc_dims=())
    dup = SocpProblem(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                      b=np.array([1.0, 1.0]), c=np.ones(2), cones=spec)
    with pytest.raises(SingularSystem, match="rows of \\[A, -b\\]"):
        dup.check_rows()
    # dependent rows of A alone, made independent by b
    SocpProblem(A=dup.A, b=np.array([1.0, 2.0]), c=np.ones(2),
                cones=spec).check_rows()
    wide = SocpProblem(A=np.ones((4, 2)), b=np.ones(4), c=np.ones(2),
                       cones=spec)
    with pytest.raises(DimensionMismatch, match="4 equality rows"):
        wide.check_rows()


@pytest.mark.parametrize("factor", [1e-8, 1.0, 1e8])
def test_check_rows_is_scale_free(factor):
    """The -b column is scaled to A's column norms before the rank test,
    so a large or small b, or a scaled A, does not read as dependence."""
    rng = np.random.default_rng(23)
    prob = feasible_problem(mixed_spec(rng), 2, rng)
    for A, b in ((prob.A, factor * prob.b), (factor * prob.A, prob.b)):
        SocpProblem(A=A, b=b, c=prob.c, cones=prob.cones).check_rows()
    dependent = np.vstack([prob.A, 3.0 * prob.A[:1]])
    b = factor * np.append(prob.b, 3.0 * prob.b[0])
    with pytest.raises(SingularSystem):
        SocpProblem(A=dependent, b=b, c=prob.c, cones=prob.cones).check_rows()


class TestResiduals:
    def test_cold_start_frozen(self):
        prob = toy_lp()
        r = sp.compute_residuals(prob, cold_point(prob))
        assert np.array_equal(r.r_p, [1.0])
        assert np.array_equal(r.r_d, [0.0, 1.0])
        assert r.r_g == -2.0
        assert r.rp_norm == 1.0
        assert r.rd_norm == 1.0
        assert r.rg_abs == 2.0

    def test_feasible_pair_zero(self):
        rng = np.random.default_rng(7)
        spec = mixed_spec(rng)
        A = rng.standard_normal((2, spec.n))
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        y = rng.standard_normal(2)
        prob = SocpProblem(A=A, b=A @ x, c=A.T @ y + s, cones=spec)
        z = HsdPoint(x=x, y=y, s=s, kappa=0.5, tau=1.0)
        r = sp.compute_residuals(prob, z)
        assert r.rp_norm < 1e-12
        assert r.rd_norm < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = mixed_spec(rng)
            prob = random_problem(spec, 2, rng)
            z = interior_hsd_point(prob, rng)
            z2 = HsdPoint(x=2 * z.x, y=2 * z.y, s=2 * z.s, kappa=2 * z.kappa, tau=2 * z.tau)
            r1 = sp.compute_residuals(prob, z)
            r2 = sp.compute_residuals(prob, z2)
            assert np.allclose(r2.r_p, 2 * r1.r_p, rtol=1e-12, atol=1e-12)
            assert np.allclose(r2.r_d, 2 * r1.r_d, rtol=1e-12, atol=1e-12)
            assert np.isclose(r2.r_g, 2 * r1.r_g, rtol=1e-12, atol=1e-12)

    def test_affinity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            spec = mixed_spec(rng)
            prob = random_problem(spec, 3, rng)
            za = interior_hsd_point(prob, rng)
            zb = interior_hsd_point(prob, rng)
            zsum = HsdPoint(
                x=za.x + zb.x,
                y=za.y + zb.y,
                s=za.s + zb.s,
                kappa=za.kappa + zb.kappa,
                tau=za.tau + zb.tau,
            )
            ra = sp.compute_residuals(prob, za)
            rb = sp.compute_residuals(prob, zb)
            rs = sp.compute_residuals(prob, zsum)
            scale = 1 + max(ra.rp_norm, rb.rp_norm, ra.rd_norm, rb.rd_norm)
            assert np.abs(rs.r_p - ra.r_p - rb.r_p).max() < 1e-12 * scale
            assert np.abs(rs.r_d - ra.r_d - rb.r_d).max() < 1e-12 * scale
            assert abs(rs.r_g - ra.r_g - rb.r_g) < 1e-12 * scale
            zero = HsdPoint(
                x=np.zeros(spec.n), y=np.zeros(3), s=np.zeros(spec.n), kappa=0.0, tau=0.0
            )
            r0 = sp.compute_residuals(prob, zero)
            assert r0.rp_norm == 0.0 and r0.rd_norm == 0.0 and r0.rg_abs == 0.0

    def test_cached_norms_recompute(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            spec = mixed_spec(rng)
            prob = random_problem(spec, 2, rng)
            z = interior_hsd_point(prob, rng)
            r = sp.compute_residuals(prob, z)
            assert abs(r.rp_norm - np.linalg.norm(r.r_p)) <= 1e-14 * r.rp_norm
            assert abs(r.rd_norm - np.linalg.norm(r.r_d)) <= 1e-14 * r.rd_norm
            assert r.rg_abs == abs(r.r_g)

    def test_dimension_mismatch(self):
        prob = toy_lp()
        z = HsdPoint(x=np.ones(3), y=np.zeros(1), s=np.ones(3), kappa=1.0, tau=1.0)
        with pytest.raises(DimensionMismatch):
            sp.compute_residuals(prob, z)
        z = HsdPoint(x=np.ones(2), y=np.zeros(2), s=np.ones(2), kappa=1.0, tau=1.0)
        with pytest.raises(DimensionMismatch, match="^y has length 2, expected 1$"):
            sp.compute_residuals(prob, z)
