"""Newton system assembly, solve, and direction identities."""

import tracemalloc

import numpy as np
import pytest

import socpath as sp
from socpath import (DimensionMismatch, HsdPoint, ScalingMatrix,
                     SingularSystem, SocpProblem)
from socpath.kkt import KktWorkspace, increment_bound

from oracles import kkt_oracle
from util import (cold_point, feasible_problem, interior_hsd_point, mixed_spec,
                  random_automorphism, random_problem, toy_lp)

GAMMA, DELTA = 0.08, 0.03


def _setup(rng, p_rows=None):
    spec = mixed_spec(rng)
    p = p_rows or max(1, min(spec.n - 1, 3))
    prob = random_problem(spec, p, rng)
    z = interior_hsd_point(prob, rng)
    m = sp.mu(z, spec)
    nu = sp.centering_nu(DELTA, spec.k)
    return spec, prob, z, m, nu


def _assemble(prob, z, D, nu, work=None):
    """The Newton system of z as solve assembles it, from z's evaluation
    and residuals, into `work` or a fresh workspace."""
    work = KktWorkspace(prob) if work is None else work
    return sp.assemble(work, z, sp.Evaluation(z, prob.cones), D, nu,
                       sp.compute_residuals(prob, z))


def _pick_scaling(name, z, spec, rng):
    if name == "identity":
        return ScalingMatrix.identity(spec)
    if name == "nt":
        return sp.nt_scaling(z.x, z.s, spec)
    return random_automorphism(spec, rng)


@pytest.mark.parametrize("scaling", ["identity", "nt", "random"])
def test_direction_matches_five_block_oracle(scaling):
    rng = np.random.default_rng(307)
    for _ in range(20):
        spec, prob, z, m, nu = _setup(rng)
        D = _pick_scaling(scaling, z, spec, rng)
        direction = sp.solve_direction(_assemble(prob, z, D, nu))
        ox, oy, os_, okap, otau = kkt_oracle(
            prob, z, D.matrix(), D.inverse_matrix(), nu, m
        )
        scale = 1 + max(np.abs(ox).max(), np.abs(os_).max(), abs(okap), abs(otau))
        assert np.abs(direction.dx - ox).max() < 1e-10 * scale
        assert np.abs(direction.dy - oy).max() < 1e-10 * scale
        assert np.abs(direction.ds - os_).max() < 1e-10 * scale
        assert abs(direction.dkappa - okap) < 1e-10 * scale
        assert abs(direction.dtau - otau) < 1e-10 * scale


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_direction_satisfies_row_equations(scaling):
    """The five defining equations, rebuilt literally."""
    rng = np.random.default_rng(311)
    for _ in range(20):
        spec, prob, z, m, nu = _setup(rng)
        D = _pick_scaling(scaling, z, spec, rng)
        d = sp.solve_direction(_assemble(prob, z, D, nu))
        A, b, c = prob.A, prob.b, prob.c
        one = 1.0 - nu
        tol = 1e-10 * (1 + m)

        r1 = A @ d.dx - b * d.dtau + one * (A @ z.x - z.tau * b)
        assert np.abs(r1).max() < tol

        r2 = -A.T @ d.dy + c * d.dtau - d.ds + one * (-A.T @ z.y + z.tau * c - z.s)
        assert np.abs(r2).max() < tol

        r3 = b @ d.dy - c @ d.dx - d.dkappa + one * (b @ z.y - c @ z.x - z.kappa)
        assert abs(r3) < tol

        Dm, Dinv = D.matrix(), D.inverse_matrix()
        xbar, sbar = Dinv.T @ z.x, Dm @ z.s
        lhs = sp.jordan_product(sbar, Dinv.T @ d.dx, spec) + sp.jordan_product(
            xbar, Dm @ d.ds, spec
        )
        rhs = nu * m * sp.unit_element(spec) - sp.jordan_product(xbar, sbar, spec)
        assert np.abs(lhs - rhs).max() < tol

        assert abs(z.kappa * d.dtau + z.tau * d.dkappa - (nu * m - z.kappa * z.tau)) < tol


def test_solve_diagnostics_bounds():
    rng = np.random.default_rng(313)
    for _ in range(30):
        spec, prob, z, m, nu = _setup(rng)
        d = sp.solve_direction(_assemble(prob, z, ScalingMatrix.identity(spec), nu))
        assert d.system_residual <= 1e-10
        assert d.orthogonality_defect <= 1e-9 * (spec.k + 1) * m


def test_orthogonality_identity():
    rng = np.random.default_rng(317)
    for scaling in ("identity", "nt"):
        for _ in range(20):
            spec, prob, z, m, nu = _setup(rng)
            D = _pick_scaling(scaling, z, spec, rng)
            d = sp.solve_direction(_assemble(prob, z, D, nu))
            assert abs(d.dx @ d.ds + d.dkappa * d.dtau) <= 1e-9 * (spec.k + 1) * m


def test_fractional_step_contraction():
    rng = np.random.default_rng(331)
    for _ in range(20):
        spec, prob, z, m, nu = _setup(rng)
        d = sp.solve_direction(_assemble(prob, z, ScalingMatrix.identity(spec), nu))
        r0 = sp.compute_residuals(prob, z)
        for alpha in (0.25, 0.5, 1.0):
            za = sp.step_point(z, d, alpha)
            ra = sp.compute_residuals(prob, za)
            f = 1.0 - (1.0 - nu) * alpha
            assert np.abs(ra.r_p - f * r0.r_p).max() <= 1e-10 * (1 + r0.rp_norm)
            assert np.abs(ra.r_d - f * r0.r_d).max() <= 1e-10 * (1 + r0.rd_norm)
            assert abs(ra.r_g - f * r0.r_g) <= 1e-10 * (1 + r0.rg_abs)
            assert abs(sp.mu(za, spec) - f * m) <= 1e-10 * (1 + m)


def test_centered_pure_centering_gives_zero_direction():
    rng = np.random.default_rng(337)
    for _ in range(10):
        spec = mixed_spec(rng)
        prob = random_problem(spec, 2, rng)
        z = interior_hsd_point(prob, rng, centered=True)
        d = sp.solve_direction(_assemble(prob, z, ScalingMatrix.identity(spec), 1.0))
        scale = max(1.0, np.abs(z.x).max())
        for part in (d.dx, d.dy, d.ds):
            assert np.abs(part).max() < 1e-11 * scale
        assert abs(d.dkappa) < 1e-11 * scale
        assert abs(d.dtau) < 1e-11 * scale


def test_nu_one_zeroes_affine_rows():
    rng = np.random.default_rng(347)
    spec, prob, z, m, _ = _setup(rng)
    system = _assemble(prob, z, ScalingMatrix.identity(spec), 1.0)
    # the primal and dual row blocks carry a (1-nu) factor
    p = prob.p
    assert np.abs(system.rhs[:p]).max() == 0.0
    assert np.abs(system.rhs[p:p + prob.n + 1]).max() == 0.0


def test_affine_rows_read_the_iterate_residuals():
    """The primal and dual row groups are -(1-nu) (r_p, r_d, -r_g), bit
    for bit from the Residuals the stop test reads."""
    rng = np.random.default_rng(353)
    spec, prob, z, m, nu = _setup(rng)
    res = sp.compute_residuals(prob, z)
    expected = -(1.0 - nu) * np.concatenate((res.r_p, res.r_d, (-res.r_g,)))
    system = _assemble(prob, z, ScalingMatrix.identity(spec), nu)
    affine = system.rhs[:prob.p + prob.n + 1]
    assert affine.tobytes() == expected.tobytes()


def test_identity_step_reads_the_evaluation_spectra():
    """An identity step takes xh's heads and tail norms from the
    evaluation of x with tau's block appended; its det per block and a
    per entry are bitwise those of xh's own heads and tail norms."""
    rng = np.random.default_rng(359)
    for _ in range(10):
        spec, prob, z, _, nu = _setup(rng)
        system = _assemble(prob, z, ScalingMatrix.identity(spec), nu)
        hat, xh = spec.hat(), z.vec[:spec.n + 1]
        head, t = xh[hat.heads], sp.cones.tail_norms(xh, hat)
        det = (head - t) * (head + t)
        assert system.det.tobytes() == det.tobytes()
        assert system.a.tobytes() == head[hat.block_of].tobytes()


def test_feasible_start_has_zero_primal_rhs():
    """A start feasible by construction reads r_p = 0 exactly in the stop
    test, and its Newton system's primal right-hand side is exactly 0."""
    rng = np.random.default_rng(419)
    spec = mixed_spec(rng)
    A = rng.standard_normal((2, spec.n))
    e = sp.unit_element(spec)
    prob = SocpProblem(A=A, b=A @ e, c=e.copy(), cones=spec)
    z = cold_point(prob)
    assert sp.compute_residuals(prob, z).rp_norm == 0.0
    system = _assemble(prob, z, ScalingMatrix.identity(spec),
                       sp.centering_nu(DELTA, spec.k))
    assert not np.any(system.rhs[:prob.p])


def test_scaling_equivalence_with_transformed_problem():
    """Direction under D equals the identity-scaling direction of the
    transformed data (A D^T, b, Dc) at the scaled point, mapped back."""
    rng = np.random.default_rng(349)
    for _ in range(20):
        spec, prob, z, m, nu = _setup(rng)
        D = random_automorphism(spec, rng)
        d = sp.solve_direction(_assemble(prob, z, D, nu))

        Dm, Dinv = D.matrix(), D.inverse_matrix()
        tprob = SocpProblem(
            A=prob.A @ Dm.T, b=prob.b, c=Dm @ prob.c, cones=spec
        )
        tz = HsdPoint(
            x=Dinv.T @ z.x, y=z.y, s=Dm @ z.s, kappa=z.kappa, tau=z.tau
        )
        td = sp.solve_direction(
            _assemble(tprob, tz, ScalingMatrix.identity(spec), nu)
        )
        back_dx = Dm.T @ td.dx
        back_ds = Dinv @ td.ds
        scale = 1 + max(np.abs(d.dx).max(), np.abs(d.ds).max())
        assert np.abs(back_dx - d.dx).max() < 1e-9 * scale
        assert np.abs(td.dy - d.dy).max() < 1e-9 * scale
        assert np.abs(back_ds - d.ds).max() < 1e-9 * scale
        assert abs(td.dtau - d.dtau) < 1e-9 * scale
        assert abs(td.dkappa - d.dkappa) < 1e-9 * scale


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_kept_direction_survives_the_next_step(scaling):
    """A workspace holds one step at a time, and a direction kept from one
    step keeps its bytes after the same workspace assembles and solves
    the next."""
    rng = np.random.default_rng(353)
    spec, prob, z, m, nu = _setup(rng)
    work = KktWorkspace(prob)
    kept = sp.solve_direction(_assemble(
        prob, z, _pick_scaling(scaling, z, spec, rng), nu, work))
    before = kept.vec.tobytes()
    other_z = interior_hsd_point(prob, rng)
    other = sp.solve_direction(_assemble(
        prob, other_z, _pick_scaling(scaling, other_z, spec, rng), nu, work))
    assert other.vec.tobytes() != before
    assert kept.vec.tobytes() == before


def test_scaling_sequence_matches_fresh_workspaces():
    """Identity, NT and identity steps in one workspace give the direction
    bytes and system residual of three fresh workspaces: no step reads
    Dh, Dh^{-1} or entries left by the step before."""
    rng = np.random.default_rng(373)
    spec, prob, _, _, nu = _setup(rng)
    work = KktWorkspace(prob)
    for scaling in ("identity", "nt", "identity"):
        z = interior_hsd_point(prob, rng)
        D = _pick_scaling(scaling, z, spec, rng)
        shared = sp.solve_direction(_assemble(prob, z, D, nu, work))
        fresh = sp.solve_direction(_assemble(prob, z, D, nu))
        assert shared.vec.tobytes() == fresh.vec.tobytes()
        assert shared.system_residual == fresh.system_residual


def test_nt_step_writes_into_the_workspace_buffers():
    """An NT step writes its right-hand side, Dh, Dh^{-1}, A_hat Dh' and
    D c into the arrays the workspace allocated; Dh and Dh^{-1} keep the
    last row and column of the identity."""
    rng = np.random.default_rng(379)
    spec, prob, z, m, nu = _setup(rng)
    work = KktWorkspace(prob)
    names = ("rhs", "dh", "dh_inv", "ad", "dc")
    before = [getattr(work, name) for name in names]
    D = sp.nt_scaling(z.x, z.s, spec)
    assert _assemble(prob, z, D, nu, work) is work
    assert all(getattr(work, name) is held
               for name, held in zip(names, before))
    n, unit = spec.n, [0.0] * spec.n + [1.0]
    for dh, dense in ((work.dh, D.matrix()), (work.dh_inv, D.inverse_matrix())):
        assert np.array_equal(dh[:n, :n], dense)
        assert dh[n].tolist() == unit and dh[:, n].tolist() == unit


def test_nt_step_allocates_no_matrix():
    """Once its workspace exists, an NT step writes Dh, Dh^{-1} and A_hat Dh'
    into the workspace's buffers: its allocations peak below one p x (n+1)
    array, the smaller of the two matrix shapes.  The evaluation and the
    residuals, which solve holds already, are built before the count."""
    prob = feasible_problem(sp.ConeSpec(l=20, soc_dims=(30, 40, 30)), 60,
                            np.random.default_rng(5))
    spec, z = prob.cones, cold_point(prob)
    D, ev = sp.nt_scaling(z.x, z.s, spec), sp.Evaluation(z, spec)
    nu, res = sp.centering_nu(DELTA, spec.k), sp.compute_residuals(prob, z)
    work = KktWorkspace(prob)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sp.solve_direction(sp.assemble(work, z, ev, D, nu, res))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * prob.p * (spec.n + 1)


def test_singular_system_raises():
    # duplicated constraint rows make the embedding singular
    spec = sp.ConeSpec(l=2, soc_dims=())
    prob = SocpProblem(
        A=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b=np.array([1.0, 1.0]),
        c=np.array([1.0, 0.0]),
        cones=spec,
    )
    z = sp.cold_start(spec, p=2)
    nu = sp.centering_nu(DELTA, spec.k)
    with pytest.raises(SingularSystem):
        sp.solve_direction(_assemble(prob, z, ScalingMatrix.identity(spec), nu))


@pytest.mark.parametrize("order", [1, 37, 191])
def test_lapack_wrappers_match_scipy_linalg_bitwise(order):
    """kkt's getrf and getrs, loaded from scipy's _flapack file, give the
    factors, pivots and solution of scipy.linalg.lapack's, to the byte;
    37 and 191 are the reduced orders of the warm-drift and dense-kkt
    benchmark solves."""
    from scipy.linalg import lapack
    rng = np.random.default_rng(order)
    K = np.asfortranarray(rng.standard_normal((order, order)))
    rhs = rng.standard_normal(order)
    ours, theirs = sp.kkt._getrf(K), lapack.dgetrf(K)
    for a, b in zip(ours, theirs):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    lu, piv, _ = ours
    assert (sp.kkt._getrs(lu, piv, rhs)[0].tobytes()
            == lapack.dgetrs(lu, piv, rhs)[0].tobytes())


def test_solve_dense_factors_in_place():
    rng = np.random.default_rng(2)
    K = np.asfortranarray(rng.standard_normal((6, 6)))
    rhs = rng.standard_normal(6)
    expected = np.linalg.solve(K, rhs)
    u, (lu, piv) = sp.kkt.solve_dense(K, rhs)
    assert np.shares_memory(lu, K)
    assert np.allclose(u, expected, rtol=1e-12, atol=1e-12)


def test_solve_dense_names_the_zero_pivot_column():
    """A K whose third column is zero has an exactly zero third pivot."""
    K = np.asfortranarray(np.random.default_rng(4).standard_normal((5, 5)))
    K[:, 2] = 0.0
    with pytest.raises(SingularSystem, match="zero pivot in column 3$"):
        sp.kkt.solve_dense(K, np.ones(5))


def test_non_finite_direction_raises(monkeypatch):
    """A direction that is not finite, here from a NaN solution of the
    reduced system, raises SingularSystem."""
    original = sp.kkt.solve_dense

    def nan_solve(K, rhs):
        u, factors = original(K, rhs)
        return np.full_like(u, np.nan), factors
    monkeypatch.setattr(sp.kkt, "solve_dense", nan_solve)
    prob = toy_lp()
    system = _assemble(prob, cold_point(prob),
                       ScalingMatrix.identity(prob.cones), 0.9)
    with pytest.raises(SingularSystem, match="not finite"):
        sp.solve_direction(system)


def test_assemble_checks_the_scaling_and_the_point():
    """A scaling over other cones than the workspace's problem, or a point
    of other lengths, raises DimensionMismatch."""
    prob = toy_lp()
    z, work = cold_point(prob), KktWorkspace(prob)
    ev, res = sp.Evaluation(z, prob.cones), sp.compute_residuals(prob, z)
    identity = ScalingMatrix.identity(prob.cones)
    other = ScalingMatrix.identity(sp.ConeSpec(l=3, soc_dims=()))
    with pytest.raises(DimensionMismatch, match="scaling and problem"):
        sp.assemble(work, z, ev, other, 0.9, res)
    long_y = HsdPoint(x=z.x, y=np.zeros(2), s=z.s, kappa=1.0, tau=1.0)
    with pytest.raises(DimensionMismatch, match="got 2, 2 and 2"):
        sp.assemble(work, long_y, ev, identity, 0.9, res)


def test_increment_bound_frozen():
    # 2*sqrt(gamma^2/2 + delta^2/2)/(1-3*gamma); the cone-count term cancels
    got = increment_bound(0.08, 0.03, 3)
    assert abs(got - 0.15898744702098121) < 1e-15
    assert abs(increment_bound(0.08, 0.03, 12) - got) < 1e-15


def test_scaled_increment_diagnostics_on_toy_lp():
    prob = toy_lp()
    spec = prob.cones
    z = sp.cold_start(spec, p=1)
    m = sp.mu(z, spec)
    nu = sp.centering_nu(DELTA, spec.k)
    d = sp.solve_direction(_assemble(prob, z, ScalingMatrix.identity(spec), nu))
    nx, ns, bound = sp.scaled_increment_diagnostics(z, d, spec, GAMMA, DELTA)
    assert nx <= bound / 2.0
    assert ns <= bound * m


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_direction_owns_its_vector(scaling):
    """A direction is one vector in the point layout, which no other
    direction and no buffer of the workspace shares, and the step along it
    is a fresh point."""
    rng = np.random.default_rng(359)
    spec, prob, z, m, nu = _setup(rng)
    work = KktWorkspace(prob)
    _assemble(prob, z, _pick_scaling(scaling, z, spec, rng), nu, work)
    first, second = sp.solve_direction(work), sp.solve_direction(work)
    assert not np.shares_memory(first.vec, second.vec)
    for buffer in (work.red, work.core_out, work.residual, work.step,
                   work.matrix, work.rhs, work.dh, work.dh_inv, work.ad):
        assert not np.shares_memory(first.vec, buffer)
    n = spec.n
    assert first.vec.tolist() == [*first.dx, first.dtau, *first.dy,
                                  *first.ds, first.dkappa]
    for part in (first.dx, first.dy, first.ds):
        assert np.shares_memory(part, first.vec)
    stepped = sp.step_point(z, first, 1.0)
    for held in (z.vec, first.vec, work.rhs):
        assert not np.shares_memory(stepped.vec, held)
    assert stepped.vec.tobytes() == (z.vec + first.vec).tobytes()
    assert (stepped.x.size, stepped.y.size) == (n, prob.p)


def test_step_point_equals_the_five_separate_steps_bitwise():
    rng = np.random.default_rng(367)
    for _ in range(10):
        spec, prob, z, m, nu = _setup(rng)
        d = sp.solve_direction(
            _assemble(prob, z, ScalingMatrix.identity(spec), nu))
        for alpha in (1.0, 0.37):
            stepped = sp.step_point(z, d, alpha)
            for got, base, inc in ((stepped.x, z.x, d.dx), (stepped.y, z.y, d.dy),
                                   (stepped.s, z.s, d.ds)):
                assert got.tobytes() == (base + alpha * inc).tobytes()
            assert stepped.tau == z.tau + alpha * d.dtau
            assert stepped.kappa == z.kappa + alpha * d.dkappa
