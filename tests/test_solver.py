"""Path-following loop: parameters, iteration law, traces, statuses."""

import numpy as np
import pytest

import socpath as sp
from socpath import (
    DimensionMismatch,
    HsdPoint,
    InvalidParams,
    MaxIterationsExceeded,
    NonFiniteData,
    NotInterior,
    SingularSystem,
    SocpathError,
    SolverParams,
    StartOutsideNeighborhood,
)
from socpath.solver import SCALINGS, STOP_MODES

from util import (
    cold_point,
    count_calls,
    dual_infeasible_lp,
    feasible_problem,
    half_steps,
    infeasible_lp,
    mixed_spec,
    soc_fixture,
    toy_lp,
)

NU_K3 = 0.9893933982822018
NU_K2 = 0.9877525512860841


def test_inadmissible_gamma_delta_refused_before_any_step(monkeypatch):
    """A (gamma, delta) that passes SolverParams but whose worst-case
    post-step centrality exceeds gamma for this k is refused at entry."""
    steps = count_calls(monkeypatch, sp.solver, "assemble")
    prob = toy_lp()
    params = SolverParams(gamma=0.3, delta=0.5)
    assert not sp.validate_params(0.3, 0.5, prob.cones.k)[0]
    with pytest.raises(InvalidParams, match=r"inadmissible for k=2: margin"):
        sp.solve(prob, cold_point(prob), params)
    assert steps == []


def test_problem_without_rows_solves():
    """p = 0: [A, -b] has no rows to be dependent, the embedding's Newton
    systems have no y block, and the solve ends optimal at the law's
    count."""
    spec = sp.ConeSpec(l=2, soc_dims=(3,))
    prob = sp.SocpProblem(np.zeros((0, spec.n)), np.zeros(0),
                          sp.unit_element(spec), spec)
    res = sp.solve(prob, sp.cold_start(spec, p=0), SolverParams())
    assert res.status.status == "optimal"
    assert res.iterations == res.predicted == 1296
    assert res.point.y.shape == (0,)


def test_centering_nu_frozen():
    assert abs(sp.centering_nu(0.03, 3) - NU_K3) < 1e-15
    assert abs(sp.centering_nu(0.03, 2) - NU_K2) < 1e-15


def test_validate_params_default_pair():
    ok, margin = sp.validate_params(0.08, 0.03, 3)
    assert ok
    # margin = gamma - G with G frozen from the formula
    assert abs((0.08 - margin) - 0.05109597123679133) < 1e-15
    # admissible for every cone count from 1 up
    for k in (1, 2, 8, 32, 128, 1000):
        ok, _ = sp.validate_params(0.08, 0.03, k)
        assert ok


def test_validate_params_rejects_tiny_gamma():
    # the quadratic delta term keeps G above gamma as gamma -> 0
    ok, margin = sp.validate_params(1e-6, 0.03, 3)
    assert not ok
    assert margin < 0


def test_validate_params_rejects_large_gamma():
    ok, _ = sp.validate_params(0.32, 0.03, 3)
    assert not ok


class TestPredictedIterations:
    def test_frozen_k3(self):
        rng = np.random.default_rng(401)
        spec = sp.ConeSpec(l=1, soc_dims=(3, 4))
        assert spec.k == 3
        prob = feasible_problem(spec, 2, rng)
        params = SolverParams(epsilon=1e-6, delta=0.03)
        n_pred = sp.predicted_iterations(cold_point(prob), prob, params)
        assert n_pred == 1296

    def test_frozen_toy_lp(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-6, delta=0.03)
        assert sp.predicted_iterations(cold_point(prob), prob, params) == 1122


def test_solver_params_validation():
    with pytest.raises(InvalidParams):
        SolverParams(gamma=0.0)
    with pytest.raises(InvalidParams):
        SolverParams(delta=1.5)
    with pytest.raises(InvalidParams):
        SolverParams(epsilon=2.0)
    with pytest.raises(InvalidParams):
        SolverParams(scaling="cholesky")
    with pytest.raises(InvalidParams):
        SolverParams(stop_mode="sometimes")


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -1e-3])
def test_unified_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(InvalidParams, match="positive and finite"):
        SolverParams(epsilon=epsilon, stop_mode="unified")
    with pytest.raises(InvalidParams, match=r"epsilon must lie in \(0,1\)"):
        SolverParams(epsilon=epsilon)


class TestToyLp:
    def test_optimal_and_exact_count(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-6)
        res = sp.solve(prob, cold_point(prob), params)
        assert res.status.status == "optimal"
        assert np.abs(res.status.x - np.array([0.0, 1.0])).max() < 1e-5
        assert abs(prob.c @ res.status.x) < 1e-5
        assert res.iterations == res.predicted == 1122

    def test_trace_contraction_and_neighborhood(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-2)
        res = sp.solve(prob, cold_point(prob), params)
        tr = res.trace
        assert tr.neighborhood_violations == 0
        nu = sp.centering_nu(params.delta, prob.cones.k)
        prev = tr.start_mu
        for row in tr.rows:
            assert abs(row.mu - nu * prev) <= 1e-9 * prev
            prev = row.mu
            assert row.d2 <= params.gamma * row.mu + 1e-12
            assert row.lambda_min_x > 0 and row.lambda_min_s > 0
        assert len(tr.rows) == res.iterations

    def test_nt_same_iteration_count(self):
        prob = toy_lp()
        res_i = sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-2))
        res_nt = sp.solve(
            prob, cold_point(prob), SolverParams(epsilon=1e-2, scaling="nt")
        )
        assert res_i.iterations == res_nt.iterations


def test_infeasible_lp_certificate():
    prob = infeasible_lp()
    res = sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-6))
    assert res.status.status == "primal_infeasible"
    assert prob.b @ res.status.y > 0.0


def test_dual_infeasible_certificate():
    prob = dual_infeasible_lp()
    res = sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-6))
    assert res.status.status == "dual_infeasible"
    assert prob.c @ res.status.x < 0.0


def test_soc_fixture_solution():
    prob = soc_fixture()
    res = sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-6))
    assert res.status.status == "optimal"
    assert np.abs(res.status.x - np.array([1.0, 1.0, 0.0])).max() < 1e-5


def test_start_outside_neighborhood_rejected():
    prob = toy_lp()
    z = cold_point(prob)
    off = HsdPoint(
        x=np.array([50.0, 0.01]), y=z.y, s=z.s, kappa=z.kappa, tau=z.tau
    )
    with pytest.raises(StartOutsideNeighborhood):
        sp.solve(prob, off, SolverParams(epsilon=1e-2))
    # a start off the interior is refused the same way, not as NotInterior
    for tau, x in ((0.0, z.x), (-1.0, z.x), (z.tau, np.array([1.0, -0.5]))):
        bad = HsdPoint(x=x, y=z.y, s=z.s, kappa=z.kappa, tau=tau)
        with pytest.raises(StartOutsideNeighborhood):
            sp.solve(prob, bad, SolverParams(epsilon=1e-2))


@pytest.mark.parametrize("field", ["A", "b", "c"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_data_rejected(field, value):
    prob = toy_lp()
    getattr(prob, field).flat[0] = value
    with pytest.raises(NonFiniteData, match=f"^{field} ") as info:
        sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-2))
    assert isinstance(info.value, SocpathError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("stop_mode", STOP_MODES)
def test_short_steps_raise_at_the_closed_form_count(monkeypatch, scaling,
                                                    stop_mode):
    """solve runs exactly the closed-form count and checks the stop
    criterion once: half steps contract by less than nu, so the criterion
    fails after `predicted` steps and solve raises there, not later."""
    alphas = half_steps(monkeypatch)
    prob = toy_lp()
    params = SolverParams(epsilon=1e-2, scaling=scaling, stop_mode=stop_mode)
    predicted = sp.predicted_iterations(cold_point(prob), prob, params)
    with pytest.raises(MaxIterationsExceeded,
                       match=f"{stop_mode} stop .* {predicted} steps: mu="):
        sp.solve(prob, cold_point(prob), params)
    assert len(alphas) == predicted > 0


def test_zero_initial_residuals_declared_satisfied():
    # start point feasible by construction: both residual norms are 0 and
    # only the mu criterion drives the loop
    rng = np.random.default_rng(419)
    spec = mixed_spec(rng)
    A = rng.standard_normal((2, spec.n))
    e = sp.unit_element(spec)
    prob = sp.SocpProblem(A=A, b=A @ e, c=e.copy(), cones=spec)
    start = cold_point(prob)
    r0 = sp.compute_residuals(prob, start)
    assert r0.rp_norm == 0.0 and r0.rd_norm == 0.0
    params = SolverParams(epsilon=1e-2)
    res = sp.solve(prob, start, params)
    assert res.iterations == sp.predicted_iterations(start, prob, params)
    assert res.status.status == "optimal"


def test_unified_stop_mode():
    prob = toy_lp()
    start = cold_point(prob)
    params = SolverParams(epsilon=1e-3, stop_mode="unified")
    res = sp.solve(prob, start, params)
    assert res.iterations == sp.predicted_iterations(start, prob, params)
    tr = res.trace
    last = tr.rows[-1]
    assert max(last.mu, last.rp_norm, last.rd_norm) <= 1e-3
    if len(tr.rows) > 1:
        prior = tr.rows[-2]
        assert max(prior.mu, prior.rp_norm, prior.rd_norm) > 1e-3


def test_unified_count_refuses_an_overflowing_ratio():
    """At a subnormal epsilon max(||r_p||, ||r_d||, mu)/epsilon overflows to
    inf; the closed-form count refuses it rather than take ceil(inf)."""
    prob = toy_lp()
    start = cold_point(prob)
    params = SolverParams(epsilon=1e-310, stop_mode="unified")
    with pytest.raises(InvalidParams, match="overflows"):
        sp.predicted_iterations(start, prob, params)
    with pytest.raises(InvalidParams, match="overflows"):
        sp.solve(prob, start, params)


def test_mixed_cone_exact_reduction_both_scalings():
    rng = np.random.default_rng(431)
    spec = sp.ConeSpec(l=2, soc_dims=(3, 2))
    prob = feasible_problem(spec, 3, rng)
    for scaling in ("identity", "nt"):
        params = SolverParams(epsilon=1e-2, scaling=scaling)
        res = sp.solve(prob, cold_point(prob), params)
        nu = sp.centering_nu(params.delta, spec.k)
        tr = res.trace
        mu_prev, rp_prev, rd_prev = tr.start_mu, tr.start_rp_norm, tr.start_rd_norm
        for row in tr.rows:
            assert abs(row.mu - nu * mu_prev) <= 1e-9 * mu_prev
            assert abs(row.rp_norm - nu * rp_prev) <= 1e-9 * (1 + rp_prev)
            assert abs(row.rd_norm - nu * rd_prev) <= 1e-9 * (1 + rd_prev)
            mu_prev, rp_prev, rd_prev = row.mu, row.rp_norm, row.rd_norm
        assert tr.neighborhood_violations == 0


@pytest.mark.parametrize("stop_mode", ["relative", "unified"])
@pytest.mark.parametrize("trace_enabled", [True, False])
def test_each_iterate_evaluated_once(monkeypatch, trace_enabled, stop_mode):
    """Residuals and the evaluation that holds mu are computed once per
    iterate, start included."""
    counts = {"compute_residuals": 0, "Evaluation": 0}
    for name in counts:
        original = getattr(sp.solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(sp.solver, name, counted)
    prob = toy_lp()
    params = SolverParams(epsilon=1e-2, trace_enabled=trace_enabled,
                          stop_mode=stop_mode)
    res = sp.solve(prob, cold_point(prob), params)
    assert res.iterations > 0
    assert counts == {"compute_residuals": res.iterations + 1,
                      "Evaluation": res.iterations + 1}


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_trace_does_not_change_iterates(scaling):
    rng = np.random.default_rng(433)
    spec = sp.ConeSpec(l=3, soc_dims=(4, 1, 3))
    prob = feasible_problem(spec, 4, rng)
    on, off = [sp.solve(prob, cold_point(prob),
                        SolverParams(epsilon=1e-3, scaling=scaling,
                                     trace_enabled=flag))
               for flag in (True, False)]
    assert on.trace is not None and off.trace is None
    assert on.iterations == off.iterations == len(on.trace.rows)
    for name in ("x", "y", "s", "kappa", "tau"):
        assert np.array_equal(getattr(on.point, name), getattr(off.point, name))


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_trace_table_is_allocated_once(scaling, monkeypatch):
    """The trace is one record array of exactly `iterations` rows, which
    exists at its full length before the first step."""
    from socpath import solver
    traces, seen = [], []

    def record(*args):
        traces.append(sp.SolveTrace(*args))
        return traces[-1]

    def step(z, d, alpha):
        if not seen:
            seen.append((traces[0].rows, len(traces[0].rows)))
        return sp.step_point(z, d, alpha)
    monkeypatch.setattr(solver, "SolveTrace", record)
    monkeypatch.setattr(solver, "step_point", step)
    rng = np.random.default_rng(433)
    prob = feasible_problem(sp.ConeSpec(l=3, soc_dims=(4, 1, 3)), 4, rng)
    res = sp.solve(prob, cold_point(prob),
                   SolverParams(epsilon=1e-3, scaling=scaling))
    rows = res.trace.rows
    assert isinstance(rows, np.recarray)
    assert len(rows) == res.iterations == res.predicted > 0
    assert len(seen) == 1
    assert seen[0][0] is rows and seen[0][1] == res.iterations


def _leave_x(z):
    z.x[0] = -1.0


def _leave_s(z):
    z.s[0] = -1.0


def _leave_tau(z):
    z.tau = -1.0


@pytest.mark.parametrize("leave", [_leave_x, _leave_s, _leave_tau],
                         ids=["x", "s", "tau"])
def test_iterate_leaving_interior_raises(monkeypatch, leave):
    """The interior check runs on every iterate, also under the identity
    scaling with the trace off, and names the iteration that left."""
    original = sp.solver.step_point
    steps = []

    def step(*args, **kwargs):
        z = original(*args, **kwargs)
        steps.append(z)
        if len(steps) == 3:
            leave(z)
        return z
    monkeypatch.setattr(sp.solver, "step_point", step)
    prob = soc_fixture()
    params = SolverParams(epsilon=1e-2, scaling="identity",
                          trace_enabled=False)
    with pytest.raises(NotInterior, match="^iteration 3 left the interior"):
        sp.solve(prob, cold_point(prob), params)
    assert len(steps) == 3


@pytest.mark.parametrize("scaling, trace_enabled, per_iteration",
                         [("nt", True, 4), ("identity", False, 2)])
def test_tail_norms_per_iteration(monkeypatch, scaling, trace_enabled,
                                  per_iteration):
    """Each iterate's heads and tail norms of x and s are taken once.  An
    NT step adds the scaling point w, a trace row the spectral bounds of
    the product point T_x s.  The start's neighborhood check reads d2
    alone, which takes no spectral bounds."""
    calls = []
    original = sp.cones.tail_norms

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(sp.cones, "tail_norms", counted)
    rng = np.random.default_rng(439)
    prob = feasible_problem(sp.ConeSpec(l=2, soc_dims=(3, 3)), 2, rng)
    params = SolverParams(epsilon=1e-2, scaling=scaling,
                          trace_enabled=trace_enabled)
    res = sp.solve(prob, cold_point(prob), params)
    assert res.iterations > 0
    assert len(calls) == per_iteration * res.iterations + 2


@pytest.mark.parametrize("scaling", ["identity", "nt"])
def test_newton_system_reads_what_solve_holds(monkeypatch, scaling):
    """solve hands each iterate's evaluation and residuals to assemble,
    which cannot compute residuals of its own.  An identity step reads the
    tail norms of xh from the evaluation; an NT step takes those of its
    scaled point through cones.tail_norms, once."""
    assert not hasattr(sp.kkt, "compute_residuals")
    norms = count_calls(monkeypatch, sp.kkt, "tail_norms")
    rng = np.random.default_rng(439)
    prob = feasible_problem(sp.ConeSpec(l=2, soc_dims=(3, 3)), 2, rng)
    res = sp.solve(prob, cold_point(prob),
                   SolverParams(epsilon=1e-2, scaling=scaling))
    assert res.iterations > 0
    assert len(norms) == (res.iterations if scaling == "nt" else 0)


def test_more_rows_than_embedding_columns_rejected(monkeypatch):
    """p > n+1 makes [A, -b] row-dependent and every Newton system
    singular: refused at entry as input, before any assembly."""
    rng = np.random.default_rng(11)
    prob = feasible_problem(mixed_spec(rng), 3, rng)
    assert (prob.p, prob.n) == (3, 1)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a Newton system")
    monkeypatch.setattr(sp.solver, "assemble", no_assembly)
    with pytest.raises(DimensionMismatch, match="3 equality rows") as info:
        sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-2))
    assert isinstance(info.value, SocpathError)
    assert isinstance(info.value, ValueError)


def test_dependent_rows_rejected_at_entry(monkeypatch):
    """p <= n rows of [A, -b] that are dependent make every Newton system
    singular: refused at entry, before any assembly."""
    prob = sp.SocpProblem(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          b=np.array([1.0, 1.0]), c=np.array([1.0, 0.0]),
                          cones=sp.ConeSpec(l=2, soc_dims=()))

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a Newton system")
    monkeypatch.setattr(sp.solver, "assemble", no_assembly)
    with pytest.raises(SingularSystem, match="rows of"):
        sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-2))


def test_dependent_rows_of_a_alone_reach_a_certificate():
    """Rows of A that are dependent while those of [A, -b] are not state
    inconsistent equations: the embedding stays solvable and the solve
    ends in a checked Farkas certificate rather than a refusal."""
    prob = sp.SocpProblem(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          b=np.array([1.0, 2.0]), c=np.array([1.0, 0.0]),
                          cones=sp.ConeSpec(l=2, soc_dims=()))
    res = sp.solve(prob, cold_point(prob), SolverParams(epsilon=1e-2))
    assert res.status.status == "primal_infeasible"
    y = res.status.y
    assert prob.b @ y > 0.0
    assert np.all(-prob.A.T @ y >= 0.0)


@pytest.mark.parametrize("scaling", ["identity", "nt"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tight_epsilon_keeps_the_law(seed, scaling):
    """At eps 1e-10 the reduced Newton solve keeps the closed-form count,
    stays interior, contracts mu and ||r_p|| by nu at every step and
    solves the full system to 1e-9.  Rounding in mu and r_p alone moves a
    ratio by up to about 3.5e-16 start/value (the dense three-row solve
    reads the same), so the tolerance grows as the value falls and reaches
    about 1e-5 at eps 1e-10."""
    spec = sp.ConeSpec(3, (4, 5, 6))
    prob = feasible_problem(spec, 5, np.random.default_rng(seed))
    params = SolverParams(epsilon=1e-10, scaling=scaling)
    res = sp.solve(prob, cold_point(prob), params)
    assert res.iterations == res.predicted == 2861
    nu = sp.centering_nu(params.delta, spec.k)
    tr = res.trace
    for start, values in ((tr.start_mu, [row.mu for row in tr.rows]),
                          (tr.start_rp_norm, [row.rp_norm for row in tr.rows])):
        prev = start
        for value in values:
            assert abs(value / prev - nu) <= 1e-9 + 1e-15 * start / prev
            prev = value
    assert max(row.kkt_residual for row in tr.rows) <= 1e-9


@pytest.mark.parametrize("scaling", SCALINGS)
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("gamma, delta, count", [(0.0525, 0.078, 875),
                                                 (0.06, 0.05, 1370)])
def test_admissible_pairs_keep_the_law(gamma, delta, count, seed, scaling):
    """Pairs other than the default, one next to the edge of the admissible
    region for k=6, keep the closed-form count and solve."""
    spec = sp.ConeSpec(3, (4, 5, 6))
    assert sp.validate_params(gamma, delta, spec.k)[0]
    prob = feasible_problem(spec, 5, np.random.default_rng(seed))
    params = SolverParams(gamma=gamma, delta=delta, epsilon=1e-8,
                          scaling=scaling, trace_enabled=False)
    res = sp.solve(prob, cold_point(prob), params)
    assert res.iterations == res.predicted == count
    assert res.status.status == "optimal"


def test_shape_checks_do_not_grow_with_iterations(monkeypatch):
    """solve checks the data's shapes at entry; the loop's residuals,
    written into one buffer, check nothing per iterate."""
    calls = count_calls(monkeypatch, sp.SocpProblem, "check_shapes")
    prob = toy_lp()
    counts = []
    for eps in (1e-2, 1e-4):
        calls.clear()
        res = sp.solve(prob, cold_point(prob), SolverParams(epsilon=eps))
        counts.append((len(calls), res.iterations))
    assert counts[0][1] < counts[1][1]
    assert counts[0][0] == counts[1][0]


def _socpath_calls(prob, params):
    """Calls into functions of socpath modules during one solve, by
    sys.setprofile, with the solve's iteration count."""
    import sys
    calls = []

    def profile(frame, event, arg):
        if event == "call" and \
                frame.f_globals.get("__name__", "").startswith("socpath."):
            calls.append(None)
    start = cold_point(prob)
    sys.setprofile(profile)
    try:
        res = sp.solve(prob, start, params)
    finally:
        sys.setprofile(None)
    return len(calls), res.iterations


# per (scaling, trace_enabled): the measured calls per iteration plus one
CALLS_PER_ITERATION_CEILING = {
    ("identity", False): 37, ("identity", True): 48,
    ("nt", False): 49, ("nt", True): 60}


@pytest.mark.parametrize("scaling, trace_enabled",
                         list(CALLS_PER_ITERATION_CEILING))
def test_socpath_calls_per_iteration(scaling, trace_enabled):
    """A regression guard on the per-step work in Python: the calls into
    socpath functions that each iteration adds, from two solves of the
    same problem that differ only in their iteration count.  numpy's own
    Python frames are not counted, so the figure does not depend on its
    version.  (The layout before the flat iterate took 48, 61, 59, 72,
    the step before it moved into the workspace 39, 52, 50, 63, the trace
    before it was one table 37, 50, 48, 61, and the Newton step before it
    read the iterate's evaluation 38, 50, 49, 61.)"""
    ceiling = CALLS_PER_ITERATION_CEILING[scaling, trace_enabled]
    rng = np.random.default_rng(439)
    prob = feasible_problem(sp.ConeSpec(l=2, soc_dims=(3, 3)), 2, rng)
    (c1, i1), (c2, i2) = (
        _socpath_calls(prob, SolverParams(epsilon=eps, scaling=scaling,
                                          trace_enabled=trace_enabled))
        for eps in (1e-2, 1e-4))
    assert i1 < i2
    assert (c2 - c1) / (i2 - i1) <= ceiling
