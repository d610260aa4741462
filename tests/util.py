"""Shared generators for the test suite, a call counter and a half-step
patch of the solver. Everything is seeded."""

import numpy as np

import socpath.solver
from socpath import ConeSpec, HsdPoint, SocpProblem, cold_start


def interior_vector(spec, rng, scale=1.0):
    """Strictly interior point of the cone, entries O(scale)."""
    v = np.empty(spec.n)
    for start, dim in spec.blocks:
        if dim == 1:
            v[start] = scale * rng.uniform(0.2, 2.0)
        else:
            tail = scale * rng.standard_normal(dim - 1)
            v[start] = np.linalg.norm(tail) * (1.0 + rng.uniform(0.1, 1.0)) + 0.05 * scale
            v[start + 1 : start + dim] = tail
    return v


def boundary_vector(spec, rng, scale=1.0):
    """Point on the cone boundary: every SOC block with head = tail norm,
    linear entries zero."""
    v = np.empty(spec.n)
    for start, dim in spec.blocks:
        if dim == 1:
            v[start] = 0.0
        else:
            tail = scale * rng.standard_normal(dim - 1)
            v[start] = np.linalg.norm(tail)
            v[start + 1 : start + dim] = tail
    return v


def mixed_spec(rng, max_linear=4, max_soc_blocks=4, max_soc_dim=6):
    l = int(rng.integers(0, max_linear + 1))
    n_soc = int(rng.integers(0, max_soc_blocks + 1))
    if l == 0 and n_soc == 0:
        l = 1
    dims = tuple(int(rng.integers(2, max_soc_dim + 1)) for _ in range(n_soc))
    return ConeSpec(l=l, soc_dims=dims)


# 1-dimensional second-order blocks, which mixed_spec never draws
UNIT_SOC_SPEC = ConeSpec(2, (1, 4, 1, 3))


def mixed_specs(rng, count):
    """`count` specs from mixed_spec, drawn lazily so the caller's draws
    interleave as in a loop over mixed_spec, then UNIT_SOC_SPEC."""
    for _ in range(count):
        yield mixed_spec(rng)
    yield UNIT_SOC_SPEC


def spec_at_least(rng, min_n, **kwargs):
    """Random mixed spec with at least min_n total variables, so a row
    count below min_n keeps the constraint matrix strictly flat."""
    spec = mixed_spec(rng, **kwargs)
    while spec.n < min_n:
        spec = mixed_spec(rng, **kwargs)
    return spec


def random_problem(spec, p, rng, name=""):
    """Dense Gaussian data. No feasibility guarantee; full row rank with
    probability 1."""
    A = rng.standard_normal((p, spec.n))
    b = rng.standard_normal(p)
    c = rng.standard_normal(spec.n)
    return SocpProblem(A=A, b=b, c=c, cones=spec, name=name)


def feasible_problem(spec, p, rng, name=""):
    """Primal-dual strictly feasible instance: b, c built from an interior
    primal-dual pair, so the optimal status is forced."""
    prob, _ = feasible_problem_with_pair(spec, p, rng, name=name)
    return prob


def feasible_problem_with_pair(spec, p, rng, name="", scale=1.0):
    """Same construction, returning the certificate (x*, y*, s*) as well."""
    A = rng.standard_normal((p, spec.n))
    x_star = interior_vector(spec, rng, scale=scale)
    s_star = interior_vector(spec, rng, scale=scale)
    y_star = rng.standard_normal(p)
    b = A @ x_star
    c = A.T @ y_star + s_star
    prob = SocpProblem(A=A, b=b, c=c, cones=spec, name=name)
    return prob, (x_star, y_star, s_star)


def toy_lp():
    spec = ConeSpec(l=2, soc_dims=())
    return SocpProblem(
        A=np.array([[1.0, 1.0]]),
        b=np.array([1.0]),
        c=np.array([1.0, 0.0]),
        cones=spec,
        name="toy-lp",
    )


def infeasible_lp():
    spec = ConeSpec(l=2, soc_dims=())
    return SocpProblem(
        A=np.array([[1.0, 1.0]]),
        b=np.array([-1.0]),
        c=np.array([1.0, 0.0]),
        cones=spec,
        name="infeasible-lp",
    )


def dual_infeasible_lp():
    spec = ConeSpec(l=2, soc_dims=())
    return SocpProblem(
        A=np.array([[1.0, -1.0]]),
        b=np.array([0.0]),
        c=np.array([-1.0, -1.0]),
        cones=spec,
        name="dual-infeasible-lp",
    )


def soc_fixture():
    spec = ConeSpec(l=0, soc_dims=(3,))
    return SocpProblem(
        A=np.array([[0.0, 1.0, 0.0]]),
        b=np.array([1.0]),
        c=np.array([1.0, 0.0, 0.0]),
        cones=spec,
        name="soc-min-head",
    )


def cold_point(problem):
    return cold_start(problem.cones, p=problem.p)


def interior_hsd_point(problem, rng, centered=False):
    """Random strictly interior HSD point for the given problem. With
    centered=True the point sits on the central path: x = s = t*e with
    kappa*tau = t^2, which makes every joint eigenvalue equal to mu."""
    from socpath import unit_element

    spec = problem.cones
    y = rng.standard_normal(problem.p)
    if centered:
        t = rng.uniform(0.5, 2.0)
        x = t * unit_element(spec)
        s = x.copy()
        tau = rng.uniform(0.5, 2.0)
        kappa = t * t / tau
    else:
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        kappa = rng.uniform(0.2, 2.0)
        tau = rng.uniform(0.2, 2.0)
    return HsdPoint(x=x, y=y, s=s, kappa=kappa, tau=tau)


def count_calls(monkeypatch, owner, name):
    """Rebind owner.name to a wrapper that records each call's arguments
    in the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def half_steps(monkeypatch):
    """Make solve take each step at half the length it asks for, so that
    no step contracts mu and the residuals by nu.  Returns the list of the
    step lengths asked for, one per step."""
    step = socpath.solver.step_point
    alphas = []

    def half_step(z, direction, alpha):
        alphas.append(alpha)
        return step(z, direction, 0.5 * alpha)
    monkeypatch.setattr(socpath.solver, "step_point", half_step)
    return alphas
