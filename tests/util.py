"""Shared generators for the test suite, a call counter, a half-step
patch of the solver, the check of a command's exit and the paper's dense
proof objects, which no solve forms. Everything is seeded."""

import json
import math
from typing import Tuple

import numpy as np

import socpath.solver
from socpath import (ConeSpec, HsdPoint, ScalingMatrix, SocpathError,
                     SocpProblem, cold_start)
from socpath.cones import Spectrum, _t_values

from oracles import arrow_oracle


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


def assert_typed(code, err, parsed):
    """A command exits 0 with nothing on stderr, or 2 or 3 with one line
    of JSON that names a SocpathError, and 2 with a ParseError when its
    file did not parse; never with a traceback."""
    assert "Traceback" not in err
    if parsed and code == 0:
        assert err == ""
        return
    assert code in (2, 3) and len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert issubclass(getattr(socpath.errors, error["type"]), SocpathError)
    if not parsed:
        assert code == 2 and error["type"] == "ParseError"


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


def t_dense(v: Spectrum) -> np.ndarray:
    """Dense block-diagonal T_v of an evaluated interior v."""
    T = np.zeros((v.spec.n, v.spec.n))
    T.flat[v.spec.block_pattern.pos] = _t_values(v)
    return T


def r_matrix(x, s, spec: ConeSpec) -> np.ndarray:
    """Dense T_x mat(x)^{-1} mat(s) T_x.  Requires interior x and s."""
    xs = Spectrum(x, spec).require_interior("x in r_matrix")
    Spectrum(s, spec).require_interior("s in r_matrix")
    T = t_dense(xs)
    X = arrow_oracle(x, spec)
    S = arrow_oracle(s, spec)
    return T @ np.linalg.solve(X, S @ T)


def apply_scaling(D: ScalingMatrix, x, s) -> Tuple[np.ndarray, np.ndarray]:
    """Primal-dual change of variables (D^{-T} x, D s)."""
    return D.inverse_matrix().T @ x, D.matrix() @ s


def random_automorphism(spec: ConeSpec, seed=None) -> ScalingMatrix:
    """Random member of the scaling group, reproducible from the seed.

    Per SOC block: product of two tail rotations (QR of a Gaussian matrix)
    and a hyperbolic rotation with angle in [-0.7, 0.7] acting in the
    (1, 2) coordinate plane; thetas drawn from [0.5, 2].  D is the closed
    form (Theta G)^{-1} = Q G' Q Theta^{-1}, since G'QG = Q makes Q G' Q
    the inverse of G.
    """
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.5, 2.0, size=spec.k)
    G = np.zeros((spec.n, spec.n))
    for o, d in spec.blocks:
        Gb = np.eye(d)
        # both rotations need a tail; an empty tail keeps G = 1
        for _ in range(2 if d > 1 else 0):
            R = np.eye(d)
            if d == 2:
                R[1, 1] = rng.choice([-1.0, 1.0])
            else:
                Qf, Rf = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
                R[1:, 1:] = Qf * np.sign(np.diag(Rf))
            t = rng.uniform(-0.7, 0.7)
            H = np.eye(d)
            H[0, 0] = H[1, 1] = math.cosh(t)
            H[0, 1] = H[1, 0] = math.sinh(t)
            Gb = R @ H @ Gb
        G[o:o + d, o:o + d] = Gb
    q = spec.q
    th = thetas[spec.block_of]
    return ScalingMatrix(spec, q[:, None] * G.T * q / th, th[:, None] * G)
