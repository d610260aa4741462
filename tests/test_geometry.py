"""Central-path geometry: mu, the two distances, neighborhoods, status."""

import numpy as np
import pytest

import socpath as sp
from socpath import (
    ConeSpec,
    DimensionMismatch,
    HsdPoint,
    InvalidPoint,
    NeighborhoodParams,
    SocpProblem,
)

from oracles import d2_oracle, mu_oracle
from util import (count_calls, interior_hsd_point, mixed_spec, random_problem,
                  toy_lp)


def _rand_z(rng, spec, p=2):
    prob = random_problem(spec, p, rng)
    return prob, interior_hsd_point(prob, rng)


def test_mu_matches_oracle():
    rng = np.random.default_rng(211)
    for _ in range(100):
        spec = mixed_spec(rng)
        _, z = _rand_z(rng, spec)
        want = mu_oracle(z.x, z.y, z.s, z.kappa, z.tau, spec.k)
        assert abs(sp.mu(z, spec) - want) <= 1e-14 * want


def test_d2_matches_eigenvalue_oracle():
    rng = np.random.default_rng(223)
    for _ in range(100):
        spec = mixed_spec(rng)
        _, z = _rand_z(rng, spec)
        want = d2_oracle(z.x, z.s, z.kappa, z.tau, spec)
        assert abs(sp.d2(z, spec) - want) <= 1e-9 * (1 + want)


def test_dinf_below_d2():
    rng = np.random.default_rng(227)
    count = 0
    while count < 1000:
        spec = mixed_spec(rng)
        _, z = _rand_z(rng, spec)
        assert sp.dinf(z, spec) <= sp.d2(z, spec) + 1e-12
        count += 1


def test_central_points_have_zero_distance():
    rng = np.random.default_rng(229)
    for _ in range(100):
        spec = mixed_spec(rng)
        prob = random_problem(spec, 2, rng)
        z = interior_hsd_point(prob, rng, centered=True)
        assert sp.d2(z, spec) < 1e-10
        assert sp.dinf(z, spec) < 1e-10


def test_distances_invariant_under_scaling():
    rng = np.random.default_rng(233)
    for _ in range(100):
        spec = mixed_spec(rng)
        _, z = _rand_z(rng, spec)
        before2 = sp.d2(z, spec)
        beforei = sp.dinf(z, spec)
        D = sp.random_automorphism(spec, rng)
        xb, sb = sp.apply_scaling(D, z.x, z.s)
        zb = HsdPoint(x=xb, y=z.y, s=sb, kappa=z.kappa, tau=z.tau)
        assert abs(sp.d2(zb, spec) - before2) <= 1e-9 * (1 + before2)
        assert abs(sp.dinf(zb, spec) - beforei) <= 1e-9 * (1 + beforei)


def test_in_neighborhood_two_norm():
    rng = np.random.default_rng(239)
    spec = ConeSpec(l=1, soc_dims=(3,))
    prob = random_problem(spec, 2, rng)
    z = interior_hsd_point(prob, rng, centered=True)
    tight = NeighborhoodParams(gamma=1e-12, flavor="2")
    assert sp.in_neighborhood(z, spec, tight)
    # nudge off center: still interior, small positive distance
    z2 = HsdPoint(
        x=z.x + np.array([0.0, 0.005, 0.001, 0.0]),
        y=z.y, s=z.s, kappa=z.kappa, tau=z.tau,
    )
    ratio = sp.d2(z2, spec) / sp.mu(z2, spec)
    assert 0.0 < ratio < 0.5
    assert not sp.in_neighborhood(z2, spec, tight)
    assert not sp.in_neighborhood(z2, spec, NeighborhoodParams(ratio * 0.99, "2"))
    assert sp.in_neighborhood(z2, spec, NeighborhoodParams(ratio * 1.01, "2"))


def test_in_neighborhood_inf_flavor():
    rng = np.random.default_rng(241)
    spec = mixed_spec(rng)
    prob = random_problem(spec, 2, rng)
    z = interior_hsd_point(prob, rng)
    gamma = sp.dinf(z, spec) / sp.mu(z, spec)
    assert sp.in_neighborhood(z, spec, NeighborhoodParams(gamma * 1.01, "inf"))
    assert not sp.in_neighborhood(z, spec, NeighborhoodParams(gamma * 0.99, "inf"))


def test_non_interior_point_outside_every_neighborhood():
    spec = ConeSpec(l=2, soc_dims=())
    z = HsdPoint(
        x=np.array([1.0, 0.0]), y=np.zeros(1), s=np.ones(2), kappa=1.0, tau=1.0
    )
    wide = NeighborhoodParams(0.999999, "2")
    assert not sp.in_neighborhood(z, spec, wide)
    assert not sp.in_neighborhood(z, spec, NeighborhoodParams(0.999999, "inf"))
    # kappa = 0 is non-interior too
    z2 = HsdPoint(x=np.ones(2), y=np.zeros(1), s=np.ones(2), kappa=0.0, tau=1.0)
    assert not sp.in_neighborhood(z2, spec, wide)



@pytest.mark.parametrize("flavor, tail_norm_calls", [("2", 2), ("inf", 3)])
def test_in_neighborhood_evaluates_once(monkeypatch, flavor, tail_norm_calls):
    """x and s are evaluated once each; only the inf flavor takes the
    spectral bounds of T_x s."""
    rng = np.random.default_rng(251)
    spec = ConeSpec(l=1, soc_dims=(3, 4))
    z = interior_hsd_point(random_problem(spec, 2, rng), rng)
    calls = count_calls(monkeypatch, sp.cones, "tail_norms")
    sp.in_neighborhood(z, spec, NeighborhoodParams(0.5, flavor))
    assert len(calls) == tail_norm_calls


def test_in_neighborhood_rejects_wrong_length_first():
    """A wrong-length x or s raises, also when tau or kappa is not positive."""
    spec = ConeSpec(l=2, soc_dims=())
    for x, s in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3))):
        z = HsdPoint(x=x, y=np.zeros(1), s=s, kappa=0.0, tau=1.0)
        with pytest.raises(DimensionMismatch):
            sp.in_neighborhood(z, spec, NeighborhoodParams(0.5, "2"))

class TestClassify:
    def test_optimal(self):
        prob = toy_lp()
        z = HsdPoint(
            x=np.array([0.0, 1.0]), y=np.zeros(1), s=np.array([1.0, 0.0]),
            kappa=1e-9, tau=1.0,
        )
        c = sp.classify_status(z, prob, 1e-6)
        assert c.status == "optimal"
        assert np.allclose(c.x, [0.0, 1.0])

    def test_optimal_rescales_by_tau(self):
        prob = toy_lp()
        z = HsdPoint(
            x=np.array([0.0, 0.5]), y=np.array([0.25]), s=np.array([0.5, 0.0]),
            kappa=1e-9, tau=0.5,
        )
        c = sp.classify_status(z, prob, 1e-6)
        assert c.status == "optimal"
        assert np.allclose(c.x, [0.0, 1.0])
        assert np.allclose(c.y, [0.5])
        assert np.allclose(c.s, [1.0, 0.0])

    def test_primal_infeasible(self):
        prob = toy_lp()
        z = HsdPoint(
            x=np.zeros(2), y=np.array([0.5]), s=np.zeros(2), kappa=1.0, tau=1e-9
        )
        assert sp.classify_status(z, prob, 1e-6).status == "primal_infeasible"

    def test_dual_infeasible(self):
        prob = toy_lp()
        # b^T y = -1 blocks the primal certificate; c^T x = -1 < 0
        z = HsdPoint(
            x=np.array([-1.0, 0.0]), y=np.array([-1.0]), s=np.zeros(2),
            kappa=1.0, tau=1e-9,
        )
        assert sp.classify_status(z, prob, 1e-6).status == "dual_infeasible"

    def test_ill_posed(self):
        prob = toy_lp()
        z = HsdPoint(x=np.zeros(2), y=np.zeros(1), s=np.zeros(2), kappa=1.0, tau=1e-9)
        assert sp.classify_status(z, prob, 1e-6).status == "ill_posed"

    def test_invalid_point(self):
        prob = toy_lp()
        z = HsdPoint(x=np.zeros(2), y=np.zeros(1), s=np.zeros(2), kappa=0.0, tau=0.0)
        with pytest.raises(InvalidPoint):
            sp.classify_status(z, prob, 1e-6)


def _flat_point():
    x, y, s = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]), np.ones(3)
    return HsdPoint(x, y, s, kappa=0.5, tau=0.25), (x, y, s)


def test_point_is_one_vector_in_the_hat_layout():
    z, _ = _flat_point()
    assert z.vec.tolist() == [1.0, 2.0, 3.0, 0.25, 4.0, 5.0, 1.0, 1.0, 1.0, 0.5]
    for part in (z.x, z.y, z.s):
        assert np.shares_memory(part, z.vec)
    assert (z.tau, z.kappa) == (0.25, 0.5)
    assert type(z.tau) is float and type(z.kappa) is float


def test_point_writes_reach_its_vector():
    z, _ = _flat_point()
    z.tau, z.kappa = -1.0, 7.0
    z.x[0], z.y[1], z.s[2] = -1.0, -2.0, -3.0
    assert z.vec.tolist() == [-1.0, 2.0, 3.0, -1.0, 4.0, -2.0, 1.0, 1.0, -3.0, 7.0]
    assert (z.tau, z.kappa) == (-1.0, 7.0)


def test_point_never_aliases_its_arguments():
    z, (x, y, s) = _flat_point()
    for given, held in ((x, z.x), (y, z.y), (s, z.s)):
        assert not np.shares_memory(given, z.vec)
        given[0] = 99.0
        assert held[0] != 99.0
    z.x[1] = -5.0
    assert x[1] == 2.0


def test_point_copy_and_pickle_round_trip():
    import pickle
    z, _ = _flat_point()
    for twin in (z.copy(), pickle.loads(pickle.dumps(z))):
        assert twin.vec.tobytes() == z.vec.tobytes()
        assert not np.shares_memory(twin.vec, z.vec)
        for part in (twin.x, twin.y, twin.s):
            assert np.shares_memory(part, twin.vec)
        twin.tau = 3.0
        assert (twin.vec[3], z.tau) == (3.0, 0.25)


def test_point_over_keeps_the_vector():
    z, _ = _flat_point()
    vec = 2.0 * z.vec
    w = z.over(vec)
    assert w.vec is vec
    assert (w.x.tolist(), w.y.tolist(), w.tau, w.kappa) == \
        ([2.0, 4.0, 6.0], [8.0, 10.0], 0.5, 1.0)
