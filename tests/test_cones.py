"""Jordan-algebra and scaling-group layer."""

import copy
import pickle

import numpy as np
import pytest

import socpath as sp
from socpath import ConeSpec, NotInterior, ScalingMatrix, SocpProblem
from socpath.fileio import parse_problem, write_problem

from oracles import arrow_oracle, group_defect, spectral_oracle, t_oracle
from util import boundary_vector, interior_vector, mixed_spec, mixed_specs

SQRT3 = np.sqrt(3.0)


def test_spec_basic_counts():
    spec = ConeSpec(l=2, soc_dims=(3, 4))
    assert spec.k == 4
    assert spec.n == 9
    assert spec.blocks == ((0, 1), (1, 1), (2, 3), (5, 4))


def test_spec_hat_appends_unit_block():
    spec = ConeSpec(l=1, soc_dims=(3,))
    hat = spec.hat()
    assert hat.l == 1
    assert hat.soc_dims == (3, 1)
    assert hat.n == spec.n + 1
    assert hat.k == spec.k + 1


def test_spec_layout():
    spec = ConeSpec(l=2, soc_dims=(1, 4, 1, 3))
    assert spec.heads.tolist() == [0, 1, 2, 3, 7, 8]
    assert spec.block_of.tolist() == [0, 1, 2, 3, 3, 3, 3, 4, 5, 5, 5]
    assert spec.tail.tolist() == [False] * 4 + [True] * 3 + [False] * 2 + [True] * 2
    assert spec.blocks == ((0, 1), (1, 1), (2, 1), (3, 4), (7, 1), (8, 3))
    assert spec.head_of.tolist() == [0, 1, 2, 3, 3, 3, 3, 7, 8, 8, 8]
    assert spec.q.tolist() == [1.0] * 4 + [-1.0] * 3 + [1.0] * 2 + [-1.0] * 2
    for name in ("heads", "block_of", "tail", "head_of", "q"):
        assert not getattr(spec, name).flags.writeable
    assert spec.hat() is spec.hat()


def test_spec_tail_groups():
    """One group per distinct tail length, in increasing length: the
    blocks with that tail and the offsets of their tail entries."""
    spec = ConeSpec(l=2, soc_dims=(3, 1, 4, 3, 2))
    groups = [(blocks.tolist(), gather.tolist())
              for blocks, gather in spec.tail_groups]
    assert groups == [([6], [[14]]), ([2, 5], [[3, 4], [11, 12]]),
                      ([4], [[7, 8, 9]])]
    for group in spec.tail_groups:
        assert not any(part.flags.writeable for part in group)
    assert ConeSpec(l=3, soc_dims=(1,)).tail_groups == ()


def test_spec_layout_is_not_a_field():
    # the layout arrays and the cached hat spec stay out of ==, hash and repr
    a, b = ConeSpec(2, (3,)), ConeSpec(2, (3,))
    a.hat()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "cone"}[b] == "cone"
    assert repr(a) == repr(b) == "ConeSpec(l=2, soc_dims=(3,))"
    assert a != ConeSpec(2, (3, 1)) and a != ConeSpec(3, (3,))


def test_spec_sizes_unit_and_tail_index_built_once():
    """n, k, e and tail_index are plain attributes built with the layout;
    unit_element hands out a writable copy of e."""
    for spec in (ConeSpec(l=2, soc_dims=(1, 4, 1, 3)), ConeSpec(l=3),
                 ConeSpec(soc_dims=(5,))):
        for s in (spec, spec.hat()):
            assert type(s.n) is int and s.n == s.l + sum(s.soc_dims)
            assert type(s.k) is int and s.k == s.l + len(s.soc_dims)
            unit = np.zeros(s.n)
            unit[s.heads] = 1.0
            assert np.array_equal(s.e, unit)
            assert np.array_equal(s.tail_index, np.flatnonzero(s.tail))
            assert not s.e.flags.writeable
            assert not s.tail_index.flags.writeable
    spec = ConeSpec(l=2, soc_dims=(1, 4, 1, 3))
    assert spec.blocks == ((0, 1), (1, 1), (2, 1), (3, 4), (7, 1), (8, 3))
    e = sp.unit_element(spec)
    assert e.flags.writeable and not np.shares_memory(e, spec.e)
    e[:] = 7.0
    assert np.array_equal(spec.e, sp.unit_element(spec))
    assert spec.e.max() == 1.0


@pytest.mark.parametrize("l, soc_dims, error", [
    (2, (3,), None),
    (np.int64(2), (3,), None),
    (2, (np.int32(3), np.uint8(4)), None),
    (np.int8(0), [np.int64(2)], None),
    (1, (2.7,), "soc_dims entry"),
    (1, (np.float64(3.0),), "soc_dims entry"),
    (1, ("3",), "soc_dims entry"),
    (1, "3", "soc_dims entry"),
    (1, (True,), "soc_dims entry"),
    (2.5, (), "l"),
    (2.0, (3,), "l"),
    ("2", (), "l"),
    (True, (3,), "l"),
    (np.True_, (3,), "l"),
    (1, 3, "soc_dims must be a sequence"),
])
def test_spec_takes_integers_only(l, soc_dims, error):
    """l and each dimension are Python or numpy integers, stored as int,
    so that a spec writes to JSON; anything else raises ValueError."""
    if error is not None:
        with pytest.raises(ValueError, match=error):
            ConeSpec(l, soc_dims)
        return
    spec = ConeSpec(l, soc_dims)
    assert type(spec.l) is int and all(type(d) is int for d in spec.soc_dims)
    assert spec == ConeSpec(int(l), tuple(int(d) for d in soc_dims))
    problem = SocpProblem(np.ones((1, spec.n)), [1.0], np.ones(spec.n), spec)
    assert parse_problem(write_problem(problem)).cones == spec


@pytest.mark.parametrize("clone", [lambda spec: pickle.loads(pickle.dumps(spec)),
                                   copy.deepcopy])
def test_spec_copy_rebuilds_read_only_layout(clone):
    spec = ConeSpec(l=2, soc_dims=(1, 4, 3, 3))
    spec.hat()
    twin = clone(spec)
    assert twin == spec and twin is not spec
    for name in ("heads", "block_of", "tail", "tail_index", "head_of", "e",
                 "q"):
        assert np.array_equal(getattr(twin, name), getattr(spec, name))
        assert not getattr(twin, name).flags.writeable
    assert not any(part.flags.writeable
                   for group in twin.tail_groups for part in group)
    assert (twin.n, twin.k, twin.blocks) == (spec.n, spec.k, spec.blocks)
    assert twin.hat() == spec.hat() and twin.hat() is twin.hat()
    assert not twin.hat().e.flags.writeable


def test_unit_element():
    spec = ConeSpec(l=2, soc_dims=(3,))
    e = sp.unit_element(spec)
    assert np.array_equal(e, [1.0, 1.0, 1.0, 0.0, 0.0])


def test_jordan_product_block():
    spec = ConeSpec(l=0, soc_dims=(3,))
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    # (u.v, u1 v2 + v1 u2)
    assert np.allclose(sp.jordan_product(u, v, spec), [32.0, 13.0, 18.0])


def test_jordan_unit_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = mixed_spec(rng)
        v = rng.standard_normal(spec.n)
        e = sp.unit_element(spec)
        assert np.allclose(sp.jordan_product(e, v, spec), v, atol=1e-14)


def test_jordan_product_norm_bound():
    # |u o v| <= sqrt(2) |u| |v| on arbitrary vectors, 1000 pairs
    rng = np.random.default_rng(5)
    for _ in range(1000):
        spec = mixed_spec(rng)
        u = rng.standard_normal(spec.n)
        v = rng.standard_normal(spec.n)
        lhs = np.linalg.norm(sp.jordan_product(u, v, spec))
        rhs = np.sqrt(2.0) * np.linalg.norm(u) * np.linalg.norm(v)
        assert lhs <= rhs + 1e-12


def test_arrow_matrix_matches_product():
    rng = np.random.default_rng(23)
    for spec in mixed_specs(rng, 30):
        u = rng.standard_normal(spec.n)
        v = rng.standard_normal(spec.n)
        M = sp.arrow_matrix(u, spec)
        assert np.array_equal(M, arrow_oracle(u, spec))
        assert np.allclose(M @ v, sp.jordan_product(u, v, spec), atol=1e-13)


def test_spectral_bounds_against_eigensolver():
    rng = np.random.default_rng(31)
    for spec in mixed_specs(rng, 200):
        v = rng.standard_normal(spec.n)
        got = sp.spectral_bounds(v, spec)
        want = spectral_oracle(v, spec)
        assert np.abs(got - want).max() < 1e-10


def test_spectral_bounds_frozen():
    spec = ConeSpec(l=0, soc_dims=(3,))
    got = sp.spectral_bounds(np.array([2.0, 1.0, 0.0]), spec)
    assert np.allclose(got, [[1.0, 3.0]], atol=1e-14)


def test_membership_exact():
    spec = ConeSpec(l=1, soc_dims=(3,))
    assert sp.membership(np.array([0.0, 1.0, 1.0, 0.0]), spec)
    assert not sp.membership(np.array([-1e-300, 1.0, 0.0, 0.0]), spec)
    assert sp.membership(np.array([1.0, 1.0, 0.6, 0.8]), spec)
    assert not sp.membership(np.array([1.0, 1.0, 0.6, 0.8]), spec, strict=True)
    assert sp.membership(np.array([1.0, 2.0, 0.6, 0.8]), spec, strict=True)


def test_membership_random_consistency():
    rng = np.random.default_rng(37)
    for _ in range(100):
        spec = mixed_spec(rng)
        assert sp.membership(interior_vector(spec, rng), spec, strict=True)
        w = boundary_vector(spec, rng)
        assert sp.membership(w, spec)
        assert not sp.membership(w, spec, strict=True)


class TestTScaling:
    def test_frozen_2d(self):
        spec = ConeSpec(l=0, soc_dims=(2,))
        T = sp.t_scaling_matrix(np.array([2.0, 1.0]), spec)
        assert np.allclose(T, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_frozen_3d_with_zero_tail_entry(self):
        spec = ConeSpec(l=0, soc_dims=(3,))
        T = sp.t_scaling_matrix(np.array([2.0, 1.0, 0.0]), spec)
        want = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, SQRT3]])
        assert np.allclose(T, want, atol=1e-12)

    def test_against_sqrtm_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            spec = mixed_spec(rng)
            v = interior_vector(spec, rng)
            assert np.abs(sp.t_scaling_matrix(v, spec) - t_oracle(v, spec)).max() < 1e-10

    def test_maps_unit_to_v(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            spec = mixed_spec(rng)
            v = interior_vector(spec, rng)
            T = sp.t_scaling_matrix(v, spec)
            assert np.abs(T @ sp.unit_element(spec) - v).max() < 1e-12

    def test_square_is_quadratic_representation(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            spec = mixed_spec(rng)
            v = interior_vector(spec, rng)
            T = sp.t_scaling_matrix(v, spec)
            n = spec.n
            Qv = np.zeros((n, n))
            for start, dim in spec.blocks:
                blk = v[start : start + dim]
                Q = np.eye(dim)
                Q[1:, 1:] *= -1.0
                det = blk[0] ** 2 - blk[1:] @ blk[1:]
                Qv[start : start + dim, start : start + dim] = (
                    2.0 * np.outer(blk, blk) - det * Q
                )
            assert np.abs(T @ T - Qv).max() < 1e-10

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(53)
        for spec in mixed_specs(rng, 50):
            v = interior_vector(spec, rng)
            u = rng.standard_normal(spec.n)
            T = sp.t_scaling_matrix(v, spec)
            assert np.abs(sp.cones.t_apply(v, u, spec) - T @ u).max() < 1e-11
            got = sp.cones.t_inverse_apply(v, u, spec)
            assert np.abs(T @ got - u).max() < 1e-9 * (1 + np.abs(u).max())

    def test_rejects_non_interior(self):
        spec = ConeSpec(l=0, soc_dims=(2,))
        with pytest.raises(NotInterior):
            sp.t_scaling_matrix(np.array([1.0, 1.0]), spec)


def test_u_p_matrices_frozen():
    spec = ConeSpec(l=0, soc_dims=(3,))
    v = np.array([2.0, 1.0, 0.0])
    U, P = sp.u_p_matrices(v, spec)
    want_u = np.diag([0.0, 0.0, 2.0 - SQRT3])
    assert np.allclose(U, want_u, atol=1e-12)
    assert np.allclose(P, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_u_p_matrices_properties():
    rng = np.random.default_rng(59)
    for _ in range(50):
        spec = mixed_spec(rng)
        v = interior_vector(spec, rng)
        U, P = sp.u_p_matrices(v, spec)
        M = sp.arrow_matrix(v, spec)
        T = sp.t_scaling_matrix(v, spec)
        # U is the gap between the arrow matrix and its PSD square-root factor
        assert np.abs(M - T - U).max() < 1e-12
        # P is an orthogonal projector
        assert np.abs(P @ P - P).max() < 1e-12
        assert np.abs(P - P.T).max() < 1e-14
        # the gap is PSD: arrow dominates T in eigenvalue order
        assert np.linalg.eigvalsh(M - T).min() >= -1e-12


def test_w_vector_frozen():
    spec = ConeSpec(l=0, soc_dims=(2,))
    w = sp.w_vector(np.array([2.0, 1.0]), np.array([1.0, 0.0]), spec)
    assert np.allclose(w, [2.0, 1.0], atol=1e-12)


def test_r_matrix_literal_definition():
    # R = T_x X^{-1} S T_x, rebuilt here from the sqrtm oracle
    rng = np.random.default_rng(61)
    for _ in range(30):
        spec = mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        R = sp.r_matrix(x, s, spec)
        T = t_oracle(x, spec)
        X = sp.arrow_matrix(x, spec)
        S = sp.arrow_matrix(s, spec)
        want = T @ np.linalg.inv(X) @ S @ T
        assert np.abs(R - want).max() < 1e-8 * (1 + np.abs(want).max())


class TestScalingMatrix:
    def test_identity_roundtrip(self):
        rng = np.random.default_rng(67)
        spec = mixed_spec(rng)
        D = ScalingMatrix.identity(spec)
        v = rng.standard_normal(spec.n)
        assert np.array_equal(D.apply(v), v)
        assert np.array_equal(D.apply_inverse_transpose(v), v)
        assert D.group_residual() < 1e-15

    def test_apply_consistent_with_dense(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            spec = mixed_spec(rng)
            D = sp.random_automorphism(spec, rng)
            M = D.matrix()
            Minv = D.inverse_matrix()
            v = rng.standard_normal(spec.n)
            assert np.abs(D.apply(v) - M @ v).max() < 1e-10
            assert np.abs(D.apply_inverse_transpose(v) - Minv.T @ v).max() < 1e-9

    def test_group_residual_small(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            spec = mixed_spec(rng)
            D = sp.random_automorphism(spec, rng)
            assert D.group_residual() < 1e-10
            assert group_defect(D.matrix(), spec) < 1e-10


_SPEC_13 = ConeSpec(l=1, soc_dims=(3,))


@pytest.mark.parametrize("D, D_inv, thetas, error", [
    (np.eye(4), np.eye(4), [1.0], sp.DimensionMismatch),
    (np.eye(4), np.eye(4), [1.0, 1.0, 1.0], sp.DimensionMismatch),
    (np.eye(3), np.eye(4), [1.0, 1.0], sp.DimensionMismatch),
    (np.eye(4), np.eye(5), [1.0, 1.0], sp.DimensionMismatch),
    (np.eye(4), np.eye(4), [1.0, 0.0], ValueError),
    (np.eye(4), np.eye(4), [-1.0, 1.0], ValueError),
    (np.eye(4), np.eye(4), [1.0, np.nan], ValueError),
], ids=["few-thetas", "many-thetas", "D-shape", "D_inv-shape", "zero-theta",
        "negative-theta", "nan-theta"])
def test_scaling_constructor_rejects(D, D_inv, thetas, error):
    with pytest.raises(error) as info:
        ScalingMatrix(_SPEC_13, D, D_inv, thetas)
    assert (error is sp.DimensionMismatch) == isinstance(
        info.value, sp.DimensionMismatch)


@pytest.mark.parametrize("row, col, value", [(2, 2, 1.5), (3, 3, np.nan)],
                         ids=["scaled-tail", "nan-entry"])
def test_group_residual_flags_non_member(row, col, value):
    """A scaled tail entry, or a NaN, puts G = D^{-1}/theta outside the
    group; the NaN must not be read as a zero defect."""
    G = np.eye(4)
    G[row, col] = value
    thetas = np.array([2.0, 0.5])
    D_inv = thetas[_SPEC_13.block_of][:, None] * G
    residual = ScalingMatrix(_SPEC_13, np.eye(4), D_inv, thetas).group_residual()
    assert not residual <= 1e-10


def test_random_automorphism_seed0_defining_relation():
    spec = ConeSpec(l=0, soc_dims=(2,))
    D = sp.random_automorphism(spec, np.random.default_rng(0))
    assert D.group_residual() < 1e-12
    # same relation recovered from the dense matrix alone
    assert group_defect(D.matrix(), spec) < 1e-12


def test_random_automorphism_reproducible():
    rng = np.random.default_rng(77)
    spec = mixed_spec(rng)
    D1 = sp.random_automorphism(spec, np.random.default_rng(123))
    D2 = sp.random_automorphism(spec, np.random.default_rng(123))
    assert np.array_equal(D1.matrix(), D2.matrix())


def test_scaling_preserves_inner_products():
    rng = np.random.default_rng(79)
    for _ in range(200):
        spec = mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        D = sp.random_automorphism(spec, rng)
        xb, sb = sp.apply_scaling(D, x, s)
        ref = x @ s
        assert abs(xb @ sb - ref) <= 1e-10 * abs(ref)


def test_scaling_preserves_blockwise_products_and_interiority():
    rng = np.random.default_rng(83)
    for _ in range(100):
        spec = mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        D = sp.random_automorphism(spec, rng)
        xb, sb = sp.apply_scaling(D, x, s)
        assert sp.membership(xb, spec, strict=True)
        assert sp.membership(sb, spec, strict=True)
        for start, dim in spec.blocks:
            sl = slice(start, start + dim)
            ref = x[sl] @ s[sl]
            assert abs(xb[sl] @ sb[sl] - ref) <= 1e-10 * (1 + abs(ref))


def test_scaling_preserves_joint_spectrum():
    rng = np.random.default_rng(89)
    for _ in range(60):
        spec = mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        before = sp.spectral_bounds(sp.w_vector(x, s, spec), spec)
        D = sp.random_automorphism(spec, rng)
        xb, sb = sp.apply_scaling(D, x, s)
        after = sp.spectral_bounds(sp.w_vector(xb, sb, spec), spec)
        assert np.abs(after - before).max() <= 1e-9 * (1 + np.abs(before).max())


def test_pair_distance_minimality():
    # sqrt(2)|xbar o sbar - mu e| is never below the pair distance, and the
    # Nesterov-Todd point attains it
    rng = np.random.default_rng(97)
    for _ in range(100):
        spec = mixed_spec(rng)
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        m = (x @ s) / spec.k
        e = sp.unit_element(spec)
        d2_pair = np.sqrt(2.0) * np.linalg.norm(sp.w_vector(x, s, spec) - m * e)
        for _ in range(5):
            D = sp.random_automorphism(spec, rng)
            xb, sb = sp.apply_scaling(D, x, s)
            val = np.sqrt(2.0) * np.linalg.norm(sp.jordan_product(xb, sb, spec) - m * e)
            assert d2_pair <= val + 1e-10
        Dnt = sp.nt_scaling(x, s, spec)
        xb, sb = sp.apply_scaling(Dnt, x, s)
        attained = np.sqrt(2.0) * np.linalg.norm(sp.jordan_product(xb, sb, spec) - m * e)
        assert abs(attained - d2_pair) <= 1e-9 * (1.0 + d2_pair)


class TestNtScaling:
    def test_one_dimensional_frozen(self):
        spec = ConeSpec(l=1, soc_dims=())
        D = sp.nt_scaling(np.array([4.0]), np.array([1.0]), spec)
        assert np.allclose(D.matrix(), [[2.0]], atol=1e-14)

    def test_contract(self):
        rng = np.random.default_rng(101)
        for spec in mixed_specs(rng, 200):
            x = interior_vector(spec, rng)
            s = interior_vector(spec, rng)
            D = sp.nt_scaling(x, s, spec)
            M = D.matrix()
            assert np.abs(M - M.T).max() < 1e-11
            assert np.linalg.eigvalsh(M).min() > 0
            assert D.group_residual() < 1e-10
            assert np.abs(M @ (M @ s) - x).max() <= 1e-10 * (1 + np.abs(x).max())

    def test_equalizes_scaled_pair(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            spec = mixed_spec(rng)
            x = interior_vector(spec, rng)
            s = interior_vector(spec, rng)
            D = sp.nt_scaling(x, s, spec)
            xb, sb = sp.apply_scaling(D, x, s)
            assert np.abs(xb - sb).max() < 1e-9 * (1 + np.abs(xb).max())

    def test_rejects_boundary(self):
        spec = ConeSpec(l=0, soc_dims=(2,))
        with pytest.raises(NotInterior):
            sp.nt_scaling(np.array([1.0, 1.0]), np.array([2.0, 1.0]), spec)


def _tail_norms_per_tail(v, spec):
    return np.array([np.linalg.norm(v[o + 1:o + d]) for o, d in spec.blocks])


def test_tail_norms_equal_linalg_norm_bitwise():
    rng = np.random.default_rng(107)
    for spec in mixed_specs(rng, 150):
        # squares of 1e300 entries overflow to inf, in util too
        with np.errstate(over="ignore"):
            vectors = (rng.standard_normal(spec.n),
                       interior_vector(spec, rng),
                       boundary_vector(spec, rng),
                       boundary_vector(spec, rng, scale=1e300),
                       boundary_vector(spec, rng, scale=1e-300),
                       1e300 * rng.standard_normal(spec.n),
                       1e-300 * rng.standard_normal(spec.n))
            for v in vectors:
                got = sp.cones.tail_norms(v, spec)
                assert got.tobytes() == _tail_norms_per_tail(v, spec).tobytes()


def _nt_block_by_block(x, s, spec):
    """Dense D and D^{-1} of the NT scaling, each block's T_w built from
    its own outer product and placed into zero matrices."""
    heads, blk = spec.heads, spec.block_of
    t_x, t_s = _tail_norms_per_tail(x, spec), _tail_norms_per_tail(s, spec)
    bx = np.sqrt((x[heads] - t_x) * (x[heads] + t_x))
    bs = np.sqrt((s[heads] - t_s) * (s[heads] + t_s))
    xt, st = x / bx[blk], s / bs[blk]
    gam = np.sqrt((1.0 + np.add.reduceat(xt * st, heads)) / 2.0)
    w = (xt + np.where(spec.tail, -st, st)) / (2.0 * gam)[blk]
    t_w = _tail_norms_per_tail(w, spec)
    bw = np.sqrt((w[heads] - t_w) * (w[heads] + t_w))
    eta = np.sqrt(bx / bs)
    D, D_inv = np.zeros((spec.n, spec.n)), np.zeros((spec.n, spec.n))
    for (o, d), beta, e, th in zip(spec.blocks, bw, eta, 1.0 / eta):
        wb = w[o:o + d]
        T = np.outer(wb, wb) / (beta + wb[0])
        T[0] = wb
        T[:, 0] = wb
        T.flat[d + 1::d + 1] += beta
        G = T.copy()
        G[0, 1:] *= -1.0
        G[1:, 0] *= -1.0
        D[o:o + d, o:o + d] = e * T
        D_inv[o:o + d, o:o + d] = th * G
    return D, D_inv


def test_nt_dense_forms_equal_block_by_block_bitwise():
    rng = np.random.default_rng(109)
    for spec in mixed_specs(rng, 150):
        x = interior_vector(spec, rng)
        s = interior_vector(spec, rng)
        D = sp.nt_scaling(x, s, spec)
        D_ref, D_inv_ref = _nt_block_by_block(x, s, spec)
        assert D.matrix().tobytes() == D_ref.tobytes()
        assert D.inverse_matrix().tobytes() == D_inv_ref.tobytes()


def test_t_scaling_matrix_equals_block_by_block_bitwise():
    rng = np.random.default_rng(113)
    for spec in mixed_specs(rng, 100):
        v = interior_vector(spec, rng)
        t = _tail_norms_per_tail(v, spec)
        betas = np.sqrt((v[spec.heads] - t) * (v[spec.heads] + t))
        ref = np.zeros((spec.n, spec.n))
        for (o, d), beta in zip(spec.blocks, betas):
            vb = v[o:o + d]
            T = np.outer(vb, vb) / (beta + vb[0])
            T[0] = vb
            T[:, 0] = vb
            T.flat[d + 1::d + 1] += beta
            ref[o:o + d, o:o + d] = T
        assert sp.t_scaling_matrix(v, spec).tobytes() == ref.tobytes()


def test_dense_scaling_forms_cached_read_only():
    rng = np.random.default_rng(127)
    spec = ConeSpec(l=2, soc_dims=(3, 1, 4))
    x = interior_vector(spec, rng)
    s = interior_vector(spec, rng)
    for D in (sp.nt_scaling(x, s, spec), ScalingMatrix.identity(spec),
              sp.random_automorphism(spec, rng)):
        for dense in (D.matrix, D.inverse_matrix):
            M = dense()
            assert dense() is M
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 2.0
    assert np.array_equal(ScalingMatrix.identity(spec).matrix(), np.eye(spec.n))


def test_scaling_owns_its_storage():
    """A scaling copies what it is built from: a later write to the
    caller's D or thetas reaches neither its D nor the thetas whose
    positivity it checked."""
    D, thetas = np.eye(3), np.ones(2)
    scaling = ScalingMatrix(ConeSpec(1, (2,)), D, np.eye(3), thetas)
    D[0, 0] = 5.0
    thetas[0] = -1.0
    assert scaling.matrix()[0, 0] == 1.0
    assert scaling.thetas.tolist() == [1.0, 1.0]
    assert not scaling.thetas.flags.writeable


def test_scaling_leaves_caller_arrays_writable():
    """The constructor freezes views of D and D^{-1}, not the arrays the
    caller passed in."""
    D, D_inv = np.eye(3), np.eye(3)
    scaling = ScalingMatrix(ConeSpec(1, (2,)), D, D_inv, np.ones(2))
    D[0, 0] = 2.0
    D_inv[1, 1] = 3.0
    assert not scaling.matrix().flags.writeable
    assert not scaling.inverse_matrix().flags.writeable
    with pytest.raises(ValueError):
        scaling.matrix()[0, 0] = 4.0


def _t_masked_outer(v):
    """Dense T_v of an evaluated interior v as one masked outer(v, v) with
    the head rows, head columns and tail diagonal written in: the form
    that `_t_values` computes only at the block-diagonal entries."""
    spec, blk = v.spec, v.spec.block_of
    beta = v.beta()
    T = np.outer(v.v, v.v)
    T /= (beta + v.head)[blk][:, None]
    T[blk[:, None] != blk] = 0.0
    idx = np.arange(spec.n)
    T[spec.head_of, idx] = v.v
    T[idx, spec.head_of] = v.v
    tail = spec.tail_index
    T[tail, tail] += beta[blk[tail]]
    return T


def test_block_pattern_holds_the_block_diagonal():
    """The pattern lists each block's d x d entries once, row by row, and
    is kept read-only on the spec; a pickled spec rebuilds it."""
    spec = ConeSpec(4, (3,) * 12)
    pattern = spec.block_pattern
    assert spec.block_pattern is pattern
    assert pattern.pos.size == 112 and spec.n ** 2 == 1600
    dense = np.zeros((spec.n, spec.n), dtype=bool)
    for o, d in spec.blocks:
        dense[o:o + d, o:o + d] = True
    assert np.array_equal(pattern.pos, np.flatnonzero(dense))
    assert not any(a.flags.writeable for a in vars(pattern).values())
    twin = pickle.loads(pickle.dumps(spec))
    assert np.array_equal(twin.block_pattern.pos, pattern.pos)


def test_t_values_equal_masked_outer_bitwise():
    rng = np.random.default_rng(131)
    for spec in mixed_specs(rng, 150):
        sv = sp.cones.Spectrum(interior_vector(spec, rng), spec)
        T = np.zeros((spec.n, spec.n))
        T.flat[spec.block_pattern.pos] = sp.cones._t_values(sv)
        assert T.tobytes() == _t_masked_outer(sv).tobytes()
        assert sp.cones._t_dense(sv).tobytes() == T.tobytes()

