"""Jordan-algebra primitives for products of linear and second-order cones.

The cone is K = R+^l x Q^{n_1} x ... x Q^{n_m}, where
Q^d = {v in R^d : v_1 >= ||v_{2:}||} is the second-order (Lorentz) cone.

Each block carries the Jordan product u o v = (u'v, u_1 v_{2:} + v_1 u_{2:}),
unit e = (1, 0, ..., 0), and spectral values v_1 -/+ ||v_{2:}||.  For an
interior v the scaling matrix T_v is the symmetric positive definite square
root of the quadratic representation of v; it is built in closed form here,
no matrix square roots are taken.

Every block, linear entries included, is a head v_1 and a possibly empty
tail v_{2:}, and the primitives are whole-vector expressions over the
layout that ConeSpec builds once: a 1-dimensional block (a linear entry or
a (1,) second-order block) is a block with an empty tail, and the general
formulas give its values.  The spec also keeps the sizes n and k, the
unit element e and the tail index, so that no per-step caller re-derives
them; unit_element hands out a writable copy of e.  Nothing loops over
the blocks: the tail norms take one stacked BLAS dot per tail length,
bitwise np.linalg.norm (see tail_norms).  A Spectrum holds one vector's
heads, tail norms and smaller spectral values; the larger spectral values,
determinant, T_v and NT scaling of that vector read them, so a caller
that keeps the evaluation takes each tail norm once.  T_v is computed only at the block-diagonal
entries, whose positions the spec keeps (`block_pattern`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch, InvalidConeSpec, NotInterior


@dataclass(frozen=True)
class ConeSpec:
    """Ordered cone structure: l linear entries first, then SOC blocks.

    Parameters
    ----------
    l : number of linear entries (each is its own block).
    soc_dims : dimensions of the second-order blocks, in variable order.

    `l` and each dimension must be integers, numpy integers included, and
    are stored as int; a float, a string, a bool or a `soc_dims` that is
    not iterable raises InvalidConeSpec.

    The block layout is built once, as plain attributes that ==, hash and
    repr do not see, its arrays read-only: `n` (ambient dimension) and `k`
    (number of blocks, the cone rank), `blocks` ((offset, dim) per block),
    `heads` (offset of each block's first entry), `block_of` (block index of
    each entry), `tail` (True off the heads), `tail_index` (the entries off
    the heads), `head_of` (offset of each entry's block head,
    heads[block_of]), `e` (the unit element: 1.0 on the heads, 0.0 on the
    tails), `q` (the signs of the reflection Q = diag(1, -I): 1.0 on the
    heads, -1.0 on the tails) and `tail_groups` (per tail length L, its
    blocks and a (count, L) index of their tails), and on first use
    `block_pattern`.  Every layer reads the layout from here.
    """

    l: int = 0
    soc_dims: Tuple[int, ...] = ()

    def __post_init__(self):
        try:
            dims = tuple(self.soc_dims)
        except TypeError:
            raise InvalidConeSpec("soc_dims must be a sequence of integers, "
                                  f"not {self.soc_dims!r}") from None
        object.__setattr__(self, "l", _integer(self.l, "l"))
        object.__setattr__(self, "soc_dims",
                           tuple(_integer(d, "soc_dims entry") for d in dims))
        if self.l < 0:
            raise InvalidConeSpec("l must be nonnegative")
        if any(d < 1 for d in self.soc_dims):
            raise InvalidConeSpec(
                "every second-order block dimension must be >= 1")
        if self.l + len(self.soc_dims) < 1:
            raise InvalidConeSpec("the cone must contain at least one block")
        dims = (1,) * self.l + self.soc_dims
        heads = np.cumsum((0,) + dims[:-1])
        tail = np.ones(sum(dims), dtype=bool)
        tail[heads] = False
        block_of = np.repeat(np.arange(len(dims)), dims)
        for name, value in (("heads", heads), ("tail", tail),
                            ("tail_index", np.flatnonzero(tail)),
                            ("block_of", block_of),
                            ("head_of", heads[block_of]),
                            ("e", np.where(tail, 0.0, 1.0)),
                            ("q", np.where(tail, -1.0, 1.0))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", len(tail))
        object.__setattr__(self, "k", len(dims))
        object.__setattr__(self, "blocks", tuple(zip(heads.tolist(), dims)))
        lengths = np.array(dims) - 1
        gathers = [heads[lengths == L][:, None] + np.arange(1, L + 1)
                   for L in np.unique(lengths[lengths > 0]).tolist()]
        groups = tuple((block_of[g[:, 0]], g) for g in gathers)
        for value in (a for group in groups for a in group):
            value.setflags(write=False)
        object.__setattr__(self, "tail_groups", groups)

    def __reduce__(self):
        # a pickled or copied spec is rebuilt, read-only layout included
        return ConeSpec, (self.l, self.soc_dims)

    @cached_property
    def block_pattern(self) -> SimpleNamespace:
        """The entries (i, j) of an n x n matrix with i and j in one block:
        flat positions `pos`, `i`, `j`, the `block` of each, those with a
        head row or column (`at_head`) and their `other` index, the tail
        diagonal `tail_diag` and the `sign` q_i q_j."""
        blk, head = self.block_of, ~self.tail
        i, j = np.nonzero(blk[:, None] == blk)
        at_head = np.flatnonzero(head[i] | head[j])
        pattern = SimpleNamespace(
            pos=i * self.n + j, i=i, j=j, block=blk[i], at_head=at_head,
            other=np.where(head[i], j, i)[at_head], sign=self.q[i] * self.q[j],
            tail_diag=np.flatnonzero((i == j) & self.tail[i]))
        for value in vars(pattern).values():
            value.setflags(write=False)
        return pattern

    def hat(self) -> "ConeSpec":
        """Spec with one extra trailing 1-dimensional block (for tau/kappa),
        built on first use and kept."""
        if "_hat" not in self.__dict__:
            object.__setattr__(self, "_hat", ConeSpec(self.l, self.soc_dims + (1,)))
        return self._hat

    def stacked(self, rows: int) -> "ConeSpec":
        """The product of `rows` copies of this cone, laid out one copy after
        another, so that a (rows, n) array raveled is one of its vectors.
        Each linear entry becomes a (1,) second-order block, which the
        layout treats alike, so every primitive computes each copy's values
        with the operations it applies to that copy alone.  Built on first
        use per row count and kept."""
        cache = self.__dict__.setdefault("_stacked", {})
        if rows not in cache:
            cache[rows] = ConeSpec(0, ((1,) * self.l + self.soc_dims) * rows)
        return cache[rows]


def _integer(value, name: str) -> int:
    """value as an int; only Python and numpy integers that are not bools."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConeSpec(f"{name} must be an integer, not {value!r}")
    return int(value)


def check_vector(v, spec: ConeSpec) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise DimensionMismatch(
            f"expected vector of length {spec.n}, got shape {v.shape}")
    return v


def tail_norms(v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """||v_{2:}|| per block, 0 for an empty tail.

    sqrt(t't) per tail t, by one stacked matmul of (1, L) rows with (L, 1)
    columns per tail length L.  numpy computes each such vector product
    with the BLAS dot that np.linalg.norm uses, so a boundary point whose
    head was built as np.linalg.norm(tail) stays in the cone.  A segmented
    sum of squares or np.einsum sums in another order and rounds apart.
    """
    t = np.zeros(spec.k)
    for blocks, gather in spec.tail_groups:
        seg = v[gather]
        t[blocks] = np.sqrt((seg[:, None, :] @ seg[:, :, None])[:, 0, 0])
    return t


class Spectrum:
    """One evaluation of a vector v over the block layout of spec.

    Per block: `head` v_1, `tail` ||v_{2:}|| and the smaller spectral
    value `lo` = v_1 - ||v_{2:}||.  The larger one, head + tail, is taken
    where it is read.
    """

    __slots__ = ("spec", "v", "head", "tail", "lo")

    def __init__(self, v, spec: ConeSpec):
        self.spec = spec
        self.v = check_vector(v, spec)
        self.head = self.v[spec.heads]
        self.tail = tail_norms(self.v, spec)
        self.lo = self.head - self.tail

    def interior(self) -> bool:
        # the ufunc itself: ndarray.min calls through a Python wrapper
        return bool(np.minimum.reduce(self.lo) > 0.0)

    def require_interior(self, what: str) -> "Spectrum":
        if not self.interior():
            raise NotInterior(f"{what} must lie strictly inside the cone")
        return self

    def beta(self) -> np.ndarray:
        """sqrt(det v) per block; the factored det (v_1 - t)(v_1 + t)
        avoids cancellation near the boundary."""
        return np.sqrt(self.lo * (self.head + self.tail))


def unit_element(spec: ConeSpec) -> np.ndarray:
    """Identity of the Jordan algebra: (1, 0, ..., 0) per block, a writable
    copy of spec.e."""
    return spec.e.copy()


def jordan(u: np.ndarray, v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """u o v for float vectors of length spec.n, unchecked."""
    out = u[spec.head_of] * v + v[spec.head_of] * u
    out[spec.heads] = np.add.reduceat(u * v, spec.heads)
    return out


def jordan_product(u, v, spec: ConeSpec) -> np.ndarray:
    """u o v, with both vectors checked against spec."""
    return jordan(check_vector(u, spec), check_vector(v, spec), spec)


def spectral_bounds(v, spec: ConeSpec) -> np.ndarray:
    """Per-block spectral values, shape (k, 2): columns (lambda_min, lambda_max)."""
    sv = Spectrum(v, spec)
    return np.column_stack((sv.lo, sv.head + sv.tail))


def membership(v, spec: ConeSpec, strict: bool = False) -> bool:
    """Exact cone membership test (no numerical slack)."""
    sv = Spectrum(v, spec)
    return sv.interior() if strict else bool(np.all(sv.lo >= 0.0))


def _t_values(v: Spectrum) -> np.ndarray:
    """T_v of an interior v at `spec.block_pattern`, per block [[v_1, t'],
    [t, beta I + t t'/(beta + v_1)]] for the tail t: v_i v_j/(beta + v_1)
    with the head rows and columns written in and beta added on the tail
    diagonal."""
    pat = v.spec.block_pattern
    beta = v.beta()
    vals = v.v[pat.i] * v.v[pat.j]
    vals /= (beta + v.head)[pat.block]
    vals[pat.at_head] = v.v[pat.other]
    vals[pat.tail_diag] += beta[pat.block[pat.tail_diag]]
    return vals


def t_apply_of(v: Spectrum, u: np.ndarray) -> np.ndarray:
    """T_v u from the evaluation of an interior v, without the dense matrix."""
    spec = v.spec
    heads, blk = spec.heads, spec.block_of
    beta = v.beta()
    vu = v.v * u
    tail_dot = np.add.reduceat(np.where(spec.tail, vu, 0.0), heads)
    out = (u[spec.head_of] * v.v + beta[blk] * u
           + v.v * tail_dot[blk] / (beta + v.head)[blk])
    out[heads] = np.add.reduceat(vu, heads)
    return out


def t_apply(v, u, spec: ConeSpec) -> np.ndarray:
    """T_v u without forming the dense matrix.  Requires interior v."""
    v = check_vector(v, spec)
    u = check_vector(u, spec)
    return t_apply_of(
        Spectrum(v, spec).require_interior("scaling point of t_apply"), u)


def t_inverse_apply(v, u, spec: ConeSpec) -> np.ndarray:
    """T_v^{-1} u via the reflection identity T_v^{-1} = Q T_v Q / det(v)."""
    v = check_vector(v, spec)
    u = check_vector(u, spec)
    sv = Spectrum(v, spec).require_interior("scaling point of t_inverse_apply")
    w = t_apply_of(sv, spec.q * u)
    return w / (spec.q * (sv.lo * (sv.head + sv.tail))[spec.block_of])


class ScalingMatrix:
    """Block-diagonal member D of the scaling group, D = (Theta G)^{-1}.

    Per block i, G_i preserves the reflection form (G_i' Q G_i = Q with
    Q = diag(1, -I)) and theta_i > 0 scales it; linear blocks carry
    G_i = 1.  A scaling holds read-only copies of its dense D and
    D^{-1} = Theta G (`nt_scaling` hands it fresh arrays to keep).  The
    identity scaling has no object: a Newton step takes D = None for it
    and skips every product with D.
    """

    def __init__(self, spec: ConeSpec, D: np.ndarray, D_inv: np.ndarray):
        D, D_inv = np.array(D, dtype=float), np.array(D_inv, dtype=float)
        for M in (D, D_inv):
            if M.shape != (spec.n, spec.n):
                raise DimensionMismatch(
                    f"expected a {spec.n}x{spec.n} matrix, got {M.shape}")
        self._adopt(spec, D, D_inv)

    def _adopt(self, spec, D, D_inv) -> "ScalingMatrix":
        """Keep the checked arrays, read-only and without a copy."""
        for M in (D, D_inv):
            M.setflags(write=False)
        self.spec, self._matrix, self._inverse = spec, D, D_inv
        return self

    def matrix(self) -> np.ndarray:
        """Dense D, read-only."""
        return self._matrix

    def inverse_matrix(self) -> np.ndarray:
        """Dense D^{-1} = Theta G, read-only."""
        return self._inverse


def nt_scaling(x, s, spec: ConeSpec) -> ScalingMatrix:
    """Nesterov-Todd scaling point in closed form: D^2 s = x exactly.

    Per block the normalized geometric mean
    w = (x/beta_x + Q s/beta_s) / (2 gamma), gamma^2 = (1 + x's/(beta_x beta_s))/2,
    has unit determinant, and D = sqrt(beta_x/beta_s) T_w.  G = Q T_w Q is
    the inverse of T_w for det-one w, so no matrix inversion is needed.
    """
    x = check_vector(x, spec)
    s = check_vector(s, spec)
    return nt_scaling_of(Spectrum(x, spec).require_interior("x in nt_scaling"),
                         Spectrum(s, spec).require_interior("s in nt_scaling"))


def nt_scaling_of(x: Spectrum, s: Spectrum) -> ScalingMatrix:
    """nt_scaling from the evaluations of an interior pair x, s."""
    spec = x.spec
    heads, blk = spec.heads, spec.block_of
    bx, bs = x.beta(), s.beta()
    xt, st = x.v / bx[blk], s.v / bs[blk]
    gam = np.sqrt((1.0 + np.add.reduceat(xt * st, heads)) / 2.0)
    w = (xt + spec.q * st) / (2.0 * gam)[blk]
    eta = np.sqrt(bx / bs)
    theta = 1.0 / eta
    pat = spec.block_pattern
    T = _t_values(Spectrum(w, spec))
    D, D_inv = np.zeros((spec.n, spec.n)), np.zeros((spec.n, spec.n))
    D.flat[pat.pos] = eta[pat.block] * T
    # D^{-1} = theta Q T_w Q: head rows and columns off the diagonal negated
    D_inv.flat[pat.pos] = theta[pat.block] * (pat.sign * T)
    return ScalingMatrix.__new__(ScalingMatrix)._adopt(spec, D, D_inv)
