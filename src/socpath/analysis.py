"""The paper's analysis objects, which no solve runs.

The O(k^{1/2} log eps^{-1}) bound is proved with quantities that the
solver never forms: the arrow matrix mat(v) of the Jordan product, the
scaled product point w = T_x s, R = T_x mat(x)^{-1} mat(s) T_x and
arbitrary members of the scaling group.  They are built here, most of
them as dense n x n matrices, for the acceptance suite and the unit tests
that check the bound's pieces.  Keeping them out of `cones`, `kkt` and
`solver` leaves those modules with only what a solve runs; no package
module but `__init__` imports this one.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .cones import (ConeSpec, ScalingMatrix, Spectrum, _t_dense, check_vector,
                    t_apply)


def arrow_matrix(v, spec: ConeSpec) -> np.ndarray:
    """Block-diagonal matrix representation of the Jordan product by v."""
    v = check_vector(v, spec)
    idx = np.arange(spec.n)
    M = np.zeros((spec.n, spec.n))
    M[spec.head_of, idx] = v
    M[idx, spec.head_of] = v
    M[idx, idx] = v[spec.head_of]
    return M


def w_vector(x, s, spec: ConeSpec) -> np.ndarray:
    """Scaled product point T_x s.  Requires strictly interior x."""
    return t_apply(x, s, spec)


def r_matrix(x, s, spec: ConeSpec) -> np.ndarray:
    """Dense T_x mat(x)^{-1} mat(s) T_x.  Requires interior x and s."""
    xs = Spectrum(x, spec).require_interior("x in r_matrix")
    Spectrum(s, spec).require_interior("s in r_matrix")
    T = _t_dense(xs)
    X = arrow_matrix(x, spec)
    S = arrow_matrix(s, spec)
    return T @ np.linalg.solve(X, S @ T)


def apply_scaling(D: ScalingMatrix, x, s) -> Tuple[np.ndarray, np.ndarray]:
    """Primal-dual change of variables (D^{-T} x, D s)."""
    return D.apply_inverse_transpose(x), D.apply(s)


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
    return ScalingMatrix(spec, q[:, None] * G.T * q / th, th[:, None] * G,
                         thetas)
