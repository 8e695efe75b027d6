"""Generalized maximum eigenvalue of an SPD pencil.

For SPD A and symmetric B, the largest mu with det(B - mu A) = 0 equals
sup_{v != 0} B(v,v) / A(v,v); this realizes the supremum-over-directions step
used by the cone-bounding inequality.  The smallest eigenvalue of a symmetric
form is what the cone-inequality certificate checks.  Every kernel uses
closed forms for d in {1, 2}, which is all the torus domains have, and rejects
any other d.  One square-root-free Cholesky (LDL^T) reduction serves all three
pencil kernels; its discriminant is a sum of squares, so a nearly proportional
pencil stays exact to rounding.
"""
from __future__ import annotations

import numpy as np

from .domain import validate_spd
from .errors import DomainError, ShapeError


def spd_generalized_max_eigenvalue(A: np.ndarray, B: np.ndarray) -> float:
    """Largest generalized eigenvalue of the pencil (B, A), A SPD and B
    symmetric, d in {1, 2}: ``gen_max_eig_batch`` on the one validated pencil."""
    A = validate_spd(A, context="pencil matrix A")
    B = np.asarray(B, dtype=float)
    if B.shape != A.shape:
        raise ShapeError(f"pencil shapes differ: {A.shape} vs {B.shape}")
    if np.max(np.abs(B - B.T)) > 1e-10 * max(np.max(np.abs(B)), 1e-300):
        raise DomainError("pencil matrix B is not symmetric")
    return float(gen_max_eig_batch(A, B))


def _ldl_pencil(A: np.ndarray, B: np.ndarray):
    """(mu, a, c, r, t00, e, t11) of (..., 2, 2) pencils, from lower triangles:
    A = L diag(a, c) L^T with L = [[1, 0], [r, 1]], T = L^-1 B L^-T = [[t00, e],
    [e, t11]], and mu the largest root of det(T - mu diag(a, c)) = 0."""
    d = A.shape[-1]
    if d != 2:
        raise ShapeError(f"batched pencils need d in {{1, 2}}, got d = {d}")
    a = A[..., 0, 0]
    r = A[..., 1, 0] / a
    c = A[..., 1, 1] - r * A[..., 1, 0]
    t00 = B[..., 0, 0]
    e = B[..., 1, 0] - r * t00
    t11 = B[..., 1, 1] - r * (B[..., 1, 0] + e)
    s0, s1 = t00 / a, t11 / c
    h = 0.5 * (s0 - s1)
    mu = 0.5 * (s0 + s1) + np.sqrt(h * h + e * e / (a * c))
    return mu, a, c, r, t00, e, t11


def gen_max_eig_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched largest generalized eigenvalue for (..., d, d) stacks, d in {1, 2}.

    No SPD validation here; callers on hot paths validate at construction.
    Any other d raises ShapeError (the torus domains only have d in {1, 2}).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[-1] == 1:
        return B[..., 0, 0] / A[..., 0, 0]
    return _ldl_pencil(A, B)[0]


def sym_min_eig_batch(S: np.ndarray) -> np.ndarray:
    """Batched smallest eigenvalue of symmetric (..., d, d) stacks, d in {1, 2},
    in closed form; like ``np.linalg.eigvalsh`` it reads the lower triangle.
    Any other d raises ShapeError."""
    S = np.asarray(S, dtype=float)
    d = S.shape[-1]
    if d == 1:
        return S[..., 0, 0].copy()
    if d == 2:
        a, b, c = S[..., 0, 0], S[..., 1, 0], S[..., 1, 1]
        return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    raise ShapeError(f"batched symmetric eigenvalues need d in {{1, 2}}, got d = {d}")


def gen_max_eig_direction(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched maximizing direction v (unit Euclidean norm) of B(v,v)/A(v,v),
    for d in {1, 2}; any other d raises ShapeError."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[-1] == 1:
        return np.ones(A.shape[:-2] + (1,))
    mu, a, c, r, t00, e, t11 = _ldl_pencil(A, B)
    # T - mu diag(a, c) = [[-p, e], [e, -q]] is singular: take the null vector
    # normal to its row with the larger entry, then map it back by L^-T
    p, q = mu * a - t00, mu * c - t11
    row0 = p >= q
    w0, w1 = np.where(row0, e, q), np.where(row0, p, e)
    v0 = w0 - r * w1
    n = np.hypot(v0, w1)
    # degenerate pencil (B proportional to A): any direction maximizes
    ok = n > 0
    n = np.where(ok, n, 1.0)
    return np.stack([np.where(ok, v0 / n, 1.0), np.where(ok, w1 / n, 0.0)], axis=-1)
