"""Generalized maximum eigenvalue of an SPD pencil.

For SPD A and symmetric B, the largest mu with det(B - mu A) = 0 equals
sup_{v != 0} B(v,v) / A(v,v); this realizes the supremum-over-directions step
used by the cone-bounding inequality.  The smallest eigenvalue of a symmetric
form is what the cone-inequality certificate checks.  Every kernel uses
closed forms for d in {1, 2}, which is all the torus domains have, and rejects
any other d.  The validated scalar entry point first reduces its pencil by the
Cholesky factor of A, so a nearly proportional pencil stays exact to rounding.
"""
from __future__ import annotations

import numpy as np

from .domain import validate_spd
from .errors import DomainError, ShapeError


def spd_generalized_max_eigenvalue(A: np.ndarray, B: np.ndarray) -> float:
    """Largest generalized eigenvalue of the pencil (B, A), A SPD and B
    symmetric, d in {1, 2}: the largest eigenvalue of L^-1 B L^-T, with L the
    Cholesky factor of A, in closed form."""
    A = validate_spd(A, context="pencil matrix A")
    B = np.asarray(B, dtype=float)
    if B.shape != A.shape:
        raise ShapeError(f"pencil shapes differ: {A.shape} vs {B.shape}")
    if np.max(np.abs(B - B.T)) > 1e-10 * max(np.max(np.abs(B)), 1e-300):
        raise DomainError("pencil matrix B is not symmetric")
    L = np.linalg.cholesky(A)
    S = np.linalg.solve(L, np.linalg.solve(L, B).T)
    return float(-sym_min_eig_batch(-S))


def gen_max_eig_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched largest generalized eigenvalue for (..., d, d) stacks, d in {1, 2}.

    No SPD validation here; callers on hot paths validate at construction.
    Any other d raises ShapeError (the torus domains only have d in {1, 2}).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = A.shape[-1]
    if d == 1:
        return B[..., 0, 0] / A[..., 0, 0]
    if d == 2:
        # eigenvalues of C = A^{-1} B via trace/determinant
        detA = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        detB = B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
        # tr(A^{-1} B) = (A11 B00 + A00 B11 - A01 B10 - A10 B01) / detA
        tr = (
            A[..., 1, 1] * B[..., 0, 0]
            + A[..., 0, 0] * B[..., 1, 1]
            - A[..., 0, 1] * B[..., 1, 0]
            - A[..., 1, 0] * B[..., 0, 1]
        ) / detA
        det = detB / detA
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        return 0.5 * (tr + disc)
    raise ShapeError(f"batched pencils need d in {{1, 2}}, got d = {d}")


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
    """Batched maximizing direction v (unit Euclidean norm) of B(v,v)/A(v,v)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = A.shape[-1]
    if d == 1:
        return np.ones(A.shape[:-2] + (1,))
    mu = gen_max_eig_batch(A, B)
    # eigenvector of (B - mu A) v = 0: take the cross-form null direction
    M = B - mu[..., None, None] * A
    # for 2x2 singular M, (M11, -M10) and (M01, -M00) both lie in the kernel
    v1 = np.stack([M[..., 1, 1], -M[..., 1, 0]], axis=-1)
    v2 = np.stack([M[..., 0, 1], -M[..., 0, 0]], axis=-1)
    n1 = np.linalg.norm(v1, axis=-1)
    n2 = np.linalg.norm(v2, axis=-1)
    v = np.where((n1 >= n2)[..., None], v1, v2)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    # degenerate pencil (B proportional to A): any direction maximizes
    fallback = np.zeros_like(v)
    fallback[..., 0] = 1.0
    return np.where(n > 0, v / np.where(n > 0, n, 1.0), fallback)
