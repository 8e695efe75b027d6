"""Generalized max eigenvalue: scalar entry point, batched closed forms,
maximizing directions, against a brute-force direction-sampling oracle and
against scipy's symmetric-definite solver."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_surgery import spd_generalized_max_eigenvalue
from causal_surgery.domain import is_spd_batch
from causal_surgery.eigen import gen_max_eig_batch, gen_max_eig_direction, sym_min_eig_batch
from causal_surgery.errors import DomainError, ShapeError


def _random_spd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


def _oracle(A, B, n_dirs=10_000):
    """sup over sampled unit directions of B(v,v) / A(v,v)."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal((n_dirs, A.shape[0]))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    num = np.einsum("ni,ij,nj->n", v, B, v)
    den = np.einsum("ni,ij,nj->n", v, A, v)
    return float(np.max(num / den))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("d", [1, 2])
def test_scalar_matches_direction_oracle(seed, d):
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, d)
    B = _random_spd(rng, d) - 0.5 * np.eye(d)  # symmetric, possibly indefinite
    mu = spd_generalized_max_eigenvalue(A, B)
    oracle = _oracle(A, B)
    # direction sampling can only undershoot the supremum
    assert mu >= oracle - 1e-12
    assert abs(mu - oracle) <= 1e-3 * max(abs(mu), 1.0)


def test_identity_pencil():
    assert spd_generalized_max_eigenvalue(np.eye(2), np.eye(2)) == pytest.approx(1.0)
    assert spd_generalized_max_eigenvalue(
        np.eye(2), np.diag([3.0, 7.0])
    ) == pytest.approx(7.0)


def test_scaling_covariance():
    rng = np.random.default_rng(0)
    A = _random_spd(rng, 2)
    B = _random_spd(rng, 2)
    mu = spd_generalized_max_eigenvalue(A, B)
    assert spd_generalized_max_eigenvalue(A, 5.0 * B) == pytest.approx(5.0 * mu)
    assert spd_generalized_max_eigenvalue(2.0 * A, B) == pytest.approx(mu / 2.0)


def test_rejects_non_spd_A():
    with pytest.raises(DomainError):
        spd_generalized_max_eigenvalue(np.diag([1.0, -1.0]), np.eye(2))


def test_rejects_asymmetric_B():
    with pytest.raises(DomainError):
        spd_generalized_max_eigenvalue(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        spd_generalized_max_eigenvalue(np.eye(2), np.eye(3))


def test_scalar_kernel_rejects_dimension_three():
    with pytest.raises(ShapeError):
        spd_generalized_max_eigenvalue(np.eye(3), np.eye(3))


def _eigh_max(A, B):
    """Largest generalized eigenvalue from scipy.linalg.eigh (LAPACK sygvd)."""
    return float(scipy.linalg.eigh(B, A, eigvals_only=True)[-1])


def _rayleigh(v, A, B):
    """B(v,v) / A(v,v) in exact rational arithmetic, rounded once."""
    v = [Fraction(x) for x in v]

    def form(M):
        return sum(v[i] * Fraction(M[i, j]) * v[j] for i in range(2) for j in range(2))

    return float(form(B) / form(A))


@pytest.mark.parametrize("seed", range(10))
def test_batch_and_scalar_match_eigh(seed):
    rng = np.random.default_rng(100 + seed)
    A = np.stack([_random_spd(rng, 2) for _ in range(40)])
    B = np.stack([_random_spd(rng, 2) - np.eye(2) for _ in range(40)])
    batched = gen_max_eig_batch(A, B)
    for i in range(40):
        ref = _eigh_max(A[i], B[i])
        assert batched[i] == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert spd_generalized_max_eigenvalue(A[i], B[i]) == pytest.approx(
            ref, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, -1e-9, 0.0])
def test_nearly_proportional_pencil_is_exact_to_rounding(eps):
    """B = c A + eps E: the eigenvalue gap is eps-small, where a
    trace/determinant form would keep only half the digits; the batch, the
    scalar and the direction's Rayleigh quotient keep them all."""
    cases = [(np.eye(2), np.diag([1.0, 1.0 + eps])),
             (np.array([[2.0, 0.3], [0.3, 1.0]]),
              3.0 * np.array([[2.0, 0.3], [0.3, 1.0]]) + np.diag([0.0, eps]))]
    for A, B in cases:
        ref = _eigh_max(A, B)
        assert gen_max_eig_batch(A, B) == pytest.approx(ref, rel=1e-15, abs=0)
        assert spd_generalized_max_eigenvalue(A, B) == pytest.approx(ref, rel=1e-15, abs=0)
        assert _rayleigh(gen_max_eig_direction(A, B), A, B) == pytest.approx(
            ref, rel=1e-15, abs=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lo=st.floats(1e-3, 1.0), hi=st.floats(1.0, 10.0), angle=st.floats(0.0, np.pi),
       c=st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0)),
       eps=st.floats(-1e-6, 1e-6), seed=st.integers(0, 2**32 - 1))
def test_nearly_proportional_pencils_match_eigh(lo, hi, angle, c, eps, seed):
    """B = c A + eps E with A's smallest eigenvalue down to 1e-3: the batch
    and the direction's Rayleigh quotient match eigh to 1e-12."""
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    A = q @ np.diag([lo, hi]) @ q.T
    A = 0.5 * (A + A.T)
    E = np.random.default_rng(seed).standard_normal((2, 2))
    B = c * A + eps * (E + E.T)
    ref = _eigh_max(A, B)
    assert gen_max_eig_batch(A, B) == pytest.approx(ref, rel=1e-12, abs=0)
    assert _rayleigh(gen_max_eig_direction(A, B), A, B) == pytest.approx(ref, rel=1e-12, abs=0)


def test_batch_d1():
    A = np.array([[[2.0]], [[4.0]]])
    B = np.array([[[6.0]], [[1.0]]])
    np.testing.assert_allclose(gen_max_eig_batch(A, B), [3.0, 0.25])


@pytest.mark.parametrize("kind", ["spd", "indefinite", "near-degenerate"])
def test_sym_min_eig_matches_eigvalsh(kind):
    rng = np.random.default_rng(["spd", "indefinite", "near-degenerate"].index(kind))
    n = 2000
    scale = 10.0 ** rng.uniform(-6, 6, n)
    if kind == "spd":
        S = np.stack([_random_spd(rng, 2) for _ in range(n)])
    elif kind == "indefinite":
        S = rng.standard_normal((n, 2, 2))
        S = S + np.swapaxes(S, 1, 2)
    else:
        # nearly equal eigenvalues, and nearly singular forms
        a = rng.standard_normal(n)
        S = a[:, None, None] * np.eye(2) + 1e-9 * rng.standard_normal((n, 2, 2))
        v = rng.standard_normal((n // 2, 2))
        S[: n // 2] = v[:, :, None] * v[:, None, :]
        S = S + np.swapaxes(S, 1, 2)
    S = scale[:, None, None] * S
    ref = np.linalg.eigvalsh(S)[:, 0]
    tol = 1e-12 * np.abs(S).max(axis=(1, 2))
    assert np.all(np.abs(sym_min_eig_batch(S) - ref) <= tol)
    np.testing.assert_array_equal(sym_min_eig_batch(S[:, :1, :1]), S[:, 0, 0])


@pytest.mark.parametrize("seed", range(10))
def test_direction_achieves_maximum(seed):
    rng = np.random.default_rng(200 + seed)
    A = np.stack([_random_spd(rng, 2) for _ in range(25)])
    B = np.stack([_random_spd(rng, 2) for _ in range(25)])
    mu = gen_max_eig_batch(A, B)
    v = gen_max_eig_direction(A, B)
    ratio = np.einsum("ni,nij,nj->n", v, B, v) / np.einsum("ni,nij,nj->n", v, A, v)
    np.testing.assert_allclose(ratio, mu, rtol=1e-14)


def test_direction_degenerate_pencil_returns_unit_vector():
    A = np.eye(2)[None]
    v = gen_max_eig_direction(A, 3.0 * A)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0)


@pytest.mark.parametrize("d", [0, 3])
def test_batch_kernels_reject_dimensions_other_than_one_or_two(d):
    A = np.eye(d)[None]
    with pytest.raises(ShapeError):
        gen_max_eig_batch(A, A)
    with pytest.raises(ShapeError):
        gen_max_eig_direction(A, A)
    with pytest.raises(ShapeError):
        is_spd_batch(A)
    with pytest.raises(ShapeError):
        sym_min_eig_batch(A)
