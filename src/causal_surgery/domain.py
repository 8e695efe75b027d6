"""Spatial domains (flat tori) and symmetric-positive-definite form helpers.

All spatial manifolds here are flat tori T^d = prod_i R/(L_i Z) with d in {1, 2},
discretized by an evenly spaced periodic grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError

# Relative floor for the smallest eigenvalue of an accepted SPD form.
SPD_RELATIVE_FLOOR = 1e-12

MIN_RESOLUTION = 8


@dataclass(frozen=True)
class SpatialDomain:
    """Flat torus with per-axis circumference and grid resolution."""

    dimension: int
    circumferences: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")
        if len(self.circumferences) != self.dimension:
            raise ShapeError("circumferences length must equal dimension")
        if len(self.resolution) != self.dimension:
            raise ShapeError("resolution length must equal dimension")
        if any(c <= 0 for c in self.circumferences):
            raise DomainError("circumferences must be positive")
        if any(n < MIN_RESOLUTION for n in self.resolution):
            raise DomainError(f"resolution must be >= {MIN_RESOLUTION} per axis")

    def axis_coords(self, axis: int) -> np.ndarray:
        """Grid coordinates along one axis, [0, L) evenly spaced."""
        n = self.resolution[axis]
        return np.arange(n) * (self.circumferences[axis] / n)

    def grid_points(self) -> np.ndarray:
        """All grid points as a read-only (N, d) array, row-major over axes,
        built once per domain."""
        return self._grid

    @cached_property
    def _grid(self) -> np.ndarray:
        mesh = np.meshgrid(*[self.axis_coords(i) for i in range(self.dimension)], indexing="ij")
        g = np.stack([m.ravel() for m in mesh], axis=-1)
        g.setflags(write=False)
        return g

    def is_grid(self, x: np.ndarray) -> bool:
        """Whether the points x (n, d) are this domain's grid, in grid order
        (compared as numbers, so -0.0 matches 0.0); at once for the array
        ``grid_points`` returns."""
        g = self._grid
        return x is g or (x.shape == g.shape and np.array_equal(x, g))

    @property
    def n_points(self) -> int:
        return int(np.prod(self.resolution))

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map coordinates into the fundamental cell [0, L_i)."""
        L = np.asarray(self.circumferences)
        return np.mod(x, L)

    def min_image(self, dx: np.ndarray) -> np.ndarray:
        """Shortest-image displacement: each component mapped to [-L/2, L/2)."""
        L = np.asarray(self.circumferences)
        return (np.asarray(dx) + L / 2) % L - L / 2


def upper_index(d: int) -> np.ndarray:
    """The index of each entry of a symmetric (d, d) form in its row-major
    upper triangle, d in {1, 2}."""
    return np.array([[0]] if d == 1 else [[0, 1], [1, 2]])


def sym_part(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def validate_spd(mat: np.ndarray, context: str = "form") -> np.ndarray:
    """Check symmetry and positive definiteness of a single d x d form.

    Accepts a form whose smallest eigenvalue exceeds SPD_RELATIVE_FLOOR times
    its largest.  Returns the array unchanged.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{context}: expected a square matrix, got shape {mat.shape}")
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        raise DomainError(f"{context}: zero matrix is not positive definite")
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise DomainError(f"{context}: matrix is not symmetric to machine precision")
    evals = np.linalg.eigvalsh(sym_part(mat))
    if evals[0] <= SPD_RELATIVE_FLOOR * evals[-1] or evals[0] <= 0:
        raise DomainError(
            f"{context}: smallest eigenvalue {evals[0]:.3e} below SPD floor "
            f"(largest {evals[-1]:.3e})"
        )
    return mat


def is_spd_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorized SPD test for an (..., d, d) stack, d in {1, 2}; returns a
    boolean mask.  Any other d raises ShapeError."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if d == 1:
        return mats[..., 0, 0] > 0
    if d == 2:
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
        return (mats[..., 0, 0] > 0) & (det > 0)
    raise ShapeError(f"batched SPD test needs d in {{1, 2}}, got d = {d}")
