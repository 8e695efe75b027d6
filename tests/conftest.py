"""Shared fixtures: small domains and catalog metrics used across the suite."""
from __future__ import annotations

import numpy as np
import pytest

from causal_surgery import SpatialDomain, SpdField, grid_metric, ultrastatic_metric, warped_product
from causal_surgery.fields import sample_metric


@pytest.fixture
def circle():
    return SpatialDomain(1, (2 * np.pi,), (64,))


@pytest.fixture
def torus():
    return SpatialDomain(2, (2 * np.pi, 4.0), (16, 16))


def flrw_exp(domain, rate=1.0, g0=None):
    """FLRW-style metric -dt^2 + e^{2 rate t} g0 over the given torus."""
    if g0 is None:
        g0 = SpdField.constant(domain, np.eye(domain.dimension))
    return warped_product(
        domain, lambda t: np.exp(rate * np.asarray(t, dtype=float)), g0
    )


def grid_sample_metric(m, t_grid):
    """Sample a metric onto t_grid x its domain grid and return the
    interpolating grid metric."""
    lam, g = sample_metric(m, t_grid)
    shape = lam.shape[:1] + tuple(m.domain.resolution)
    return grid_metric(m.domain, t_grid, lam.reshape(shape), g.reshape(shape + g.shape[-2:]))


@pytest.fixture
def flrw_circle(circle):
    return flrw_exp(circle)


@pytest.fixture
def ultra_circle(circle):
    return ultrastatic_metric(circle, SpdField.constant(circle, 4.0 * np.eye(1)))
