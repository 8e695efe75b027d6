"""Field objects: domains, batched evaluation, transforms, grid interpolation."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from causal_surgery import (
    MetricField,
    ScalarField,
    SpatialDomain,
    SpdField,
    conformal_metric,
    grid_metric,
    time_reverse,
    time_shift,
    ultrastatic_metric,
    validate_spd,
)
from causal_surgery.errors import DataError, DomainError, ShapeError
from causal_surgery.fields import as_batch, grid_sample_metric, max_metric_deviation
from conftest import flrw_exp


# -- domain ----------------------------------------------------------------


def test_domain_grid_points_shape(torus):
    pts = torus.grid_points()
    assert pts.shape == (256, 2)
    assert pts.min() >= 0.0
    assert np.all(pts[:, 0] < 2 * np.pi)
    assert np.all(pts[:, 1] < 4.0)


def test_domain_wrap_and_min_image(circle):
    x = np.array([[2 * np.pi + 0.5]])
    np.testing.assert_allclose(circle.wrap(x), [[0.5]])
    # displacement just over half the circumference wraps to the short way
    dx = np.array([[np.pi + 0.1]])
    np.testing.assert_allclose(circle.min_image(dx), [[0.1 - np.pi]])


def test_domain_validation():
    with pytest.raises(DomainError):
        SpatialDomain(3, (1.0, 1.0, 1.0), (8, 8, 8))
    with pytest.raises(DomainError):
        SpatialDomain(1, (-1.0,), (8,))
    with pytest.raises(DomainError):
        SpatialDomain(1, (1.0,), (4,))
    with pytest.raises(ShapeError):
        SpatialDomain(2, (1.0,), (8, 8))


def test_validate_spd():
    validate_spd(np.eye(2))
    with pytest.raises(DomainError):
        validate_spd(np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        validate_spd(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ShapeError):
        validate_spd(np.ones(3))


def test_as_batch_shapes():
    tb, xb, scalar = as_batch(0.5, np.array([1.0, 2.0]), 2)
    assert tb.shape == (1,) and xb.shape == (1, 2) and scalar
    tb, xb, scalar = as_batch(np.zeros(5), np.zeros((5, 1)), 1)
    assert tb.shape == (5,) and xb.shape == (5, 1) and not scalar
    with pytest.raises(ShapeError):
        as_batch(np.zeros(5), np.zeros((4, 1)), 1)
    with pytest.raises(ShapeError):
        as_batch(0.0, np.zeros((3, 2)), 1)


# -- scalar and SPD fields -------------------------------------------------


def test_scalar_field_constant_and_plateaus():
    one = ScalarField.constant(1.0)
    assert one(3.7, 0.2) == 1.0
    kinds = {p.kind for p in one.plateaus}
    assert "identically-one" in kinds and "constant-in-t" in kinds
    two = ScalarField.constant(2.0)
    assert all(p.kind != "identically-one" for p in two.plateaus)


def test_scalar_field_batched_call(circle):
    f = ScalarField.from_time_function(lambda t: np.exp(t))
    t = np.array([0.0, 1.0, 2.0])
    x = np.zeros((3, 1))
    np.testing.assert_allclose(f(t, x), np.exp(t))
    assert f(1.0, np.array([0.5])) == pytest.approx(np.e)


def test_spd_field_constant(torus):
    k = SpdField.constant(torus, np.diag([2.0, 3.0]))
    v = k(np.array([0.1, 0.2]))
    np.testing.assert_allclose(v, np.diag([2.0, 3.0]))
    batch = k(torus.grid_points())
    assert batch.shape == (256, 2, 2)
    np.testing.assert_allclose(k.scaled(2.0)(np.zeros(2)), np.diag([4.0, 6.0]))


# -- metric fields ---------------------------------------------------------


def test_metric_eval_scalar_and_batch(flrw_circle):
    lam, g = flrw_circle.eval(1.0, np.array([0.3]))
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(g, [[np.exp(2.0)]])
    t = np.linspace(-1, 1, 7)
    lamb, gb = flrw_circle.eval(t, np.zeros((7, 1)))
    assert lamb.shape == (7,) and gb.shape == (7, 1, 1)
    np.testing.assert_allclose(gb[:, 0, 0], np.exp(2 * t))


def test_metric_eval_rejects_bad_values(circle):
    bad_lapse = MetricField(
        domain=circle,
        fn=lambda t, x: (-np.ones_like(t), np.ones((t.shape[0], 1, 1))),
    )
    with pytest.raises(DataError, match="lapse"):
        bad_lapse.eval(0.0, np.array([0.0]))
    bad_spatial = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), np.zeros((t.shape[0], 1, 1))),
    )
    with pytest.raises(DataError, match="SPD"):
        bad_spatial.eval(0.0, np.array([0.0]))


def test_metric_window_enforced(circle):
    m = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), np.ones((t.shape[0], 1, 1))),
        window=(-1.0, 1.0),
    )
    m.eval(0.5, np.array([0.0]))
    with pytest.raises(DomainError, match="window"):
        m.eval(2.0, np.array([0.0]))


def test_ultrastatic_metric(circle):
    u = ultrastatic_metric(circle, SpdField.constant(circle, 4.0 * np.eye(1)))
    lam, g = u.eval(-5.0, np.array([1.0]))
    assert lam == 1.0
    np.testing.assert_allclose(g, [[4.0]])


def test_time_reverse_and_shift(flrw_circle):
    rev = time_reverse(flrw_circle)
    lam, g = rev.eval(1.0, np.array([0.0]))
    np.testing.assert_array_equal(g, flrw_circle.eval(-1.0, np.array([0.0]))[1])
    shifted = time_shift(flrw_circle, 2.0)
    # output at t equals input at t - 2
    np.testing.assert_array_equal(
        shifted.eval(2.0, np.array([0.0]))[1],
        flrw_circle.eval(0.0, np.array([0.0]))[1],
    )


def test_time_shift_window(circle):
    m = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), np.ones((t.shape[0], 1, 1))),
        window=(-1.0, 1.0),
    )
    s = time_shift(m, 3.0)
    assert s.window == (2.0, 4.0)


def test_conformal_metric_scales_lapse_and_spatial(flrw_circle):
    c = conformal_metric(flrw_circle, ScalarField.constant(2.0))
    lam, g = c.eval(0.0, np.array([0.0]))
    assert lam == pytest.approx(2.0)
    np.testing.assert_allclose(g, [[2.0]])


def test_spatial_slice(flrw_circle):
    k = flrw_circle.spatial_slice(1.0)
    np.testing.assert_allclose(k(np.array([0.0])), [[np.exp(2.0)]])


# -- grid-backed metrics ---------------------------------------------------


def test_grid_metric_round_trip(circle):
    m = flrw_exp(circle, rate=0.5)
    t_grid = np.linspace(-2, 2, 33)
    gm = grid_sample_metric(m, t_grid)
    assert gm.window == (-2.0, 2.0)
    rng = np.random.default_rng(4)
    t = rng.uniform(-2, 2, 50)
    x = rng.uniform(0, 2 * np.pi, (50, 1))
    lam_a, g_a = m.eval(t, x)
    lam_b, g_b = gm.eval(t, x)
    np.testing.assert_allclose(lam_b, lam_a, atol=1e-5)
    np.testing.assert_allclose(g_b, g_a, rtol=1e-4)


def test_grid_metric_periodic_in_space(circle):
    f = ScalarField.from_space_function(lambda x: 2.0 + np.sin(x[:, 0]))
    m = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), (2.0 + np.sin(x[:, 0]))[:, None, None]),
    )
    gm = grid_sample_metric(m, np.linspace(-1, 1, 9))
    x = np.array([[0.01], [2 * np.pi - 0.01]])
    _, g = gm.eval(np.zeros(2), x)
    # values straddling the seam agree with the closed form
    np.testing.assert_allclose(g[:, 0, 0], 2.0 + np.sin(x[:, 0]), atol=1e-4)
    del f


def test_grid_metric_needs_four_time_samples(circle):
    m = flrw_exp(circle)
    with pytest.raises(ShapeError):
        grid_sample_metric(m, np.linspace(-1, 1, 3))


def test_grid_metric_shape_validation(circle, torus):
    with pytest.raises(ShapeError):
        grid_metric(circle, np.linspace(0, 1, 5), np.ones((5, 32)), np.ones((5, 32, 1, 1)))
    # lapse and spatial samples that disagree with each other, not only with
    # the grid, are a ShapeError too (never a ValueError from stacking them)
    t_grid = np.linspace(0, 1, 5)
    with pytest.raises(ShapeError):
        grid_metric(circle, t_grid, np.ones((5, 64)), np.ones((5, 32, 1, 1)))
    with pytest.raises(ShapeError):
        grid_metric(circle, t_grid, np.ones((5, 32)), np.ones((5, 64, 1, 1)))
    with pytest.raises(ShapeError):
        grid_metric(torus, t_grid, np.ones((5, 16, 16)), np.ones((5, 16, 16, 1, 1)))


def _rgi_oracle(domain, t_grid, values):
    """Per-component cubic RegularGridInterpolator on the same wrap-padded
    axes: the reference the fused grid spline must reproduce exactly."""
    axes, padded = [t_grid], values
    for ax in range(domain.dimension):
        coords = domain.axis_coords(ax)
        h = domain.circumferences[ax] / domain.resolution[ax]
        axes.append(np.concatenate(
            [coords[0] - h * np.arange(3, 0, -1), coords, coords[-1] + h * np.arange(1, 4)]
        ))
        padded = np.concatenate(
            [np.take(padded, range(-3, 0), axis=ax + 1), padded,
             np.take(padded, range(3), axis=ax + 1)], axis=ax + 1,
        )
    rgi = RegularGridInterpolator(axes, padded, method="cubic", bounds_error=False,
                                  fill_value=None)
    return lambda t, x: rgi(np.column_stack([t, domain.wrap(x)]))


def _random_grid_metric(domain, rng):
    d = domain.dimension
    t_grid = np.linspace(-1.0, 2.0, 7)
    shape = (t_grid.size,) + tuple(domain.resolution)
    lam = 1.0 + 0.3 * rng.random(shape)
    a = rng.random(shape + (d, d))
    g = a @ np.swapaxes(a, -1, -2) + np.eye(d)
    return t_grid, lam, g, grid_metric(domain, t_grid, lam, g)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_grid_metric_equals_per_component_cubic_interpolation(dim, n):
    domain = (SpatialDomain(1, (2 * np.pi,), (32,)) if dim == 1
              else SpatialDomain(2, (2 * np.pi, 4.0), (16, 12)))
    rng = np.random.default_rng(100 * dim + n)
    t_grid, lam, g, gm = _random_grid_metric(domain, rng)
    # times inside the window, points far outside the fundamental cell
    t = rng.uniform(-1.0, 2.0, n)
    x = rng.uniform(-10.0, 10.0, (n, dim))
    lam_b, g_b = gm.eval(t, x, check=False)
    np.testing.assert_array_equal(lam_b, _rgi_oracle(domain, t_grid, lam)(t, x))
    for a in range(dim):
        for b in range(a, dim):
            expect = _rgi_oracle(domain, t_grid, g[..., a, b])(t, x)
            np.testing.assert_array_equal(g_b[:, a, b], expect)
            np.testing.assert_array_equal(g_b[:, b, a], expect)
    # a reference slice is the same spline at a fixed time
    np.testing.assert_array_equal(gm.spatial_slice(0.5)(x), gm.fn(np.full(n, 0.5), x)[1])


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_metric_nan_rows_stay_local(dim):
    domain = (SpatialDomain(1, (2 * np.pi,), (32,)) if dim == 1
              else SpatialDomain(2, (2 * np.pi, 4.0), (16, 12)))
    rng = np.random.default_rng(7)
    _, _, _, gm = _random_grid_metric(domain, rng)
    t = rng.uniform(-1.0, 2.0, 9)
    x = rng.uniform(0.0, 4.0, (9, dim))
    t[2] = np.nan
    x[5, -1] = np.nan
    lam, g = gm.fn(t, x)
    nan_rows = np.array([2, 5])
    assert np.all(np.isnan(lam[nan_rows])) and np.all(np.isnan(g[nan_rows]))
    keep = np.setdiff1d(np.arange(9), nan_rows)
    lam_keep, g_keep = gm.fn(t[keep], x[keep])
    np.testing.assert_array_equal(lam[keep], lam_keep)
    np.testing.assert_array_equal(g[keep], g_keep)


def test_max_metric_deviation(circle):
    a = flrw_exp(circle, rate=1.0)
    b = time_shift(flrw_exp(circle, rate=1.0), 1.0)
    dev, _ = max_metric_deviation(a, b, np.linspace(-1, 1, 5), shift=1.0)
    assert dev == 0.0
    dev, where = max_metric_deviation(a, b, np.array([0.0]))
    assert dev > 0.1
    assert where[0] == 0.0
