"""Field objects: domains, batched evaluation, transforms, grid interpolation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import NdBSpline, make_interp_spline

from causal_surgery import (
    MetricField,
    ScalarField,
    SpatialDomain,
    SpdField,
    grid_metric,
    time_reverse,
    time_shift,
    ultrastatic_metric,
    validate_spd,
)
from causal_surgery.errors import DataError, DomainError, ShapeError
from causal_surgery.fields import as_batch, max_metric_deviation
from conftest import flrw_exp, grid_sample_metric


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


def test_scalar_field_constant():
    one = ScalarField.constant(1.0)
    assert one(3.7, 0.2) == 1.0
    two = ScalarField.constant(2.0)
    np.testing.assert_array_equal(two(np.array([-1.0, 4.0]), np.zeros((2, 1))), [2.0, 2.0])


def test_scalar_field_batched_call(circle):
    f = ScalarField(fn=lambda t, x: np.exp(t))
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
    m = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), (2.0 + np.sin(x[:, 0]))[:, None, None]),
    )
    gm = grid_sample_metric(m, np.linspace(-1, 1, 9))
    x = np.array([[0.01], [2 * np.pi - 0.01]])
    _, g = gm.eval(np.zeros(2), x)
    # values straddling the seam agree with the closed form
    np.testing.assert_allclose(g[:, 0, 0], 2.0 + np.sin(x[:, 0]), atol=1e-4)


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
    with pytest.raises(ShapeError, match="strictly increasing"):
        grid_metric(circle, [0.0, 1.0, 1.0, 2.0, 3.0], np.ones((5, 32)), np.ones((5, 32, 1, 1)))


def _periodic_oracle(domain, t_grid, values):
    """Per-component cubic spline from scipy: not-a-knot in time and periodic
    on each spatial axis (one ``make_interp_spline`` per axis), evaluated by
    ``NdBSpline``: the interpolant the fused grid spline must reproduce to
    rounding."""
    spl = make_interp_spline(t_grid, values, k=3, axis=0)
    knots, coef = [spl.t], spl.c
    for ax in range(domain.dimension):
        sites = np.append(domain.axis_coords(ax), domain.circumferences[ax])
        closed = np.concatenate([coef, np.take(coef, [0], axis=ax + 1)], axis=ax + 1)
        spl = make_interp_spline(sites, closed, k=3, axis=ax + 1, bc_type="periodic")
        knots.append(spl.t)
        coef = np.moveaxis(spl.c, 0, ax + 1)
    spline = NdBSpline(tuple(knots), coef, 3)
    return lambda t, x: spline(np.column_stack([t, domain.wrap(x)]))


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
    np.testing.assert_allclose(lam_b, _periodic_oracle(domain, t_grid, lam)(t, x), rtol=1e-12)
    for a in range(dim):
        for b in range(a, dim):
            expect = _periodic_oracle(domain, t_grid, g[..., a, b])(t, x)
            np.testing.assert_allclose(g_b[:, a, b], expect, rtol=1e-12)
            np.testing.assert_array_equal(g_b[:, b, a], g_b[:, a, b])
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


def _slice_domain(dim):
    return (SpatialDomain(1, (2 * np.pi,), (32,)) if dim == 1
            else SpatialDomain(2, (2 * np.pi, 4.0), (16, 12)))


def _point_path(spline, t, x):
    """The grid spline's general path: a time basis per point, then one
    gather of each point's 4^(d+1) coefficient rows and one contraction."""
    out = spline._points(t, x)
    return out[:, 0], out[:, 1:][:, spline._sym]


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_metric_on_grid_slice_matches_point_path(dim):
    domain = _slice_domain(dim)
    t_grid, _, _, gm = _random_grid_metric(domain, np.random.default_rng(20 + dim))
    spline, grid = gm.fn, domain.grid_points()
    n = grid.shape[0]
    # time nodes, between nodes and both window ends
    for t in [t_grid[0], t_grid[2], 0.5 * (t_grid[3] + t_grid[4]), 0.123, t_grid[-1]]:
        tb = np.full(n, t)
        lam, g = spline(tb, grid)
        # the call on the grid at one time is the per-axis slice
        out = spline._grid_slice(t)
        np.testing.assert_array_equal(lam, out[:, 0])
        np.testing.assert_array_equal(g, out[:, 1:][:, spline._sym])
        lam_p, g_p = _point_path(spline, tb, grid)
        assert np.max(np.abs(lam - lam_p)) <= 1e-13 * np.max(np.abs(lam_p))
        for a in range(dim):
            for b in range(dim):
                scale = np.max(np.abs(g_p[:, a, b]))
                assert np.max(np.abs(g[:, a, b] - g_p[:, a, b])) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_metric_other_batches_take_the_point_path(dim, monkeypatch):
    domain = _slice_domain(dim)
    rng = np.random.default_rng(30 + dim)
    _, _, _, gm = _random_grid_metric(domain, rng)
    spline, grid = gm.fn, domain.grid_points()
    n = grid.shape[0]
    monkeypatch.setattr(spline, "_grid_slice", lambda t: pytest.fail("took the grid slice"))
    mixed = np.full(n, 0.3)
    mixed[-1] = 0.31
    # times that are not all equal, and the grid's rows permuted
    for t, x in ((mixed, grid), (np.full(n, 0.3), grid[rng.permutation(n)])):
        lam, g = spline(t, x)
        lam_p, g_p = _point_path(spline, t, x)
        np.testing.assert_array_equal(lam, lam_p)
        np.testing.assert_array_equal(g, g_p)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_metric_rows_do_not_depend_on_the_batch(dim):
    """A point gets the same bits alone (time contracted over its rows), in
    a one-time batch (over the whole slab) and in a batch of mixed times."""
    domain = _slice_domain(dim)
    rng = np.random.default_rng(40 + dim)
    _, _, _, gm = _random_grid_metric(domain, rng)
    x = rng.uniform(-5.0, 5.0, (300, dim))
    alone = [gm.fn(np.full(1, 0.3), x[i:i + 1]) for i in (0, 17, 299)]  # before any slab
    lam, g = gm.fn(np.full(300, 0.3), x)
    for i, (lam_i, g_i) in zip((0, 17, 299), alone):
        assert lam_i[0] == lam[i]
        np.testing.assert_array_equal(g_i[0], g[i])
    t = np.full(300, 0.3)
    t[::2] = rng.uniform(-1.0, 2.0, 150)
    lam_m, g_m = gm.fn(t, x)
    np.testing.assert_array_equal(lam_m[1::2], lam[1::2])
    np.testing.assert_array_equal(g_m[1::2], g[1::2])


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_metric_edges_of_the_index_arithmetic(dim):
    """A point whose x mod L rounds up to L is clamped into the last cell,
    where it equals x = 0 to rounding; the window's end times reproduce their
    samples."""
    domain = _slice_domain(dim)
    t_grid, lam, _, gm = _random_grid_metric(domain, np.random.default_rng(50 + dim))
    x = np.zeros((3, dim))
    x[1, -1] = -1e-300
    x[2, 0] = -np.finfo(float).eps
    L = domain.circumferences
    np.testing.assert_array_equal(domain.wrap(x[1:]).max(axis=1), [L[-1], L[0]])
    for t in (0.7, np.full(3, 0.7)):
        out = gm.fn._points(t, x)
        np.testing.assert_allclose(out[1:], out[[0, 0]], rtol=1e-14, atol=0)
    grid = domain.grid_points()
    for k in (0, -1):
        lam_k, _ = gm.fn(np.full(len(grid), t_grid[k]), grid[::-1])
        np.testing.assert_allclose(lam_k, lam[k].ravel()[::-1], rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    cells=st.lists(st.integers(0, 2**20 - 1), min_size=2, max_size=2),
    periods=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    t=st.floats(-1.0, 2.0),
)
def test_grid_spline_interpolates_and_is_periodic(dim, seed, cells, periods, t):
    """Nodes reproduce their samples to 1e-12, on the lattice slice and on
    the point path, and x and x + k L give bit-equal values.  The
    circumferences are powers of two and x a multiple of L / 2^20, so
    x + k L is exact."""
    domain = (SpatialDomain(1, (4.0,), (12,)) if dim == 1
              else SpatialDomain(2, (4.0, 2.0), (10, 8)))
    t_grid, lam, g, gm = _random_grid_metric(domain, np.random.default_rng(seed))
    grid = domain.grid_points()
    n = len(grid)
    for k in range(t_grid.size):
        tk = np.full(n, t_grid[k])
        for pts, order in ((grid, slice(None)), (grid[::-1].copy(), slice(None, None, -1))):
            lam_k, g_k = gm.fn(tk, pts)
            np.testing.assert_allclose(lam_k, lam[k].ravel()[order], rtol=1e-12, atol=0)
            np.testing.assert_allclose(g_k, g[k].reshape(n, dim, dim)[order], rtol=1e-12, atol=0)
    L = np.array(domain.circumferences)
    x = np.array(cells[:dim]) * L / 2**20
    shifted = x + np.array(periods[:dim]) * L
    out = gm.fn(np.full(2, t), np.stack([x, shifted]))
    assert out[0][0] == out[0][1]
    np.testing.assert_array_equal(out[1][0], out[1][1])


def test_max_metric_deviation(circle):
    a = flrw_exp(circle, rate=1.0)
    b = time_shift(flrw_exp(circle, rate=1.0), 1.0)
    dev, _ = max_metric_deviation(a, b, np.linspace(-1, 1, 5), shift=1.0)
    assert dev == 0.0
    dev, where = max_metric_deviation(a, b, np.array([0.0]))
    assert dev > 0.1
    assert where[0] == 0.0
