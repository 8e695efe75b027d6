"""Surgery pipeline: cone bound, majorant, stretch, normalization, freeze,
interpolation, splice, and the assembled joins."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_surgery import (
    MetricField,
    ScalarField,
    SpatialDomain,
    SpdField,
    asymptotic_join,
    cone_bound_factor,
    freeze_past,
    interpolate_ultrastatic,
    join_ultrastatic,
    make_globally_hyperbolic,
    normalize_conformal,
    smooth_majorant,
    splice,
    stretch_metric,
    time_reverse,
    ultrastatic_metric,
    ultrastatic_tail,
)
from causal_surgery.errors import (
    CertificateError,
    ConstraintError,
    DomainError,
    ExprEvalError,
    ShapeError,
    SpliceError,
)
from causal_surgery.config import MetricSpec, build_metric
from causal_surgery.fields import warped_product
from causal_surgery.surgery import (
    MAJORANT_EPS,
    MAJORANT_NODE_SPACING,
    MAJORANT_SUBSAMPLES,
    cone_inequality_report,
)
from conftest import flrw_exp

INF = float("inf")


# -- completeness and cone bound -------------------------------------------


def test_make_globally_hyperbolic_takes_j_one_unless_given(circle):
    m = flrw_exp(circle)
    assert make_globally_hyperbolic(m, verify=False).j(0.0, 0.5) == 1.0
    j = ScalarField.constant(3.0)
    assert make_globally_hyperbolic(m, j=j, verify=False).j is j


def test_an_error_in_the_default_slice_names_the_cone_bound_stage(circle):
    """g_0 defaults to the slice at t = 0, inside the cone-bound step of the
    composite, which is the stage an error there names."""
    m = build_metric(MetricSpec("custom", {"g11": "2 + 1/t"}), circle)
    with pytest.raises(ExprEvalError,
                       match=re.escape("[stage cone_bound_factor] division by zero in '1.0 / t'")):
        make_globally_hyperbolic(m, verify=False)


def test_cone_bound_factor_flrw_closed_form(circle):
    """For g_t = e^{2t} g_0, lambda = 1, the minimal factor is e^{-2t}."""
    m = flrw_exp(circle)
    j = ScalarField.constant(1.0)
    g0 = m.spatial_slice(0.0)
    lower = cone_bound_factor(m, j, g0)
    t = np.linspace(-3, 3, 41)
    vals = lower(t, np.zeros((41, 1)))
    np.testing.assert_allclose(vals, np.exp(-2 * t), rtol=1e-12)


def test_cone_bound_factor_respects_lapse(circle):
    m = warped_product(
        circle,
        lambda t: np.ones_like(np.asarray(t, float)),
        SpdField.constant(circle, np.eye(1)),
        lapse=lambda t, x: 4.0 * np.ones_like(t),
    )
    lower = cone_bound_factor(m, ScalarField.constant(1.0), m.spatial_slice(0.0))
    # max{1, lambda} = 4 while the eigenvalue term is 1
    assert lower(0.0, 0.0) == pytest.approx(4.0)


# -- smooth majorant -------------------------------------------------------


def test_majorant_dominates_lower_bound(circle):
    lower = ScalarField(fn=lambda t, x: np.exp(-2 * t))
    f = smooth_majorant(lower, circle, t_window=(-3, 3))
    t = np.linspace(-3, 3, 301)
    x = np.zeros((301, 1))
    assert np.all(f(t, x) >= np.exp(-2 * t))


def test_majorant_is_locally_bounded(circle):
    lower = ScalarField(fn=lambda t, x: np.exp(-2 * t))
    f = smooth_majorant(lower, circle, t_window=(-3, 3))
    t = np.linspace(-3, 3, 301)
    vals = f(t, np.zeros((301, 1)))
    # node construction keeps the majorant within a slab-sized lookback
    assert np.all(vals <= 2.0 * np.exp(-2 * (t - 1.0)))


def test_majorant_identically_one_plateau_is_exact(circle):
    lower = ScalarField(fn=lambda t, x: np.minimum(np.exp(-2 * t), 1.0) * 0.5)
    f = smooth_majorant(lower, circle, t_window=(-3, 3), one_after=1.0)
    t = np.linspace(1.0, 8.0, 50)
    np.testing.assert_array_equal(f(t, np.zeros((50, 1))), np.ones(50))
    # still a majorant on the ramp into the plateau
    t = np.linspace(-3.0, 1.0, 200)
    assert np.all(f(t, np.zeros((200, 1))) >= lower(t, np.zeros((200, 1))))


def test_majorant_constant_in_t_plateau_is_exact(circle):
    lower = ScalarField(fn=lambda t, x: np.exp(2 * np.minimum(t, 0.0)))
    f = smooth_majorant(lower, circle, t_window=(-3, 3), constant_before=0.0)
    t = np.array([-5.0, -2.5, -1.0, 0.0])
    vals = f(t, np.zeros((4, 1)))
    assert np.all(vals == vals[0])
    assert vals[0] >= 1.0


def test_majorant_rejects_impossible_one_plateau(circle):
    # lower bound exceeds 1 where the factor is pinned to 1
    lower = ScalarField(fn=lambda t, x: np.full(np.shape(t), 7.0))
    with pytest.raises(ConstraintError):
        smooth_majorant(lower, circle, t_window=(-3, 3), one_after=0.0)


def test_majorant_rejects_a_one_ramp_inside_the_constant_past(circle):
    # the one plateau from 0.2 snaps to 0.0 and ramps in from -0.5, inside
    # the constant past up to 0, where f would jump from 0.5 to 1
    lower = ScalarField.constant(0.5)
    with pytest.raises(ConstraintError, match="must not overlap"):
        smooth_majorant(lower, circle, t_window=(-3, 3), constant_before=0.0, one_after=0.2)
    # a ramp that starts where the constant past ends is accepted
    f = smooth_majorant(lower, circle, t_window=(-3, 3), constant_before=0.0, one_after=0.5)
    t = np.linspace(-1.0, 1.0, 401)
    vals = f(t, np.zeros((401, 1)))
    assert np.all(vals[t <= 0.0] == vals[0]) and np.all(vals[t >= 0.5] == 1.0)
    assert np.max(np.abs(np.diff(vals))) < 0.05


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_majorant_rejects_a_lower_bound_that_is_not_finite(circle, bad):
    def fn(t, x, at=0.25):
        return np.where((t == at) & (x[:, 0] == 0.0), bad, 0.5)

    # a slab sample of a node
    with pytest.raises(DomainError, match="not finite and positive"):
        smooth_majorant(ScalarField(fn=fn), circle, t_window=(-3, 3))
    # t = -1.01 is sampled by the recheck of the window only
    with pytest.raises(ConstraintError, match="below lower bound"):
        smooth_majorant(ScalarField(fn=lambda t, x: fn(t, x, -1.01)), circle,
                        t_window=(-1.01, 1.0))
    nan_factor = ScalarField(fn=lambda t, x: np.full(t.shape, np.nan))
    with pytest.raises(DomainError, match="conformal factor nan"):
        stretch_metric(flrw_exp(circle), nan_factor).fn(np.zeros(2), np.zeros((2, 1)))


def test_majorant_spatially_varying_lower(circle):
    lower = ScalarField(
        fn=lambda t, x: np.exp(-2 * t) * (1.5 + np.sin(x[:, 0]))
    )
    f = smooth_majorant(lower, circle, t_window=(-2, 2))
    rng = np.random.default_rng(8)
    t = rng.uniform(-2, 2, 300)
    x = rng.uniform(0, 2 * np.pi, (300, 1))
    assert np.all(f(t, x) >= lower(t, x) * (1 - 1e-9))


def _bump_lower(domain, base, amp, width, centre, in_time):
    """base + amp * (periodic Gaussian bump of the given width at centre),
    the bump scaled by tanh(t)^2 when ``in_time``."""

    def fn(t, x):
        dx = domain.min_image(x - np.asarray(centre))
        bump = np.exp(-np.sum((dx / width) ** 2, axis=1))
        return base + amp * bump * (np.tanh(t) ** 2 if in_time else 1.0)

    return ScalarField(fn=fn)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2]),
    n=st.sampled_from([8, 16, 24]),
    base=st.floats(0.05, 2.0),
    amp=st.floats(0.0, 40.0),
    width=st.floats(0.02, 2.0),
    centre=st.floats(0.0, 1.0),
    in_time=st.booleans(),
)
@example(d=1, n=16, base=1.0, amp=19.0, width=0.03, centre=0.03, in_time=False)
def test_majorant_is_a_positive_bounded_cell_majorant(d, n, base, amp, width, centre, in_time):
    """Off the grid, 0 < f <= (1 + eps) * the largest lower-bound sample, and
    f at a slab sample time is at least the lower bound at every corner of
    the point's grid cell at that time, however narrow the bump."""
    domain = SpatialDomain(d, (2 * np.pi, 4.0)[:d], (n,) * d)
    L = np.asarray(domain.circumferences)
    lower = _bump_lower(domain, base, amp, width, centre * L, in_time)
    f = smooth_majorant(lower, domain, t_window=(-1.0, 1.0))
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (2000, d)) * L
    t = rng.uniform(-1.0, 1.0, 2000)
    fv = f(t, x, domain)
    # t in [-1, 1) reads the nodes -2..2, which sample the slabs -3..2
    h = MAJORANT_NODE_SPACING
    ts = np.concatenate([h * (k + np.linspace(0.0, 1.0, MAJORANT_SUBSAMPLES))
                         for k in range(-3, 3)])
    grid = domain.grid_points()
    top = max(lower(np.full(grid.shape[0], tk), grid, domain).max() for tk in ts)
    assert np.all(fv > 0.0)
    assert np.all(fv <= (1.0 + MAJORANT_EPS) * top * (1.0 + 1e-12))
    # snap the times to slab samples and compare with the cell corners
    ts_sample = np.round(t * 64.0) / 64.0
    fv = f(ts_sample, x, domain)
    i0 = np.floor(x / (L / n)).astype(int)
    for corner in np.ndindex(*(2,) * d):
        cx = ((i0 + np.asarray(corner)) % n) * (L / n)
        assert np.all(fv >= lower(ts_sample, cx, domain) * (1.0 - 1e-12))


@pytest.mark.parametrize("d", [1, 2])
def test_majorant_grid_weights_are_reused_bit_exactly(d):
    """On the domain grid the majorant reuses the cell weights it computed
    once; its values equal those at the permuted grid, un-permuted."""
    domain = SpatialDomain(d, (2 * np.pi, 4.0)[:d], (16,) * d)
    lower = _bump_lower(domain, 0.5, 3.0, 0.4, np.full(d, 1.0), False)
    f = smooth_majorant(lower, domain, t_window=(-3.0, 3.0), constant_before=-1.0)
    grid = domain.grid_points()
    n = grid.shape[0]
    perm = np.random.default_rng(d).permutation(n)
    back = np.argsort(perm)
    # the constant-in-t plateau, a node time, and between nodes
    for t in (-2.0, 0.5, 0.8):
        on_grid = f.fn(np.full(n, t), grid)
        assert "_grid_cells" in vars(f.fn)
        permuted = f.fn(np.full(n, t), grid[perm])
        np.testing.assert_array_equal(permuted[back], on_grid)
        assert np.ptp(on_grid) > 0.0  # the nodes vary in space


def _probe_metric(n):
    """g11 = 1 - 0.95 exp(-((x - 0.2)/0.03)^2) tanh(t)^2 with unit lapse: a dip
    far narrower than a grid cell at 16 and 64 cells of the circle 2 pi."""
    domain = SpatialDomain(1, (2 * np.pi,), (n,))

    def fn(t, x):
        bump = np.exp(-(((x[:, 0] - 0.2) / 0.03) ** 2))
        return np.ones_like(t), (1.0 - 0.95 * bump * np.tanh(t) ** 2)[:, None, None]

    return MetricField(domain, fn)


def test_probe_metric_builds_with_a_positive_factor():
    # the dip is narrower than a grid cell: only a comparison of the whole
    # grid sees that the metric is not constant in the past
    result = make_globally_hyperbolic(_probe_metric(64), verify=False)
    rng = np.random.default_rng(1)
    t = rng.uniform(-3.0, 3.0, 5000)
    x = rng.uniform(0.0, 2 * np.pi, (5000, 1))
    assert np.all(result.factor(t, x) > 0.0)


def test_weakened_majorant_fails_the_cone_inequality():
    m = _probe_metric(16)
    result = make_globally_hyperbolic(m, verify=False)
    window = (-3.0, 3.0)
    assert cone_inequality_report(result.metric, result.j, result.g0, window).passed
    weak = ScalarField(fn=lambda t, x: 0.9 * result.factor.fn(t, x))
    report = cone_inequality_report(stretch_metric(m, weak), result.j, result.g0, window)
    assert not report.passed
    assert "cone inequality violated" in report.detail


# -- stretch ---------------------------------------------------------------


def test_stretch_metric_multiplies_spatial(flrw_circle):
    f = ScalarField.constant(3.0)
    s = stretch_metric(flrw_circle, f)
    lam, g = s.eval(0.5, np.array([0.1]))
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(g, 3.0 * flrw_circle.eval(0.5, np.array([0.1]))[1])


def test_stretch_metric_rejects_nonpositive_factor(flrw_circle):
    f = ScalarField(fn=lambda t, x: np.asarray(t, float))
    s = stretch_metric(flrw_circle, f)
    with pytest.raises(DomainError):
        s.eval(-1.0, np.array([0.0]))


def test_make_globally_hyperbolic_satisfies_inequality(flrw_circle):
    result = make_globally_hyperbolic(flrw_circle, seed=0, n_verify_curves=8)
    assert result.certificates["global_hyperbolicity"].passed
    assert result.certificates["cone_inequality"].passed
    assert result.certificates["cone_containment"].passed
    # pointwise: f * g_t >= max{1, lambda} * j * g_0
    t = np.linspace(-3, 3, 25)
    x = np.zeros((25, 1))
    _, g = result.metric.eval(t, x)
    assert np.all(g[:, 0, 0] >= 1.0 - 1e-9)
    assert np.all(result.factor(t, x) > 0)


def test_make_globally_hyperbolic_already_gh_pins_factor(flrw_circle):
    result = make_globally_hyperbolic(
        flrw_circle, already_gh_after=1.0, seed=0, verify=False
    )
    t = np.linspace(1.0, 3.0, 9)
    np.testing.assert_array_equal(result.factor(t, np.zeros((9, 1))), np.ones(9))


def test_make_globally_hyperbolic_2d(torus):
    g0 = SpdField.constant(torus, np.diag([1.0, 2.0]))
    m = flrw_exp(torus, rate=1.0, g0=g0)
    result = make_globally_hyperbolic(m, seed=1, n_verify_curves=8)
    assert result.certificates["cone_inequality"].passed


@pytest.mark.parametrize("dim", [1, 2])
def test_join_half_factor_is_constant_in_the_stated_past(circle, torus, dim):
    """The half's input freezes its own past, and the half states it with
    constant_before=0: every factor row on t <= 0 is the same bits, for an
    input whose lapse and spatial form vary in t and x."""
    domain = circle if dim == 1 else torus

    def fn(t, x):
        a = np.exp(t) * (1.2 + 0.3 * np.sin(x[:, 0] + 4.0 * t))
        return 1.5 + 0.4 * np.sin(x[:, 0] - t), a[:, None, None] * np.eye(dim)

    k = freeze_past(normalize_conformal(MetricField(domain, fn)))
    f = make_globally_hyperbolic(
        k, already_gh_after=1.0, constant_before=0.0, verify=False
    ).factor
    x = domain.grid_points()
    rows = np.stack([f(np.full(len(x), t), x) for t in np.linspace(-3.0, 0.0, 13)])
    assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
    assert np.ptp(rows[0]) > 0  # the plateau node varies in x


# -- normalization, freeze, tails ------------------------------------------


def test_normalize_conformal_unit_lapse_in_past(circle):
    m = warped_product(
        circle,
        lambda t: np.exp(np.asarray(t, float)),
        SpdField.constant(circle, np.eye(1)),
        lapse=lambda t, x: 2.0 + np.tanh(t),
    )
    n = normalize_conformal(m)
    t = np.linspace(-4, 0, 17)
    lam, _ = n.eval(t, np.zeros((17, 1)))
    np.testing.assert_allclose(lam, 1.0, atol=5e-16)
    # untouched in the far future
    t = np.linspace(1, 3, 9)
    np.testing.assert_array_equal(n.eval(t, np.zeros((9, 1)))[0], m.eval(t, np.zeros((9, 1)))[0])


def test_freeze_past_constant_before_zero(flrw_circle):
    k = freeze_past(flrw_circle)
    t = np.array([-10.0, -3.0, 0.0])
    _, g = k.eval(t, np.zeros((3, 1)))
    assert np.all(g == g[0])
    np.testing.assert_array_equal(g[0], flrw_circle.eval(0.0, np.array([0.0]))[1])
    # identity reparametrization from t = 1 on
    np.testing.assert_array_equal(
        k.eval(2.0, np.array([0.0]))[1], flrw_circle.eval(2.0, np.array([0.0]))[1]
    )


def test_ultrastatic_tail_requires_frozen_past(flrw_circle):
    with pytest.raises(CertificateError):
        ultrastatic_tail(flrw_circle)
    frozen = freeze_past(flrw_circle)
    u = ultrastatic_tail(frozen)
    lam, g = u.eval(-50.0, np.array([0.0]))
    assert lam == 1.0
    np.testing.assert_array_equal(g, frozen.eval(-1.0, np.array([0.0]))[1])


# -- interpolation ---------------------------------------------------------


def test_interpolate_ultrastatic_endpoints(circle):
    u0 = ultrastatic_metric(circle, SpdField.constant(circle, 4.0 * np.eye(1)))
    u1 = ultrastatic_metric(circle, SpdField.constant(circle, np.eye(1)))
    art = interpolate_ultrastatic(u0, u1)
    assert art.certificates["convex_bound"].passed
    _, g = art.metric.eval(-1.0, np.array([0.0]))
    np.testing.assert_array_equal(g, [[4.0]])
    _, g = art.metric.eval(2.0, np.array([0.0]))
    np.testing.assert_array_equal(g, [[1.0]])


def test_interpolate_ultrastatic_rejects_nonultrastatic(circle, flrw_circle):
    u0 = ultrastatic_metric(circle, SpdField.constant(circle, np.eye(1)))
    with pytest.raises(CertificateError):
        interpolate_ultrastatic(u0, flrw_circle)


def test_interpolate_ultrastatic_rejects_domain_mismatch(circle):
    other = type(circle)(1, (4.0,), (64,))
    u0 = ultrastatic_metric(circle, SpdField.constant(circle, np.eye(1)))
    u1 = ultrastatic_metric(other, SpdField.constant(other, np.eye(1)))
    with pytest.raises(ShapeError):
        interpolate_ultrastatic(u0, u1)


# -- splice ----------------------------------------------------------------


def test_splice_agreeing_metrics(circle):
    a = flrw_exp(circle)
    b = flrw_exp(circle)
    s = splice(a, b, 0.0, tol=1e-12)
    np.testing.assert_array_equal(
        s.eval(-1.0, np.array([0.0]))[1], a.eval(-1.0, np.array([0.0]))[1]
    )
    np.testing.assert_array_equal(
        s.eval(1.0, np.array([0.0]))[1], b.eval(1.0, np.array([0.0]))[1]
    )


def test_splice_mixed_batch(circle):
    s = splice(flrw_exp(circle), flrw_exp(circle), 0.0, tol=1e-12)
    t = np.linspace(-1, 1, 11)
    lam, g = s.eval(t, np.zeros((11, 1)))
    np.testing.assert_allclose(g[:, 0, 0], np.exp(2 * t))


def test_splice_rejects_disagreement(circle, flrw_circle, ultra_circle):
    with pytest.raises(SpliceError):
        splice(flrw_circle, ultra_circle, 0.0, tol=1e-9)


# -- joins -----------------------------------------------------------------


@pytest.fixture(scope="module")
def half_join_artifact():
    from causal_surgery import SpatialDomain

    circ = SpatialDomain(1, (2 * np.pi,), (64,))
    g = flrw_exp(circ)
    return g, join_ultrastatic(g, seed=0)


def test_join_ultrastatic_future_isometry(half_join_artifact):
    g, art = half_join_artifact
    t = np.linspace(1.0, 3.0, 9)
    x = np.zeros((9, 1))
    lam_a, g_a = art.metric.eval(t, x)
    lam_b, g_b = g.eval(t, x)
    np.testing.assert_array_equal(g_a, g_b)
    np.testing.assert_array_equal(lam_a, lam_b)


def test_join_ultrastatic_past_is_ultrastatic(half_join_artifact):
    _, art = half_join_artifact
    t = np.linspace(-6.0, 0.0, 13)
    x = np.zeros((13, 1))
    lam, g = art.metric.eval(t, x)
    np.testing.assert_allclose(lam, 1.0, atol=1e-12)
    assert np.max(np.abs(g - g[0])) == 0.0


def test_asymptotic_join_windows(circle):
    g = flrw_exp(circle, rate=1.0)
    h = ultrastatic_metric(circle, SpdField.constant(circle, 4.0 * np.eye(1)))
    art = asymptotic_join(g, h, seed=0)
    assert art.future_window == (4.0, INF)
    assert art.past_window == (-INF, -1.0)
    # future: output at tau equals g at tau + future_shift
    t = np.linspace(4.0, 6.0, 9)
    x = np.zeros((9, 1))
    _, g_out = art.metric.eval(t, x)
    _, g_in = g.eval(t + art.future_shift, x)
    assert np.max(np.abs(g_out - g_in)) <= 1e-10 * np.max(np.abs(g_in))
    # past: equals h outright
    t = np.linspace(-5.0, -1.0, 9)
    _, h_out = art.metric.eval(t, x)
    _, h_in = h.eval(t + art.past_shift, x)
    np.testing.assert_array_equal(h_out, h_in)


def test_asymptotic_join_reversed_pair(circle):
    """Joining two genuinely time-dependent metrics exercises both halves."""
    g = flrw_exp(circle, rate=1.0)
    h = flrw_exp(circle, rate=-0.5)
    art = asymptotic_join(g, h, seed=2)
    for name in ("future_isometry", "past_isometry", "mid_ultrastatic"):
        assert art.certificates[name].passed


def test_time_reverse_involution(flrw_circle):
    rr = time_reverse(time_reverse(flrw_circle))
    t = np.linspace(-2, 2, 9)
    x = np.zeros((9, 1))
    np.testing.assert_array_equal(rr.eval(t, x)[1], flrw_circle.eval(t, x)[1])


@pytest.mark.parametrize("d", [1, 2])
def test_majorant_single_time_path_matches_the_general_path(d):
    """A one-time batch (time logic once, grid nodes blended once) equals the
    same points in a batch of several times, bit for bit: at node times k h,
    inside the constant-in-t plateau and at its edge, between nodes, on the
    ramp into the identically-one plateau and on it.  Batches wholly on
    either plateau, or straddling either edge, equal their points evaluated
    alone, and so does each point of random mixed batches (grid and off-grid
    points, times on both plateaus, at node times and anywhere between)."""
    domain = SpatialDomain(d, (2 * np.pi, 4.0)[:d], (16,) * d)
    bump = _bump_lower(domain, 0.0, 0.5, 0.4, np.full(d, 1.0), False)
    # constant in t up to -1, growing after it, below 1 on the one-plateau
    lower = ScalarField(
        fn=lambda t, x: 0.2 + bump.fn(t, x) * (1.0 + 0.4 * np.tanh(np.maximum(t + 1.0, 0.0)))
    )
    # K h = -1 (K = -2); identically one from one_lo = 1.5, ramped in over [1, 1.5]
    f = smooth_majorant(lower, domain, t_window=(-3.0, 3.0), constant_before=-1.0,
                        one_after=1.7)
    grid = domain.grid_points()
    n = grid.shape[0]
    off = np.random.default_rng(d).uniform(0.0, 1.0, (n, d)) * np.asarray(domain.circumferences)
    for t in (-2.7, -2.0, -1.25, -1.0, -0.5, 0.0, 0.3, 0.5, 1.2, 1.4, 1.5, 2.0, 2.9):
        for x in (grid, off):
            one_time = f.fn(np.full(n, t), x)
            general = f.fn(np.append(np.full(n, t), t + 0.37), np.vstack([x, x[:1]]))[:n]
            assert one_time.tobytes() == general.tobytes(), t
    # wholly in the constant past, wholly on the one plateau, and straddling
    # K h = -1 and one_lo = 1.5
    for times in ((-2.7, -1.25, -1.0), (1.5, 2.0, 2.9), (-1.25, -1.0, -0.75), (1.25, 1.5, 2.0)):
        t = np.resize(np.asarray(times), n)
        for x in (grid, off):
            alone = np.concatenate([f.fn(t[i:i + 1], x[i:i + 1]) for i in range(n)])
            assert f.fn(t, x).tobytes() == alone.tobytes(), times
    # below 1 on the ramp, exactly 1.0 on the plateau, in any batch
    t = np.resize([1.2, 1.4, 1.5, 2.0, 2.9], n)
    for x in (grid, off):
        v = f.fn(t, x)
        assert np.all(v[t < 1.5] < 1.0) and np.all(v[t >= 1.5] == 1.0)
        for s in (1.5, 2.0, 2.9):
            assert np.all(f.fn(np.full(n, s), x) == 1.0)
    # each grid node is blended once and kept, the plateau node K = -2 too
    kept = dict(f.fn._grid_nodes)
    assert f.fn.K == -2 and -2 in kept and 0 in kept
    f.fn(np.full(n, 0.3), grid)
    assert all(f.fn._grid_nodes[k] is v for k, v in kept.items())
    # seeded random mixed batches, row by row
    rng = np.random.default_rng(40 + d)
    node_times = MAJORANT_NODE_SPACING * np.arange(-6, 7)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        t = np.where(rng.random(n) < 0.3, rng.choice(node_times, n), rng.uniform(-3.0, 3.0, n))
        x = rng.uniform(0.0, 1.0, (n, d)) * np.asarray(domain.circumferences)
        on = rng.random(n) < 0.5
        x[on] = grid[rng.integers(0, grid.shape[0], on.sum())]
        alone = np.concatenate([f.fn(t[i:i + 1], x[i:i + 1]) for i in range(n)])
        assert f.fn(t, x).tobytes() == alone.tobytes()
