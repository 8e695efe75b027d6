"""Causality verifiers: curve integration, cone containment (including a
violating metric), global hyperbolicity, diamonds, ultrastatic/isometry checks."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_surgery import (
    ConstantDirection,
    EigenDirection,
    MetricField,
    MetricSpec,
    ScalarField,
    SpatialDomain,
    SpdField,
    build_metric,
    causal_diamond_extent,
    integrate_causal_curve,
    interpolate_ultrastatic,
    make_globally_hyperbolic,
    time_shift,
    ultrastatic_metric,
    verify_cone_containment,
    verify_global_hyperbolicity,
)
from causal_surgery import causality
from causal_surgery.causality import (
    HoldAtMaxDirection,
    PiecewiseRandomDirection,
    check_isometry_report,
    check_ultrastatic_report,
    ref_distance,
)
from causal_surgery.errors import DataError, DomainError, OrderError
from causal_surgery.surgery import half_join
from conftest import flrw_exp, grid_sample_metric

# Allowed relative excess of g(kdot,kdot) over lambda in the per-step speed
# certificate; covers the O(step^2) midpoint-measurement bias at step 1e-3.
SPEED_CERT_SLACK = 1e-5


def _identity_ref(domain):
    return SpdField.constant(domain, np.eye(domain.dimension))


# -- reference distance and speeds -----------------------------------------


def test_ref_distance_wraps_around(circle):
    ref = _identity_ref(circle)
    d = ref_distance(circle, ref, np.array([0.1]), np.array([2 * np.pi - 0.1]))
    assert d == pytest.approx(0.2, rel=1e-6)


def test_ref_distance_scales_with_metric(circle):
    ref = SpdField.constant(circle, 4.0 * np.eye(1))
    d = ref_distance(circle, ref, np.array([0.0]), np.array([1.0]))
    assert d == pytest.approx(2.0, rel=1e-6)


@pytest.fixture(scope="module")
def distance_refs():
    """Reference forms of each kind ref_distance meets: constant, closed-form
    varying in space, and a grid metric's slice (2-d)."""
    circle = SpatialDomain(1, (2 * np.pi,), (32,))
    torus = SpatialDomain(2, (2 * np.pi, 4.0), (8, 8))

    def varying(x):
        c = 0.3 * np.sin(x[:, 0]) * np.cos(x[:, 1])
        return np.stack([2.0 + np.cos(x[:, 1]), c, c, 1.5 + np.sin(x[:, 0])],
                        axis=-1).reshape(-1, 2, 2)

    aniso = MetricField(
        torus, fn=lambda t, x: (np.ones_like(t), np.exp(t)[:, None, None] * varying(x)),
    )
    return {
        "constant-1d": (circle, SpdField.constant(circle, 3.0 * np.eye(1))),
        "constant-2d": (torus, SpdField.constant(torus, np.array([[2.0, 0.3], [0.3, 1.0]]))),
        "varying-2d": (torus, SpdField(torus, varying)),
        "grid-2d": (torus, grid_sample_metric(aniso, np.linspace(-1, 1, 5)).spatial_slice(0.3)),
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["constant-1d", "constant-2d", "varying-2d", "grid-2d"]),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**16),
)
def test_ref_distance_row_alone_equals_row_in_batch(distance_refs, case, n, seed):
    """A point pair's distance does not depend on how many pairs share the call."""
    domain, ref = distance_refs[case]
    rng = np.random.default_rng(seed)
    L = np.asarray(domain.circumferences)
    x0 = rng.uniform(-0.5, 1.5, (n, domain.dimension)) * L
    x1 = rng.uniform(-0.5, 1.5, (n, domain.dimension)) * L
    batch = ref_distance(domain, ref, x0, x1)
    alone = [ref_distance(domain, ref, x0[i], x1[i]) for i in range(n)]
    np.testing.assert_array_equal(np.array(alone), batch)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_ref_distance_closed_form_equals_the_quadrature(dim, n, seed):
    """On a constant form the closed form agrees with the midpoint quadrature
    (which the same field without its matrix takes) to 1e-13 relative."""
    domain = SpatialDomain(dim, (2 * np.pi, 4.0)[:dim], (8,) * dim)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    const = SpdField.constant(domain, 10.0 ** rng.uniform(-2, 2) * (a @ a.T + 0.05 * np.eye(dim)))
    quadrature = SpdField(domain, const.fn)
    L = np.asarray(domain.circumferences)
    x0 = rng.uniform(-0.5, 1.5, (n, dim)) * L
    x1 = rng.uniform(-0.5, 1.5, (n, dim)) * L
    np.testing.assert_allclose(
        ref_distance(domain, const, x0, x1), ref_distance(domain, quadrature, x0, x1),
        rtol=1e-13, atol=0,
    )


# -- curve integration -----------------------------------------------------


def test_null_curve_exact_solution(circle):
    """FLRW null curve dk/dt = e^{-rt} integrates to the analytic answer."""
    rate = 2.0
    m = flrw_exp(circle, rate=rate)
    curve = integrate_causal_curve(
        m, (0.0, np.array([0.0])), np.array([1.0]), t_end=1.0, step=1e-3
    )
    exact = (1.0 - np.exp(-rate)) / rate
    assert curve.points[-1, 0] == pytest.approx(exact, abs=1e-10)
    assert curve.max_speed_ratio <= 1.0 + SPEED_CERT_SLACK
    assert not curve.truncated


def test_integrator_fourth_order_convergence(circle):
    """Halving the step shrinks the endpoint error by ~2^4."""
    rate = 10.0
    m = flrw_exp(circle, rate=rate)
    exact = (1.0 - np.exp(-rate)) / rate

    def err(step):
        c = integrate_causal_curve(
            m, (0.0, np.array([0.0])), np.array([1.0]), t_end=1.0, step=step
        )
        return abs(c.points[-1, 0] - exact)

    e1, e2 = err(1e-3), err(5e-4)
    assert e1 / e2 >= 12.0


def test_backward_integration(circle):
    m = flrw_exp(circle, rate=0.0)
    curve = integrate_causal_curve(
        m, (0.0, np.array([1.0])), np.array([1.0]), t_end=-1.0, step=1e-3
    )
    assert curve.direction == "past"
    assert curve.times[-1] == pytest.approx(-1.0)


def test_curve_truncated_at_window(circle):
    m = MetricField(
        domain=circle,
        fn=lambda t, x: (np.ones_like(t), np.ones((t.shape[0], 1, 1))),
        window=(-0.5, 0.5),
    )
    curve = integrate_causal_curve(
        m, (0.0, np.array([0.0])), np.array([1.0]), t_end=2.0, step=1e-2
    )
    assert curve.truncated
    assert curve.times[-1] == pytest.approx(0.5)


def test_integrate_rejects_bad_step(circle):
    m = flrw_exp(circle)
    with pytest.raises(DomainError):
        integrate_causal_curve(m, (0.0, np.array([0.0])), np.array([1.0]), 1.0, step=0.0)


def test_piecewise_random_policy_is_seeded(circle):
    m = flrw_exp(circle, rate=0.0)
    curves = [
        integrate_causal_curve(
            m, (-1.0, np.array([0.0])), PiecewiseRandomDirection(seed=5), 0.0, 1e-2
        )
        for _ in range(2)
    ]
    np.testing.assert_array_equal(curves[0].points, curves[1].points)


def test_hold_at_max_policy_parks_at_antipode(circle):
    # speed-3 ultrastatic metric: unconstrained travel over [0, 2] covers
    # distance 6, but the wrapped distance cannot exceed pi
    m = ultrastatic_metric(circle, SpdField.constant(circle, np.eye(1) / 9.0))
    ref = _identity_ref(circle)
    policy = HoldAtMaxDirection(np.array([1.0]), circle, ref)
    curve = integrate_causal_curve(m, (0.0, np.array([0.0])), policy, 2.0, 1e-3)
    d = ref_distance(circle, ref, curve.points[0], curve.points[-1])
    assert d == pytest.approx(np.pi, abs=0.02)


# -- cone containment ------------------------------------------------------


def test_cone_containment_passes_on_stretched_flrw(flrw_circle):
    result = make_globally_hyperbolic(flrw_circle, seed=3, verify=False)
    report = verify_cone_containment(
        result.metric, result.j, result.g0, n_samples=40, seed=3,
        t_start_range=(-2.0, -2.0), step=2e-3,
    )
    assert report.passed
    assert report.worst_margin >= -1e-4
    assert report.witness is None


def test_cone_containment_rejects_violating_metric(circle):
    """A metric whose cones exceed the reference bound must be caught with a
    witness curve attached."""
    # spatial form e^{2t} dx^2 without any stretch: from t = -2 the coordinate
    # speed reaches e^{2} >> 1, so curves outrun the |t_start| reference ball
    m = flrw_exp(circle, rate=1.0)
    report = verify_cone_containment(
        m, ScalarField.constant(1.0), _identity_ref(circle),
        n_samples=40, seed=7, t_start_range=(-2.0, -2.0), step=2e-3,
    )
    assert not report.passed
    assert report.worst_margin < -1e-4
    # decided as a violation, not left unresolved
    assert report.worst_margin + report.error < -1e-4
    assert report.witness is not None
    assert "exceed" in report.detail
    # witness is reproducible under the same seed
    again = verify_cone_containment(
        m, ScalarField.constant(1.0), _identity_ref(circle),
        n_samples=40, seed=7, t_start_range=(-2.0, -2.0), step=2e-3,
    )
    np.testing.assert_array_equal(report.witness.points, again.witness.points)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cone_containment_fails_on_a_nan_curve(circle, bad):
    """A lapse that is NaN (or +inf) for t > -0.5 drives the curves to a
    non-finite state: the check fails, without a warning, with such a curve
    as witness, and the worst margin is not +inf."""
    m = MetricField(circle, lambda t, x: (np.where(t > -0.5, bad, 1.0), np.ones((t.size, 1, 1))))
    report = verify_cone_containment(
        m, ScalarField.constant(1.0), _identity_ref(circle), n_samples=8, seed=0, step=0.05,
    )
    assert not report.passed
    assert np.isnan(report.worst_margin)
    assert report.witness is not None
    assert not np.isfinite(report.witness.points[-1]).all()
    assert "non-finite" in report.detail


def _lapse_only(circle, lapse):
    """-lapse(t) dt^2 + dx^2 on the circle: against the unit reference a
    curve's margin is |t0| - integral of sqrt(lapse) (no curve wraps)."""
    return MetricField(circle, lambda t, x: (lapse(t), np.ones((t.size, 1, 1))))


@pytest.mark.parametrize("centre", [-1.1, -1.37])
def test_cone_containment_sees_a_narrow_lapse_bump(circle, centre):
    """A lapse bump 1 + 3 exp(-((t - c)/0.01)^2) carries every curve that
    crosses it 0.01 * integral(sqrt(1 + 3 exp(-u^2)) - 1) ~ 0.0195 beyond the
    reference ball; at step 0.002 the ladder measures that margin within its
    error estimate and fails the check with a witness."""
    m = _lapse_only(circle, lambda t: 1.0 + 3.0 * np.exp(-(((t - centre) / 0.01) ** 2)))
    u = np.linspace(-10.0, 10.0, 200_001)
    exact = -0.01 * np.trapezoid(np.sqrt(1.0 + 3.0 * np.exp(-u * u)) - 1.0, u)
    report = verify_cone_containment(
        m, ScalarField.constant(1.0), _identity_ref(circle), n_samples=16, seed=0, step=0.002,
    )
    assert not report.passed
    assert report.witness is not None and "exceed" in report.detail
    assert report.worst_margin + report.error < -1e-4
    assert abs(report.worst_margin - exact) <= report.error + 1e-6
    assert report.step >= 0.002


def _undecided(circle):
    """A lapse (1 + 0.3 cos(16 pi (t + 2)))^2, period 1/8: from t0 = -2, the
    DWELL/2 level samples the cosine only at +-1 and reads the margin 0.2,
    the DWELL/4 level averages it out and reads 0, so at step 0.05, whose
    finest level is DWELL/4, the check cannot decide."""
    return _lapse_only(circle, lambda t: (1.0 + 0.3 * np.cos(16 * np.pi * (t + 2.0))) ** 2)


def test_cone_containment_fails_an_undecided_bundle_as_unresolved(circle):
    report = verify_cone_containment(
        _undecided(circle), ScalarField.constant(1.0), _identity_ref(circle),
        n_samples=8, seed=0, t_start_range=(-2.0, -2.0), step=0.05,
    )
    assert not report.passed
    assert report.step == causality.DWELL / 4
    assert report.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert report.error == pytest.approx(0.2, rel=1e-9)
    assert report.witness is not None
    assert "unresolved at the finest step 0.0625" in report.detail
    # a finer configured step lets the ladder go on and decide
    finer = verify_cone_containment(
        _undecided(circle), ScalarField.constant(1.0), _identity_ref(circle),
        n_samples=8, seed=0, t_start_range=(-2.0, -2.0), step=0.01,
    )
    assert finer.passed and finer.step == causality.DWELL / 8


def test_cone_containment_validates_start_range(flrw_circle):
    with pytest.raises(DomainError):
        verify_cone_containment(
            flrw_circle, ScalarField.constant(1.0), _identity_ref(flrw_circle.domain),
            n_samples=4, seed=0, t_start_range=(-1.0, 0.5),
        )


_integrate_bundle = causality._integrate_bundle


def _one_group_at_a_time(m, groups, t_end, step, record_every=1):
    """The bundle integrator applied to each policy group on its own."""
    paths = []
    for group in groups:
        [path], truncated = _integrate_bundle(m, [group], t_end, step, record_every)
        paths.append(path)
    return paths, truncated


@pytest.fixture(scope="module")
def bundle_cases():
    """A passing closed-form certificate (stretched FLRW circle) and a
    failing grid-backed one (2-d anisotropic metric, unstretched)."""
    circle = SpatialDomain(1, (2 * np.pi,), (64,))
    stretched = make_globally_hyperbolic(flrw_exp(circle), seed=0, verify=False)
    torus = SpatialDomain(2, (2 * np.pi, 4.0), (8, 8))

    def spatial(t, x):
        c = 0.1 * np.cos(x[:, 1])
        return np.stack([np.exp(2 * t), c, c, 1.0 + t * t], axis=-1).reshape(-1, 2, 2)

    aniso = MetricField(torus, lambda t, x: (1.0 + 0.2 * np.sin(x[:, 0]), spatial(t, x)))
    return {
        "closed-form": (stretched.metric, stretched.j, stretched.g0),
        "grid": (grid_sample_metric(aniso, np.linspace(-1.5, 0.5, 6)),
                 ScalarField.constant(1.0), _identity_ref(torus)),
    }


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["closed-form", "grid"]),
    n_samples=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    lo=st.floats(-1.5, 0.0),
    width=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
)
# single-curve groups in 2-d, where a batch-size-dependent quadratic form
# would round differently once stacked
@example(case="grid", n_samples=3, seed=3, lo=-1.5, width=0.0)
@example(case="grid", n_samples=6, seed=6, lo=-1.5, width=0.0)
def test_stacked_bundle_is_bit_identical_to_groups_alone(
    bundle_cases, case, n_samples, seed, lo, width
):
    """One lockstep bundle gives exactly what integrating each policy group
    alone gives, for any group sizes (some empty or single) and launch times."""
    m, j, g0 = bundle_cases[case]
    kwargs = dict(n_samples=n_samples, seed=seed, t_start_range=(lo, min(lo + width, 0.0)),
                  step=0.05)
    stacked = verify_cone_containment(m, j, g0, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(causality, "_integrate_bundle", _one_group_at_a_time)
        alone = verify_cone_containment(m, j, g0, **kwargs)
    assert stacked.passed == alone.passed
    assert stacked.worst_margin == alone.worst_margin
    assert stacked.detail == alone.detail
    assert (stacked.witness is None) == (alone.witness is None)
    if stacked.witness is not None:
        np.testing.assert_array_equal(stacked.witness.times, alone.witness.times)
        np.testing.assert_array_equal(stacked.witness.points, alone.witness.points)
        assert stacked.witness.max_speed_ratio == alone.witness.max_speed_ratio
        assert stacked.witness.policy == alone.witness.policy


class _RecordingPolicy(ConstantDirection):
    def __init__(self, u):
        super().__init__(u)
        self.calls = []

    def directions(self, t, x, g):
        self.calls.append("directions")
        return super().directions(t, x, g)

    def after_step(self, t, x):
        self.calls.append("after_step")


def test_zero_span_bundle_checks_launch_points_only(circle, monkeypatch):
    """A group launched at t_end takes no step: one checked evaluation at the
    launch points per integration, no policy call, zero margin."""
    m = flrw_exp(circle)
    evals = []
    eval_ = MetricField.eval

    def recording_eval(self, t, x, check=True):
        evals.append((np.array(t, dtype=float), check))
        return eval_(self, t, x, check)

    monkeypatch.setattr(MetricField, "eval", recording_eval)
    policy = _RecordingPolicy(np.array([1.0]))
    curve = integrate_causal_curve(m, (0.0, np.array([0.5])), policy, 0.0, 1e-3)
    assert policy.calls == []
    assert [check for _, check in evals] == [True]
    np.testing.assert_array_equal(curve.times, [0.0])
    np.testing.assert_array_equal(curve.points, [[0.5]])
    assert curve.max_speed_ratio == 0.0

    evals.clear()
    report = verify_cone_containment(
        m, ScalarField.constant(1.0), _identity_ref(circle),
        n_samples=10, seed=1, t_start_range=(0.0, 0.0),
    )
    assert report.passed and report.worst_margin == 0.0
    assert all(check and np.all(t == 0.0) for t, check in evals)
    # one per policy group at each of the two levels the ladder decides on
    assert len(evals) == 8

    negative = MetricField(circle, lambda t, x: (-np.ones_like(t), m.fn(t, x)[1]))
    with pytest.raises(DataError, match="non-positive lapse"):
        verify_cone_containment(
            negative, ScalarField.constant(1.0), _identity_ref(circle),
            n_samples=4, seed=0, t_start_range=(0.0, 0.0),
        )


# -- the speed certificate, computed on request ----------------------------


def _inline_bundle(m, groups, t_end, step, record_every=1):
    """The bundle integrator with its speed certificate inline, as it was
    before the certificate was deferred: after every step, one evaluation at
    each running curve's step midpoint, folded into a running maximum from 0.
    It steps on the integrator's grid (``_step_times``) and holds each
    step's directions through its stages, as the integrator does.
    Returns ([(times, points, ratios) per group], truncated)."""
    lo, hi = m.window
    t_stop = float(np.clip(t_end, lo, hi))
    paths = [None] * len(groups)
    live = []
    for index, (t0, x0, policy) in enumerate(groups):
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if t_stop - t0 == 0.0:
            paths[index] = (np.array([t0]), x0[None, :, :], np.zeros(x0.shape[0]))
        else:
            grid = causality._step_times(t0, t_stop, step)
            live.append([index, grid, x0, policy, [t0], [x0]])
    if not live:
        return paths, t_stop != t_end
    live.sort(key=lambda run: -run[1].size)
    bounds = np.cumsum([0] + [run[2].shape[0] for run in live])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    x = np.concatenate([run[2] for run in live])
    max_ratio = np.zeros(x.shape[0])
    for run in live:
        run[3].after_step(float(run[1][0]), run[2])

    def rate(u, lam, g):
        guu = causality._quadratic_form(u, g)
        sigma = np.sqrt(np.where(guu > 0, lam / np.where(guu > 0, guu, 1.0), 0.0))
        return sigma[:, None] * u

    i = 0
    while live:
        t = np.concatenate([np.full(sl.stop - sl.start, run[1][i]) for run, sl in zip(live, slices)])
        t_next = np.concatenate([np.full(sl.stop - sl.start, run[1][i + 1])
                                 for run, sl in zip(live, slices)])
        dt = t_next - t
        half = dt / 2
        lam, g = m.eval(t, x, check=False)
        u = np.concatenate([
            np.asarray(run[3].directions(float(run[1][i]), x[sl], g[sl]), dtype=float)
            for run, sl in zip(live, slices)
        ])
        k1 = rate(u, lam, g)
        k2 = rate(u, *m.eval(t + half, x + half[:, None] * k1, check=False))
        k3 = rate(u, *m.eval(t + half, x + half[:, None] * k2, check=False))
        k4 = rate(u, *m.eval(t_next, x + dt[:, None] * k3, check=False))
        v = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x_prev = x
        x = x + dt[:, None] * v
        i += 1
        for run, sl in zip(live, slices):
            run[3].after_step(float(run[1][i]), x[sl])
        lam, g = m.eval(t + half, (x_prev + x) / 2, check=False)
        max_ratio = np.maximum(max_ratio, causality._quadratic_form(v, g) / lam)
        for run, sl in zip(live, slices):
            if i % record_every == 0 or i == run[1].size - 1:
                run[4].append(run[1][i])
                run[5].append(x[sl])
        while live and live[-1][1].size == i + 1:
            run, sl = live.pop(), slices.pop()
            paths[run[0]] = (np.asarray(run[4]), np.stack(run[5]), max_ratio[sl])
        if live:
            n = slices[-1].stop
            x, max_ratio = x[:n], max_ratio[:n]
    return paths, t_stop != t_end


@pytest.fixture(scope="module")
def ratio_metrics():
    """Metrics of every kind the bundle meets, in 1-d and 2-d: config DSL
    metrics, stretched metrics (one through the half-join layers, whose
    majorant has a constant-in-t plateau) and grid metrics."""
    circle = SpatialDomain(1, (2 * np.pi,), (16,))
    torus = SpatialDomain(2, (2 * np.pi, 4.0), (8, 8))
    dsl_1d = build_metric(
        MetricSpec("custom", {"g11": "exp(2*t)*(1 + 0.3*sin(x1))"}, lapse="1 + 0.2*cos(x1 - t)"),
        circle,
    )
    dsl_2d = build_metric(
        MetricSpec("custom", {"g11": "exp(t)*(2 + sin(x1))", "g12": "0.2*cos(x2)*t",
                              "g22": "1 + t^2"}, lapse="1 + 0.2*sin(x1)*cos(x2)"),
        torus,
    )

    def aniso(t, x):
        c = 0.1 * np.cos(x[:, 1])
        return np.stack([np.exp(2 * t), c, c, 1.0 + t * t], axis=-1).reshape(-1, 2, 2)

    grid_2d = grid_sample_metric(
        MetricField(torus, lambda t, x: (1.0 + 0.2 * np.sin(x[:, 0]), aniso(t, x))),
        np.linspace(-1.5, 0.5, 6),
    )
    return {
        "dsl-1d": dsl_1d,
        "dsl-2d": dsl_2d,
        "stretched-1d": make_globally_hyperbolic(flrw_exp(circle), seed=0, verify=False).metric,
        "half-join-2d": half_join(dsl_2d, verify=False)[0],
        "grid-1d": grid_sample_metric(dsl_1d, np.linspace(-1.5, 0.5, 6)),
        "grid-2d": grid_2d,
    }


def _ratio_groups(domain, launch, seed=5, n=3):
    """Four policy groups of n curves each, launched at the times ``launch``."""
    rng = np.random.default_rng(seed)
    d = domain.dimension
    ref = SpdField.constant(domain, np.diag([1.0, 2.0][:d]))
    L = np.asarray(domain.circumferences)
    makers = [
        lambda u: ConstantDirection(u),
        lambda u: PiecewiseRandomDirection(seed=seed + 1),
        lambda u: EigenDirection(ref),
        lambda u: HoldAtMaxDirection(u, domain, ref),
    ]
    groups = []
    for make, t0 in zip(makers, launch):
        raw = rng.standard_normal((n, d))
        x0 = rng.uniform(0.0, 1.0, (n, d)) * L
        policy = make(raw / np.linalg.norm(raw, axis=-1, keepdims=True))
        policy.prepare(n, t0, 0.0, domain, rng)
        groups.append((t0, x0, policy))
    return groups


@pytest.mark.parametrize("case", ["dsl-1d", "dsl-2d", "stretched-1d", "half-join-2d",
                                  "grid-1d", "grid-2d"])
@pytest.mark.parametrize("launch", [(-1.0,) * 4, (-1.0, -0.35, 0.0, -0.7)],
                         ids=["one-launch", "mixed-launch"])
def test_deferred_speed_ratio_equals_the_inline_one(ratio_metrics, case, launch):
    """Every curve's speed certificate, computed on request from the stored
    steps, equals the inline per-step one bit for bit; the mixed launches
    include a group that drops out early and a zero-span group."""
    m = ratio_metrics[case]
    inline, trunc_inline = _inline_bundle(m, _ratio_groups(m.domain, launch), 0.0, 0.05)
    paths, truncated = _integrate_bundle(m, _ratio_groups(m.domain, launch), 0.0, 0.05)
    assert truncated == trunc_inline
    positive = 0
    for (times, points, ratios), path in zip(inline, paths):
        np.testing.assert_array_equal(path.times, times)
        np.testing.assert_array_equal(path.points, points)
        deferred = [path.speed_ratio(i) for i in range(points.shape[1])]
        assert [r.hex() for r in deferred] == [float(r).hex() for r in ratios]
        positive += sum(r > 0.0 for r in deferred)
    assert positive >= 9  # every curve that moved


@pytest.mark.parametrize("case", ["dsl-1d", "stretched-1d", "grid-2d"])
def test_single_curve_ratio_equals_the_inline_one(ratio_metrics, case):
    """integrate_causal_curve keeps every tenth step, but its certificate
    covers every step, as the inline one did."""
    m = ratio_metrics[case]
    d = m.domain.dimension
    start = (-1.23, np.full(d, 0.4))
    direction = np.array([1.0, 0.5][:d])
    curve = integrate_causal_curve(m, start, direction, 0.0, 0.01)
    policy = ConstantDirection(direction)
    policy.prepare(1, start[0], 0.0, m.domain, None)
    [(times, points, ratios)], _ = _inline_bundle(
        m, [(start[0], start[1].reshape(1, -1), policy)], 0.0, 0.01, record_every=10
    )
    # the launch, every tenth of 125 steps (five dwell segments of 25), the last
    assert times.size == 14
    np.testing.assert_array_equal(curve.times, times)
    np.testing.assert_array_equal(curve.points, points[:, 0, :])
    assert curve.max_speed_ratio.hex() == float(ratios[0]).hex()
    # null up to the O(step^2) midpoint bias at this coarse step
    assert 1.0 - 1e-3 < curve.max_speed_ratio < 1.0 + 1e-3


def test_containment_evaluates_four_times_per_step(bundle_cases, monkeypatch):
    """A passing containment check evaluates the metric once per RK4 stage of
    each ladder level it integrates and nothing more; a failing one adds one
    evaluation, for its witness's speed certificate.  At step 0.05 the ladder
    integrates DWELL/2 and DWELL/4: 2 + 4 steps per dwell segment of the
    earliest group."""
    calls = []
    eval_ = MetricField.eval

    def counting_eval(self, t, x, check=True):
        calls.append(np.array(t, dtype=float))
        return eval_(self, t, x, check)

    monkeypatch.setattr(MetricField, "eval", counting_eval)
    for case, passes in (("closed-form", True), ("grid", False)):
        m, j, g0 = bundle_cases[case]
        for t_range in ((-1.0, -1.0), (-1.2, -0.3)):
            calls.clear()
            report = verify_cone_containment(m, j, g0, n_samples=10, seed=4,
                                             t_start_range=t_range, step=0.05)
            assert report.passed is passes
            assert report.step == causality.DWELL / 4
            # the first stage covers every group at its launch time
            n_segments = int(np.ceil(-calls[0].min() / causality.DWELL))
            assert len(calls) == 4 * n_segments * (2 + 4) + (0 if passes else 1)
            if t_range[0] == t_range[1]:
                assert n_segments == 4
            if not passes:
                assert report.witness.max_speed_ratio > 0.0


@pytest.mark.parametrize("step, levels", [
    (0.1, range(1, 3)), (0.05, range(1, 3)), (0.02, range(1, 4)), (0.005, range(2, 6)),
    (0.004, range(2, 6)), (0.002, range(3, 7)), (0.001, range(4, 8)),
])
def test_ladder_levels(step, levels):
    """Decisions start at the first k >= 2 with DWELL/2^k <= 8 step; the finest
    level is the last with DWELL/2^k >= step, but at least DWELL/4."""
    assert causality._ladder(step) == levels


class _HookRecorder(PiecewiseRandomDirection):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def directions(self, t, x, g):
        self.calls.append(("directions", t))
        return super().directions(t, x, g)

    def after_step(self, t, x):
        self.calls.append(("after_step", t))


def test_directions_are_asked_once_per_step_at_its_start(circle):
    """At every ladder level the policy is asked for directions once per
    step, at the step's start; every dwell edge t0 + k DWELL is a grid time,
    and each level's grid contains the one before."""
    m = flrw_exp(circle, rate=0.3)
    t0 = -1.9
    edges = {t0 + causality.DWELL * k for k in range(8)}
    previous = set()
    for k in range(6):
        policy = _HookRecorder(seed=3)
        policy.prepare(2, t0, 0.0, circle, None)
        causality._integrate_bundle(m, [(t0, np.array([[0.5], [2.0]]), policy)], 0.0,
                                    causality.DWELL / 2 ** k)
        kinds = [kind for kind, _ in policy.calls]
        n_steps = 8 * 2 ** k  # seven whole dwell segments and a shorter last one
        assert kinds == ["after_step"] + ["directions", "after_step"] * n_steps
        grid = [t for kind, t in policy.calls if kind == "after_step"]
        asked = [t for kind, t in policy.calls if kind == "directions"]
        assert asked == grid[:-1]
        assert grid[0] == t0 and grid[-1] == 0.0
        assert edges <= set(grid) and previous <= set(grid)
        # each edge switches to the next direction of the table
        for e, seg in zip(sorted(edges), range(8)):
            np.testing.assert_array_equal(policy.directions(e, None, None), policy.table[:, seg])
        previous = set(grid)


@pytest.fixture(scope="module")
def anisotropic_stretch():
    """The anisotropic-torus demo's stretched metric, its reference and the
    demo's containment groups (64 curves from t = -2)."""
    import importlib.resources
    import json

    from causal_surgery import parse_config

    text = (importlib.resources.files("causal_surgery.demos")
            / "theorem1_anisotropic_torus.json").read_text()
    cfg = parse_config(json.loads(text))
    g = build_metric(cfg.metric_g, cfg.domain)
    j, g0 = ScalarField.constant(1.0), g.spatial_slice(0.0)
    stretched = make_globally_hyperbolic(g, j=j, g0=g0, seed=cfg.verification.seed,
                                         verify=False).metric
    ref = causality.reference_field(cfg.domain, j, g0)
    groups = causality._containment_groups(cfg.domain, ref, 64, cfg.verification.seed,
                                           (-2.0, -2.0))
    return stretched, ref, groups


def test_every_group_margin_converges_at_third_order(anisotropic_stretch):
    """Along the ladder (steps DWELL/2 .. DWELL/64), each policy group's worst
    margin changes by at most 1/8 of its previous change, or by less than
    1e-10, where the rounding of some thousand steps sits."""
    m, ref, groups = anisotropic_stretch
    sizes = np.cumsum([x0.shape[0] for _, x0, _ in groups])[:-1]
    worst = np.array([
        [part.min() for part in np.split(
            causality._ladder_level(m, ref, groups, causality.DWELL / 2 ** k)[0], sizes)]
        for k in range(1, 7)
    ])  # (levels, groups)
    change = np.abs(np.diff(worst, axis=0))
    assert worst.shape[1] == 4
    assert np.all(change[0] > 1e-6)  # the coarse levels do differ
    ok = (change[1:] <= change[:-1] / 8) | (change[1:] < 1e-10)
    assert ok.all(), change


# -- global hyperbolicity certificate --------------------------------------


def test_gh_certificate_finite_bounds(flrw_circle):
    result = make_globally_hyperbolic(flrw_circle, seed=0, verify=False)
    ref = _identity_ref(flrw_circle.domain)
    cert = verify_global_hyperbolicity(result.metric, ref, t_window=(-3, 3))
    assert cert.passed
    assert len(cert.slabs) == 6
    # stretched cones are sub-unit with respect to g_0
    assert all(b <= 1.0 + 1e-6 for _, _, b in cert.slabs)


def test_gh_certificate_reports_slab_speeds(circle, ultra_circle):
    cert = verify_global_hyperbolicity(
        ultra_circle, _identity_ref(circle), t_window=(0, 2), ref_id="euclid"
    )
    assert cert.ref_id == "euclid"
    for _, _, bound in cert.slabs:
        assert bound == pytest.approx(0.5)


@pytest.mark.parametrize(
    "window", [(-3.0, 2.6), (-3.0, 3.4), (-2.5, 3.0), (0.1, 3.1), (0.0, 0.3)]
)
def test_gh_slabs_tile_exactly_the_window(circle, ultra_circle, window):
    """A window that is not a whole number of slabs is covered to its end,
    and no sample time falls outside it; one shorter than half a slab is
    one slab, not none."""
    seen = []

    def fn(t, x):
        seen.append(np.array(t))
        return ultra_circle.fn(t, x)

    m = MetricField(circle, fn, window=window)
    cert = verify_global_hyperbolicity(m, _identity_ref(circle), t_window=window)
    assert cert.passed
    assert cert.slabs[0][0] == window[0] and cert.slabs[-1][1] == window[1]
    assert all(s[1] == nxt[0] for s, nxt in zip(cert.slabs, cert.slabs[1:]))
    ts = np.concatenate(seen)
    assert ts.min() == window[0] and ts.max() == window[1]


# -- causal diamonds -------------------------------------------------------


def _interp_metric(torus):
    u0 = ultrastatic_metric(torus, SpdField.constant(torus, np.eye(2)))
    u1 = ultrastatic_metric(torus, SpdField.constant(torus, np.diag([2.0, 2.0])))
    return interpolate_ultrastatic(u0, u1)


def test_diamond_extent_bounded_and_symmetric(torus):
    art = _interp_metric(torus)
    k0 = art.metric.spatial_slice(-1.0)
    k1 = art.metric.spatial_slice(2.0)
    rep = causal_diamond_extent(
        art.metric, (-0.5, np.zeros(2)), (0.5, np.zeros(2)), k0=k0, k1=k1
    )
    assert rep.bounded
    assert rep.comparison == "(1-theta(2/3))*k0"
    assert rep.max_radius > 0
    # zero-extent diamond
    rep0 = causal_diamond_extent(art.metric, (0.0, np.zeros(2)), (0.0, np.zeros(2)))
    assert rep0.max_radius == 0.0


def test_diamond_uses_future_comparison(torus):
    art = _interp_metric(torus)
    k1 = art.metric.spatial_slice(2.0)
    rep = causal_diamond_extent(
        art.metric, (0.5, np.zeros(2)), (1.5, np.zeros(2)), k1=k1
    )
    assert rep.comparison == "theta(1/3)*k1"
    assert rep.bounded


def test_diamond_rejects_reversed_order(torus):
    art = _interp_metric(torus)
    with pytest.raises(OrderError):
        causal_diamond_extent(art.metric, (1.0, np.zeros(2)), (0.0, np.zeros(2)))


# -- ultrastatic and isometry checks ---------------------------------------


def test_check_ultrastatic(circle, ultra_circle, flrw_circle):
    assert check_ultrastatic_report(ultra_circle, (-5.0, 5.0), tol=1e-12).passed
    report = check_ultrastatic_report(flrw_circle, (-1.0, 1.0), tol=1e-6)
    assert not report.passed
    assert "spatial form varies in time" in report.detail


def test_check_isometry_window(flrw_circle):
    shifted = time_shift(flrw_circle, 1.5)
    assert check_isometry_report(shifted, flrw_circle, (2.0, 3.0), shift=-1.5, tol=1e-12).passed
    report = check_isometry_report(shifted, flrw_circle, (2.0, 3.0), shift=0.0, tol=1e-6)
    assert not report.passed
    assert "max relative deviation" in report.detail
