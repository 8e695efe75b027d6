"""Fused metric layers: each layer's (lapse, spatial) output equals the same
formula written out from primitives, bit for bit, and each layer evaluates
its input once per call."""
from __future__ import annotations

import numpy as np
import pytest

import causal_surgery.surgery as surgery
from causal_surgery import (
    EigenDirection,
    MetricField,
    MetricSpec,
    ScalarField,
    SpatialDomain,
    SpdField,
    build_metric,
    freeze_past,
    grid_metric,
    integrate_causal_curve,
    interpolate_ultrastatic,
    make_globally_hyperbolic,
    normalize_conformal,
    splice,
    stretch_metric,
    time_reverse,
    time_shift,
    ultrastatic_metric,
    warped_product,
)
from causal_surgery.expr import eval_expression, parse_expression
from causal_surgery.profiles import smooth_freeze_ramp, smooth_unit_step

TORUS = SpatialDomain(2, (2 * np.pi, 4.0), (8, 8))
CIRCLE = SpatialDomain(1, (2 * np.pi,), (16,))


def _base_fn(t, x):
    """A 2-d metric whose lapse and spatial form vary in t and x."""
    lam = 1.5 + 0.4 * np.sin(x[:, 0] + t)
    c = 0.2 * np.cos(x[:, 1] - t)
    g = np.stack([2.0 + np.sin(t * x[:, 0]), c, c, 1.0 + np.exp(0.3 * t)],
                 axis=-1).reshape(-1, 2, 2)
    return lam, g


def _factor(t, x):
    return 2.0 + np.cos(t) * np.sin(x[:, 1])


BASE = MetricField(TORUS, _base_fn)
FACTOR = ScalarField(fn=_factor)


def _points(seed, n=200):
    """Random (t, x) plus the plateau edges t = 0 and t = 1 and their
    neighbours, and both signs of zero."""
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, -0.0, 1.0, 1e-300, np.nextafter(1.0, 0.0),
                      np.nextafter(1.0, 2.0), -1e-300, 0.5])
    t = np.concatenate([rng.uniform(-2.5, 3.0, n), edges])
    x = rng.uniform(-7.0, 7.0, (t.size, 2))
    return t, x


def _assert_bits(m, t, x, lam, g):
    got_lam, got_g = m.eval(t, x, check=False)
    np.testing.assert_array_equal(got_lam, lam)
    np.testing.assert_array_equal(got_g, g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_conformal_equals_primitive_formula(seed):
    t, x = _points(seed)
    lam0, g0 = _base_fn(t, x)
    th = smooth_unit_step(t)
    f = (1.0 - th) / lam0 + th
    _assert_bits(normalize_conformal(BASE), t, x, f * lam0, f[:, None, None] * g0)


@pytest.mark.parametrize("seed", [0, 1])
def test_freeze_past_equals_primitive_formula(seed):
    t, x = _points(seed)
    lam0, g0 = _base_fn(smooth_freeze_ramp(t), x)
    _assert_bits(freeze_past(BASE), t, x, lam0, g0)


@pytest.mark.parametrize("seed", [0, 1])
def test_stretch_and_conformal_equal_primitive_formula(seed):
    t, x = _points(seed)
    lam0, g0 = _base_fn(t, x)
    f = _factor(t, x)
    _assert_bits(stretch_metric(BASE, FACTOR), t, x, lam0, f[:, None, None] * g0)


@pytest.mark.parametrize("seed", [0, 1])
def test_join_half_equals_primitive_formula(seed):
    """stretch(freeze(normalize(g))), the metric a half join builds."""
    t, x = _points(seed)
    s = smooth_freeze_ramp(t)
    lam0, g0 = _base_fn(s, x)
    th = smooth_unit_step(s)
    n = (1.0 - th) / lam0 + th
    f = _factor(t, x)
    half = stretch_metric(freeze_past(normalize_conformal(BASE)), FACTOR)
    _assert_bits(half, t, x, n * lam0, f[:, None, None] * (n[:, None, None] * g0))


def test_time_reverse_and_shift_equal_primitive_formula():
    t, x = _points(3)
    _assert_bits(time_reverse(BASE), t, x, *_base_fn(-t, x))
    _assert_bits(time_shift(BASE, 1.25), t, x, *_base_fn(t - 1.25, x))


def test_ultrastatic_and_warped_equal_primitive_formula():
    t, x = _points(4)
    h0 = SpdField(TORUS, lambda x: _base_fn(np.zeros(x.shape[0]), x)[1])
    _assert_bits(ultrastatic_metric(TORUS, h0), t, x, np.ones_like(t), h0.fn(x))
    a = np.exp(0.3 * t)
    warped = warped_product(TORUS, lambda t: np.exp(0.3 * t), h0,
                            lapse=lambda t, x: _base_fn(t, x)[0])
    _assert_bits(warped, t, x, _base_fn(t, x)[0], (a * a)[:, None, None] * h0.fn(x))


def test_interpolate_ultrastatic_equals_primitive_formula():
    t, x = _points(5)
    k0 = SpdField(TORUS, lambda x: _base_fn(np.zeros(x.shape[0]), x)[1])
    k1 = SpdField(TORUS, lambda x: _base_fn(np.full(x.shape[0], 2.0), x)[1])
    mid = interpolate_ultrastatic(ultrastatic_metric(TORUS, k0), ultrastatic_metric(TORUS, k1))
    th = smooth_unit_step(t)
    g = th[:, None, None] * k1.fn(x) + (1.0 - th)[:, None, None] * k0.fn(x)
    _assert_bits(mid.metric, t, x, np.ones_like(t), g)


def test_splice_equals_each_side_on_its_mask():
    """A batch straddling t_cut: each row equals its own side evaluated on
    that side's rows alone; one-sided batches equal that side."""

    def later_fn(t, x):
        lam, g = _base_fn(t, x)
        return lam, (1.0 + smooth_unit_step(t - 1.0))[:, None, None] * g

    later = MetricField(TORUS, later_fn)
    joined = splice(BASE, later, 0.5, tol=1e-12)
    t, x = _points(6)
    t = np.concatenate([t, [0.5, np.nextafter(0.5, 1.0)]])
    x = np.concatenate([x, x[:2]])
    left = t <= 0.5
    assert left.any() and (~left).any()
    lam = np.empty(t.shape)
    g = np.empty(t.shape + (2, 2))
    lam[left], g[left] = _base_fn(t[left], x[left])
    lam[~left], g[~left] = later_fn(t[~left], x[~left])
    _assert_bits(joined, t, x, lam, g)
    _assert_bits(joined, t[left], x[left], *_base_fn(t[left], x[left]))
    _assert_bits(joined, t[~left], x[~left], *later_fn(t[~left], x[~left]))


def test_build_metric_equals_expression_primitives():
    texts = {"lapse": "2 + sin(x1)*cos(x2) + t*t", "g11": "exp(t) + 1",
             "g12": "0.1*sin(x1 - t)", "g22": "2 + cos(x2)"}
    spec = MetricSpec("custom", {k: v for k, v in texts.items() if k != "lapse"},
                      lapse=texts["lapse"])
    m = build_metric(spec, TORUS)
    t, x = _points(7)
    b = {"t": t, "x1": x[:, 0], "x2": x[:, 1]}
    v = {k: np.broadcast_to(np.asarray(eval_expression(parse_expression(s), b), float),
                            t.shape) for k, s in texts.items()}
    g = np.stack([v["g11"], v["g12"], v["g12"], v["g22"]], axis=-1).reshape(-1, 2, 2)
    _assert_bits(m, t, x, v["lapse"], g)

    ultra = build_metric(MetricSpec("ultrastatic", {"g0": [[2.0, 0.5], [0.5, 1.0]]},
                                    lapse=texts["lapse"]), TORUS)
    g0 = np.broadcast_to(np.array([[2.0, 0.5], [0.5, 1.0]]), (t.size, 2, 2))
    _assert_bits(ultra, t, x, v["lapse"], g0)


# -- one evaluation per layer ------------------------------------------------


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_join_half_evaluates_base_and_freeze_ramp_once(monkeypatch):
    base_fn = _Counter(lambda t, x: (1.5 + 0.4 * np.sin(x[:, 0] + t),
                                     np.exp(t)[:, None, None] * np.ones((t.size, 1, 1))))
    base = MetricField(CIRCLE, base_fn)
    half = make_globally_hyperbolic(
        freeze_past(normalize_conformal(base)), already_gh_after=1.0,
        constant_before=0.0, verify=False
    ).metric
    rng = np.random.default_rng(0)
    t = np.concatenate([rng.uniform(-2.0, 2.5, 50), [0.0, 1.0]])
    x = rng.uniform(0.0, 2 * np.pi, (t.size, 1))
    half.eval(t, x)  # builds every majorant node these points need
    ramp = _Counter(smooth_freeze_ramp)
    monkeypatch.setattr(surgery, "smooth_freeze_ramp", ramp)
    base_fn.calls = 0
    half.eval(t, x)
    assert base_fn.calls == 1
    assert ramp.calls == 1


def test_grid_metric_eval_is_one_spline_call():
    rng = np.random.default_rng(1)
    t_grid = np.linspace(-1.0, 1.0, 5)
    lam = 1.0 + 0.3 * rng.random((5, 8, 8))
    a = rng.random((5, 8, 8, 2, 2))
    gm = grid_metric(TORUS, t_grid, lam, a @ np.swapaxes(a, -1, -2) + np.eye(2))
    spline = _Counter(gm.fn._points)
    gm.fn._points = spline
    gm.eval(np.zeros(4), rng.uniform(0.0, 4.0, (4, 2)))
    assert spline.calls == 1


def test_eigen_direction_on_a_circle_never_reads_its_reference():
    def refuse(x):
        raise AssertionError("reference evaluated")

    policy = EigenDirection(SpdField(CIRCLE, refuse))
    g = np.full((3, 1, 1), 2.0)
    np.testing.assert_array_equal(policy.directions(0.0, np.zeros((3, 1)), g),
                                  np.ones((3, 1)))
    m = MetricField(CIRCLE, lambda t, x: (np.ones_like(t), np.exp(t)[:, None, None]))
    curve = integrate_causal_curve(m, (-0.5, np.array([1.0])), policy, t_end=0.0, step=1e-2)
    assert curve.policy == "eigen" and curve.points[-1, 0] > 1.0
