"""Lattice sweeps: ``fields.sample_metric`` equals per-slice evaluation bit for
bit, every certificate sweep makes one metric evaluation per time value, and
the sweeps that report a failure name the earliest failing slice."""
from __future__ import annotations

import numpy as np
import pytest

from causal_surgery import (
    MetricField,
    ScalarField,
    SpatialDomain,
    SpdField,
    causal_diamond_extent,
    cone_bound_factor,
    export_fields,
    make_globally_hyperbolic,
    smooth_majorant,
    verify_global_hyperbolicity,
)
from causal_surgery import surgery
from causal_surgery.causality import (
    check_isometry_report,
    check_ultrastatic_report,
    verify_convex_bound,
)
from causal_surgery.errors import ConstraintError, DataError
from causal_surgery.fields import (
    IDENTICALLY_ONE,
    PlateauConstraint,
    grid_sample_metric,
    max_metric_deviation,
    sample_metric,
)
from causal_surgery.profiles import smooth_unit_step
from conftest import flrw_exp

CIRCLE = SpatialDomain(1, (2 * np.pi,), (16,))
TORUS = SpatialDomain(2, (2 * np.pi, 4.0), (8, 8))
PTS = CIRCLE.grid_points()


def _aniso(domain):
    """A 2-d metric whose lapse and every spatial component vary in t and x."""

    def fn(t, x):
        c = 0.2 * np.sin(x[:, 0] + t) * np.cos(x[:, 1])
        g = np.stack([np.exp(t) * (2.0 + np.cos(x[:, 1])), c, c,
                      1.5 + 0.5 * np.sin(x[:, 0]) * np.tanh(t)], axis=-1)
        return 1.0 + 0.2 * np.sin(x[:, 0]) * np.cos(t), g.reshape(-1, 2, 2)

    return MetricField(domain, fn)


def _spiked(g_value, lapse=(), spatial=()):
    """Unit metric on CIRCLE, except at the listed (t, grid index) samples:
    lapse 1.5 at ``lapse`` and spatial form ``g_value`` at ``spatial``."""

    def fn(t, x):
        lam = np.ones_like(t)
        g = np.ones((t.size, 1, 1))
        for where, out, value in ((lapse, lam, 1.5), (spatial, g[:, 0, 0], g_value)):
            for ts, i in where:
                out[(t == ts) & (x[:, 0] == PTS[i, 0])] = value
        return lam, g

    return MetricField(CIRCLE, fn)


# -- the helper against per-slice evaluation --------------------------------


@pytest.fixture(scope="module")
def sweep_fields():
    stretched = make_globally_hyperbolic(flrw_exp(CIRCLE), verify=False)
    return {
        "stretched-1d": (stretched.metric, stretched.factor),
        "grid-2d": (grid_sample_metric(_aniso(TORUS), np.linspace(-2.0, 2.0, 9)), None),
    }


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", ["stretched-1d", "grid-2d"])
def test_sample_metric_equals_per_slice_eval(sweep_fields, case, check):
    m, factor = sweep_fields[case]
    d = m.domain.dimension
    ts = np.array([-1.3, 0.0, 0.25, 0.25, 1.7])
    custom = np.random.default_rng(3).uniform(-5.0, 5.0, (11, d))
    for pts in (None, custom):
        at = m.domain.grid_points() if pts is None else pts
        lam, g = sample_metric(m, ts, pts, check=check)
        assert lam.shape == (ts.size, at.shape[0])
        assert g.shape == (ts.size, at.shape[0], d, d)
        for k, t in enumerate(ts):
            lam_k, g_k = m.eval(np.full(at.shape[0], t), at, check=check)
            np.testing.assert_array_equal(lam[k], lam_k)
            np.testing.assert_array_equal(g[k], g_k)
        if factor is not None:
            vals = sample_metric(factor, ts, at)
            assert vals.shape == (ts.size, at.shape[0])
            for k, t in enumerate(ts):
                np.testing.assert_array_equal(vals[k], factor.fn(np.full(at.shape[0], t), at))


# -- one metric evaluation per time value -----------------------------------


@pytest.fixture
def eval_log(monkeypatch):
    """Every MetricField.eval call as (metric, the one time value of its batch)."""
    log = []
    original = MetricField.eval

    def recording(self, t, x, check=True):
        tb = np.atleast_1d(np.asarray(t, dtype=float))
        assert np.unique(tb).size == 1, "a lattice sweep evaluates one time value per call"
        log.append((self, float(tb[0])))
        return original(self, t, x, check)

    monkeypatch.setattr(MetricField, "eval", recording)
    return log


def _times(log, m):
    return [t for mm, t in log if mm is m]


def _convex_metric():
    k0 = SpdField.constant(CIRCLE, 2.0 * np.eye(1))
    k1 = SpdField.constant(CIRCLE, 3.0 * np.eye(1))

    def fn(t, x):
        th = smooth_unit_step(t)[:, None, None]
        return np.ones_like(t), th * k1.fn(x) + (1.0 - th) * k0.fn(x)

    return MetricField(CIRCLE, fn), k0, k1


def _sweeps(tmp_path):
    """name -> (run the sweep, [(metric, the time values it must evaluate)])."""
    flrw = flrw_exp(CIRCLE)
    shifted = flrw_exp(CIRCLE, rate=0.5)
    ultra = MetricField(CIRCLE, lambda t, x: (np.ones_like(t), np.ones((t.size, 1, 1))))
    unit = SpdField.constant(CIRCLE, np.eye(1))
    convex, k0, k1 = _convex_metric()
    lower = cone_bound_factor(flrw, ScalarField.constant(1.0), unit)
    maj = surgery._MajorantField(lower, CIRCLE, ())
    ts = np.linspace(-1.0, 1.0, 5)
    return {
        "max_metric_deviation": (
            lambda: max_metric_deviation(flrw, shifted, ts, shift=0.5),
            [(flrw, list(ts)), (shifted, list(ts + 0.5))],
        ),
        "verify_global_hyperbolicity": (
            lambda: verify_global_hyperbolicity(flrw, unit, (-1.0, 1.0), n_t_per_slab=4),
            [(flrw, list(np.linspace(-1.0, 0.0, 4)) + list(np.linspace(0.0, 1.0, 4)))],
        ),
        "causal_diamond_extent": (
            lambda: causal_diamond_extent(flrw, (-0.5, [0.0]), (0.5, [0.0]), budget=5),
            [(flrw, list(np.linspace(-0.5, 0.5, 5)))],
        ),
        "check_ultrastatic_report": (
            lambda: check_ultrastatic_report(ultra, (-1.0, 1.0), tol=1e-12, n_t=5),
            [(ultra, list(ts))],
        ),
        "check_isometry_report": (
            lambda: check_isometry_report(flrw, shifted, (-1.0, 1.0), 0.5, tol=1e-9, n_t=5),
            [(flrw, list(ts)), (shifted, list(ts + 0.5))],
        ),
        "verify_convex_bound": (
            lambda: verify_convex_bound(convex, k0, k1, n_t=4),
            [(convex, list(np.linspace(-0.5, 2.0 / 3.0, 4)) + list(np.linspace(1.0 / 3.0, 1.5, 4)))],
        ),
        "cone_inequality_report": (
            lambda: surgery.cone_inequality_report(
                flrw, ScalarField.constant(1.0), unit, (-1.0, 1.0), n_t=5),
            [(flrw, list(ts))],
        ),
        "export_fields": (
            lambda: export_fields(flrw, str(tmp_path / "m.csv"), t_grid=ts),
            [(flrw, list(ts))],
        ),
        "constant_in_past": (
            lambda: surgery._constant_in_past(ultra),
            [(ultra, [-2.0, -1.0, -0.25])],
        ),
        "constant_in_past_varying": (
            lambda: surgery._constant_in_past(flrw),
            [(flrw, [-2.0, -1.0])],
        ),
        "majorant_slab": (
            lambda: maj._slab(1),
            [(flrw, list(maj.h * (1 + np.linspace(0.0, 1.0, maj.n_sub))))],
        ),
    }


@pytest.mark.parametrize("name", [
    "max_metric_deviation", "verify_global_hyperbolicity", "causal_diamond_extent",
    "check_ultrastatic_report", "check_isometry_report", "verify_convex_bound",
    "cone_inequality_report", "export_fields", "constant_in_past",
    "constant_in_past_varying", "majorant_slab",
])
def test_each_sweep_evaluates_once_per_time_value(eval_log, tmp_path, name):
    run, expected = _sweeps(tmp_path)[name]
    run()
    assert len(eval_log) == sum(len(times) for _, times in expected)
    for m, times in expected:
        assert _times(eval_log, m) == times


# -- earliest failure --------------------------------------------------------


def test_ultrastatic_check_names_the_earliest_lapse_failure():
    ts = np.linspace(-1.0, 1.0, 9)
    m = _spiked(1.0, lapse=[(ts[6], 2), (ts[3], 9)])
    report = check_ultrastatic_report(m, (-1.0, 1.0), tol=1e-12)
    assert not report.passed
    assert report.detail == (
        f"lapse {np.float64(1.5)!r} differs from 1 at t={ts[3]}, x={PTS[9].tolist()}"
    )


def test_ultrastatic_check_names_the_earliest_spatial_failure():
    ts = np.linspace(-1.0, 1.0, 9)
    m = _spiked(1.5, lapse=[(ts[7], 0)], spatial=[(ts[5], 1), (ts[2], 11)])
    report = check_ultrastatic_report(m, (-1.0, 1.0), tol=1e-12)
    assert not report.passed
    assert report.detail == f"spatial form varies in time by {0.5:.3e} at t={ts[2]}"
    # within one slice the lapse is reported first
    m = _spiked(1.5, lapse=[(ts[2], 4)], spatial=[(ts[2], 11)])
    report = check_ultrastatic_report(m, (-1.0, 1.0), tol=1e-12)
    assert report.detail.startswith("lapse") and f"t={ts[2]}" in report.detail


@pytest.mark.parametrize("half", [0, 1])
def test_convex_bound_names_the_earliest_failure(half):
    ts = (np.linspace(-0.5, 2.0 / 3.0, 25), np.linspace(1.0 / 3.0, 1.5, 25))[half]
    # both spikes lie outside the other half's time range
    i_early, i_late = (3, 9) if half == 0 else (20, 23)
    m = _spiked(0.1, spatial=[(ts[i_late], 0), (ts[i_early], 12)])
    unit = SpdField.constant(CIRCLE, np.eye(1))
    report = verify_convex_bound(m, unit, unit)
    assert not report.passed
    c = 1.0 - smooth_unit_step(2.0 / 3.0) if half == 0 else smooth_unit_step(1.0 / 3.0)
    tag = "(1-theta(2/3))*k0" if half == 0 else "theta(1/3)*k1"
    assert report.detail == (
        f"k_theta - {tag} has eigenvalue {0.1 - c:.3e} at t={ts[i_early]}, "
        f"x={PTS[12].tolist()}"
    )


def test_majorant_recheck_names_the_earliest_failure():
    # f is exactly 1 on the pinned plateau t >= 0, which the recheck samples
    # on linspace(-0.5, 4.0, 73); the lower bound exceeds 1 at two samples
    ts = np.linspace(-0.5, 4.0, 73)
    spikes = [(ts[50], 2), (ts[40], 9)]

    def lower_fn(t, x):
        out = np.full(t.shape, 0.5)
        for tt, i in spikes:
            out[(t == tt) & (x[:, 0] == PTS[i, 0])] = 2.0
        return out

    with pytest.raises(ConstraintError) as err:
        smooth_majorant(ScalarField(fn=lower_fn),
                        [PlateauConstraint(0.0, np.inf, IDENTICALLY_ONE)], CIRCLE)
    assert str(err.value) == (
        f"majorant {np.float64(1.0)!r} below lower bound {np.float64(2.0)!r} at "
        f"t={ts[40]}, x={PTS[9].tolist()}; plateau constraints are inconsistent "
        f"with the lower bound"
    )


def test_constant_in_past_stops_at_the_first_differing_probe(eval_log):
    late = _spiked(1.5, spatial=[(-0.25, 3)])
    assert not surgery._constant_in_past(late)
    assert _times(eval_log, late) == [-2.0, -1.0, -0.25]
    early = _spiked(1.5, spatial=[(-1.0, 3), (-0.25, 5)])
    assert not surgery._constant_in_past(early)
    assert _times(eval_log, early) == [-2.0, -1.0]


# -- NaN samples --------------------------------------------------------------


def test_nan_lapse_is_rejected_by_the_gh_certificate():
    def fn(t, x):
        lam = np.ones_like(t)
        lam[(t == 0.5) & (x[:, 0] == 0.0)] = np.nan
        return lam, np.ones((t.size, 1, 1))

    m = MetricField(CIRCLE, fn)
    with pytest.raises(DataError, match="lapse nan at t=0.5"):
        m.eval(0.5, np.array([0.0]))
    with pytest.raises(DataError, match="lapse nan at t=0.5"):
        verify_global_hyperbolicity(m, SpdField.constant(CIRCLE, np.eye(1)), (-1.0, 1.0))


def test_nan_reference_speed_fails_the_gh_certificate():
    m = MetricField(CIRCLE, lambda t, x: (np.ones_like(t), np.ones((t.size, 1, 1))))
    ref = SpdField(CIRCLE, lambda x: np.where(x[:, :, None] == 0.0, np.nan, 1.0))
    cert = verify_global_hyperbolicity(m, ref, (-1.0, 1.0))
    assert not cert.passed
    assert cert.detail == "unbounded reference speed on slab [0.0, 1.0]"
    assert all(np.isnan(bound) for _, _, bound in cert.slabs)
