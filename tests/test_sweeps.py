"""Lattice sweeps: ``fields.sample_metric`` equals per-slice evaluation bit for
bit, every certificate sweep makes one metric evaluation per time value, the
sweeps that report a failure name the earliest failing slice, and a sweep
reduced block by block (``fields.sweep_blocks``) gives the same bits and the
same failure at every block size."""
from __future__ import annotations

import re

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
from causal_surgery import fields, surgery
from causal_surgery.causality import (
    check_isometry_report,
    check_ultrastatic_report,
    verify_convex_bound,
)
from causal_surgery.errors import ConstraintError, DataError, DomainError
from causal_surgery.fields import max_metric_deviation, sample_metric
from causal_surgery.profiles import smooth_unit_step
from conftest import flrw_exp, grid_sample_metric

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


def _record_evals(monkeypatch):
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


@pytest.fixture
def eval_log(monkeypatch):
    return _record_evals(monkeypatch)


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
    maj = surgery._MajorantField(lower, CIRCLE)
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
        "majorant_slab": (
            lambda: maj._slab(1),
            [(flrw, list(surgery.MAJORANT_NODE_SPACING
                          * (1 + np.linspace(0.0, 1.0, surgery.MAJORANT_SUBSAMPLES))))],
        ),
    }


@pytest.mark.parametrize("name", [
    "max_metric_deviation", "verify_global_hyperbolicity", "causal_diamond_extent",
    "check_ultrastatic_report", "check_isometry_report", "verify_convex_bound",
    "cone_inequality_report", "export_fields", "majorant_slab",
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
        smooth_majorant(ScalarField(fn=lower_fn), CIRCLE, one_after=0.0)
    assert str(err.value) == (
        f"majorant {np.float64(1.0)!r} below lower bound {np.float64(2.0)!r} at "
        f"t={ts[40]}, x={PTS[9].tolist()}; plateau constraints are inconsistent "
        f"with the lower bound"
    )


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


@pytest.mark.parametrize("domain", [CIRCLE, TORUS], ids=["1d", "2d"])
def test_nan_reference_speed_fails_the_gh_certificate(domain):
    # in 2-d only the off-diagonal entry is NaN, which the pencil kernel reads
    # only through its reduced off-diagonal; a RuntimeWarning fails the test
    d = domain.dimension
    m = MetricField(domain, lambda t, x: (np.ones_like(t),
                                          np.broadcast_to(np.eye(d), (t.size, d, d))))

    def forms(x):
        g = np.broadcast_to(np.eye(d), (x.shape[0], d, d)).copy()
        g[x[:, 0] == 0.0, -1, 0] = g[x[:, 0] == 0.0, 0, -1] = np.nan
        return g

    cert = verify_global_hyperbolicity(m, SpdField(domain, forms), (-1.0, 1.0))
    assert not cert.passed
    assert cert.detail == "unbounded reference speed on slab [0.0, 1.0]"
    assert all(np.isnan(bound) for _, _, bound in cert.slabs)


@pytest.mark.parametrize("part", ["lapse", "spatial"])
def test_nan_sample_fails_the_ultrastatic_check(part):
    def fn(t, x):
        nan = np.where(t > 0.5, np.nan, 1.0)
        lam = nan if part == "lapse" else np.ones_like(t)
        return lam, (nan if part == "spatial" else np.ones_like(t))[:, None, None]

    report = check_ultrastatic_report(MetricField(CIRCLE, fn), (-1.0, 1.0), tol=1e-12)
    assert not report.passed
    t = np.linspace(-1.0, 1.0, 9)[7]  # the first sample past 0.5
    assert report.detail == {
        "lapse": f"lapse {np.float64(np.nan)!r} differs from 1 at t={t}, x={PTS[0].tolist()}",
        "spatial": f"spatial form varies in time by nan at t={t}",
    }[part]


@pytest.mark.parametrize("domain", [CIRCLE, TORUS], ids=["1d", "2d"])
def test_nan_spatial_form_fails_the_convex_bound(domain):
    # in 2-d only the off-diagonal entry is NaN, which LAPACK's eigvalsh
    # would read as a zero
    d = domain.dimension

    def fn(t, x):
        g = np.broadcast_to(3.0 * np.eye(d), (t.size, d, d)).copy()
        g[t > 0.5, -1, 0] = np.nan
        return np.ones_like(t), g

    unit = SpdField.constant(domain, np.eye(d))
    report = verify_convex_bound(MetricField(domain, fn), unit, unit)
    assert not report.passed
    t = np.linspace(-0.5, 2.0 / 3.0, 25)[21]  # the first sample past 0.5
    x = domain.grid_points()[0].tolist()
    assert report.detail == (
        f"k_theta - (1-theta(2/3))*k0 has eigenvalue nan at t={t}, x={x}"
    )


# -- block by block ------------------------------------------------------------

# lattice points per sweep block on CIRCLE (16 points): 1 slice, 3 slices, and
# the whole of any sweep here
BLOCKS = {1: 16, 3: 48, None: 2 ** 40}


def _set_blocks(monkeypatch, slices):
    monkeypatch.setattr(fields, "SWEEP_BLOCK_POINTS", BLOCKS[slices])


def _unit_with(lapse=(), spatial=()):
    """Unit metric on CIRCLE with the samples listed as (t, grid index, value)
    set to that value: the lapse at ``lapse``, g_11 at ``spatial``."""

    def fn(t, x):
        lam = np.ones_like(t)
        g = np.ones((t.size, 1, 1))
        for where, out in ((lapse, lam), (spatial, g[:, 0, 0])):
            for ts, i, value in where:
                out[(t == ts) & (x[:, 0] == PTS[i, 0])] = value
        return lam, g

    return MetricField(CIRCLE, fn)


def _quiet(fn, *args):
    """fn(*args) with numpy's invalid-value warning (inf * 0) silenced."""
    with np.errstate(invalid="ignore"):
        return fn(*args)


def _majorant(lower):
    """Every slab maximum a majorant of lower builds, and its values on the grid."""
    f = smooth_majorant(lower, CIRCLE, (-1.0, 1.0), one_after=0.5)
    ts = np.linspace(-1.0, 1.5, 11)
    values = [f.fn(np.full(len(PTS), t), PTS).tolist() for t in ts]
    return sorted((k, v.tolist()) for k, v in f.fn._slab_max.items()), values


def _converted_sweeps():
    """name -> a run of one sweep reduced block by block, with fresh objects
    (the majorant caches its slabs), returning what the sweep reports."""
    flrw = flrw_exp(CIRCLE)
    shifted = flrw_exp(CIRCLE, rate=0.5)
    unit = SpdField.constant(CIRCLE, np.eye(1))
    one = ScalarField.constant(1.0)
    convex, k0, k1 = _convex_metric()
    ts = np.linspace(-1.0, 1.0, 9)
    half = np.linspace(-0.5, 2.0 / 3.0, 25)
    late = np.linspace(1.0 / 3.0, 1.5, 25)
    # reference 0 at x = 0, and an infinite lapse there at t = 1: a NaN speed
    hole = SpdField(CIRCLE, lambda x: np.where(x[:, :, None] == 0.0, 0.0, 1.0))
    nan_speed = _unit_with(lapse=[(1.0, 0, np.inf)])
    return {
        "gh": lambda: verify_global_hyperbolicity(flrw, unit, (-3.0, 2.6)),
        "gh-nan": lambda: _quiet(verify_global_hyperbolicity, nan_speed, hole, (-1.0, 1.0)),
        "diamond": lambda: causal_diamond_extent(flrw, (-0.5, [0.0]), (0.5, [0.0]), budget=17),
        "cone_inequality": lambda: surgery.cone_inequality_report(
            make_globally_hyperbolic(flrw, verify=False).metric, one, unit, (-3.0, 3.0)),
        "cone_inequality-fail": lambda: surgery.cone_inequality_report(
            flrw, one, unit, (-1.0, 1.0)),
        # a worse number early, a NaN later
        "cone_inequality-nan": lambda: surgery.cone_inequality_report(
            _unit_with(spatial=[(ts[1], 2, 0.5), (ts[6], 3, np.nan)]), one, unit,
            (-1.0, 1.0), n_t=9),
        # equal worst samples in two slices: the earlier is named
        "cone_inequality-tie": lambda: surgery.cone_inequality_report(
            _unit_with(spatial=[(ts[2], 2, 0.5), (ts[6], 3, 0.5)]), one, unit,
            (-1.0, 1.0), n_t=9),
        "majorant": lambda: _majorant(cone_bound_factor(flrw, one, unit)),
        "ultrastatic": lambda: check_ultrastatic_report(
            _unit_with(), (-1.0, 1.0), tol=1e-12),
        "ultrastatic-fail": lambda: check_ultrastatic_report(flrw, (-1.0, 1.0), tol=1e-12),
        "convex_bound": lambda: verify_convex_bound(convex, k0, k1),
        "convex_bound-fail": lambda: verify_convex_bound(
            _unit_with(spatial=[(half[20], 5, 0.0)]), unit, unit),
        # in the t >= 1/3 half, whose bound is theta(1/3) k1, not (1-theta(2/3)) k0
        "convex_bound-fail-late": lambda: verify_convex_bound(
            _unit_with(spatial=[(late[5], 5, 0.0)]), k0, unit),
        "max_metric_deviation": lambda: max_metric_deviation(flrw, shifted, ts, shift=0.5),
        "max_metric_deviation-nan": lambda: max_metric_deviation(
            _unit_with(lapse=[(ts[1], 2, 9.0), (ts[6], 3, np.nan)]), _unit_with(), ts),
        "max_metric_deviation-tie": lambda: max_metric_deviation(
            _unit_with(lapse=[(ts[2], 2, 3.0), (ts[6], 3, 3.0)]), _unit_with(), ts),
    }


@pytest.mark.parametrize("slices", [1, 3])
@pytest.mark.parametrize("name", list(_converted_sweeps()))
def test_block_sweeps_match_the_whole_sweep(monkeypatch, name, slices):
    _set_blocks(monkeypatch, None)
    whole = repr(_converted_sweeps()[name]())
    _set_blocks(monkeypatch, slices)
    assert repr(_converted_sweeps()[name]()) == whole


def test_block_sweeps_report_their_failures():
    # the cases above that must fail, failing in the whole sweep
    sweeps = _converted_sweeps()
    assert not sweeps["gh-nan"]().passed
    assert np.isnan(sweeps["cone_inequality-nan"]().min_eigenvalue)
    assert np.isnan(sweeps["max_metric_deviation-nan"]()[0])
    ts = np.linspace(-1.0, 1.0, 9)
    assert sweeps["max_metric_deviation-tie"]()[1][0] == ts[2]
    assert sweeps["cone_inequality-tie"]().detail.endswith(f"t={ts[2]}, x={PTS[2].tolist()}")
    late = np.linspace(1.0 / 3.0, 1.5, 25)
    assert sweeps["convex_bound-fail-late"]().detail == (
        f"k_theta - theta(1/3)*k1 has eigenvalue {-smooth_unit_step(1.0 / 3.0):.3e} "
        f"at t={late[5]}, x={PTS[5].tolist()}"
    )
    # the cone inequality's scale is the largest |g| of the sweep, here at its start
    shrinking = flrw_exp(CIRCLE, rate=-1.0)
    report = surgery.cone_inequality_report(
        shrinking, ScalarField.constant(1.0), SpdField.constant(CIRCLE, np.eye(1)), (-1.0, 1.0))
    assert report.scale == sample_metric(shrinking, [-1.0])[1].max()
    for name in ("cone_inequality-fail", "cone_inequality-tie", "ultrastatic-fail",
                 "convex_bound-fail", "convex_bound-fail-late"):
        assert not sweeps[name]().passed


@pytest.mark.parametrize("slices", [1, 3, None])
def test_earliest_failure_is_named_when_a_later_block_is_worse(monkeypatch, slices):
    _set_blocks(monkeypatch, slices)
    ts = np.linspace(-1.0, 1.0, 9)
    m = _unit_with(lapse=[(ts[2], 4, 1.1), (ts[6], 9, 7.0)])
    assert check_ultrastatic_report(m, (-1.0, 1.0), tol=1e-12).detail == (
        f"lapse {np.float64(1.1)!r} differs from 1 at t={ts[2]}, x={PTS[4].tolist()}"
    )
    m = _unit_with(spatial=[(ts[3], 5, 1.1), (ts[7], 1, 9.0)])
    assert check_ultrastatic_report(m, (-1.0, 1.0), tol=1e-12).detail == (
        f"spatial form varies in time by {0.1:.3e} at t={ts[3]}"
    )
    unit = SpdField.constant(CIRCLE, np.eye(1))
    c = 1.0 - smooth_unit_step(2.0 / 3.0)
    half = np.linspace(-0.5, 2.0 / 3.0, 25)
    m = _unit_with(spatial=[(half[4], 3, 0.5 * c), (half[20], 8, 0.0)])
    assert verify_convex_bound(m, unit, unit).detail == (
        f"k_theta - (1-theta(2/3))*k0 has eigenvalue {-0.5 * c:.3e} at t={half[4]}, "
        f"x={PTS[3].tolist()}"
    )
    # the majorant's recheck on linspace(-0.5, 4.0, 73), as above
    recheck = np.linspace(-0.5, 4.0, 73)
    spikes = {(recheck[40], 9): 1.5, (recheck[50], 2): 9.0}

    def lower_fn(t, x):
        out = np.full(t.shape, 0.5)
        for (tt, i), v in spikes.items():
            out[(t == tt) & (x[:, 0] == PTS[i, 0])] = v
        return out

    with pytest.raises(ConstraintError, match=re.escape(
            f"below lower bound {np.float64(1.5)!r} at t={recheck[40]}, ")):
        smooth_majorant(ScalarField(fn=lower_fn), CIRCLE, one_after=0.0)
    # the majorant's slab samples: a negative lower bound, then a NaN
    slab = surgery.MAJORANT_NODE_SPACING * np.linspace(0.0, 1.0, surgery.MAJORANT_SUBSAMPLES)
    bad = ScalarField(fn=lambda t, x: np.where(t == slab[5], -1.0, np.where(
        t == slab[20], np.nan, 1.0)))
    with pytest.raises(DomainError, match=re.escape(
            f"lower bound {np.float64(-1.0)!r} not finite and positive at t={slab[5]},")):
        surgery._MajorantField(bad, CIRCLE)._slab(0)


@pytest.mark.parametrize("slices", [1, 3, None])
def test_nan_in_a_later_block_fails_gh_and_the_cone_inequality(monkeypatch, slices):
    _set_blocks(monkeypatch, slices)
    unit = SpdField.constant(CIRCLE, np.eye(1))
    # GH samples linspace(-1, 0, 9) and linspace(0, 1, 9): t = 1 is the last
    with pytest.raises(DataError, match="lapse nan at t=1.0"):
        verify_global_hyperbolicity(_unit_with(lapse=[(1.0, 3, np.nan)]), unit, (-1.0, 1.0))
    cert = _converted_sweeps()["gh-nan"]()
    assert not cert.passed
    assert cert.detail == "unbounded reference speed on slab [0.0, 1.0]"
    ts = np.linspace(-1.0, 1.0, 9)
    report = _converted_sweeps()["cone_inequality-nan"]()
    assert not report.passed
    assert report.detail == (
        f"cone inequality violated: min eigenvalue nan at t={ts[6]}, x={PTS[3].tolist()}"
    )


@pytest.mark.parametrize("slices", [1, 3, None])
def test_sweep_tests_hold_at_every_block_size(monkeypatch, tmp_path, slices):
    """The tests above, unedited, with sweep blocks of 1 slice, 3 slices and
    the whole sweep."""
    _set_blocks(monkeypatch, slices)
    test_ultrastatic_check_names_the_earliest_lapse_failure()
    test_ultrastatic_check_names_the_earliest_spatial_failure()
    for half in (0, 1):
        test_convex_bound_names_the_earliest_failure(half)
    test_majorant_recheck_names_the_earliest_failure()
    test_nan_lapse_is_rejected_by_the_gh_certificate()
    for domain in (CIRCLE, TORUS):
        test_nan_reference_speed_fails_the_gh_certificate(domain)
    for part in ("lapse", "spatial"):
        test_nan_sample_fails_the_ultrastatic_check(part)
    test_nan_spatial_form_fails_the_convex_bound(CIRCLE)
    log = _record_evals(monkeypatch)
    for name in _sweeps(tmp_path):
        log.clear()
        test_each_sweep_evaluates_once_per_time_value(log, tmp_path, name)
