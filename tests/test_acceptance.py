"""Acceptance suite: one test per shipped guarantee, each ending in a single
pass/fail line.  Tolerances are pinned here and should not be loosened."""
from __future__ import annotations

import importlib.resources
import json
import time

import numpy as np
import pytest
import scipy.linalg

from causal_surgery import (
    ScalarField,
    SpatialDomain,
    SpdField,
    asymptotic_join,
    causal_diamond_extent,
    cone_bound_factor,
    integrate_causal_curve,
    interpolate_ultrastatic,
    make_globally_hyperbolic,
    parse_config,
    run_build,
    spd_generalized_max_eigenvalue,
    ultrastatic_metric,
    verify_cone_containment,
)
from causal_surgery.causality import check_ultrastatic_report
from causal_surgery.cli import _DEMO_FILES
from causal_surgery.eigen import gen_max_eig_batch
from causal_surgery.profiles import smooth_unit_step
from conftest import flrw_exp


def _report(n, ok, text):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def flrw_256():
    domain = SpatialDomain(1, (2 * np.pi,), (256,))
    return flrw_exp(domain, rate=1.0)


@pytest.fixture(scope="module")
def theorem1_output(flrw_256):
    t0 = time.perf_counter()
    result = make_globally_hyperbolic(flrw_256, t_window=(-3.0, 3.0), seed=0, verify=False)
    return result, time.perf_counter() - t0


def test_criterion_1_theorem1_inequality(flrw_256, theorem1_output):
    """Cone bound equals e^{-2t} and the stretched output dominates j*g_0."""
    result, build_seconds = theorem1_output
    t_start = time.perf_counter()
    domain = flrw_256.domain
    j = ScalarField.constant(1.0)
    g0 = flrw_256.spatial_slice(0.0)
    lower = cone_bound_factor(flrw_256, j, g0)

    pts = domain.grid_points()
    t_grid = np.linspace(-3.0, 3.0, 61)
    worst_rel = 0.0
    for t in t_grid:
        tb = np.full(pts.shape[0], t)
        vals = lower.fn(tb, pts)
        worst_rel = max(worst_rel, float(np.max(np.abs(vals / np.exp(-2 * t) - 1.0))))
    assert worst_rel <= 1e-6

    # independent direction-sampling oracle at a few samples
    rng = np.random.default_rng(5)
    for t in (-2.5, 0.0, 1.75):
        lam, g = flrw_256.eval(t, pts[17])
        v = rng.standard_normal((10_000, 1))
        sampled = float(np.max(
            np.einsum("ni,ij,nj->n", v, np.eye(1), v)
            / np.einsum("ni,ij,nj->n", v, g, v)
        ))
        assert lower(t, pts[17]) == pytest.approx(max(1.0, lam) * sampled, rel=1e-9)

    # pointwise inequality on the pipeline output
    min_eig = np.inf
    refv = np.asarray(g0.fn(pts), dtype=float)
    for t in t_grid:
        tb = np.full(pts.shape[0], t)
        lam, g = result.metric.eval(tb, pts)
        diff = g - np.maximum(1.0, lam)[:, None, None] * refv
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(diff))))
    assert min_eig >= -1e-9

    elapsed = build_seconds + (time.perf_counter() - t_start)
    assert elapsed < 5.0, f"theorem-1 check took {elapsed:.1f}s"
    _report(
        1, True,
        f"cone bound matches e^(-2t) within {worst_rel:.2e}, "
        f"min inequality eigenvalue {min_eig:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cone_containment(theorem1_output):
    """10^3 extremal curves stay inside the reference ball; a violating
    metric is rejected with a witness."""
    result, _ = theorem1_output
    t0 = time.perf_counter()
    report = verify_cone_containment(
        result.metric, result.j, result.g0, n_samples=1000, seed=0,
        t_start_range=(-2.0, -2.0), tol=1e-4, step=2e-3,
    )
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert report.n_curves == 1000
    assert report.worst_margin >= -1e-4

    domain = result.metric.domain
    violating = flrw_exp(domain, rate=1.0)  # unstretched: cones exceed g_0
    bad = verify_cone_containment(
        violating, ScalarField.constant(1.0), SpdField.constant(domain, np.eye(1)),
        n_samples=64, seed=0, t_start_range=(-2.0, -2.0), tol=1e-4, step=2e-3,
    )
    assert not bad.passed and bad.witness is not None
    assert elapsed < 20.0, f"containment sweep took {elapsed:.1f}s"
    _report(
        2, True,
        f"1000 curves arrived within 2+1e-4 (worst margin {report.worst_margin:.2e}), "
        f"violating metric rejected with a {bad.witness.policy} witness, {elapsed:.1f}s",
    )


def test_criterion_3_join_certificates():
    domain = SpatialDomain(1, (2 * np.pi,), (128,))
    g = flrw_exp(domain, rate=1.0)
    h = ultrastatic_metric(domain, SpdField.constant(domain, 4.0 * np.eye(1)))
    art = asymptotic_join(g, h, seed=0)

    pts = domain.grid_points()
    worst = 0.0
    for t in np.linspace(art.future_window[0], art.future_window[0] + 2.0, 9):
        tb = np.full(pts.shape[0], t)
        lam_a, g_a = art.metric.eval(tb, pts)
        lam_b, g_b = g.eval(tb + art.future_shift, pts)
        scale = max(float(np.max(np.abs(g_b))), 1.0)
        worst = max(
            worst,
            float(np.max(np.abs(g_a - g_b))) / scale,
            float(np.max(np.abs(lam_a - lam_b))),
        )
    assert worst <= 1e-10
    assert check_ultrastatic_report(art.metric, (-6.0, art.past_window[1]), tol=1e-10).passed

    # closed-form representation: plateau samples agree bit-exactly
    t_plateau = np.array([-4.0, -2.0, -1.0])
    _, g_out = art.metric.eval(t_plateau, np.zeros((3, 1)))
    _, g_in = h.eval(t_plateau, np.zeros((3, 1)))
    bit_exact = np.array_equal(g_out, g_in)
    t_fut = np.array([4.5, 5.0, 6.0])
    _, f_out = art.metric.eval(t_fut, np.zeros((3, 1)))
    _, f_in = g.eval(t_fut - 3.0, np.zeros((3, 1)))
    bit_exact = bit_exact and np.array_equal(f_out, f_in)
    assert bit_exact
    _report(
        3, True,
        f"future window equal to g within {worst:.2e}, past ultrastatic at 1e-10, "
        "plateau samples bit-exact",
    )


def test_criterion_4_interpolation_bound():
    domain = SpatialDomain(2, (2 * np.pi, 2 * np.pi), (64, 64))
    u0 = ultrastatic_metric(domain, SpdField.constant(domain, np.eye(2)))
    u1 = ultrastatic_metric(domain, SpdField.constant(domain, np.diag([2.0, 2.0])))
    art = interpolate_ultrastatic(u0, u1)
    pts = domain.grid_points()
    k0 = np.eye(2)
    k1 = np.diag([2.0, 2.0])
    c0 = 1.0 - smooth_unit_step(2.0 / 3.0)
    c1 = smooth_unit_step(1.0 / 3.0)
    min_eig = np.inf
    for t in np.linspace(-1.0, 2.0 / 3.0, 26):
        _, g = art.metric.eval(np.full(pts.shape[0], t), pts, check=False)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g - c0 * k0))))
    for t in np.linspace(1.0 / 3.0, 2.0, 26):
        _, g = art.metric.eval(np.full(pts.shape[0], t), pts, check=False)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g - c1 * k1))))
    assert min_eig >= -1e-12

    k0f = art.metric.spatial_slice(-1.0)
    k1f = art.metric.spatial_slice(2.0)
    rng = np.random.default_rng(11)
    all_bounded = True
    for _ in range(100):
        tp = float(rng.uniform(-1.0, 1.0))
        tq = float(rng.uniform(tp, 2.0))
        xp = rng.uniform(0, 2 * np.pi, 2)
        xq = rng.uniform(0, 2 * np.pi, 2)
        rep = causal_diamond_extent(art.metric, (tp, xp), (tq, xq), budget=9, k0=k0f, k1=k1f)
        all_bounded = all_bounded and rep.bounded
    assert all_bounded
    _report(
        4, True,
        f"comparison bound min eigenvalue {min_eig:.2e} >= -1e-12, "
        "100 causal diamonds bounded",
    )


def test_criterion_5_eigenvalue_kernel():
    rng = np.random.default_rng(2024)
    dirs = rng.standard_normal((10_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        A = a @ a.T + 2.0 * np.eye(2)
        b = rng.standard_normal((2, 2))
        B = b @ b.T + 0.1 * np.eye(2)
        mu = spd_generalized_max_eigenvalue(A, B)
        oracle = float(np.max(
            np.einsum("ni,ij,nj->n", dirs, B, dirs)
            / np.einsum("ni,ij,nj->n", dirs, A, dirs)
        ))
        worst = max(worst, abs(mu - oracle) / abs(oracle))
        # both kernels must agree with an exact symmetric-definite solver too
        exact = scipy.linalg.eigh(B, A, eigvals_only=True)[-1]
        assert mu == pytest.approx(exact, rel=1e-12)
        assert gen_max_eig_batch(A[None], B[None])[0] == pytest.approx(exact, rel=1e-12)
    assert worst <= 1e-3
    _report(5, True, f"100 SPD pairs, worst oracle deviation {worst:.2e} <= 1e-3")


def test_criterion_6_integrator_order():
    domain = SpatialDomain(1, (2 * np.pi,), (64,))
    rate = 10.0
    m = flrw_exp(domain, rate=rate)
    exact = (1.0 - np.exp(-rate)) / rate

    def endpoint_error(step):
        c = integrate_causal_curve(
            m, (0.0, np.array([0.0])), np.array([1.0]), t_end=1.0, step=step
        )
        return abs(float(c.points[-1, 0]) - exact)

    e_coarse = endpoint_error(1e-3)
    e_fine = endpoint_error(5e-4)
    factor = e_coarse / e_fine
    assert factor >= 12.0
    _report(
        6, True,
        f"halving the step shrank the error by {factor:.1f}x (>= 12 required)",
    )


def test_criterion_7_dsl():
    from test_expr import _random_expr  # shared corpus generator
    from causal_surgery import eval_expression, parse_expression, serialize_expression
    from causal_surgery.errors import ExprEvalError

    n_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        tree = _random_expr(rng, 4)
        assert parse_expression(serialize_expression(tree)) == tree
        bindings = {"t": 0.3, "x1": -1.2, "x2": 2.5}
        try:
            expected = eval_expression(tree, bindings)
        except ExprEvalError:
            continue
        again = eval_expression(
            parse_expression(serialize_expression(tree)), bindings
        )
        assert again == expected or (np.isnan(expected) and np.isnan(again))
        n_ok += 1
    assert n_ok >= 50  # most random cases must be evaluable

    val = eval_expression(parse_expression("exp(2*t)"), {"t": 1.0})
    assert abs(val - np.e**2) <= 1e-12
    _report(
        7, True,
        f"100-case round-trip identity, {n_ok} evaluation equalities, "
        "exp(2*t)|_(t=1) = e^2 within 1e-12",
    )


def test_criterion_8_demos_deterministic(tmp_path):
    configs = {}
    for name, fname in _DEMO_FILES.items():
        res = importlib.resources.files("causal_surgery.demos") / fname
        configs[name] = parse_config(json.loads(res.read_text()))

    t0 = time.perf_counter()
    reports = {}
    for name, cfg in configs.items():
        reports[name] = run_build(cfg, str(tmp_path / "a" / name), quiet=True)
    elapsed = time.perf_counter() - t0
    assert all(r.exit_code == 0 for r in reports.values())
    assert elapsed < 60.0, f"demo pass took {elapsed:.1f}s"

    for name, cfg in configs.items():
        run_build(cfg, str(tmp_path / "b" / name), quiet=True)
    for name in configs:
        for fname in ("metric.csv", "report.json"):
            pa = tmp_path / "a" / name / fname
            pb = tmp_path / "b" / name / fname
            assert pa.read_bytes() == pb.read_bytes(), f"{name}/{fname} not deterministic"
    _report(
        8, True,
        f"four demos exit 0 in {elapsed:.1f}s (< 60s), reruns byte-identical",
    )
