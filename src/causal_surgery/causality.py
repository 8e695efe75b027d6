"""Numerical certificates for causal structure.

Everything here checks, rather than constructs: cone containment by extremal
curve integration, global hyperbolicity via per-slab speed bounds against a
complete reference metric, causal diamond extent, ultrastaticity, and
identity-chart isometry windows.  All sampling is seeded and deterministic.

Direction policies steer the extremal curves.  A policy has a ``name`` and
three methods:

- ``prepare(n, t0, t1, domain, rng)`` once, before integration, for a group
  of n curves launched at t0 towards t1;
- ``directions(t, x, g) -> (n, d)`` at every RK4 stage, with the group's
  scalar time t, its curve positions x (n, d) and the spatial form
  g (n, d, d) of the metric at (t, x), which the integrator has already
  evaluated; the returned directions need not be normalized;
- ``after_step(t, x)`` at launch and after every completed step.

The integrator advances several policy groups in lockstep: one metric
evaluation per RK4 stage covers every group, and each policy only ever sees
its own rows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import SpatialDomain
from .eigen import gen_max_eig_batch, gen_max_eig_direction
from .errors import DomainError, OrderError
from .fields import (
    MetricField,
    ScalarField,
    SpdField,
    as_batch,
    max_metric_deviation,
    sample_metric,
)
from .profiles import smooth_unit_step

INF = float("inf")

# Allowed relative excess of g(kdot,kdot) over lambda in the per-step speed
# certificate; covers the O(step^2) midpoint-measurement bias at step 1e-3.
SPEED_CERT_SLACK = 1e-5


# ---------------------------------------------------------------------------
# reference-metric geometry on the torus
# ---------------------------------------------------------------------------


def reference_field(domain: SpatialDomain, j: ScalarField, g0: SpdField) -> SpdField:
    """The complete comparison metric j(x) * g0(x) as an SpdField."""

    def fn(x):
        jv = np.asarray(j.fn(np.zeros(x.shape[0]), x), dtype=float)
        jv = np.broadcast_to(jv, (x.shape[0],))
        return jv[:, None, None] * np.asarray(g0.fn(x), dtype=float)

    return SpdField(domain, fn)


def _quadratic_form(u, g):
    """g(u, u) over the trailing axes (u (..., d), g (..., d, d), broadcast),
    summed term by term in (i, j) order.

    np.einsum rounds a one-row batch differently from the same row inside a
    larger batch (d = 2); this sum does not, so stacking curves into one
    bundle leaves every curve's arithmetic unchanged.
    """
    d = u.shape[-1]
    out = 0.0
    for i in range(d):
        for j in range(d):
            out = out + (u[..., i] * g[..., i, j]) * u[..., j]
    return out


def ref_distance(domain: SpatialDomain, ref: SpdField, x0, x1, n_quad: int = 16):
    """Distance between x0 and x1 in the reference metric.

    Straight coordinate segments are geodesics for constant reference forms on
    the flat torus; for varying forms the segment length is an upper bound.
    The minimum is taken over nearest lattice images.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    n, d = x0.shape
    base = domain.min_image(x1 - x0)
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
    disp = base[None, :, :] + (shifts * np.asarray(domain.circumferences))[:, None, :]
    # midpoint quadrature of sqrt(ref(dx, dx)) along every image's segment,
    # all images in one reference evaluation
    s = (np.arange(n_quad) + 0.5) / n_quad
    seg = x0[None, None] + s[None, :, None, None] * disp[:, None]
    forms = np.asarray(ref.fn(seg.reshape(-1, d)), dtype=float).reshape(seg.shape + (d,))
    quad = _quadratic_form(disp[:, None], forms)
    # nodes summed in order, so a row's length does not depend on the batch
    length = np.cumsum(np.sqrt(np.maximum(quad, 0.0)), axis=1)[:, -1] / n_quad
    best = length.min(axis=0)
    return best if n > 1 else float(best[0])


def max_coordinate_speed(m: MetricField, ref: SpdField, t, x):
    """Maximal reference-metric speed of causal velocities at (t, x).

    Equals sqrt(lambda * mu) with mu the largest generalized eigenvalue of the
    pencil (ref, g_t): causal curves satisfy g_t(kdot, kdot) <= lambda, so
    their ref-speed is at most this value.
    """
    tb, xb, scalar = as_batch(t, x, m.domain.dimension)
    lam, g = m.eval(tb, xb, check=True)
    refv = np.asarray(ref.fn(xb), dtype=float)
    out = np.sqrt(lam * gen_max_eig_batch(g, refv))
    return float(out[0]) if scalar else out


def _grid_sup_speed(m: MetricField, ref: SpdField, ts) -> np.ndarray:
    """Sup over the spatial grid of the maximal coordinate speed at each time of
    ts, (nt,); NaN propagates, so an unresolved sample cannot look bounded."""
    pts = m.domain.grid_points()
    lam, g = sample_metric(m, ts, pts)
    refv = np.asarray(ref.fn(pts), dtype=float)
    return np.max(np.sqrt(lam * gen_max_eig_batch(g, refv)), axis=1)


# ---------------------------------------------------------------------------
# direction policies and extremal curve integration
# ---------------------------------------------------------------------------


class ConstantDirection:
    """Fixed coordinate direction (Euclidean unit) for all curves."""

    name = "constant"

    def __init__(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        self.u = u / np.linalg.norm(u, axis=-1, keepdims=True)

    def prepare(self, n, t0, t1, domain, rng):
        if self.u.shape[0] == 1:
            self.u = np.repeat(self.u, n, axis=0)

    def directions(self, t, x, g):
        return self.u

    def after_step(self, t, x):
        pass


class PiecewiseRandomDirection:
    """Seeded piecewise-constant random unit directions with fixed dwell time."""

    name = "piecewise_random"

    def __init__(self, seed: int, dwell: float = 0.25):
        self.seed = int(seed)
        self.dwell = float(dwell)

    def prepare(self, n, t0, t1, domain, rng):
        self.t0 = min(t0, t1)
        n_seg = int(np.ceil(abs(t1 - t0) / self.dwell)) + 1
        local = np.random.default_rng(self.seed)
        raw = local.standard_normal((n, n_seg, domain.dimension))
        self.table = raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    def directions(self, t, x, g):
        seg = min(
            int(np.floor((float(np.atleast_1d(t)[0]) - self.t0) / self.dwell)),
            self.table.shape[1] - 1,
        )
        return self.table[:, max(seg, 0), :]

    def after_step(self, t, x):
        pass


class EigenDirection:
    """Direction of maximal reference-speed at the current point."""

    name = "eigen"

    def __init__(self, ref: SpdField):
        self.ref = ref

    def prepare(self, n, t0, t1, domain, rng):
        pass

    def directions(self, t, x, g):
        if x.shape[1] == 1:
            # on a circle the only unit direction is +1, whatever the pencil
            return np.ones((x.shape[0], 1))
        refv = np.asarray(self.ref.fn(x), dtype=float)
        return gen_max_eig_direction(g, refv)

    def after_step(self, t, x):
        pass


class HoldAtMaxDirection:
    """Move along a fixed direction, then stop once the wrapped reference
    distance from the start stops growing (past the torus antipode).

    Greedy witness-finder: on a metric violating the cone bound it parks each
    curve at the farthest reachable point instead of wrapping back around.
    """

    name = "hold_at_max"

    def __init__(self, u, domain: SpatialDomain, ref: SpdField):
        self.u0 = np.atleast_2d(np.asarray(u, dtype=float))
        self.domain = domain
        self.ref = ref

    def prepare(self, n, t0, t1, domain, rng):
        if self.u0.shape[0] == 1:
            self.u0 = np.repeat(self.u0, n, axis=0)
        self.u0 = self.u0 / np.linalg.norm(self.u0, axis=-1, keepdims=True)
        self.frozen = np.zeros(n, dtype=bool)
        self.best = None
        self.start = None

    def directions(self, t, x, g):
        if self.start is None:
            self.start = x.copy()
        return np.where(self.frozen[:, None], 0.0, self.u0)

    def after_step(self, t, x):
        if self.start is None:
            self.start = x.copy()
            return
        dist = np.atleast_1d(ref_distance(self.domain, self.ref, self.start, x))
        if self.best is None:
            self.best = dist
            return
        self.frozen |= dist < self.best - 1e-12
        self.best = np.maximum(self.best, dist)


@dataclass(frozen=True)
class CausalCurve:
    """Graph-parametrized causal curve t -> (t, k(t)) with speed certificates."""

    times: np.ndarray  # (m,)
    points: np.ndarray  # (m, d)
    direction: str  # "future" or "past"
    max_speed_ratio: float  # max over steps of g(kdot,kdot) / lambda
    truncated: bool = False
    policy: str = "constant"

    @property
    def start(self):
        return float(self.times[0]), self.points[0]

    @property
    def end(self):
        return float(self.times[-1]), self.points[-1]


class _Run(NamedTuple):
    """One policy group inside a bundle, with its recorded trajectory."""

    index: int
    t0: float
    n_steps: int
    x0: np.ndarray
    policy: object
    times: list
    points: list


def _integrate_bundle(m, groups, t_end, step, record_every=1):
    """Classical RK4 on dk/dt = sigma(t,k) u(t,k) for policy groups in lockstep.

    ``groups`` is a sequence of ``(t0, x0, policy)``: curves x0 (n, d)
    launched at t0 and steered by ``policy``.  Each group takes
    round(|span| / step) equal steps from its own t0 to t_end (clipped to the
    validity window) and drops out once they are done.  Every RK4 stage and
    every speed-certificate midpoint is a single metric evaluation over the
    curves of all groups still running.  All arithmetic is per curve, so each
    curve is bit-identical to integrating its group alone.

    sigma = sqrt(lambda / g(u,u)) makes each velocity null, so the speed
    certificate g(kdot,kdot) <= lambda holds with equality up to integration
    error.  Fixed step; global error O(step^4).

    Returns ``([(times, points, max_speed_ratio) per group], truncated)``.
    """
    lo, hi = m.window
    t_stop = float(np.clip(t_end, lo, hi))
    truncated = t_stop != t_end
    paths = [None] * len(groups)
    live = []
    for index, (t0, x0, policy) in enumerate(groups):
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        span = t_stop - t0
        if span == 0.0:
            m.eval(np.full(x0.shape[0], t0), x0, check=True)
            paths[index] = (np.array([t0]), x0[None, :, :], np.zeros(x0.shape[0]))
        else:
            n_steps = max(1, int(round(abs(span) / step)))
            live.append(_Run(index, t0, n_steps, x0, policy, [t0], [x0]))
    if not live:
        return paths, truncated
    # longest groups first, so the curves still running are always a prefix
    live.sort(key=lambda run: -run.n_steps)
    sizes = [run.x0.shape[0] for run in live]
    bounds = np.cumsum([0] + sizes)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    t_launch = np.repeat([run.t0 for run in live], sizes)
    dt = np.repeat([(t_stop - run.t0) / run.n_steps for run in live], sizes)
    t = t_launch
    x = np.concatenate([run.x0 for run in live])
    max_ratio = np.zeros(x.shape[0])
    for run in live:
        run.policy.after_step(run.t0, run.x0)

    def rhs(ts, pts):
        lam, g = m.eval(ts, pts, check=False)
        u = np.concatenate([
            np.asarray(run.policy.directions(float(ts[sl.start]), pts[sl], g[sl]), dtype=float)
            for run, sl in zip(live, slices)
        ])
        guu = _quadratic_form(u, g)
        sigma = np.sqrt(np.where(guu > 0, lam / np.where(guu > 0, guu, 1.0), 0.0))
        return sigma[:, None] * u

    i = 0
    while live:
        half = dt / 2
        k1 = rhs(t, x)
        t_mid = t + half
        k2 = rhs(t_mid, x + half[:, None] * k1)
        k3 = rhs(t_mid, x + half[:, None] * k2)
        k4 = rhs(t + dt, x + dt[:, None] * k3)
        v = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x_prev = x
        x = x + dt[:, None] * v
        i += 1
        t = t_launch + i * dt
        for run, sl in zip(live, slices):
            run.policy.after_step(float(t[sl.start]), x[sl])
        # speed certificate for the step-average velocity, measured at the
        # step midpoint so the bias is O(step^2) rather than O(step)
        lam, g = m.eval(t - half, (x_prev + x) / 2, check=False)
        gvv = _quadratic_form(v, g)
        max_ratio = np.maximum(max_ratio, gvv / lam)
        for run, sl in zip(live, slices):
            if i % record_every == 0 or i == run.n_steps:
                run.times.append(float(t[sl.start]))
                run.points.append(x[sl])
        while live and live[-1].n_steps == i:
            run, sl = live.pop(), slices.pop()
            paths[run.index] = (np.asarray(run.times), np.stack(run.points), max_ratio[sl])
        if live:
            n = slices[-1].stop
            x, t_launch, dt, t = x[:n], t_launch[:n], dt[:n], t[:n]
            max_ratio = max_ratio[:n]
    return paths, truncated


def integrate_causal_curve(m, start, direction, t_end, step):
    """Integrate one extremal (null) causal curve from start to t = t_end.

    ``direction`` is either a fixed spatial direction vector or a direction
    policy object.  Leaving the validity window truncates the curve and sets
    its flag.
    """
    if step <= 0:
        raise DomainError("step must be positive")
    t0, x0 = float(start[0]), np.atleast_1d(np.asarray(start[1], dtype=float))
    policy = direction
    if not hasattr(policy, "directions"):
        policy = ConstantDirection(np.asarray(direction, dtype=float))
    policy.prepare(1, t0, t_end, m.domain, None)
    [(times, xs, ratios)], truncated = _integrate_bundle(
        m, [(t0, x0.reshape(1, -1), policy)], t_end, step, record_every=10
    )
    return CausalCurve(
        times=times,
        points=xs[:, 0, :],
        direction="future" if t_end >= t0 else "past",
        max_speed_ratio=float(ratios[0]),
        truncated=truncated,
        policy=policy.name,
    )


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConeContainmentReport:
    """Outcome of sampling extremal curves against the reachable-ball bound."""

    passed: bool
    worst_margin: float  # min over curves of |t_start| - arrival distance
    n_curves: int
    witness: CausalCurve | None = None
    detail: str = ""


def verify_cone_containment(
    m: MetricField,
    j: ScalarField,
    g0: SpdField,
    n_samples: int,
    seed: int,
    t_start_range: tuple[float, float] = (-2.0, -0.5),
    tol: float = 1e-4,
    step: float = 1e-3,
) -> ConeContainmentReport:
    """Launch seeded extremal causal curves from t < 0 and check that each
    arrives at t = 0 within j g_0 distance |t_start| + tol of its start.

    The curves form four direction-policy groups, each launched at its
    earliest sampled start and integrated together as one lockstep bundle."""
    rng = np.random.default_rng(seed)
    domain = m.domain
    d = domain.dimension
    ref = reference_field(domain, j, g0)
    lo, hi = t_start_range
    if lo > hi or hi > 0:
        raise DomainError("t_start_range must satisfy lo <= hi < 0 or hi == 0")

    raw = rng.standard_normal((n_samples, d))
    dirs = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    starts_x = rng.uniform(0.0, 1.0, (n_samples, d)) * np.asarray(domain.circumferences)
    starts_t = rng.uniform(lo, hi, n_samples) if lo < hi else np.full(n_samples, lo)

    policies = [
        lambda u: ConstantDirection(u),
        lambda u: PiecewiseRandomDirection(seed=seed + 1),
        lambda u: EigenDirection(ref),
        lambda u: HoldAtMaxDirection(u, domain, ref),
    ]
    groups = []
    for gi, make in enumerate(policies):
        idx = np.arange(gi, n_samples, len(policies))
        if idx.size == 0:
            continue
        # one launch time per policy group, so each group integrates on a
        # common time grid; the group's earliest sampled start is used
        t0 = float(np.min(starts_t[idx]))
        policy = make(dirs[idx])
        policy.prepare(idx.size, t0, 0.0, domain, rng)
        groups.append((t0, starts_x[idx], policy))
    paths, _ = _integrate_bundle(m, groups, 0.0, step)

    worst = INF
    witness = None
    for (t0, x0, policy), (times, xs, ratios) in zip(groups, paths):
        dist = np.atleast_1d(ref_distance(domain, ref, x0, xs[-1]))
        margin = abs(t0) - dist
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            if margin[i] < -tol:
                witness = CausalCurve(
                    times=times,
                    points=xs[:, i, :],
                    direction="future",
                    max_speed_ratio=float(ratios[i]),
                    policy=policy.name,
                )
    passed = worst >= -tol
    detail = "" if passed else (
        f"curve ({witness.policy}) from t={witness.times[0]:.4g}, "
        f"x={witness.points[0].tolist()} arrived at distance exceeding the "
        f"bound by {-worst:.4g}"
    )
    return ConeContainmentReport(passed, worst, n_samples, witness, detail)


@dataclass(frozen=True)
class GhCertificate:
    """Per-slab table of sup-over-space maximal coordinate speeds."""

    slabs: tuple  # ((t_lo, t_hi, sup_speed), ...)
    ref_id: str
    passed: bool
    detail: str = ""


def verify_global_hyperbolicity(
    m: MetricField,
    ref: SpdField,
    t_window: tuple[float, float] = (-3.0, 3.0),
    slab: float = 1.0,
    n_t_per_slab: int = 9,
    ref_id: str = "j*g0",
) -> GhCertificate:
    """Certify global hyperbolicity via finite per-slab speed bounds.

    With a complete reference metric, a finite sup of the reference speed on
    every unit time slab bounds the spatial excursion of every causal curve
    over any compact time interval, which is the sufficient criterion used
    throughout.
    """
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    edges = np.arange(t_lo, t_hi + slab / 2, slab)
    ts = np.linspace(edges[:-1], edges[1:], n_t_per_slab, axis=1)  # (slabs, n_t)
    bounds = np.max(_grid_sup_speed(m, ref, ts.ravel()).reshape(ts.shape), axis=1)
    rows = tuple(
        (float(a), float(b), float(bound))
        for a, b, bound in zip(edges[:-1], edges[1:], bounds)
    )
    unbounded = [(a, b) for a, b, bound in rows if not np.isfinite(bound)]
    detail = ""
    if unbounded:
        a, b = unbounded[-1]
        detail = f"unbounded reference speed on slab [{a}, {b}]"
    return GhCertificate(rows, ref_id, not unbounded, detail)


@dataclass(frozen=True)
class DiamondReport:
    """Sampled extent of the causal diamond D(p, q)."""

    p: tuple
    q: tuple
    max_radius: float
    per_slice: tuple  # ((t, radius), ...)
    bounded: bool
    comparison: str = "slice"


def causal_diamond_extent(
    m: MetricField,
    p,
    q,
    budget: int = 33,
    k0: SpdField | None = None,
    k1: SpdField | None = None,
) -> DiamondReport:
    """Bound the causal diamond by intersecting forward and backward
    reachable-radius estimates per time slice.

    When the endpoints fit one of the covering halves t < 2/3 or t > 1/3 and
    the corresponding frozen spatial form is supplied, the comparison metric
    (1 - theta(2/3)) k0 resp. theta(1/3) k1 is used and recorded.
    """
    t_p, x_p = float(p[0]), np.atleast_1d(np.asarray(p[1], dtype=float))
    t_q, x_q = float(q[0]), np.atleast_1d(np.asarray(q[1], dtype=float))
    if t_p > t_q:
        raise OrderError(f"p at t={t_p} does not causally precede q at t={t_q}")
    if t_p == t_q:
        return DiamondReport(
            (t_p, x_p.tolist()), (t_q, x_q.tolist()), 0.0, ((t_p, 0.0),), True
        )
    comparison = "slice"
    if t_q < 2.0 / 3.0 and k0 is not None:
        ref = k0.scaled(1.0 - smooth_unit_step(2.0 / 3.0))
        comparison = "(1-theta(2/3))*k0"
    elif t_p > 1.0 / 3.0 and k1 is not None:
        ref = k1.scaled(smooth_unit_step(1.0 / 3.0))
        comparison = "theta(1/3)*k1"
    else:
        ref = m.spatial_slice(t_p)
    ts = np.linspace(t_p, t_q, max(3, budget))
    sup = _grid_sup_speed(m, ref, ts)
    dt = ts[1] - ts[0]
    fwd = np.concatenate([[0.0], np.cumsum((sup[:-1] + sup[1:]) / 2 * dt)])
    bwd = fwd[-1] - fwd
    radius = np.minimum(fwd, bwd)
    bounded = bool(np.all(np.isfinite(radius)))
    return DiamondReport(
        (t_p, x_p.tolist()),
        (t_q, x_q.tolist()),
        float(np.max(radius)),
        tuple((float(t), float(r)) for t, r in zip(ts, radius)),
        bounded,
        comparison,
    )


def check_ultrastatic_report(
    m: MetricField, window: tuple[float, float], tol: float, n_t: int = 9
) -> CheckReport:
    """Unit lapse and time-independent spatial form across window samples."""
    lo = max(window[0], m.window[0])
    hi = min(window[1], m.window[1])
    if hi < lo:
        raise DomainError("check window outside metric validity window")
    pts = m.domain.grid_points()
    ts = np.linspace(lo, hi, n_t)
    lam, g = sample_metric(m, ts, pts, check=False)
    lapse_dev = np.abs(lam - 1.0)
    lapse_bad = np.max(lapse_dev, axis=1) > tol
    # each slice against the first, relative to the slice's own size
    drift = np.max(np.abs(g - g[0]).reshape(ts.size, -1), axis=1)
    scale = np.maximum(np.max(np.abs(g).reshape(ts.size, -1), axis=1), 1.0)
    bad = lapse_bad | (drift > tol * scale)
    if not np.any(bad):
        return CheckReport(True)
    k = int(np.argmax(bad))  # earliest failing slice; the lapse is checked first
    if lapse_bad[k]:
        i = int(np.argmax(lapse_dev[k]))
        return CheckReport(
            False, f"lapse {lam[k, i]!r} differs from 1 at t={ts[k]}, x={pts[i].tolist()}"
        )
    return CheckReport(False, f"spatial form varies in time by {drift[k]:.3e} at t={ts[k]}")


def check_isometry_report(
    a: MetricField,
    b: MetricField,
    window: tuple[float, float],
    shift: float,
    tol: float,
    n_t: int = 9,
) -> CheckReport:
    """Identity-chart comparison: a at (t, x) versus b at (t + shift, x)."""
    ts = np.linspace(window[0], window[1], n_t)
    dev, where = max_metric_deviation(a, b, ts, shift=shift)
    if not dev <= tol:
        return CheckReport(
            False,
            f"max relative deviation {dev:.3e} > tol {tol:.3e} at t={where[0]}, x={where[1]}",
        )
    return CheckReport(True)


def verify_convex_bound(
    metric: MetricField,
    k0: SpdField,
    k1: SpdField,
    tol: float = 1e-12,
    n_t: int = 25,
) -> CheckReport:
    """Comparison-metric bounds for the convex ultrastatic interpolation:
    k_theta(t) dominates (1-theta(2/3)) k0 for t <= 2/3 and theta(1/3) k1 for
    t >= 1/3, so each covering half has a complete uniform lower bound."""
    pts = metric.domain.grid_points()
    # the t <= 2/3 half against (1-theta(2/3)) k0, then the t >= 1/3 half
    # against theta(1/3) k1, as one sweep
    ts = np.concatenate([np.linspace(-0.5, 2.0 / 3.0, n_t), np.linspace(1.0 / 3.0, 1.5, n_t)])
    _, g = sample_metric(metric, ts, pts, check=False)
    g[:n_t] -= (1.0 - smooth_unit_step(2.0 / 3.0)) * np.asarray(k0.fn(pts), dtype=float)
    g[n_t:] -= smooth_unit_step(1.0 / 3.0) * np.asarray(k1.fn(pts), dtype=float)
    ev = np.linalg.eigvalsh(g)[..., 0]
    bad = np.min(ev, axis=1) < -tol
    if not np.any(bad):
        return CheckReport(True)
    k = int(np.argmax(bad))
    i = int(np.argmin(ev[k]))
    tag = "(1-theta(2/3))*k0" if k < n_t else "theta(1/3)*k1"
    return CheckReport(
        False, f"k_theta - {tag} has eigenvalue {ev[k, i]:.3e} at t={ts[k]}, x={pts[i].tolist()}"
    )
