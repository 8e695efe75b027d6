"""Numerical certificates for causal structure.

Everything here checks, rather than constructs: cone containment by extremal
curve integration, global hyperbolicity via per-slab speed bounds against a
complete reference metric, causal diamond extent, ultrastaticity, and
identity-chart isometry windows.  All sampling is seeded and deterministic.

Direction policies steer the extremal curves.  A policy has a ``name`` and
three methods:

- ``prepare(n, t0, t1, domain, rng)`` before each integration, for a group
  of n curves launched at t0 towards t1;
- ``directions(t, x, g) -> (n, d)`` once per RK4 step, at the step start,
  with the group's scalar time t, its curve positions x (n, d) and the
  spatial form g (n, d, d) of the metric at (t, x), which the integrator
  has already evaluated; the returned directions need not be normalized,
  and they are held through the step's four stages;
- ``after_step(t, x)`` at launch and after every completed step.

A group's steps run from its launch in segments of ``DWELL`` (the last one
may be shorter), so a policy that switches direction every ``DWELL`` from
launch switches only between steps.  The integrator advances several policy
groups in lockstep: one metric evaluation per RK4 stage covers every group,
and each policy only ever sees its own rows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .domain import SpatialDomain
from .eigen import gen_max_eig_batch, gen_max_eig_direction, sym_min_eig_batch
from .errors import DomainError, OrderError
from .fields import (
    MetricField,
    ScalarField,
    SpdField,
    as_shape,
    max_metric_deviation,
    sweep_blocks,
)
from .profiles import smooth_unit_step

# the piecewise random policy's dwell, and the coarsest step of the
# containment ladder; every step of a group lies inside one dwell segment
DWELL = 0.25


# ---------------------------------------------------------------------------
# reference-metric geometry on the torus
# ---------------------------------------------------------------------------


def reference_field(domain: SpatialDomain, j: ScalarField, g0: SpdField) -> SpdField:
    """The complete comparison metric j(x) * g0(x) as an SpdField: one
    constant matrix when j and g0 are constant."""
    if j.value is not None and g0.matrix is not None:
        return SpdField.constant(domain, j.value * g0.matrix)

    def fn(x):
        jv = as_shape(j.fn(np.zeros(x.shape[0]), x), (x.shape[0],))
        return jv[:, None, None] * g0.at(x)

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


@lru_cache(maxsize=None)
def _image_shifts(d: int) -> np.ndarray:
    """The 3^d lattice image offsets {-1, 0, 1}^d, (3^d, d), in product order."""
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
    shifts.setflags(write=False)
    return shifts


def ref_distance(domain: SpatialDomain, ref: SpdField, x0, x1, n_quad: int = 16):
    """Distance between x0 and x1 in the reference metric: the shortest
    straight segment to the 3^d nearest lattice images of x1.

    For a constant form the segments are geodesics of the flat torus, and the
    closed form min over images of sqrt(ref(disp, disp)) is exact.  For a
    varying form each segment's length, an upper bound, is integrated by the
    midpoint rule with n_quad nodes.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    n, d = x0.shape
    base = domain.min_image(x1 - x0)
    shifts = _image_shifts(d)
    disp = base[None, :, :] + (shifts * np.asarray(domain.circumferences))[:, None, :]
    if ref.matrix is not None:
        length = np.sqrt(np.maximum(_quadratic_form(disp, ref.matrix), 0.0))
    else:
        # midpoint quadrature of sqrt(ref(dx, dx)) along every image's
        # segment, all images in one reference evaluation
        s = (np.arange(n_quad) + 0.5) / n_quad
        seg = x0[None, None] + s[None, :, None, None] * disp[:, None]
        forms = np.asarray(ref.fn(seg.reshape(-1, d)), dtype=float).reshape(seg.shape + (d,))
        quad = _quadratic_form(disp[:, None], forms)
        # nodes summed in order, so a row's length does not depend on the batch
        length = np.cumsum(np.sqrt(np.maximum(quad, 0.0)), axis=1)[:, -1] / n_quad
    best = length.min(axis=0)
    return best if n > 1 else float(best[0])


def _grid_sup_speed(m: MetricField, ref: SpdField, ts) -> np.ndarray:
    """Sup over the spatial grid of the maximal coordinate speed at each time of
    ts, (nt,); NaN propagates, so an unresolved sample cannot look bounded."""
    pts = m.domain.grid_points()
    ref_pts = ref.at(pts)
    sup = np.empty(len(ts))
    for block, (lam, g) in sweep_blocks(m, ts, pts):
        sup[block] = np.max(np.sqrt(lam * gen_max_eig_batch(g, ref_pts)), axis=1)
    return sup


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


def _dwell_edges(t0: float, t1: float) -> np.ndarray:
    """The starts t0 + k * DWELL (k = 0, 1, ...) of the dwell segments from t0
    towards t1; the last segment ends at t1 and may be shorter.  The
    integrator's grid and the piecewise random policy both take their edges
    from here, so a switch time is a step start bit for bit."""
    n = max(1, int(np.ceil(abs(t1 - t0) / DWELL)))
    return t0 + np.copysign(DWELL, t1 - t0) * np.arange(n)


class PiecewiseRandomDirection:
    """Seeded random unit directions, piecewise constant on the dwell
    segments from launch (see ``_dwell_edges``)."""

    name = "piecewise_random"

    def __init__(self, seed: int):
        self.seed = int(seed)

    def prepare(self, n, t0, t1, domain, rng):
        self.sign = 1.0 if t1 >= t0 else -1.0
        self.keys = self.sign * _dwell_edges(t0, t1)  # ascending
        n_seg = int(np.ceil(abs(t1 - t0) / DWELL)) + 1
        local = np.random.default_rng(self.seed)
        raw = local.standard_normal((n, n_seg, domain.dimension))
        self.table = raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    def directions(self, t, x, g):
        seg = int(np.searchsorted(self.keys, self.sign * float(t), side="right")) - 1
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
        return gen_max_eig_direction(g, self.ref.at(x))

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
        u = np.atleast_2d(np.asarray(u, dtype=float))
        self.u0 = u / np.linalg.norm(u, axis=-1, keepdims=True)
        self.domain = domain
        self.ref = ref

    def prepare(self, n, t0, t1, domain, rng):
        if self.u0.shape[0] == 1:
            self.u0 = np.repeat(self.u0, n, axis=0)
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
    """Graph-parametrized causal curve t -> (t, k(t)) with its speed
    certificate.

    ``max_speed_ratio`` is the max over RK4 steps (and 0) of
    g(kdot, kdot) / lambda for the step-average velocity kdot, measured at
    the step midpoint.  It is computed when the curve is built for a
    caller: by ``integrate_causal_curve``, and for the witness of a failing
    ``verify_cone_containment``.
    """

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
    """One policy group inside a bundle, with its trajectory so far."""

    index: int
    times: np.ndarray  # the group's step grid, launch to stop
    x0: np.ndarray
    policy: object
    points: list
    velocities: list


class _Path:
    """One policy group's integrated curves.

    ``times`` (m,) and ``points`` (m, n, d) hold the launch and every
    ``record_every``-th step (and the last one).  Every step's time,
    position and step-average velocity are kept, so ``speed_ratio(i)`` can
    compute curve i's speed certificate on request.
    """

    def __init__(self, m, times, points, velocities, record_every=1):
        self._m = m
        self._steps = (times, points, velocities)
        keep = slice(None, None, record_every)
        self.times, self.points = times[keep], points[keep]
        if (times.size - 1) % record_every:
            self.times = np.append(self.times, times[-1])
            self.points = np.concatenate([self.points, points[-1:]])

    def speed_ratio(self, i: int) -> float:
        """Curve i's max over steps (and 0) of g(v, v) / lambda, v the step's
        average velocity and (lambda, g) the metric at the step midpoint:
        one evaluation over the curve's steps."""
        times, points, velocities = self._steps
        if not velocities.shape[0]:
            return 0.0
        x = points[:, i]
        mid = times[:-1] + (times[1:] - times[:-1]) / 2
        lam, g = self._m.eval(mid, (x[:-1] + x[1:]) / 2, check=False)
        ratio = _quadratic_form(velocities[:, i], g) / lam
        return float(np.maximum(0.0, ratio.max()))


def _step_times(t0: float, t_stop: float, step: float) -> np.ndarray:
    """A group's step grid from t0 to t_stop: every dwell segment (see
    ``_dwell_edges``) cut into max(1, round(DWELL / step)) equal steps.  With
    step = DWELL / 2^k the grids of successive k are nested."""
    edges = np.append(_dwell_edges(t0, t_stop), t_stop)
    per = max(1, int(round(DWELL / step)))
    frac = np.arange(per) / per
    inner = edges[:-1, None] + (edges[1:] - edges[:-1])[:, None] * frac
    return np.append(inner.ravel(), t_stop)


def _integrate_bundle(m, groups, t_end, step, record_every=1):
    """Classical RK4 on dk/dt = sigma(t,k) u for policy groups in lockstep.

    ``groups`` is a sequence of ``(t0, x0, policy)``: curves x0 (n, d)
    launched at t0 and steered by ``policy``.  Each group steps from its own
    t0 to t_end (clipped to the validity window) on the grid of
    ``_step_times``, so its steps are equal within each dwell segment, and
    drops out once they are done.  Each step asks the policy for the
    directions u once, at the step start, and holds them through the four
    stages; sigma = sqrt(lambda / g(u,u)) is evaluated at every stage, so
    each velocity is null.  Every RK4 stage is a single metric evaluation
    over the curves of all groups still running, so a step costs four
    evaluations.  All arithmetic is per curve, so each curve is
    bit-identical to integrating its group alone.

    The speed certificate g(kdot,kdot) <= lambda holds with equality up to
    integration error.  It is not computed here: each step's average
    velocity is kept, and a returned path computes one curve's certificate
    when asked (``_Path.speed_ratio``).

    Returns ``([_Path per group], truncated)``.
    """
    lo, hi = m.window
    t_stop = float(np.clip(t_end, lo, hi))
    truncated = t_stop != t_end
    paths = [None] * len(groups)
    live = []
    for index, (t0, x0, policy) in enumerate(groups):
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if t_stop == t0:
            m.eval(np.full(x0.shape[0], t0), x0, check=True)
            no_steps = np.empty((0,) + x0.shape)
            paths[index] = _Path(m, np.array([t0]), x0[None, :, :], no_steps)
        else:
            live.append(_Run(index, _step_times(t0, t_stop, step), x0, policy, [x0], []))
    if not live:
        return paths, truncated
    # longest groups first, so the curves still running are always a prefix
    live.sort(key=lambda run: -run.times.size)
    sizes = [run.x0.shape[0] for run in live]
    bounds = np.cumsum([0] + sizes)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    x = np.concatenate([run.x0 for run in live])
    for run in live:
        run.policy.after_step(float(run.times[0]), run.x0)

    def velocity(u, lam, g):
        guu = _quadratic_form(u, g)
        sigma = np.sqrt(np.where(guu > 0, lam / np.where(guu > 0, guu, 1.0), 0.0))
        return sigma[:, None] * u

    i = 0
    while live:
        counts = sizes[:len(live)]
        t = np.repeat([run.times[i] for run in live], counts)
        t_next = np.repeat([run.times[i + 1] for run in live], counts)
        dt = t_next - t
        half = dt / 2
        lam, g = m.eval(t, x, check=False)
        u = np.concatenate([
            np.asarray(run.policy.directions(float(run.times[i]), x[sl], g[sl]), dtype=float)
            for run, sl in zip(live, slices)
        ])
        k1 = velocity(u, lam, g)
        t_mid = t + half
        k2 = velocity(u, *m.eval(t_mid, x + half[:, None] * k1, check=False))
        k3 = velocity(u, *m.eval(t_mid, x + half[:, None] * k2, check=False))
        k4 = velocity(u, *m.eval(t_next, x + dt[:, None] * k3, check=False))
        v = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x = x + dt[:, None] * v
        i += 1
        for run, sl in zip(live, slices):
            run.policy.after_step(float(run.times[i]), x[sl])
            run.points.append(x[sl])
            run.velocities.append(v[sl])
        while live and live[-1].times.size == i + 1:
            run, sl = live.pop(), slices.pop()
            paths[run.index] = _Path(
                m, run.times, np.stack(run.points), np.stack(run.velocities), record_every
            )
        if live:
            x = x[:slices[-1].stop]
    return paths, truncated


def integrate_causal_curve(m, start, direction, t_end, step):
    """Integrate one extremal (null) causal curve from start to t = t_end.

    ``direction`` is either a fixed spatial direction vector or a direction
    policy object.  The curve takes max(1, round(DWELL / step)) equal steps
    per dwell segment from its start (see ``_integrate_bundle``).  Leaving
    the validity window truncates the curve and sets its flag.  The curve
    keeps every tenth step (and the last); its speed certificate covers
    every step and costs one more metric evaluation, over the curve's step
    midpoints.
    """
    if step <= 0:
        raise DomainError("step must be positive")
    t0, x0 = float(start[0]), np.atleast_1d(np.asarray(start[1], dtype=float))
    policy = direction
    if not hasattr(policy, "directions"):
        policy = ConstantDirection(np.asarray(direction, dtype=float))
    policy.prepare(1, t0, t_end, m.domain, None)
    [path], truncated = _integrate_bundle(
        m, [(t0, x0.reshape(1, -1), policy)], t_end, step, record_every=10
    )
    return CausalCurve(
        times=path.times,
        points=path.points[:, 0, :],
        direction="future" if t_end >= t0 else "past",
        max_speed_ratio=path.speed_ratio(0),
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
    """Outcome of sampling extremal curves against the reachable-ball bound,
    as decided on the step-doubling ladder of ``verify_cone_containment``.

    ``worst_margin`` and ``error`` belong to the deciding curve, so the check
    passed iff worst_margin - error >= -tol.
    """

    passed: bool
    worst_margin: float  # the deciding curve's |t_start| - arrival distance
    error: float  # its step-doubling error estimate (NaN for a non-finite curve)
    step: float  # the finest step integrated
    n_curves: int
    witness: CausalCurve | None = None
    detail: str = ""


def _ladder(step: float) -> range:
    """The levels k of the containment ladder, at step DWELL / 2^k, to
    integrate for a configured ``step``.  Decisions start at the first k >= 2
    with DWELL / 2^k <= 8 * step, so the ladder starts one level below it.
    The finest level is the last whose step is not below ``step``, but at
    least 2: a ``step`` above DWELL / 4 still decides at DWELL / 4."""
    first = finest = 2
    while DWELL / 2 ** (finest + 1) >= step:
        finest += 1
    while first < finest and DWELL / 2 ** first > 8 * step:
        first += 1
    return range(first - 1, finest + 1)


def _containment_groups(domain, ref, n_samples, seed, t_start_range):
    """The seeded curves of a containment check as policy groups
    ``(t0, x0, policy)``: curve i goes to policy i mod 4, and each group
    launches at its earliest sampled start."""
    rng = np.random.default_rng(seed)
    d = domain.dimension
    lo, hi = t_start_range
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
        if idx.size:
            groups.append((float(np.min(starts_t[idx])), starts_x[idx], make(dirs[idx])))
    return groups


def _ladder_level(m, ref, groups, step):
    """Integrate the groups to t = 0 at one step: every curve's margin
    |t0| - (reference distance travelled), in group order, and the paths."""
    for t0, x0, policy in groups:
        policy.prepare(x0.shape[0], t0, 0.0, m.domain, None)
    paths, _ = _integrate_bundle(m, groups, 0.0, step)
    margins = np.concatenate([
        abs(t0) - np.atleast_1d(ref_distance(m.domain, ref, x0, path.points[-1]))
        for (t0, x0, _), path in zip(groups, paths)
    ])
    return margins, paths


# a curve that reaches +-inf goes NaN (inf - inf, inf % L) and is the witness
@np.errstate(invalid="ignore")
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
    earliest sampled start and integrated together as one lockstep bundle.
    The bundle runs on a ladder of steps DWELL / 2^k (see ``_ladder``), each
    grid nested in the next; curve i's error at level k is the undivided
    step-doubling estimate e_i = |m_i(k) - m_i(k-1)| of its margin m_i.  At
    each deciding level the check passes if min(m_i - e_i) >= -tol, fails if
    some m_i + e_i < -tol (the smallest such curve is the witness), and
    otherwise halves the step.  Still undecided at the finest level, it
    fails as unresolved, with the curve of smallest m_i - e_i as witness.  A
    curve that turns non-finite fails the check at once as its witness.  A
    feature in t narrower than the deciding level's stage spacing can go
    unseen by both levels of the estimate.  Only a failing check computes a
    speed certificate: the witness's."""
    lo, hi = t_start_range
    if lo > hi or hi > 0:
        raise DomainError("t_start_range must satisfy lo <= hi < 0 or hi == 0")
    if n_samples < 1:
        raise DomainError("n_samples must be positive")
    domain = m.domain
    ref = reference_field(domain, j, g0)
    groups = _containment_groups(domain, ref, n_samples, seed, t_start_range)
    levels = _ladder(step)
    verdict, previous = None, None
    for k in levels:
        h = DWELL / 2 ** k
        margin, paths = _ladder_level(m, ref, groups, h)
        if not np.isfinite(margin).all():
            # the first curve whose state or distance is not finite
            verdict, i = "non-finite", int(np.argmax(~np.isfinite(margin)))
            error = np.full(margin.shape, np.nan)
        elif previous is not None:
            error = np.abs(margin - previous)
            low, high = margin - error, margin + error
            if low.min() >= -tol:
                verdict, i = "passed", int(np.argmin(low))
            elif high.min() < -tol:
                verdict, i = "failed", int(np.argmin(high))
            elif k == levels[-1]:
                verdict, i = "unresolved", int(np.argmin(low))
        if verdict:
            break
        previous = margin
    worst, error = float(margin[i]), float(error[i])
    passed = verdict == "passed"
    witness, detail = None, ""
    if not passed:
        sizes = [x0.shape[0] for _, x0, _ in groups]
        gi = int(np.searchsorted(np.cumsum(sizes), i, side="right"))
        row = i - sum(sizes[:gi])
        path, name = paths[gi], groups[gi][2].name
        witness = CausalCurve(
            times=path.times,
            points=path.points[:, row, :],
            direction="future",
            max_speed_ratio=path.speed_ratio(row),
            policy=name,
        )
        detail = f"curve ({name}) from t={witness.times[0]:.4g}, x={witness.points[0].tolist()} " + {
            "failed": f"arrived at distance exceeding the bound by {-worst:.4g} "
                      f"(± {error:.2g} at step {h:.4g})",
            "non-finite": f"reached a non-finite state (margin {worst})",
            "unresolved": f"is unresolved at the finest step {h:.4g}: margin {worst:.4g} "
                          f"± {error:.2g} straddles the tolerance -{tol:.2g}",
        }[verdict]
    return ConeContainmentReport(passed, worst, error, h, n_samples, witness, detail)


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
    throughout.  The slabs tile ``t_window`` from its start; the last one
    ends at its end, up to half a slab longer or shorter than the others.
    """
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    edges = np.arange(t_lo, t_hi + slab / 2, slab)
    edges = np.append(edges[:max(1, edges.size - 1)], t_hi)
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
    """Unit lapse and time-independent spatial form across window samples;
    a NaN sample fails."""
    lo = max(window[0], m.window[0])
    hi = min(window[1], m.window[1])
    if hi < lo:
        raise DomainError("check window outside metric validity window")
    pts = m.domain.grid_points()
    ts = np.linspace(lo, hi, n_t)
    first = None
    for block, (lam, g) in sweep_blocks(m, ts, pts, check=False):
        first = g[0].copy() if first is None else first
        lapse_dev = np.abs(lam - 1.0)
        lapse_bad = ~(np.max(lapse_dev, axis=1) <= tol)
        # each slice against the first, relative to the slice's own size
        drift = np.max(np.abs(g - first).reshape(len(g), -1), axis=1)
        scale = np.maximum(np.max(np.abs(g).reshape(len(g), -1), axis=1), 1.0)
        bad = lapse_bad | ~(drift <= tol * scale)
        if np.any(bad):
            k = int(np.argmax(bad))  # earliest failing slice; the lapse is checked first
            t, i = ts[block][k], int(np.argmax(lapse_dev[k]))
            if lapse_bad[k]:
                return CheckReport(
                    False, f"lapse {lam[k, i]!r} differs from 1 at t={t}, x={pts[i].tolist()}"
                )
            return CheckReport(False, f"spatial form varies in time by {drift[k]:.3e} at t={t}")
    return CheckReport(True)


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
    t >= 1/3, so each covering half has a complete uniform lower bound.  A
    NaN sample fails."""
    pts = metric.domain.grid_points()
    halves = (  # the t <= 2/3 half, then the t >= 1/3 half
        (np.linspace(-0.5, 2.0 / 3.0, n_t), (1.0 - smooth_unit_step(2.0 / 3.0)) * k0.at(pts),
         "(1-theta(2/3))*k0"),
        (np.linspace(1.0 / 3.0, 1.5, n_t), smooth_unit_step(1.0 / 3.0) * k1.at(pts),
         "theta(1/3)*k1"),
    )
    for ts, bound, tag in halves:
        for block, (_, g) in sweep_blocks(metric, ts, pts, check=False):
            ev = sym_min_eig_batch(g - bound)
            bad = ~(np.min(ev, axis=1) >= -tol)
            if np.any(bad):
                k = int(np.argmax(bad))
                i = int(np.argmin(ev[k]))
                return CheckReport(False, f"k_theta - {tag} has eigenvalue {ev[k, i]:.3e} "
                                          f"at t={ts[block][k]}, x={pts[i].tolist()}")
    return CheckReport(True)
