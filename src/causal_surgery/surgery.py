"""Conformal surgery on product metrics.

Two constructions live here.  The first stretches the spatial part of
-lambda dt^2 + g_t by a smooth factor f with f g_t >= max{1, lambda} * j g_0,
which bounds every causal cone by the complete reference metric j g_0 and so
forces global hyperbolicity.  The second composes that stretch with a
conformal normalization and a past-freeze to build a globally hyperbolic
metric equal to a given one in the future and ultrastatic in the past, then
glues two such halves through a convex ultrastatic interpolation.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.ndimage

from . import causality
from .domain import SpatialDomain
from .eigen import gen_max_eig_batch
from .errors import (
    CausalSurgeryError,
    CertificateError,
    ConstraintError,
    DomainError,
    ShapeError,
    SpliceError,
)
from .fields import (
    CONSTANT_IN_T,
    IDENTICALLY_ONE,
    MetricField,
    PlateauConstraint,
    ScalarField,
    SpdField,
    max_metric_deviation,
    sample_metric,
    time_reverse,
    time_shift,
    ultrastatic_metric,
)
from .profiles import smooth_freeze_ramp, smooth_unit_step

INF = float("inf")

MAJORANT_EPS = 1e-6
MAJORANT_NODE_SPACING = 0.5
MAJORANT_SUBSAMPLES = 33


@dataclass(frozen=True)
class JoinArtifact:
    """Output metric of a join pipeline plus its machine-checkable windows.

    ``future_window``/``past_window`` are the time intervals on which the
    output coincides (in the identity chart, after the recorded affine time
    shift) with the designated input metrics; certificates hold the
    verification reports attached by the pipeline.
    """

    metric: MetricField
    future_window: tuple[float, float]
    past_window: tuple[float, float]
    future_shift: float = 0.0
    past_shift: float = 0.0
    certificates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StretchResult:
    """Stretched metric, the factor realizing it, and its ingredients."""

    metric: MetricField
    factor: ScalarField
    lower: ScalarField
    j: ScalarField
    g0: SpdField
    certificates: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.metric, self.factor))


@contextmanager
def _stage(name: str):
    """Tag package errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except CausalSurgeryError as e:
        e.args = (f"[stage {name}] {e.args[0]}",) + e.args[1:]
        raise


# ---------------------------------------------------------------------------
# Theorem-1 side: completeness factor, cone bound, smooth majorant, stretch
# ---------------------------------------------------------------------------


def completeness_factor(
    domain: SpatialDomain, g0: SpdField, override: ScalarField | None = None
) -> ScalarField:
    """Positive j with j*g0 complete.

    On a compact torus every metric is complete, so the constant 1 works; a
    caller-supplied override is accepted verbatim and threaded through all
    later inequalities unchanged.
    """
    if override is not None:
        return override
    return ScalarField.constant(1.0)


def cone_bound_factor(m: MetricField, j: ScalarField, g0: SpdField) -> ScalarField:
    """Pointwise minimal factor with f g_t >= max{1, lambda} * j g_0.

    The value is max{1, lambda(t,x)} times the largest generalized eigenvalue
    of the pencil (j g_0, g_t), i.e. the supremum of (j g_0)(v,v) / g_t(v,v)
    over directions v.
    """

    def fn(t, x):
        lam, g = m.eval(t, x, check=True)
        jv = np.asarray(j.fn(t, x), dtype=float)
        jv = np.broadcast_to(jv, t.shape)
        ref = jv[:, None, None] * np.asarray(g0.fn(x), dtype=float)
        return np.maximum(1.0, lam) * gen_max_eig_batch(g, ref)

    return ScalarField(fn=fn)


class _MajorantField:
    """Smooth majorant of a positive scalar field.

    Node values on a time lattice of spacing ``h`` hold (1 + eps) times the
    running maximum of the lower bound over the two adjacent slabs, sampled on
    the spatial grid; between nodes the values are blended by the smooth unit
    step, which has flat contact at the nodes.  Spatial dependence is carried
    by periodic cubic interpolation of the node arrays.  Plateau constraints
    are realized by exact overwrite: constant-in-t regions return their node
    array directly, identically-one regions return 1.0.
    """

    def __init__(
        self,
        lower: ScalarField,
        domain: SpatialDomain,
        constraints: tuple[PlateauConstraint, ...],
        h: float = MAJORANT_NODE_SPACING,
        eps: float = MAJORANT_EPS,
        n_sub: int = MAJORANT_SUBSAMPLES,
    ):
        self.lower = lower
        self.domain = domain
        self.h = float(h)
        self.eps = float(eps)
        self.n_sub = int(n_sub)
        self.grid = domain.grid_points()
        self._slab_max: dict[int, np.ndarray] = {}
        self._node: dict[int, np.ndarray] = {}
        self._coef: dict[int, np.ndarray] = {}

        # snapped plateau regions (inward for constant, outward for one)
        self.const_regions: list[tuple[float, float]] = []
        self.one_regions: list[tuple[float, float]] = []
        for c in constraints:
            if c.kind == CONSTANT_IN_T:
                lo = -INF if c.t_lo == -INF else self.h * np.ceil(c.t_lo / self.h)
                hi = INF if c.t_hi == INF else self.h * np.floor(c.t_hi / self.h)
                if lo >= hi:
                    raise ConstraintError(
                        f"constant-in-t interval [{c.t_lo}, {c.t_hi}] too narrow "
                        f"for node spacing {self.h}"
                    )
                self.const_regions.append((lo, hi))
            else:
                lo = -INF if c.t_lo == -INF else self.h * np.floor(c.t_lo / self.h)
                hi = INF if c.t_hi == INF else self.h * np.ceil(c.t_hi / self.h)
                self.one_regions.append((lo, hi))
        self._rep: dict[int, np.ndarray] = {}

    # -- node machinery ----------------------------------------------------

    def _lower_on_grid(self, ts) -> np.ndarray:
        """The lower bound on ts x the spatial grid, (nt, n), checked positive."""
        ts = np.asarray(ts, dtype=float)
        v = sample_metric(self.lower, ts, self.grid)
        if np.any(v <= 0):
            k, i = np.unravel_index(np.argmax(v <= 0), v.shape)
            raise DomainError(
                f"lower bound not positive at t={ts[k]}, x={self.grid[i].tolist()}"
            )
        return v

    def _slab(self, k: int) -> np.ndarray:
        """Max of the lower bound over slab [k h, (k+1) h], sampled."""
        if k not in self._slab_max:
            ts = self.h * (k + np.linspace(0.0, 1.0, self.n_sub))
            self._slab_max[k] = self._lower_on_grid(ts).max(axis=0)
        return self._slab_max[k]

    def _const_region_of_node(self, k: int) -> int | None:
        t = k * self.h
        for i, (lo, hi) in enumerate(self.const_regions):
            if lo <= t <= hi:
                return i
        return None

    def _rep_value(self, i: int) -> np.ndarray:
        """Shared node array for a constant-in-t region."""
        if i not in self._rep:
            lo, hi = self.const_regions[i]
            # lower is constant in t on the region: one interior sample row
            # plus the boundary slabs that the edge nodes must still cover
            t0 = hi - self.h if lo == -INF else lo
            vals = [self._lower_on_grid([t0])[0]]
            if lo != -INF:
                vals.append(self._slab(int(round(lo / self.h)) - 1))
            if hi != INF:
                vals.append(self._slab(int(round(hi / self.h))))
            self._rep[i] = (1.0 + self.eps) * np.stack(vals).max(axis=0)
        return self._rep[i]

    def node_values(self, k: int) -> np.ndarray:
        if k not in self._node:
            i = self._const_region_of_node(k)
            if i is not None:
                self._node[k] = self._rep_value(i)
            else:
                self._node[k] = (1.0 + self.eps) * np.maximum(
                    self._slab(k - 1), self._slab(k)
                )
        return self._node[k]

    def _interp_node(self, k: int, x: np.ndarray) -> np.ndarray:
        """Periodic cubic interpolation of a node array at points x (n, d)."""
        if k not in self._coef:
            vals = self.node_values(k)
            if np.ptp(vals) == 0.0:
                # spatially constant node: skip interpolation entirely
                self._coef[k] = float(vals[0])
            else:
                arr = vals.reshape(self.domain.resolution)
                self._coef[k] = scipy.ndimage.spline_filter(
                    arr, order=3, mode="grid-wrap"
                )
        if isinstance(self._coef[k], float):
            return np.full(x.shape[0], self._coef[k])
        coords = [
            x[:, ax] / (self.domain.circumferences[ax] / self.domain.resolution[ax])
            for ax in range(self.domain.dimension)
        ]
        return scipy.ndimage.map_coordinates(
            self._coef[k], coords, order=3, mode="grid-wrap", prefilter=False
        )

    # -- evaluation --------------------------------------------------------

    def _one_weight(self, t: np.ndarray) -> np.ndarray:
        w = np.zeros_like(t)
        for lo, hi in self.one_regions:
            wi = np.ones_like(t)
            if lo != -INF:
                wi = wi * smooth_unit_step((t - (lo - self.h)) / self.h)
            if hi != INF:
                wi = wi * smooth_unit_step(((hi + self.h) - t) / self.h)
            w = np.maximum(w, wi)
        return w

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.empty_like(t)
        done = np.zeros(t.shape, dtype=bool)

        # identically-one plateaus, bit-exact
        w = self._one_weight(t)
        exact_one = w >= 1.0
        out[exact_one] = 1.0
        done |= exact_one

        # constant-in-t plateaus, bit-exact node value
        for i, (lo, hi) in enumerate(self.const_regions):
            mask = (~done) & (t >= lo) & (t <= hi)
            if np.any(mask):
                k_rep = int(round((hi if lo == -INF else lo) / self.h))
                out[mask] = self._interp_node(k_rep, x[mask])
                done[mask] = True

        # generic blend between adjacent nodes
        rest = ~done
        if np.any(rest):
            tr = t[rest]
            xr = x[rest]
            k = np.floor(tr / self.h).astype(int)
            u = smooth_unit_step(tr / self.h - k)
            v = np.empty_like(tr)
            for kk in np.unique(k):
                mk = k == kk
                v[mk] = (1.0 - u[mk]) * self._interp_node(int(kk), xr[mk]) + u[
                    mk
                ] * self._interp_node(int(kk) + 1, xr[mk])
            # blend into identically-one plateaus
            wr = w[rest]
            ramp = wr > 0.0
            v[ramp] = (1.0 - wr[ramp]) * v[ramp] + wr[ramp]
            out[rest] = v
        return out


def smooth_majorant(
    lower: ScalarField,
    constraints,
    domain: SpatialDomain,
    t_window: tuple[float, float] | None = None,
    h: float = MAJORANT_NODE_SPACING,
    eps: float = MAJORANT_EPS,
) -> ScalarField:
    """Smooth f >= lower satisfying the plateau constraints exactly.

    Boundedness: f(t, x) <= 2 * sup{lower on [t-1, t+1] x N} + eps, because
    every node value is (1 + eps) times a slab maximum within half a unit of t.
    Inconsistent constraints (or plateau overwrites that dip below the lower
    bound) raise ConstraintError naming the violating sample.
    """
    constraints = tuple(constraints)
    for i, a in enumerate(constraints):
        for b in constraints[i + 1 :]:
            if a.kind == b.kind and a.overlaps(b):
                raise ConstraintError(f"overlapping plateau constraints {a} and {b}")
    f = ScalarField(fn=_MajorantField(lower, domain, constraints, h=h, eps=eps),
                    plateaus=constraints)
    _recheck_majorant(f, lower, domain, t_window)
    return f


def _recheck_majorant(f, lower, domain, t_window):
    """Post-hoc inequality check around plateau overwrites (and the window)."""
    maj = f.fn
    grid = domain.grid_points()
    spans: list[tuple[float, float]] = []
    for lo, hi in maj.one_regions:
        # blend ramps plus a finite stretch of the plateau (where f == 1,
        # so the check is really "lower <= 1 there")
        span_lo = lo - maj.h if lo != -INF else (hi if hi != INF else 0.0) - 4.0
        span_hi = hi + maj.h if hi != INF else (lo if lo != -INF else 0.0) + 4.0
        spans.append((span_lo, span_hi))
    for lo, hi in maj.const_regions:
        if lo != -INF:
            spans.append((lo - maj.h, lo + maj.h))
        if hi != INF:
            spans.append((hi - maj.h, hi + maj.h))
    if t_window is not None:
        spans.append((float(t_window[0]), float(t_window[1])))
    ts = np.concatenate([np.empty(0)] + [
        np.linspace(lo, hi, max(9, int(np.ceil((hi - lo) / maj.h)) * 8 + 1))
        for lo, hi in spans
        if np.isfinite(lo) and np.isfinite(hi) and hi > lo
    ])
    fv = sample_metric(f, ts, grid)
    lv = sample_metric(lower, ts, grid)
    bad = fv < lv * (1.0 - 1e-12)
    if np.any(bad):
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConstraintError(
            f"majorant {fv[k, i]!r} below lower bound {lv[k, i]!r} at "
            f"t={ts[k]}, x={grid[i].tolist()}; plateau constraints are "
            f"inconsistent with the lower bound"
        )


def stretch_metric(m: MetricField, f: ScalarField) -> MetricField:
    """-lambda dt^2 + f g_t: lapse unchanged, spatial part scaled pointwise."""

    def fn(t, x):
        lam, g = m.fn(t, x)
        fv = np.broadcast_to(np.asarray(f.fn(t, x), dtype=float), t.shape)
        if np.any(fv <= 0):
            i = int(np.argmax(fv <= 0))
            raise DomainError(
                f"conformal factor {fv[i]} not positive at t={t[i]}, x={x[i].tolist()}"
            )
        return lam, fv[:, None, None] * np.asarray(g, dtype=float)

    return MetricField(domain=m.domain, fn=fn, window=m.window)


def _constant_in_past(m: MetricField, upto: float = 0.0) -> bool:
    """Detect lambda_s = lambda_u, g_s = g_u for s, u < upto (sampled)."""
    lo = m.window[0]
    probes = [upto - 2.0, upto - 1.0, upto - 0.25]
    if lo > probes[0]:
        return False
    pts = m.domain.grid_points()[:: max(1, m.domain.n_points // 16)]
    lam, g = sample_metric(m, probes[:2], pts, check=False)
    scale = max(np.max(np.abs(g[0])), np.max(np.abs(lam[0])), 1.0)

    def agrees(lam_s, g_s):
        return not (
            np.max(np.abs(lam_s - lam[0])) > 1e-12 * scale
            or np.max(np.abs(g_s - g[0])) > 1e-12 * scale
        )

    # the last probe is sampled only once the first two agree
    return agrees(lam[1], g[1]) and agrees(*sample_metric(m, probes[2:], pts, check=False))


def make_globally_hyperbolic(
    m: MetricField,
    already_gh_after: float | None = None,
    j: ScalarField | None = None,
    g0: SpdField | None = None,
    t_window: tuple[float, float] = (-3.0, 3.0),
    verify: bool = True,
    seed: int = 0,
    n_verify_curves: int = 64,
) -> StretchResult:
    """Stretch the spatial part so every causal cone fits inside j g_0.

    Composite of completeness_factor -> cone_bound_factor -> smooth_majorant
    -> stretch_metric.  If the input is constant in t in the past, the factor
    is too; with ``already_gh_after=a`` the factor is pinned to 1 on (a, inf).
    """
    with _stage("completeness_factor"):
        if g0 is None:
            g0 = m.spatial_slice(0.0)
        if j is None:
            j = completeness_factor(m.domain, g0)
    with _stage("cone_bound_factor"):
        lower = cone_bound_factor(m, j, g0)
    constraints = []
    if _constant_in_past(m, upto=0.0):
        constraints.append(PlateauConstraint(-INF, 0.0, CONSTANT_IN_T))
    if already_gh_after is not None:
        constraints.append(PlateauConstraint(float(already_gh_after), INF, IDENTICALLY_ONE))
    with _stage("smooth_majorant"):
        f = smooth_majorant(lower, constraints, m.domain, t_window=t_window)
    with _stage("stretch_metric"):
        stretched = stretch_metric(m, f)
    certificates = {}
    if verify:
        with _stage("verify"):
            certificates = stretch_certificates(
                stretched, j, g0, t_window, n_curves=n_verify_curves, seed=seed,
                t_start_range=(max(t_window[0], -2.0), -0.5), tol=1e-4, step=4e-3,
            )
            for name, cert in certificates.items():
                if not cert.passed:
                    raise CertificateError(
                        f"{name} verification failed on the stretched metric: "
                        f"{cert.detail}"
                    )
    return StretchResult(stretched, f, lower, j, g0, certificates)


@dataclass(frozen=True)
class ConeInequalityReport:
    """Smallest eigenvalue of f g_t - max{1, lambda} j g_0 over the grid."""

    min_eigenvalue: float
    scale: float
    passed: bool
    detail: str = ""


def cone_inequality_report(
    stretched: MetricField,
    j: ScalarField,
    g0: SpdField,
    t_window: tuple[float, float],
    n_t: int = 65,
    tol: float = 1e-9,
) -> ConeInequalityReport:
    """Grid check of the pointwise cone inequality on the stretched metric."""
    pts = stretched.domain.grid_points()
    refv = np.asarray(causality.reference_field(stretched.domain, j, g0).fn(pts), dtype=float)
    ts = np.linspace(t_window[0], t_window[1], n_t)
    lam, g = sample_metric(stretched, ts, pts, check=False)
    scale = float(np.max(np.abs(g)))
    g -= np.maximum(1.0, lam)[..., None, None] * refv
    ev = np.linalg.eigvalsh(g)[..., 0]
    k, i = np.unravel_index(np.argmin(ev), ev.shape)
    worst = float(ev[k, i])
    passed = worst >= -tol * max(scale, 1.0)
    return ConeInequalityReport(
        worst, scale, passed,
        "" if passed else
        f"cone inequality violated: min eigenvalue {worst:.3e} at t={ts[k]}, x={pts[i].tolist()}",
    )


def stretch_certificates(
    stretched: MetricField,
    j: ScalarField,
    g0: SpdField,
    t_window: tuple[float, float],
    n_curves: int,
    seed: int,
    t_start_range: tuple[float, float],
    tol: float,
    step: float,
) -> dict:
    """The three Theorem-1 certificates of a stretched metric, in report order:
    per-slab speeds against j g_0, the grid cone inequality, and cone
    containment by ``n_curves`` extremal curves (``tol`` and ``step`` are
    the containment tolerance and RK4 step)."""
    ref = causality.reference_field(stretched.domain, j, g0)
    return {
        "global_hyperbolicity": causality.verify_global_hyperbolicity(
            stretched, ref, t_window=t_window
        ),
        "cone_inequality": cone_inequality_report(stretched, j, g0, t_window),
        "cone_containment": causality.verify_cone_containment(
            stretched, j, g0, n_samples=n_curves, seed=seed,
            t_start_range=t_start_range, tol=tol, step=step,
        ),
    }


# ---------------------------------------------------------------------------
# Theorem-2 side: normalization, freeze, tails, interpolation, join
# ---------------------------------------------------------------------------


def normalize_conformal(m: MetricField) -> MetricField:
    """Conformally rescale so the lapse is 1 in the past and unchanged future.

    The factor is s^{-1} on {t <= 0}, 1 on {t >= 1}, blended by the smooth
    unit step in between; the output lapse equals 1 for t <= 0 (up to one
    rounding of s * s^{-1}) and s for t >= 1 (exactly).  The factor is
    computed from the lapse of the one input evaluation.
    """

    def fn(t, x):
        lam, g = m.fn(t, x)
        s = np.broadcast_to(np.asarray(lam, dtype=float), t.shape)
        if np.any(s <= 0):
            i = int(np.argmax(s <= 0))
            raise DomainError(f"non-positive lapse {s[i]} at t={t[i]}, x={x[i].tolist()}")
        th = smooth_unit_step(t)
        f = (1.0 - th) / s + th
        return f * s, f[:, None, None] * np.asarray(g, float)

    return replace(m, fn=fn)


def freeze_past(m: MetricField) -> MetricField:
    """Reparametrize time by the freeze ramp: constant past, identity future.

    Output at time t evaluates the input at psi(t), where psi is 0 on
    (-inf, 0] and the identity on [1, inf); the plateau makes the output
    bit-exactly constant in t on the past region.
    """
    lo, hi = m.window
    if lo > 0.0:
        raise DomainError("freeze_past needs the input defined at time 0")

    return MetricField(
        domain=m.domain, fn=lambda t, x: m.fn(smooth_freeze_ramp(t), x), window=(-INF, hi)
    )


def ultrastatic_tail(
    gamma: MetricField, tol: float = 1e-10, frozen_time: float = -1.0
) -> MetricField:
    """Extend the frozen past of gamma to an ultrastatic metric on all of R.

    Requires gamma to be ultrastatic (unit lapse, time-independent spatial
    part) on (-inf, 0]; returns -dt^2 + h0 with h0 the spatial form frozen at
    ``frozen_time``.
    """
    report = causality.check_ultrastatic_report(
        gamma, window=(frozen_time - 2.0, 0.0), tol=tol
    )
    if not report.passed:
        raise CertificateError(
            f"input is not ultrastatic on the frozen region: {report.detail}"
        )
    return ultrastatic_metric(gamma.domain, gamma.spatial_slice(frozen_time))


def interpolate_ultrastatic(
    u0: MetricField, u1: MetricField, tol: float = 1e-10
) -> JoinArtifact:
    """Convex ultrastatic interpolation -dt^2 + theta(t) k1 + (1-theta(t)) k0.

    Equals u0 for t <= 0 and u1 for t >= 1.  Both inputs must be ultrastatic
    with unit lapse over the same spatial domain.
    """
    if u0.domain != u1.domain:
        raise ShapeError("ultrastatic interpolation needs a shared spatial domain")
    for name, u in (("u0", u0), ("u1", u1)):
        report = causality.check_ultrastatic_report(u, window=(-1.0, 1.0), tol=tol)
        if not report.passed:
            raise CertificateError(f"{name} is not ultrastatic: {report.detail}")
    k0 = u0.spatial_slice(0.0)
    k1 = u1.spatial_slice(0.0)

    def fn(t, x):
        th = smooth_unit_step(t)
        return np.ones_like(t), (
            th[:, None, None] * np.asarray(k1.fn(x), float)
            + (1.0 - th)[:, None, None] * np.asarray(k0.fn(x), float)
        )

    metric = MetricField(domain=u0.domain, fn=fn)
    convex = causality.verify_convex_bound(metric, k0, k1)
    if not convex.passed:
        raise CertificateError(f"convex comparison bound failed: {convex.detail}")
    return JoinArtifact(
        metric=metric,
        future_window=(1.0, INF),
        past_window=(-INF, 0.0),
        certificates={"convex_bound": convex},
    )


def splice(
    a: MetricField, b: MetricField, t_cut: float, tol: float, delta: float = 0.05
) -> MetricField:
    """Glue a (for t <= t_cut) to b (for t > t_cut) along an agreement slab.

    The two metrics must agree within ``tol`` (max componentwise relative
    difference of lapse and spatial form) on [t_cut - delta, t_cut + delta].
    """
    if a.domain != b.domain:
        raise ShapeError("cannot splice metrics over different spatial domains")
    ts = np.linspace(t_cut - delta, t_cut + delta, 9)
    dev, where = max_metric_deviation(a, b, ts)
    if not dev <= tol:
        raise SpliceError(
            f"metrics disagree on the splice slab: max relative deviation "
            f"{dev:.3e} > tol {tol:.3e} at t={where[0]}, x={where[1]}"
        )

    d = a.domain.dimension

    def fn(t, x):
        mask = t <= t_cut
        if np.all(mask):
            return a.fn(t, x)
        if not np.any(mask):
            return b.fn(t, x)
        lam = np.empty(t.shape)
        g = np.empty(t.shape + (d, d))
        lam[mask], g[mask] = a.fn(t[mask], x[mask])
        lam[~mask], g[~mask] = b.fn(t[~mask], x[~mask])
        return lam, g

    return MetricField(domain=a.domain, fn=fn, window=(a.window[0], b.window[1]))


def half_join(g: MetricField, t_window=(-3.0, 3.0), seed: int = 0,
              verify: bool = True) -> tuple[MetricField, MetricField, StretchResult]:
    """Build the globally hyperbolic metric equal to g in the future and
    ultrastatic in the past, plus its ultrastatic tail.

    Returns (gamma, u, stretch_result): gamma equals g on [1, inf) and is
    constant with unit lapse on (-inf, 0]; u is -dt^2 + (gamma's frozen
    spatial form) on all of R.
    """
    with _stage("normalize_conformal"):
        g1 = normalize_conformal(g)
    with _stage("freeze_past"):
        k = freeze_past(g1)
    result = make_globally_hyperbolic(
        k, already_gh_after=1.0, t_window=t_window, seed=seed, verify=verify
    )
    with _stage("ultrastatic_tail"):
        u = ultrastatic_tail(result.metric)
    return result.metric, u, result


def join_ultrastatic(g: MetricField, t_window=(-3.0, 3.0), seed: int = 0,
                     verify: bool = True) -> JoinArtifact:
    """Asymptotic join of g with an ultrastatic metric: the half pipeline."""
    gamma, u, result = half_join(g, t_window=t_window, seed=seed, verify=verify)
    certificates = dict(result.certificates)
    certificates["future_isometry"] = causality.check_isometry_report(
        gamma, g, window=(1.0, 1.0 + 2.0), shift=0.0, tol=1e-10
    )
    certificates["past_ultrastatic"] = causality.check_ultrastatic_report(
        gamma, window=(-3.0, 0.0), tol=1e-10
    )
    for name in ("future_isometry", "past_ultrastatic"):
        if not certificates[name].passed:
            raise CertificateError(f"{name} failed: {certificates[name].detail}")
    return JoinArtifact(
        metric=gamma,
        future_window=(1.0, INF),
        past_window=(-INF, 0.0),
        future_shift=0.0,
        past_shift=0.0,
        certificates=certificates,
    )


def asymptotic_join(
    g: MetricField,
    h: MetricField,
    t_window=(-3.0, 3.0),
    seed: int = 0,
    splice_tol: float = 1e-9,
    verify: bool = True,
) -> JoinArtifact:
    """Globally hyperbolic metric equal to g far in the future and to h far in
    the past, glued through a convex ultrastatic interpolation.

    The output coincides with g on [4, inf) after the recorded time shift
    (output at tau equals g at tau - 3) and with h on (-inf, -1] (no shift).
    """
    if g.domain != h.domain:
        raise ShapeError("asymptotic join needs metrics over the same spatial domain")
    with _stage("half_join(g)"):
        gamma_g, u_g, res_g = half_join(g, t_window=t_window, seed=seed, verify=verify)
    with _stage("half_join(reversed h)"):
        gamma_h, u_h, res_h = half_join(
            time_reverse(h), t_window=t_window, seed=seed, verify=verify
        )
    with _stage("interpolate_ultrastatic"):
        mid = interpolate_ultrastatic(u_h, u_g)
    with _stage("splice"):
        past_piece = time_reverse(gamma_h)  # equals h on (-inf, -1], ultrastatic on [0, inf)
        mid_piece = time_shift(mid.metric, 1.0)  # u_h below 1, u_g above 2
        future_piece = time_shift(gamma_g, 3.0)  # ultrastatic below 3, g(t-3) above 4
        joined = splice(past_piece, mid_piece, 0.5, tol=splice_tol)
        joined = splice(joined, future_piece, 2.5, tol=splice_tol)

    certificates = {
        "convex_bound": mid.certificates["convex_bound"],
        "stretch_g": res_g.certificates,
        "stretch_h": res_h.certificates,
    }
    if verify:
        with _stage("certificates"):
            certificates["future_isometry"] = causality.check_isometry_report(
                joined, g, window=(4.0, 6.0), shift=-3.0, tol=1e-10
            )
            certificates["past_isometry"] = causality.check_isometry_report(
                joined, h, window=(-3.0, -1.0), shift=0.0, tol=1e-10
            )
            certificates["mid_ultrastatic"] = causality.check_ultrastatic_report(
                joined, window=(0.0, 1.0), tol=1e-10
            )
            for name in ("future_isometry", "past_isometry", "mid_ultrastatic"):
                if not certificates[name].passed:
                    raise CertificateError(
                        f"{name} failed: {certificates[name].detail}"
                    )
    return JoinArtifact(
        metric=joined,
        future_window=(4.0, INF),
        past_window=(-INF, -1.0),
        future_shift=-3.0,
        past_shift=0.0,
        certificates=certificates,
    )
