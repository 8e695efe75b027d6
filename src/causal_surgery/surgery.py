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
from functools import cached_property

import numpy as np

from . import causality
from .domain import SpatialDomain
from .eigen import gen_max_eig_batch, sym_min_eig_batch
from .errors import (
    CausalSurgeryError,
    CertificateError,
    ConstraintError,
    DomainError,
    ShapeError,
    SpliceError,
)
from .fields import (
    MetricField,
    ScalarField,
    SpdField,
    as_shape,
    max_metric_deviation,
    single_time,
    sweep_blocks,
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


@contextmanager
def _stage(name: str):
    """Tag package errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except CausalSurgeryError as e:
        e.args = (f"[stage {name}] {e.args[0]}",) + e.args[1:]
        raise


# ---------------------------------------------------------------------------
# Theorem-1 side: cone bound, smooth majorant, stretch
# ---------------------------------------------------------------------------


def cone_bound_factor(m: MetricField, j: ScalarField, g0: SpdField) -> ScalarField:
    """Pointwise minimal factor with f g_t >= max{1, lambda} * j g_0.

    The value is max{1, lambda(t,x)} times the largest generalized eigenvalue
    of the pencil (j g_0, g_t), i.e. the supremum of (j g_0)(v,v) / g_t(v,v)
    over directions v.  The reference j g_0 is the one every certificate uses
    (``causality.reference_field``), evaluated once on the domain grid.
    A g_t declared constant in x enters a one-time batch as one row, so
    against a constant j g_0 the batch solves one pencil.
    """
    ref = causality.reference_field(m.domain, j, g0)
    ref_grid = ref.at(m.domain.grid_points())

    def fn(t, x):
        lam, g = m.eval(t, x, check=True)
        refv = ref_grid if m.domain.is_grid(x) else ref.at(x)
        if not m.spatial_reads_x and single_time(t):
            g = g[:1]
        return np.maximum(1.0, lam) * gen_max_eig_batch(g, refv)

    return ScalarField(fn=fn)


class _MajorantField:
    """Smooth majorant of a positive scalar field.

    Node values on a time lattice of spacing h = MAJORANT_NODE_SPACING hold
    (1 + MAJORANT_EPS) times the maximum of the lower bound over the two
    adjacent slabs, sampled on the spatial grid, at each grid point and its
    wrapped neighbours.  A point blends the nodes at the corners of its
    space-time cell with the smooth unit step along time and every spatial
    axis, so every value is a convex combination of positive node values;
    a node constant in space is one float and is never blended in space.

    Two plateaus are exact.  With ``constant_before`` the plateau node is
    K = floor(constant_before / h): it holds the lower bound's row at
    (K - 1) h and slab K, and every node below it is node K.  With
    ``one_after`` the value is 1.0 from one_lo = h floor(one_after / h) on,
    ramped in by the smooth unit step over [one_lo - h, one_lo]; a ramp that
    starts inside the constant past raises ConstraintError.

    Every batch takes one path.  The time logic runs once for a one-time
    batch.  A batch wholly at t <= K h returns node K blended at x, and one
    wholly at t >= one_lo returns ones.  Otherwise the cell index
    k = floor(t / h) is clamped to [K, one_lo / h - 1], so the blend weight
    u is 0 on the constant past (node K, bit for bit) and 1 on the one
    plateau, where the ramp, whose weight is u itself, gives 1.0 exactly.
    Points sharing one k blend one node pair, and a batch with a single k
    blends on x itself, so a lattice slice reads its grid nodes back.
    """

    def __init__(
        self,
        lower: ScalarField,
        domain: SpatialDomain,
        constant_before: float | None = None,
        one_after: float | None = None,
    ):
        h = MAJORANT_NODE_SPACING
        self.lower = lower
        self.domain = domain
        self.grid = domain.grid_points()
        self._slab_max: dict[int, np.ndarray] = {}
        self._nodes: dict[int, float | np.ndarray] = {}
        self._grid_nodes: dict[int, float | np.ndarray] = {}
        self.K = None if constant_before is None else int(np.floor(constant_before / h))
        self.const_end = -INF if self.K is None else self.K * h
        self.one_lo = None if one_after is None else h * np.floor(one_after / h)
        # the clamp on the cell index: node K on the constant past, the
        # ramp's cell on the one plateau
        self.k_lo = -INF if self.K is None else float(self.K)
        self.k_hi = INF if one_after is None else np.floor(one_after / h) - 1.0
        if self.one_lo is not None and self.one_lo - h < self.const_end:
            raise ConstraintError(
                f"identically-one plateau from t={one_after} ramps in from "
                f"t={self.one_lo - h}, inside the constant-in-t plateau up to "
                f"t={self.const_end}; the plateaus must not overlap"
            )

    # -- node machinery ----------------------------------------------------

    def _lower_max(self, ts) -> np.ndarray:
        """Max over the times ts of the lower bound on the spatial grid, (n,),
        with every sample checked finite and positive."""
        ts = np.asarray(ts, dtype=float)
        out = np.full(len(self.grid), -INF)
        for block, v in sweep_blocks(self.lower, ts, self.grid):
            bad = ~(np.isfinite(v) & (v > 0))
            if np.any(bad):
                k, i = np.unravel_index(np.argmax(bad), v.shape)
                raise DomainError(
                    f"lower bound {v[k, i]!r} not finite and positive at t={ts[block][k]}, "
                    f"x={self.grid[i].tolist()}"
                )
            out = np.maximum(out, v.max(axis=0))
        return out

    def _slab(self, k: int) -> np.ndarray:
        """Max of the lower bound over slab [k h, (k+1) h], sampled."""
        if k not in self._slab_max:
            ts = MAJORANT_NODE_SPACING * (k + np.linspace(0.0, 1.0, MAJORANT_SUBSAMPLES))
            self._slab_max[k] = self._lower_max(ts)
        return self._slab_max[k]

    def _node_value(self, v: np.ndarray) -> float | np.ndarray:
        """(1 + eps) times the max of v over each grid point and its wrapped
        neighbours (a 3^d stencil); one float when v is constant in space."""
        if np.ptp(v) == 0.0:
            return (1.0 + MAJORANT_EPS) * float(v[0])
        a = v.reshape(self.domain.resolution)
        for ax in range(a.ndim):
            a = np.maximum(a, np.maximum(np.roll(a, 1, ax), np.roll(a, -1, ax)))
        return (1.0 + MAJORANT_EPS) * a.ravel()

    def _node(self, k: int) -> float | np.ndarray:
        """Node k; every node below the plateau node K is node K."""
        if self.K is not None and k <= self.K:
            k = self.K
        if k not in self._nodes:
            if k == self.K:
                # lower is constant in t before K h: one sample row stands for
                # the plateau, and slab K is still covered by node K
                row = self._lower_max([(k - 1) * MAJORANT_NODE_SPACING])
                v = np.maximum(row, self._slab(k))
            else:
                v = np.maximum(self._slab(k - 1), self._slab(k))
            self._nodes[k] = self._node_value(v)
        return self._nodes[k]

    def _blend(self, x: np.ndarray, *ks: int) -> list:
        """Nodes ks blended at the points x (n, d) from the corners of their
        grid cells: a node constant in space stays one float, the cell
        weights are computed at most once per call, and on the domain grid
        each node's blend is computed once and kept."""
        on_grid = self.domain.is_grid(x)
        cells = None
        out = []
        for k in ks:
            if on_grid and k in self._grid_nodes:
                out.append(self._grid_nodes[k])
                continue
            v = self._node(k)
            if not isinstance(v, float):
                if cells is None:
                    cells = self._grid_cells if on_grid else self._cells(x)
                idx, w = cells
                v = (w * v[idx]).sum(axis=0)
            if on_grid:
                self._grid_nodes[k] = v
            out.append(v)
        return out

    @cached_property
    def _grid_cells(self):
        return self._cells(self.grid)

    def _cells(self, x: np.ndarray):
        """Flat node indices (2^d, n) of the corners of each point's grid
        cell, and their smooth-step weights."""
        res = self.domain.resolution
        s = x / (np.asarray(self.domain.circumferences) / np.asarray(res))
        i0 = np.floor(s)
        th = smooth_unit_step(s - i0)
        i0 = i0.astype(int)
        idx = np.zeros((1, x.shape[0]), dtype=int)
        w = np.ones((1, x.shape[0]))
        for ax, n in enumerate(res):
            lo = i0[:, ax] % n
            idx = np.concatenate([idx * n + lo, idx * n + (lo + 1) % n])
            w = np.concatenate([w * (1.0 - th[:, ax]), w * th[:, ax]])
        return idx, w

    # -- evaluation --------------------------------------------------------

    def __call__(self, t, x):
        h = MAJORANT_NODE_SPACING
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[0])
        if not t.size:
            return out
        # a one-time batch (a lattice slice) does its time logic once
        if single_time(t):
            t = t[:1]
        if t.max() <= self.const_end:
            out[:] = self._blend(x, self.K)[0]
            return out
        if self.one_lo is not None and t.min() >= self.one_lo:
            out[:] = 1.0
            return out
        k = np.floor(t / h).clip(self.k_lo, self.k_hi)
        u = smooth_unit_step(t / h - k)
        if (k == k[0]).all():
            # one node pair for the whole batch: blend on x itself, so a
            # lattice slice reads the kept grid blends
            groups = [(slice(None), x, k[0])]
        else:
            groups = [(k == kk, x[k == kk], kk) for kk in np.unique(k)]
        for m, xm, kk in groups:
            a, b = self._blend(xm, int(kk), int(kk) + 1)
            um = u[m]
            v = (1.0 - um) * a + um * b
            if kk == self.k_hi:
                # the ramp into the one plateau
                v = (1.0 - um) * v + um
            out[m] = v
        return out


def smooth_majorant(
    lower: ScalarField,
    domain: SpatialDomain,
    t_window: tuple[float, float] | None = None,
    *,
    constant_before: float | None = None,
    one_after: float | None = None,
) -> ScalarField:
    """Smooth f > 0 with f >= lower at the sampled nodes, constant in t
    before ``constant_before`` and exactly 1 from ``one_after`` on.

    With h = MAJORANT_NODE_SPACING and eps = MAJORANT_EPS, for t in the time
    slab [k h, (k+1) h] and x in a grid cell:
    - f(t, x) >= (1 + eps) * lower at every sample of the slab at every
      corner of the cell (off the ramp into the one plateau, which only
      raises f toward 1);
    - 0 < f(t, x) <= max{1, (1 + eps) * M}, where M is the maximum of the
      sampled lower bound over [t - 2h, t + 2h] at the grid points within
      two cells of x per axis; the plateau node of the constant past adds
      its sample row to M, and the 1 enters only on the one plateau and its
      ramp.
    Both plateaus are snapped to the node lattice (the constant past inward,
    the one plateau outward) and must not overlap.  Overlapping plateaus, or
    plateaus that dip below the lower bound on the rechecked spans (the one
    ramp plus 4, the edge of the constant past, and ``t_window``), raise
    ConstraintError naming the violating sample; a lower-bound sample that
    is not finite and positive raises DomainError.
    """
    f = ScalarField(fn=_MajorantField(lower, domain, constant_before, one_after))
    _recheck_majorant(f, lower, domain, t_window)
    return f


def _recheck_majorant(f, lower, domain, t_window):
    """Post-hoc inequality check around the plateaus (and the window)."""
    maj = f.fn
    h = MAJORANT_NODE_SPACING
    grid = domain.grid_points()
    spans: list[tuple[float, float]] = []
    if maj.one_lo is not None:
        # the blend ramp plus a finite stretch of the plateau (where f == 1,
        # so the check is really "lower <= 1 there")
        spans.append((maj.one_lo - h, maj.one_lo + 4.0))
    if maj.K is not None:
        spans.append((maj.const_end - h, maj.const_end + h))
    if t_window is not None:
        spans.append((float(t_window[0]), float(t_window[1])))
    ts = np.concatenate([np.empty(0)] + [
        np.linspace(lo, hi, max(9, int(np.ceil((hi - lo) / h)) * 8 + 1))
        for lo, hi in spans
        if np.isfinite(lo) and np.isfinite(hi) and hi > lo
    ])
    for (block, fv), (_, lv) in zip(sweep_blocks(f, ts, grid), sweep_blocks(lower, ts, grid)):
        # a NaN on either side fails
        bad = ~(fv >= lv * (1.0 - 1e-12))
        if np.any(bad):
            k, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ConstraintError(
                f"majorant {fv[k, i]!r} below lower bound {lv[k, i]!r} at "
                f"t={ts[block][k]}, x={grid[i].tolist()}; plateau constraints are "
                f"inconsistent with the lower bound"
            )


def stretch_metric(m: MetricField, f: ScalarField) -> MetricField:
    """-lambda dt^2 + f g_t: lapse unchanged, spatial part scaled pointwise."""

    def fn(t, x):
        lam, g = m.fn(t, x)
        fv = as_shape(f.fn(t, x), t.shape)
        bad = ~(fv > 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"conformal factor {fv[i]} not positive at t={t[i]}, x={x[i].tolist()}"
            )
        return lam, fv[:, None, None] * np.asarray(g, dtype=float)

    return MetricField(domain=m.domain, fn=fn, window=m.window)


def make_globally_hyperbolic(
    m: MetricField,
    already_gh_after: float | None = None,
    constant_before: float | None = None,
    j: ScalarField | None = None,
    g0: SpdField | None = None,
    t_window: tuple[float, float] = (-3.0, 3.0),
    verify: bool = True,
    seed: int = 0,
    n_verify_curves: int = 64,
    verify_tol: float = 1e-4,
    verify_step: float = 4e-3,
) -> StretchResult:
    """Stretch the spatial part so every causal cone fits inside j g_0.

    Composite of cone_bound_factor -> smooth_majorant -> stretch_metric,
    with j = 1 unless given.  A caller that makes the input constant in t
    before ``constant_before=c`` states it, and the factor is constant there
    too (nothing is detected from samples); with ``already_gh_after=a`` the
    factor is pinned to 1 on (a, inf).  With ``verify``, the certificates
    run with ``n_verify_curves`` containment curves launched from
    (max(t_window[0], -2), -0.5), at tolerance ``verify_tol`` and finest
    step ``verify_step``.
    """
    with _stage("cone_bound_factor"):
        if g0 is None:
            g0 = m.spatial_slice(0.0)
        if j is None:
            # on a compact torus every metric is complete
            j = ScalarField.constant(1.0)
        lower = cone_bound_factor(m, j, g0)
    with _stage("smooth_majorant"):
        f = smooth_majorant(
            lower, m.domain, t_window,
            constant_before=constant_before, one_after=already_gh_after,
        )
    with _stage("stretch_metric"):
        stretched = stretch_metric(m, f)
    certificates = {}
    if verify:
        with _stage("verify"):
            certificates = stretch_certificates(
                stretched, j, g0, t_window, n_curves=n_verify_curves, seed=seed,
                t_start_range=(max(t_window[0], -2.0), -0.5), tol=verify_tol, step=verify_step,
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
    refv = causality.reference_field(stretched.domain, j, g0).at(pts)
    ts = np.linspace(t_window[0], t_window[1], n_t)
    scale, low, at = np.empty(n_t), np.empty(n_t), np.empty(n_t, dtype=int)  # per slice
    for block, (lam, g) in sweep_blocks(stretched, ts, pts, check=False):
        scale[block] = np.max(np.abs(g).reshape(len(g), -1), axis=1)
        g -= np.maximum(1.0, lam)[..., None, None] * refv
        ev = sym_min_eig_batch(g)
        low[block], at[block] = np.min(ev, axis=1), np.argmin(ev, axis=1)
    scale = float(np.max(scale))
    k = int(np.argmin(low))  # like argmin over every sample: the first NaN or minimum
    worst = float(low[k])
    passed = worst >= -tol * max(scale, 1.0)
    return ConeInequalityReport(
        worst, scale, passed,
        "" if passed else
        f"cone inequality violated: min eigenvalue {worst:.3e} at t={ts[k]}, "
        f"x={pts[at[k]].tolist()}",
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
    the containment tolerance and finest RK4 step)."""
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
    computed from the lapse of the one input evaluation, so the spatial
    form reads x if the input's lapse does.
    """

    def fn(t, x):
        lam, g = m.fn(t, x)
        s = as_shape(lam, t.shape)
        if (s <= 0).any():
            i = int(np.argmax(s <= 0))
            raise DomainError(f"non-positive lapse {s[i]} at t={t[i]}, x={x[i].tolist()}")
        th = smooth_unit_step(t)
        f = (1.0 - th) / s + th
        return f * s, f[:, None, None] * np.asarray(g, float)

    return replace(m, fn=fn, spatial_reads_x=m.spatial_reads_x or m.lapse_reads_x)


def freeze_past(m: MetricField) -> MetricField:
    """Reparametrize time by the freeze ramp: constant past, identity future.

    Output at time t evaluates the input at psi(t), where psi is 0 on
    (-inf, 0] and the identity on [1, inf); the plateau makes the output
    bit-exactly constant in t on the past region.
    """
    lo, hi = m.window
    if lo > 0.0:
        raise DomainError("freeze_past needs the input defined at time 0")

    return replace(m, fn=lambda t, x, _f=m.fn: _f(smooth_freeze_ramp(t), x), window=(-INF, hi))


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
            th[:, None, None] * k1.at(x) + (1.0 - th)[:, None, None] * k0.at(x)
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
        if mask.all():
            return a.fn(t, x)
        if not mask.any():
            return b.fn(t, x)
        lam = np.empty(t.shape)
        g = np.empty(t.shape + (d, d))
        lam[mask], g[mask] = a.fn(t[mask], x[mask])
        lam[~mask], g[~mask] = b.fn(t[~mask], x[~mask])
        return lam, g

    return MetricField(domain=a.domain, fn=fn, window=(a.window[0], b.window[1]))


def half_input(g: MetricField) -> MetricField:
    """The input of a join half, freeze_past(normalize_conformal(g)): g in
    the future, constant with unit lapse on (-inf, 0]."""
    return freeze_past(normalize_conformal(g))


def half_join(g: MetricField, t_window=(-3.0, 3.0), seed: int = 0,
              verify: bool = True, **settings) -> tuple[MetricField, MetricField, StretchResult]:
    """Build the globally hyperbolic metric equal to g in the future and
    ultrastatic in the past, plus its ultrastatic tail.

    Returns (gamma, u, stretch_result): gamma equals g on [1, inf) and is
    constant with unit lapse on (-inf, 0], where the factor is stated
    constant (``constant_before=0``); u is -dt^2 + (gamma's frozen
    spatial form) on all of R.  ``settings`` (``n_verify_curves``,
    ``verify_tol``, ``verify_step``) go to ``make_globally_hyperbolic``,
    whose containment curves start in (max(t_window[0], -2), -0.5).
    """
    with _stage("freeze_past"):
        k = half_input(g)
    result = make_globally_hyperbolic(
        k, already_gh_after=1.0, constant_before=0.0, t_window=t_window, seed=seed,
        verify=verify, **settings
    )
    with _stage("ultrastatic_tail"):
        u = ultrastatic_tail(result.metric)
    return result.metric, u, result


def join_ultrastatic(g: MetricField, t_window=(-3.0, 3.0), seed: int = 0,
                     verify: bool = True, **settings) -> JoinArtifact:
    """Asymptotic join of g with an ultrastatic metric: the half pipeline
    (``settings`` as for ``half_join``)."""
    gamma, u, result = half_join(g, t_window=t_window, seed=seed, verify=verify, **settings)
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
    **settings,
) -> JoinArtifact:
    """Globally hyperbolic metric equal to g far in the future and to h far in
    the past, glued through a convex ultrastatic interpolation.

    The output coincides with g on [4, inf) after the recorded time shift
    (output at tau equals g at tau - 3) and with h on (-inf, -1] (no shift).
    ``settings`` go to both halves, as for ``half_join``.
    """
    if g.domain != h.domain:
        raise ShapeError("asymptotic join needs metrics over the same spatial domain")
    with _stage("half_join(g)"):
        gamma_g, u_g, res_g = half_join(
            g, t_window=t_window, seed=seed, verify=verify, **settings
        )
    with _stage("half_join(reversed h)"):
        gamma_h, u_h, res_h = half_join(
            time_reverse(h), t_window=t_window, seed=seed, verify=verify, **settings
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
