"""Evaluable fields over R x T^d: scalars, SPD forms, and product metrics.

A product Lorentzian metric -lapse(t,x) dt^2 + g_t(x) is one vectorized
callable ``fn(t, x) -> (lapse, spatial)`` that returns both ingredients
together, so a composed layer (conformal factor, time reparametrization,
stretch, splice) evaluates its input once per call and does its own work
once.  Closed-form fields evaluate exactly; a grid-backed metric
interpolates its samples with one cubic tensor-product spline, periodic in
the spatial axes, whose single fit covers the lapse and every spatial
component, so one metric evaluation is one spline call.  All field objects
are immutable; evaluation is pure.

Every certificate that checks a field on a time x space lattice samples it
with ``sample_metric(m, t_grid, pts=None, check=True)``: one evaluation per
time value, in order, over the point set ``pts`` (the domain grid by
default), stacked into (nt, n) lapse and (nt, n, d, d) spatial arrays for a
metric, or (nt, n) values for a scalar field.  Callers reduce over the
stacked arrays; the batching of lattice evaluations is decided here only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.interpolate import NdBSpline
from scipy.sparse.linalg import gcrotmk

from .domain import SpatialDomain, is_spd_batch
from .errors import DataError, DomainError, ShapeError

CONSTANT_IN_T = "constant-in-t"
IDENTICALLY_ONE = "identically-one"

_INF = math.inf


@dataclass(frozen=True)
class PlateauConstraint:
    """A time interval on which a scalar field is constant in t, or exactly 1."""

    t_lo: float
    t_hi: float
    kind: str

    def __post_init__(self):
        if self.kind not in (CONSTANT_IN_T, IDENTICALLY_ONE):
            raise DomainError(f"unknown plateau kind {self.kind!r}")
        if not self.t_lo < self.t_hi:
            raise DomainError("plateau interval must be nondegenerate")

    def overlaps(self, other: "PlateauConstraint") -> bool:
        return self.t_lo < other.t_hi and other.t_lo < self.t_hi


def as_batch(t, x, d: int):
    """Canonicalize (t, x) to (t: (n,), x: (n, d), was_scalar)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    scalar = t.ndim == 0 and x.ndim <= 1
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        if scalar:
            x = x.reshape(1, -1)
        else:
            x = x.reshape(-1, 1)
    if x.shape[-1] != d:
        raise ShapeError(f"points have dimension {x.shape[-1]}, domain has {d}")
    n = x.shape[0]
    if t.ndim == 0:
        tb = np.full(n, float(t))
    else:
        if t.shape[0] != n:
            raise ShapeError(f"t batch {t.shape[0]} does not match x batch {n}")
        tb = t.astype(float)
    return tb, x, scalar


@dataclass(frozen=True)
class ScalarField:
    """Positive scalar over (t, x) with optional plateau annotations."""

    fn: Callable
    plateaus: tuple[PlateauConstraint, ...] = ()

    @staticmethod
    def constant(value: float) -> "ScalarField":
        v = float(value)
        return ScalarField(
            fn=lambda t, x: np.full(np.shape(t), v),
            plateaus=(PlateauConstraint(-_INF, _INF, CONSTANT_IN_T),)
            + ((PlateauConstraint(-_INF, _INF, IDENTICALLY_ONE),) if v == 1.0 else ()),
        )

    @staticmethod
    def from_time_function(fn: Callable) -> "ScalarField":
        return ScalarField(fn=lambda t, x: np.asarray(fn(np.asarray(t, float)), float))

    @staticmethod
    def from_space_function(fn: Callable) -> "ScalarField":
        sf = ScalarField(
            fn=lambda t, x: np.asarray(fn(np.asarray(x, float)), float),
            plateaus=(PlateauConstraint(-_INF, _INF, CONSTANT_IN_T),),
        )
        return sf

    def __call__(self, t, x, domain: SpatialDomain | None = None):
        xa = np.asarray(x, dtype=float)
        if domain is not None:
            d = domain.dimension
        elif xa.ndim == 0:
            d = 1
        elif xa.ndim == 1:
            d = xa.shape[0] if np.ndim(t) == 0 else 1
        else:
            d = xa.shape[-1]
        tb, xb, scalar = as_batch(t, x, d)
        out = np.asarray(self.fn(tb, xb), dtype=float)
        out = np.broadcast_to(out, tb.shape)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SpdField:
    """SPD-form-valued field over x alone (a Riemannian metric on the torus)."""

    domain: SpatialDomain
    fn: Callable  # x: (n, d) -> (n, d, d)

    @staticmethod
    def constant(domain: SpatialDomain, mat: np.ndarray) -> "SpdField":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim == 0:
            mat = mat.reshape(1, 1)
        if mat.shape != (domain.dimension, domain.dimension):
            raise ShapeError(
                f"constant form shape {mat.shape} vs domain dimension {domain.dimension}"
            )
        return SpdField(domain, lambda x: np.broadcast_to(mat, (x.shape[0],) + mat.shape))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1:
            x = x.reshape(1, -1)
        out = np.asarray(self.fn(x), dtype=float)
        return out[0] if single else out

    def scaled(self, factor: float) -> "SpdField":
        f = float(factor)
        return SpdField(self.domain, lambda x, _fn=self.fn: f * np.asarray(_fn(x)))


@dataclass(frozen=True)
class MetricField:
    """Product Lorentzian metric -lapse dt^2 + g_t on R x T^d.

    ``fn(t, x)`` takes a time batch t (n,) and points x (n, d) and returns
    ``(lapse, spatial)``: the lapse (n,) (or anything that broadcasts to it)
    and the spatial form (n, d, d).  It is called without window or value
    checks; ``eval`` adds both.
    """

    domain: SpatialDomain
    fn: Callable  # (t: (n,), x: (n, d)) -> (lapse (n,), spatial (n, d, d))
    window: tuple[float, float] = (-_INF, _INF)

    def _check_window(self, t: np.ndarray):
        lo, hi = self.window
        bad = (t < lo) | (t > hi)
        if np.any(bad):
            tb = float(np.asarray(t)[bad][0]) if np.ndim(t) else float(t)
            raise DomainError(
                f"time {tb} outside validity window [{lo}, {hi}]"
            )

    def eval(self, t, x, check: bool = True):
        """Batched evaluation: returns (lapse: (n,), spatial: (n, d, d))."""
        tb, xb, scalar = as_batch(t, x, self.domain.dimension)
        self._check_window(tb)
        lam, g = self.fn(tb, xb)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), tb.shape)
        g = np.asarray(g, dtype=float)
        if g.shape != (tb.shape[0], self.domain.dimension, self.domain.dimension):
            raise ShapeError(f"spatial field returned shape {g.shape}")
        if check:
            bad = ~(lam > 0)  # NaN is not a positive lapse either
            if np.any(bad):
                i = int(np.argmax(bad))
                raise DataError(
                    f"non-positive lapse {lam[i]} at t={tb[i]}, x={xb[i].tolist()}"
                )
            ok = is_spd_batch(g)
            if not np.all(ok):
                i = int(np.argmax(~ok))
                raise DataError(
                    f"spatial form not SPD at t={tb[i]}, x={xb[i].tolist()}"
                )
        if scalar:
            return float(lam[0]), g[0]
        return lam, g

    def spatial_slice(self, t: float) -> SpdField:
        """The Riemannian metric g_t at a fixed time, as an SpdField."""
        t = float(t)
        return SpdField(
            self.domain,
            lambda x: np.asarray(self.fn(np.full(x.shape[0], t), x)[1], dtype=float),
        )

    def lapse_at(self, t, x):
        tb, xb, scalar = as_batch(t, x, self.domain.dimension)
        self._check_window(tb)
        lam = np.broadcast_to(np.asarray(self.fn(tb, xb)[0], dtype=float), tb.shape)
        return float(lam[0]) if scalar else lam


def ultrastatic_metric(domain: SpatialDomain, h0) -> MetricField:
    """-dt^2 + h0 with time-independent spatial form and unit lapse."""
    h0field = h0 if isinstance(h0, SpdField) else SpdField.constant(domain, h0)
    return MetricField(domain, lambda t, x: (np.ones_like(t), h0field.fn(x)))


def warped_product(domain: SpatialDomain, scale: Callable, g0: SpdField,
                   lapse: Callable | None = None) -> MetricField:
    """-lapse dt^2 + a(t)^2 g0 for a scalar scale factor a(t)."""

    def fn(t, x):
        lam = np.ones_like(t) if lapse is None else lapse(t, x)
        a = np.asarray(scale(np.asarray(t, float)), float)
        return lam, (a * a)[:, None, None] * np.asarray(g0.fn(x), float)

    return MetricField(domain, fn)


def time_reverse(m: MetricField) -> MetricField:
    """The metric evaluated at (-t, x); involution, window negated and swapped."""
    lo, hi = m.window
    return replace(m, fn=lambda t, x, _f=m.fn: _f(-t, x), window=(-hi, -lo))


def time_shift(m: MetricField, c: float) -> MetricField:
    """The metric evaluated at (t - c, x): m shifted forward in time by c."""
    c = float(c)
    lo, hi = m.window
    return replace(m, fn=lambda t, x, _f=m.fn: _f(t - c, x), window=(lo + c, hi + c))


def conformal_metric(m: MetricField, factor: ScalarField) -> MetricField:
    """Multiply the whole metric (lapse and spatial part) by a positive scalar."""

    def fn(t, x):
        f = np.asarray(factor.fn(t, x), float)
        lam, g = m.fn(t, x)
        return f * np.asarray(lam, float), f[:, None, None] * np.asarray(g, float)

    return replace(m, fn=fn)


# ---------------------------------------------------------------------------
# grid-backed representation
# ---------------------------------------------------------------------------

_PAD = 3  # wrap padding cells per side; cubic interpolation needs 2


def _not_a_knot(x: np.ndarray) -> np.ndarray:
    """Cubic not-a-knot knot vector on the sample sites x."""
    return np.concatenate([np.full(4, x[0]), x[2:-2], np.full(4, x[-1])])


class _GridSpline:
    """One cubic tensor-product spline over (t_grid x spatial grid), periodic
    in x, for the lapse and every spatial component of a grid metric.

    The spatial axes are padded with wrapped copies, the knots are
    not-a-knot, and each component's coefficients come from its own gcrotmk
    solve (atol 1e-6) of the one shared collocation system: per component,
    the arithmetic of scipy's ``RegularGridInterpolator(method="cubic")``.
    The components sit on the spline's trailing axis, the lapse first and
    then the spatial upper triangle (row-major), so evaluating the metric
    (lapse and spatial form together) is one spline call.
    """

    def __init__(self, domain: SpatialDomain, t_grid: np.ndarray,
                 lapse_samples: np.ndarray, spatial_samples: np.ndarray):
        d = domain.dimension
        upper = [(a, b) for a in range(d) for b in range(a, d)]
        # component index of each (a, b) entry of the symmetric spatial form
        self._sym = np.empty((d, d), dtype=int)
        for k, (a, b) in enumerate(upper):
            self._sym[a, b] = self._sym[b, a] = k
        self.domain = domain
        axes = [t_grid]
        padded = np.stack(
            [lapse_samples] + [spatial_samples[..., a, b] for a, b in upper], axis=-1
        )
        for ax in range(d):
            coords = domain.axis_coords(ax)
            h = domain.circumferences[ax] / domain.resolution[ax]
            ext = np.concatenate(
                [coords[0] - h * np.arange(_PAD, 0, -1), coords,
                 coords[-1] + h * np.arange(1, _PAD + 1)]
            )
            axes.append(ext)
            left = np.take(padded, range(-_PAD, 0), axis=ax + 1)
            right = np.take(padded, range(_PAD), axis=ax + 1)
            padded = np.concatenate([left, padded, right], axis=ax + 1)
        knots = tuple(_not_a_knot(a) for a in axes)
        sites = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        design = NdBSpline.design_matrix(sites, knots, 3)
        design.eliminate_zeros()
        rhs = padded.reshape(sites.shape[0], -1)
        coef = np.empty_like(rhs)
        for j in range(rhs.shape[1]):
            coef[:, j], info = gcrotmk(design, np.ascontiguousarray(rhs[:, j]), atol=1e-6)
            if info != 0:
                raise DataError(f"grid spline fit did not converge (gcrotmk info {info})")
        self._spline = NdBSpline(knots, coef.reshape(padded.shape), 3)

    def __call__(self, t: np.ndarray, x: np.ndarray):
        out = self._spline(np.column_stack([t, self.domain.wrap(x)]))
        return out[:, 0], out[:, 1:][:, self._sym]


def sample_metric(m, t_grid, pts=None, check: bool = True):
    """Sample a metric or scalar field on the lattice t_grid x pts.

    One evaluation per time value, in order: ``m.eval(t, pts, check)`` for a
    MetricField, so an evaluation error names the earliest bad time, and
    ``m.fn(t, pts)`` for a ScalarField (which needs ``pts``).  ``pts``
    defaults to the metric's domain grid.  Returns (lapse (nt, n),
    spatial (nt, n, d, d)) for a metric and the values (nt, n) for a scalar
    field.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if pts is None:
        pts = m.domain.grid_points()
    n = pts.shape[0]
    if isinstance(m, ScalarField):
        vals = np.empty((t_grid.size, n))
        for i, t in enumerate(t_grid):
            vals[i] = m.fn(np.full(n, t), pts)
        return vals
    d = m.domain.dimension
    lam = np.empty((t_grid.size, n))
    g = np.empty((t_grid.size, n, d, d))
    for i, t in enumerate(t_grid):
        lam[i], g[i] = m.eval(np.full(n, t), pts, check=check)
    return lam, g


def grid_metric(
    domain: SpatialDomain,
    t_grid,
    lapse_samples: np.ndarray,
    spatial_samples: np.ndarray,
) -> MetricField:
    """Build an interpolating metric from samples (cubic, periodic in x).

    One spline fit covers the lapse and every spatial component; an
    evaluation is one spline call for both.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lapse_samples = np.asarray(lapse_samples, dtype=float)
    spatial_samples = np.asarray(spatial_samples, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 4:
        raise ShapeError("grid representation needs at least 4 time samples")
    d = domain.dimension
    shape = (t_grid.size,) + tuple(domain.resolution)
    if lapse_samples.shape != shape:
        raise ShapeError(
            f"lapse sample array shape {lapse_samples.shape} does not match grid {shape}"
        )
    if spatial_samples.shape != shape + (d, d):
        raise ShapeError(
            f"spatial sample array shape {spatial_samples.shape} does not match "
            f"grid {shape + (d, d)}"
        )
    return MetricField(
        domain,
        _GridSpline(domain, t_grid, lapse_samples, spatial_samples),
        window=(float(t_grid[0]), float(t_grid[-1])),
    )


def grid_sample_metric(m: MetricField, t_grid) -> MetricField:
    """Sample a metric onto the grid and return the interpolating grid metric."""
    lam, g = sample_metric(m, t_grid)
    shape = lam.shape[:1] + tuple(m.domain.resolution)
    return grid_metric(m.domain, t_grid, lam.reshape(shape), g.reshape(shape + g.shape[-2:]))


def max_metric_deviation(a: MetricField, b: MetricField, t_samples, shift: float = 0.0):
    """Worst componentwise relative deviation between a(t, x) and b(t + shift, x)
    over t_samples x the grid; each difference is scaled by max(|value|, 1).

    Returns (max_deviation, (t, x) location of the earliest worst sample).
    """
    if a.domain != b.domain:
        raise ShapeError("metrics live on different spatial domains")
    ts = np.asarray(t_samples, dtype=float)
    pts = a.domain.grid_points()
    la, ga = sample_metric(a, ts, pts, check=False)
    lb, gb = sample_metric(b, ts + shift, pts, check=False)
    ga = ga.reshape(la.shape + (-1,))
    gb = gb.reshape(la.shape + (-1,))
    diff_l = np.abs(la - lb) / np.maximum(np.maximum(np.abs(la), np.abs(lb)), 1.0)
    diff_g = np.abs(ga - gb).max(axis=2) / np.maximum(np.abs(ga).max(axis=2), 1.0)
    dev = np.maximum(diff_l, diff_g)
    k, i = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[k, i]), (float(ts[k]), pts[i].tolist())
