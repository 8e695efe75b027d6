"""Evaluable fields over R x T^d: scalars, SPD forms, and product metrics.

A product Lorentzian metric -lapse(t,x) dt^2 + g_t(x) is one vectorized
callable ``fn(t, x) -> (lapse, spatial)`` that returns both ingredients
together, so a composed layer (conformal factor, time reparametrization,
stretch, splice) evaluates its input once per call and does its own work
once.  Closed-form fields evaluate exactly; a grid-backed metric
interpolates its samples with one numpy cubic tensor-product spline for the
lapse and every spatial component together (periodic in space, with one FFT
solve per axis; not-a-knot in time), so one metric evaluation is one spline
call, and a lattice slice of it (its whole domain grid at one time) is one
time contraction plus a [1, 4, 1]/6 node stencil per spatial axis.  All field
objects are immutable; evaluation is pure.

Every lattice of a field, time x space, is sampled by
``sample_metric(m, t_grid, pts=None, check=True)``: one evaluation per time
value, in order, over the point set ``pts`` (the domain grid by default),
stacked into (nt, n) lapse and (nt, n, d, d) spatial arrays for a metric, or
(nt, n) values for a scalar field.  A certificate reduces its sweep block by
block with ``sweep_blocks``: ``sample_metric`` over consecutive runs of
t_grid holding about ``SWEEP_BLOCK_POINTS`` lattice points each (one slice of
a 128 x 128 grid, a whole sweep of a small one), so a block's forms stay
cache-sized and no whole sweep is stacked.  The batching of lattice
evaluations is decided here only.

A lattice slice is a batch with one time (``single_time``) at the domain
grid (``SpatialDomain.is_grid``), and a layer may evaluate it separably,
bit for bit: work that depends on t alone is done once per slice on one
element, and work that depends on x alone once per grid and read back.
The DSL metrics of ``config`` do so; the smooth majorant, on its one
evaluation path, runs the time logic of any one-time batch on one element
and reads its grid nodes back; and a spatial form declared constant in x is
checked, and its pencil solved, once per slice.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .domain import SpatialDomain, is_spd_batch, upper_index
from .errors import DataError, DomainError, ShapeError

_INF = math.inf


def single_time(t: np.ndarray) -> bool:
    """Whether a time batch (n,) holds one time, as a lattice slice does."""
    return t.ndim == 1 and t.size > 0 and bool((t == t[0]).all())


def as_shape(a, shape: tuple) -> np.ndarray:
    """a as a float array of the given shape, filled into a new array only
    when it does not have that shape already."""
    a = np.asarray(a, dtype=float)
    return a if a.shape == shape else np.full(shape, a)


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
    """Positive scalar over (t, x); ``value`` is set on a constant field."""

    fn: Callable
    value: float | None = None

    @staticmethod
    def constant(value: float) -> "ScalarField":
        v = float(value)
        return ScalarField(fn=lambda t, x: np.full(np.shape(t), v), value=v)

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
        out = as_shape(self.fn(tb, xb), tb.shape)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SpdField:
    """SPD-form-valued field over x alone (a Riemannian metric on the torus);
    ``matrix`` is the (d, d) form of a constant field (read-only)."""

    domain: SpatialDomain
    fn: Callable  # x: (n, d) -> (n, d, d)
    matrix: np.ndarray | None = field(default=None, compare=False)

    @staticmethod
    def constant(domain: SpatialDomain, mat: np.ndarray) -> "SpdField":
        mat = np.array(mat, dtype=float)
        if mat.ndim == 0:
            mat = mat.reshape(1, 1)
        if mat.shape != (domain.dimension, domain.dimension):
            raise ShapeError(
                f"constant form shape {mat.shape} vs domain dimension {domain.dimension}"
            )
        mat.setflags(write=False)
        return SpdField(domain, lambda x: np.full((x.shape[0],) + mat.shape, mat), mat)

    def at(self, x: np.ndarray) -> np.ndarray:
        """The form at the points x (n, d): (n, d, d), or the (d, d) matrix of
        a constant field, which broadcasts against any batch."""
        return self.matrix if self.matrix is not None else np.asarray(self.fn(x), dtype=float)

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
        if self.matrix is not None:
            return SpdField.constant(self.domain, f * self.matrix)
        return SpdField(self.domain, lambda x, _fn=self.fn: f * np.asarray(_fn(x)))


@dataclass(frozen=True)
class MetricField:
    """Product Lorentzian metric -lapse dt^2 + g_t on R x T^d.

    ``fn(t, x)`` takes a time batch t (n,) and points x (n, d) and returns
    ``(lapse, spatial)``: the lapse (n,) (or anything that broadcasts to it)
    and the spatial form (n, d, d).  It is called without window or value
    checks; ``eval`` adds both.
    ``lapse_reads_x`` and ``spatial_reads_x`` say whether the lapse and the
    spatial form depend on x; the default, True, is never wrong.  A layer
    built with ``dataclasses.replace`` restates any claim its work breaks.
    """

    domain: SpatialDomain
    fn: Callable  # (t: (n,), x: (n, d)) -> (lapse (n,), spatial (n, d, d))
    window: tuple[float, float] = (-_INF, _INF)
    lapse_reads_x: bool = True
    spatial_reads_x: bool = True

    def _check_window(self, t: np.ndarray):
        lo, hi = self.window
        bad = (t < lo) | (t > hi)
        if bad.any():
            tb = float(np.asarray(t)[bad][0]) if np.ndim(t) else float(t)
            raise DomainError(
                f"time {tb} outside validity window [{lo}, {hi}]"
            )

    def eval(self, t, x, check: bool = True):
        """Batched evaluation: returns (lapse: (n,), spatial: (n, d, d))."""
        tb, xb, scalar = as_batch(t, x, self.domain.dimension)
        self._check_window(tb)
        lam, g = self.fn(tb, xb)
        lam = as_shape(lam, tb.shape)
        g = np.asarray(g, dtype=float)
        if g.shape != (tb.shape[0], self.domain.dimension, self.domain.dimension):
            raise ShapeError(f"spatial field returned shape {g.shape}")
        if check:
            bad = ~(lam > 0)  # NaN is not a positive lapse either
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(
                    f"non-positive lapse {lam[i]} at t={tb[i]}, x={xb[i].tolist()}"
                )
            # a form declared constant in x is one matrix on a one-time batch
            ok = is_spd_batch(g[:1] if not self.spatial_reads_x and single_time(tb) else g)
            if not ok.all():
                i = int(np.argmax(~ok))
                raise DataError(
                    f"spatial form not SPD at t={tb[i]}, x={xb[i].tolist()}"
                )
        if scalar:
            return float(lam[0]), g[0]
        return lam, g

    def spatial_slice(self, t: float) -> SpdField:
        """The Riemannian metric g_t at a fixed time, as an SpdField: a
        constant one, from one point, when the spatial form does not read x."""
        t = float(t)
        if not self.spatial_reads_x:
            g = self.fn(np.array([t]), np.zeros((1, self.domain.dimension)))[1]
            return SpdField.constant(self.domain, g[0])
        return SpdField(
            self.domain,
            lambda x: np.asarray(self.fn(np.full(x.shape[0], t), x)[1], dtype=float),
        )


def ultrastatic_metric(domain: SpatialDomain, h0) -> MetricField:
    """-dt^2 + h0 with time-independent spatial form and unit lapse."""
    h0field = h0 if isinstance(h0, SpdField) else SpdField.constant(domain, h0)
    return warped_product(domain, np.ones_like, h0field)


def warped_product(domain: SpatialDomain, scale: Callable, g0: SpdField,
                   lapse: Callable | None = None) -> MetricField:
    """-lapse dt^2 + a(t)^2 g0 for a scalar scale factor a(t).

    Its spatial form reads x only if g0 does; a given lapse counts as reading
    x, and the caller may declare otherwise."""

    def fn(t, x):
        lam = np.ones_like(t) if lapse is None else lapse(t, x)
        a = np.asarray(scale(np.asarray(t, float)), float)
        return lam, (a * a)[:, None, None] * g0.at(x)

    return MetricField(domain, fn, lapse_reads_x=lapse is not None,
                       spatial_reads_x=g0.matrix is None)


def time_reverse(m: MetricField) -> MetricField:
    """The metric evaluated at (-t, x); involution, window negated and swapped."""
    lo, hi = m.window
    return replace(m, fn=lambda t, x, _f=m.fn: _f(-t, x), window=(-hi, -lo))


def time_shift(m: MetricField, c: float) -> MetricField:
    """The metric evaluated at (t - c, x): m shifted forward in time by c."""
    c = float(c)
    lo, hi = m.window
    return replace(m, fn=lambda t, x, _f=m.fn: _f(t - c, x), window=(lo + c, hi + c))


# ---------------------------------------------------------------------------
# grid-backed representation
# ---------------------------------------------------------------------------

# uniform cubic B-spline weights of the cells i-1 .. i+2 at a fraction f of
# cell i: _CUBIC[p] holds the f^p terms, shaped to broadcast against f (d, n)
_CUBIC = np.array([[1, 4, 1, 0], [-3, 0, 3, 0], [3, -6, 3, 0], [-1, 3, -3, 1]]) / 6.0
_CUBIC = _CUBIC[:, :, None, None]


def _sum_leading(p: np.ndarray) -> np.ndarray:
    """The sum over the leading axis (2^m long) as a fixed tree of elementwise
    additions, so no entry's bits depend on the rest of its batch."""
    while len(p) > 1:
        p = p[:len(p) // 2] + p[len(p) // 2:]
    return p[0]


class _GridSpline:
    """One cubic tensor-product spline over (t_grid x spatial grid) whose
    components are the lapse and the spatial upper triangle (row-major).

    Each spatial axis has the uniform periodic cubic B-spline, whose circulant
    [1, 4, 1]/6 system one FFT solves exactly (Unser, "Splines: a perfect fit
    for signal and image processing", IEEE SPM 1999); time has not-a-knot
    knots and one dense collocation solve.  The coefficients are wrap-padded,
    one cell before and two after on each spatial axis.  An evaluation
    contracts time first, once per distinct time: over the whole padded slab,
    or, on a grid large against the batch, over the rows it reads.  Both give
    the same bits, so a point's value never depends on its batch.
    """

    def __init__(self, domain: SpatialDomain, t_grid: np.ndarray,
                 lapse_samples: np.ndarray, spatial_samples: np.ndarray):
        d = domain.dimension
        self.domain, self._sym = domain, upper_index(d)
        upper = spatial_samples[(...,) + np.triu_indices(d)]
        values = np.concatenate([lapse_samples[..., None], upper], -1)
        nt, nc = values.shape[0], values.shape[-1]
        times = t_grid.tolist()
        self._knots = times[:1] * 4 + times[2:-2] + times[-1:] * 4
        colloc = np.zeros((nt, nt))
        for i, t in enumerate(times):
            k, b = self._basis(t)
            colloc[i, k - 3:k + 1] = b
        coef = np.linalg.solve(colloc, values.reshape(nt, -1)).reshape(values.shape)
        for ax, n in enumerate(domain.resolution, start=1):
            eig = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)) / 6.0
            eig = eig.reshape((-1,) + (1,) * (coef.ndim - ax - 1))
            coef = np.fft.irfft(np.fft.rfft(coef, axis=ax) / eig, n=n, axis=ax)
        coef = np.pad(coef, [(0, 0)] + [(1, 2)] * d + [(0, 0)], mode="wrap")
        self._padded = coef.shape[1:-1]
        self._coef = coef.reshape(nt, -1, nc)  # per time, (padded cell, component)
        self._per_cell = np.array(domain.resolution) / np.array(domain.circumferences)
        self._last = np.array(domain.resolution) - 1.0
        self._stride = np.array([np.prod(self._padded[ax + 1:]) for ax in range(d)], float)
        # a point's 4^d cells (axis 0 outermost) as offsets (4^d, 1) from its first
        self._block = (np.indices((4,) * d).reshape(d, -1).T @ self._stride)[:, None]
        self._block = self._block.astype(np.intp)

    def __call__(self, t: np.ndarray, x: np.ndarray):
        if single_time(t):
            t0 = float(t[0])
            out = self._grid_slice(t0) if self.domain.is_grid(x) else self._points(t0, x)
        else:
            out = self._points(t, x)
        return out[:, 0], out[:, 1:][:, self._sym]

    def _basis(self, t: float):
        """The knot span k of t and B_{k-3} .. B_k at t by the Cox-de Boor
        recursion (de Boor, *A Practical Guide to Splines*, ch. X); a time at
        or past either end of the window takes its end interval."""
        knots = self._knots
        k = min(max(bisect.bisect_right(knots, t) - 1, 3), len(knots) - 5)
        left = [t - knots[k - r] for r in range(3)]
        right = [knots[k + 1 + r] - t for r in range(3)]
        b = [1.0]
        for j in range(1, 4):
            saved, nxt = 0.0, []
            for r in range(j):
                temp = b[r] / (right[r] + left[j - 1 - r])
                nxt.append(saved + right[r] * temp)
                saved = left[j - 1 - r] * temp
            b = nxt + [saved]
        return k, b

    def _time_slab(self, t: float) -> np.ndarray:
        """The coefficients contracted over time at t, (cells, components)."""
        k, b = self._basis(t)
        return _sum_leading(self._coef[k - 3:k + 1] * np.reshape(b, (4, 1, 1)))

    def _time_rows(self, t: float, rows: np.ndarray) -> np.ndarray:
        """The coefficients of the slab cells rows, contracted over time at t:
        from the slab when it costs at most about twice the rows, else from
        the rows alone, with the same bits."""
        if len(self._coef[0]) <= 2 * rows.size:
            return np.take(self._time_slab(t), rows, axis=0)
        k, b = self._basis(t)
        rows = np.take(self._coef[k - 3:k + 1], rows, axis=1)  # (4, 4^d, n, components)
        return _sum_leading(rows * np.reshape(b, (4, 1, 1, 1)))

    def _points(self, t, x: np.ndarray) -> np.ndarray:
        """The spline at the points x (n, d) at one time t (a float) or at the
        times t (n,): (n, components)."""
        n, d = x.shape
        u = self.domain.wrap(x) * self._per_cell
        # x mod L can round up to L: clamp it into the last cell (f = 1);
        # fmin sends a NaN there too, and its NaN weights keep its row NaN
        cell = np.fmin(np.floor(u), self._last)
        f = (u - cell).T
        w = ((_CUBIC[3] * f + _CUBIC[2]) * f + _CUBIC[1]) * f + _CUBIC[0]  # (4, d, n)
        weights = w[:, 0]
        for ax in range(1, d):
            weights = (weights[:, None] * w[:, ax]).reshape(-1, n)
        rows = self._block + (cell @ self._stride).astype(np.intp)  # (4^d, n)
        if isinstance(t, float):
            c = self._time_rows(t, rows)
        else:  # per distinct time (a NaN time gets NaN weights)
            times, which = np.unique(t, return_inverse=True)
            c = np.empty(rows.shape + self._coef.shape[-1:])
            for i, ti in enumerate(times.tolist()):
                c[:, which == i] = self._time_rows(ti, rows[:, which == i])
        return _sum_leading(c * weights[..., None])

    def _grid_slice(self, t: float) -> np.ndarray:
        """The spline on the whole domain grid at one time t, (n, components):
        the time slab, then the node stencil [1, 4, 1]/6 per spatial axis."""
        c = self._time_slab(t).reshape(self._padded + (-1,))
        for ax, n in enumerate(self.domain.resolution):
            part = [c[(slice(None),) * ax + (slice(a, a + n),)] for a in range(3)]
            c = (part[0] + 4.0 * part[1] + part[2]) / 6.0
        return c.reshape(self.domain.n_points, -1)


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


# lattice points per block of a certificate sweep: one slice of a 128 x 128
# grid, so the eigen kernels run over arrays that stay in cache
SWEEP_BLOCK_POINTS = 2 ** 14


def sweep_blocks(m, t_grid, pts: np.ndarray, check: bool = True):
    """``sample_metric`` over consecutive runs of t_grid, each of as many
    whole slices as fit in SWEEP_BLOCK_POINTS lattice points (at least one):
    yields (the slice of t_grid, its samples), in order, so the evaluations
    are those of one ``sample_metric`` call over all of t_grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    step = max(1, SWEEP_BLOCK_POINTS // pts.shape[0])
    for start in range(0, t_grid.size, step):
        block = slice(start, min(start + step, t_grid.size))
        yield block, sample_metric(m, t_grid[block], pts, check)


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
    if not np.all(np.diff(t_grid) > 0):
        raise ShapeError("grid time samples must be strictly increasing")
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


def max_metric_deviation(a: MetricField, b: MetricField, t_samples, shift: float = 0.0):
    """Worst componentwise relative deviation between a(t, x) and b(t + shift, x)
    over t_samples x the grid; each difference is scaled by max(|value|, 1).

    Returns (max_deviation, (t, x) location of the earliest worst sample).
    """
    if a.domain != b.domain:
        raise ShapeError("metrics live on different spatial domains")
    ts = np.asarray(t_samples, dtype=float)
    pts = a.domain.grid_points()
    worst, at = np.empty(ts.size), np.empty(ts.size, dtype=int)  # per slice
    for (block, (la, ga)), (_, (lb, gb)) in zip(
            sweep_blocks(a, ts, pts, check=False), sweep_blocks(b, ts + shift, pts, check=False)):
        ga = ga.reshape(la.shape + (-1,))
        gb = gb.reshape(la.shape + (-1,))
        diff_l = np.abs(la - lb) / np.maximum(np.maximum(np.abs(la), np.abs(lb)), 1.0)
        diff_g = np.abs(ga - gb).max(axis=2) / np.maximum(np.abs(ga).max(axis=2), 1.0)
        dev = np.maximum(diff_l, diff_g)
        worst[block], at[block] = np.max(dev, axis=1), np.argmax(dev, axis=1)
    k = int(np.argmax(worst))  # like argmax over every sample: the first NaN or maximum
    return float(worst[k]), (float(ts[k]), pts[at[k]].tolist())
