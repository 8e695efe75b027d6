"""Declared spatial constancy: which metric layers claim that their lapse or
spatial form does not read x, that every claim holds bit for bit on the
domain grid, that the certified reference of constant inputs is one
matrix, and that a declared slice is checked and its pencil solved once,
with the values and errors of the pointwise path."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_surgery import (
    MetricSpec,
    ScalarField,
    SpatialDomain,
    SpdField,
    build_metric,
    cone_bound_factor,
    freeze_past,
    normalize_conformal,
    splice,
    stretch_metric,
    time_reverse,
    time_shift,
    warped_product,
)
from causal_surgery import surgery
from causal_surgery.causality import reference_field
from causal_surgery.errors import DataError
from causal_surgery.fields import sample_metric
from conftest import grid_sample_metric

_DOMAINS = {
    1: SpatialDomain(1, (2 * np.pi,), (12,)),
    2: SpatialDomain(2, (2 * np.pi, 4.0), (10, 8)),
}

# (catalog, dimension, params, spatial form reads x)
_CATALOG = [
    ("ultrastatic", 1, {"g0": 2.0}, False),
    ("ultrastatic", 2, {"g0": [[2.0, 0.3], [0.3, 1.0]]}, False),
    ("flrw_exp", 1, {"rate": 0.7}, False),
    ("flrw_exp", 2, {"rate": -1.3, "g0": [[1.5, -0.2], [-0.2, 0.8]]}, False),
    ("flrw_poly", 1, {"power": 1.5, "g0": 3.0}, False),
    ("flrw_poly", 2, {"power": 3.0}, False),
    ("anisotropic_diag", 2, {"a1": "exp(t)", "a2": "(1 + t^2)^(1/2)", "g0": 1.0}, False),
    ("custom", 1, {"g11": "2 + sin(t)^2"}, False),
    ("custom", 2, {"g11": "2 + sin(t)", "g12": "0.1*t", "g22": "1 + t^2"}, False),
    ("custom", 1, {"g11": "2 + sin(x1)*t^2"}, True),
    ("custom", 2, {"g11": "2 + cos(t)", "g12": "0.1*sin(x2)", "g22": "1 + t^2"}, True),
]

# lapse expression -> whether it reads x
_LAPSES = {"1": False, "1 + 0.5*sin(t)^2": False, "1 + 0.25*sin(x1)*cos(t)": True}

# stack name -> (layers applied to the catalog metric, whether it normalizes)
_STACKS = {
    "plain": (lambda m: m, False),
    "reverse": (time_reverse, False),
    "shift": (lambda m: time_shift(m, 1.5), False),
    "normalize": (normalize_conformal, True),
    "normalize-freeze": (lambda m: freeze_past(normalize_conformal(m)), True),
    "normalize-freeze-reverse": (lambda m: time_reverse(freeze_past(normalize_conformal(m))), True),
    "normalize-freeze-shift": (lambda m: time_shift(freeze_past(normalize_conformal(m)), -0.75), True),
}


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _outcome(fn, *args) -> bytes | str:
    """The bits of fn(*args), or the text of the DataError it raises."""
    try:
        return _bits(fn(*args))
    except DataError as e:
        return str(e)


@pytest.mark.parametrize("lapse", list(_LAPSES))
@pytest.mark.parametrize("entry", _CATALOG, ids=[f"{c[0]}-{c[1]}d-{i}" for i, c in enumerate(_CATALOG)])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(stack=st.sampled_from(sorted(_STACKS)), t=st.floats(-3.0, 3.0))
def test_declared_slices_equal_the_grid_evaluation_bit_for_bit(entry, lapse, stack, t):
    """A metric declares its spatial form constant in space exactly when the
    catalog entry does and no normalization mixes in a lapse that reads x;
    its slice matrix, and a declared lapse, equal every grid row of m.fn."""
    catalog, dim, params, spatial_reads_x = entry
    domain = _DOMAINS[dim]
    layers, normalizes = _STACKS[stack]
    m = layers(build_metric(MetricSpec(catalog, params, lapse), domain))
    assert m.lapse_reads_x == _LAPSES[lapse]
    assert m.spatial_reads_x == (spatial_reads_x or (normalizes and _LAPSES[lapse]))
    grid = domain.grid_points()
    lam, g = m.fn(np.full(domain.n_points, t), grid)
    lam = np.broadcast_to(lam, (domain.n_points,))
    if not m.lapse_reads_x:
        assert _bits(lam) == _bits(np.full(domain.n_points, lam[0]))
    if not m.spatial_reads_x:
        G = m.spatial_slice(t).matrix
        assert G.shape == (dim, dim)
        assert _bits(g) == _bits(np.broadcast_to(G, g.shape))
    else:
        assert m.spatial_slice(t).matrix is None


def test_layers_that_read_x_stay_undeclared():
    """Stretch, splice, grid metrics and cone_bound_factor never claim
    constancy in space, even on inputs that do; a custom entry that reads x
    does not either, and neither does a warped product over a varying g0."""
    domain = _DOMAINS[2]
    m = build_metric(MetricSpec("flrw_exp", {"rate": 0.5}), domain)
    assert not m.lapse_reads_x and not m.spatial_reads_x
    j = ScalarField.constant(1.0)
    g0 = m.spatial_slice(0.0)
    f = cone_bound_factor(m, j, g0)
    assert f.value is None
    undeclared = [
        stretch_metric(m, ScalarField.constant(2.0)),
        splice(m, m, 0.0, tol=1e-12),
        grid_sample_metric(m, np.linspace(-1.0, 1.0, 5)),
        build_metric(MetricSpec("custom", {"g11": "1 + 0.1*sin(x1)", "g12": "0", "g22": "1"}),
                     domain),
        warped_product(domain, np.exp, SpdField(domain, g0.fn)),
    ]
    for layer in undeclared:
        assert layer.spatial_reads_x
        assert layer.spatial_slice(0.0).matrix is None


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_reference_is_one_matrix(dim):
    """j * g0 of a constant j and a constant g0 is a constant SpdField whose
    matrix equals, bit for bit, what the pointwise reference evaluates; a
    scaled constant field keeps its matrix."""
    domain = _DOMAINS[dim]
    G = np.array([[2.0, 0.3], [0.3, 1.0]])[:dim, :dim]
    j, g0 = ScalarField.constant(0.7), SpdField.constant(domain, G)
    ref = reference_field(domain, j, g0)
    pointwise = reference_field(domain, ScalarField(fn=j.fn), SpdField(domain, g0.fn))
    assert pointwise.matrix is None
    grid = domain.grid_points()
    assert _bits(ref.fn(grid)) == _bits(pointwise.fn(grid))
    assert _bits(ref.at(grid)) == _bits(ref.fn(grid)[0])
    assert _bits(ref.scaled(3.0).matrix) == _bits(SpdField(domain, ref.fn).scaled(3.0).fn(grid)[0])


@pytest.mark.parametrize("lapse", list(_LAPSES))
@pytest.mark.parametrize("entry", _CATALOG, ids=[f"{c[0]}-{c[1]}d-{i}" for i, c in enumerate(_CATALOG)])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(stack=st.sampled_from(sorted(_STACKS)), t=st.floats(-3.0, 3.0))
def test_declared_pencil_equals_the_pointwise_one_bit_for_bit(entry, lapse, stack, t):
    """On a lattice slice, the cone-bound factor of a declared metric (one
    pencil) equals that of the same metric undeclared (a pencil per point),
    or raises the same error, also against a reference that reads x; and
    the one-row fill of the spatial form equals its rows in a batch of
    several times."""
    catalog, dim, params, _ = entry
    domain = _DOMAINS[dim]
    base = build_metric(MetricSpec(catalog, params, lapse), domain)
    m = _STACKS[stack][0](base)
    g0 = base.spatial_slice(0.0)
    grid, n = domain.grid_points(), domain.n_points
    tt = np.full(n, t)
    for j in (ScalarField.constant(0.8), ScalarField(lambda t, x: 0.8 + 0.1 * np.sin(x[:, 0]))):
        declared = _outcome(cone_bound_factor(m, j, g0).fn, tt, grid)
        pointwise = _outcome(cone_bound_factor(replace(m, spatial_reads_x=True), j, g0).fn, tt, grid)
        assert declared == pointwise
    g_slice = m.fn(tt, grid)[1]
    g_mixed = m.fn(np.append(tt, t + 0.5), np.concatenate([grid, grid[:1]]))[1]
    assert _bits(g_slice) == _bits(g_mixed[:n])


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(t=st.floats(1.0, 3.0, exclude_min=True))
def test_declared_form_that_is_not_spd_raises_the_pointwise_error(dim, t):
    """A declared form checked on one row names the same first bad point,
    in the same words, as the check of every row."""
    domain = _DOMAINS[dim]
    params = {"g11": "1 - t"} if dim == 1 else {"g11": "1 - t", "g12": "0", "g22": "1"}
    m = build_metric(MetricSpec("custom", params, "1 + 0.25*sin(x1)"), domain)
    assert not m.spatial_reads_x
    messages = []
    for layer in (m, replace(m, spatial_reads_x=True)):
        with pytest.raises(DataError) as err:
            sample_metric(layer, [0.5, t])
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"spatial form not SPD at t={t}, x=")


def test_the_pencil_kernel_gets_one_matrix_per_declared_slice(monkeypatch):
    """Every pencil the theorem-1 factor solves for a declared metric is a
    single matrix; undeclared, each is one per grid point."""
    domain = _DOMAINS[2]
    m = build_metric(MetricSpec("anisotropic_diag", {"a1": "exp(t)", "a2": "(1 + t^2)^(1/2)"},
                                "1 + 0.25*sin(x1)*cos(t)"), domain)
    sizes = []
    kernel = surgery.gen_max_eig_batch

    def counting(A, B):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(A), np.shape(B))[:-2])))
        return kernel(A, B)

    monkeypatch.setattr(surgery, "gen_max_eig_batch", counting)
    for layer, per_slice in ((m, 1), (replace(m, spatial_reads_x=True), domain.n_points)):
        sizes.clear()
        surgery.make_globally_hyperbolic(layer, t_window=(-1.0, 1.0), verify=False)
        assert len(sizes) > 100 and set(sizes) == {per_slice}
