"""Scenario configuration: schema validation, field paths, metric catalog."""
from __future__ import annotations

import json

import numpy as np
import pytest

from causal_surgery import build_metric, load_config, parse_config
from causal_surgery.config import MetricSpec
from causal_surgery.domain import SpatialDomain
from causal_surgery.errors import ConfigError, FormatError
from causal_surgery.expr import FUNCTIONS, compile_expression, parse_expression
from causal_surgery.fields import sample_metric


def base_config(**overrides):
    raw = {
        "schema_version": 1,
        "name": "t",
        "pipeline": "theorem1",
        "domain": {"dimension": 1, "circumferences": [6.0], "resolution": [16]},
        "metric_g": {"catalog": "flrw_exp", "params": {"rate": 1.0}},
    }
    raw.update(overrides)
    return raw


def test_parse_minimal_config():
    cfg = parse_config(base_config())
    assert cfg.pipeline == "theorem1"
    assert cfg.domain.dimension == 1
    assert cfg.verification.samples == 200
    assert cfg.verification.t_window == (-3.0, 3.0)


@pytest.mark.parametrize(
    "patch,path_fragment",
    [
        ({"schema_version": 2}, "$.schema_version"),
        ({"pipeline": "nope"}, "$.pipeline"),
        ({"domain": {"dimension": 3, "circumferences": [1, 1, 1], "resolution": [8, 8, 8]}}, "$.domain.dimension"),
        ({"domain": {"dimension": 1, "circumferences": [-1.0], "resolution": [16]}}, "$.domain.circumferences"),
        ({"domain": {"dimension": 1, "circumferences": [6.0], "resolution": [2]}}, "$.domain.resolution"),
        ({"metric_g": {"catalog": "bogus"}}, "$.metric_g.catalog"),
        ({"metric_g": {"catalog": "flrw_exp", "params": {"rate": 99.0}}}, "$.metric_g.params.rate"),
        ({"verification": {"samples": 0}}, "$.verification.samples"),
        ({"verification": {"tolerance": -1.0}}, "$.verification.tolerance"),
        ({"verification": {"t_window": [2.0, -2.0]}}, "$.verification.t_window"),
        ({"verification": {"step": 1.0}}, "$.verification.step"),
        ({"pipeline": "join_pair"}, "$.metric_h"),
        ({"n_time_export": 2}, "$.n_time_export"),
    ],
)
def test_invalid_configs_name_the_field(patch, path_fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(base_config(**patch))
    assert path_fragment in str(exc.value)


def test_missing_required_field():
    raw = base_config()
    del raw["metric_g"]
    with pytest.raises(ConfigError, match=r"\$\.metric_g"):
        parse_config(raw)


def test_load_config_bad_json_reports_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
    with pytest.raises(FormatError, match="line 3"):
        load_config(str(p))


def test_load_config_missing_file():
    with pytest.raises(FormatError):
        load_config("/nonexistent/config.json")


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(base_config()))
    cfg = load_config(str(p))
    assert cfg.metric_g.catalog == "flrw_exp"


# -- catalog ---------------------------------------------------------------


@pytest.fixture
def dom1():
    return SpatialDomain(1, (6.0,), (16,))


@pytest.fixture
def dom2():
    return SpatialDomain(2, (6.0, 6.0), (16, 16))


def test_catalog_ultrastatic(dom1):
    m = build_metric(MetricSpec("ultrastatic", {"g0": 4.0}), dom1)
    lam, g = m.eval(2.0, np.array([1.0]))
    assert lam == 1.0
    np.testing.assert_allclose(g, [[4.0]])


def test_catalog_flrw_exp(dom1):
    m = build_metric(MetricSpec("flrw_exp", {"rate": 2.0}), dom1)
    _, g = m.eval(0.5, np.array([0.0]))
    np.testing.assert_allclose(g, [[np.exp(2.0)]])


def test_catalog_flrw_poly(dom1):
    m = build_metric(MetricSpec("flrw_poly", {"power": 2.0}), dom1)
    _, g = m.eval(2.0, np.array([0.0]))
    np.testing.assert_allclose(g, [[(1 + 4.0) ** 2]])


def test_catalog_anisotropic_diag(dom2):
    spec = MetricSpec("anisotropic_diag", {"a1": "exp(t)", "a2": "1 + t^2"})
    m = build_metric(spec, dom2)
    _, g = m.eval(1.0, np.zeros(2))
    np.testing.assert_allclose(g, np.diag([np.exp(2.0), 4.0]))


def test_catalog_anisotropic_needs_2d(dom1):
    with pytest.raises(ConfigError, match="2-dimensional"):
        build_metric(MetricSpec("anisotropic_diag", {}), dom1)


def test_catalog_custom_1d(dom1):
    m = build_metric(MetricSpec("custom", {"g11": "1 + 0.5*sin(x1)"}), dom1)
    _, g = m.eval(0.0, np.array([1.0]))
    np.testing.assert_allclose(g, [[1 + 0.5 * np.sin(1.0)]])


def test_catalog_custom_2d_symmetric(dom2):
    spec = MetricSpec("custom", {"g11": "2", "g12": "0.5", "g22": "2"})
    m = build_metric(spec, dom2)
    _, g = m.eval(0.0, np.zeros(2))
    np.testing.assert_allclose(g, [[2.0, 0.5], [0.5, 2.0]])


def test_catalog_custom_missing_entry(dom2):
    with pytest.raises(ConfigError, match=r"\$\.metric\.params\.g12"):
        build_metric(MetricSpec("custom", {"g11": "1", "g22": "1"}), dom2)


def test_catalog_lapse_expression(dom1):
    m = build_metric(MetricSpec("ultrastatic", {}, lapse="2 + sin(x1)"), dom1)
    lam, _ = m.eval(0.0, np.array([0.0]))
    assert lam == pytest.approx(2.0)


def test_catalog_rejects_bad_expression(dom1):
    with pytest.raises(ConfigError, match="lapse"):
        build_metric(MetricSpec("ultrastatic", {}, lapse="1 +"), dom1)


def test_catalog_rejects_unknown_variable(dom1):
    with pytest.raises(ConfigError):
        build_metric(MetricSpec("ultrastatic", {}, lapse="x2"), dom1)


def test_g0_matrix_param(dom2):
    spec = MetricSpec("ultrastatic", {"g0": [[2.0, 0.0], [0.0, 3.0]]})
    m = build_metric(spec, dom2)
    _, g = m.eval(0.0, np.zeros(2))
    np.testing.assert_allclose(g, np.diag([2.0, 3.0]))


# -- separable lattice slices: the grid cache and narrowed t-only work -----

_LATTICE_2D = MetricSpec(
    "anisotropic_diag",
    {"a1": "exp(1.05*t)", "a2": "(1 + 0.9*t^2)^(1/2)", "g0": 1.0},
    lapse="1 + 0.2*sin(x1)*cos(2*pi*x2/4)",
)
_CUSTOM_2D = MetricSpec(
    "custom",
    {"g11": "2 + sin(x1)*cos(x2) + sin(t)^2", "g12": "0.1*sin(x1 + x2)*exp(-t^2)",
     "g22": "3 + x1/7 - cos(x2)*tanh(t)"},
    lapse="1 + 0.1*t^2*sin(x1)",
)


@pytest.mark.parametrize("spec", [_LATTICE_2D, _CUSTOM_2D], ids=["anisotropic", "custom"])
def test_grid_cache_is_bit_identical_to_a_fresh_metric(spec, dom2):
    """On the grid, off it, on a grid shifted by 1e-12, on a permuted grid
    and on the grid again, each slice equals a freshly built metric's."""
    m = build_metric(spec, dom2)
    grid = dom2.grid_points()
    n = grid.shape[0]
    perm = np.random.default_rng(0).permutation(n)
    off = np.random.default_rng(1).uniform(0.0, 6.0, (n, 2))
    for t, x in [(0.4, grid), (0.4, off), (0.4, grid + 1e-12), (0.4, grid[perm]),
                 (-1.3, grid), (0.4, grid)]:
        tb = np.full(n, t)
        lam, g = m.fn(tb, x)
        lam_ref, g_ref = build_metric(spec, dom2).fn(tb, x)
        assert np.broadcast_to(lam, (n,)).tobytes() == np.broadcast_to(lam_ref, (n,)).tobytes()
        assert g.tobytes() == g_ref.tobytes()
    # the cached grid values equal a direct evaluation at the same points
    tb = np.full(n, 0.4)
    lam, g = m.fn(tb, grid)
    lam_p, g_p = m.fn(tb, grid[perm])
    back = np.argsort(perm)
    assert np.broadcast_to(lam_p, (n,))[back].tobytes() == np.broadcast_to(lam, (n,)).tobytes()
    assert g_p[back].tobytes() == g.tobytes()


def test_grid_cached_values_are_read_only(dom2):
    m = build_metric(_LATTICE_2D, dom2)
    grid = dom2.grid_points().copy()  # the domain's own grid is read-only
    lam, _ = m.fn(np.full(grid.shape[0], 0.5), grid)
    with pytest.raises(ValueError):
        lam[0] = 1.0
    run = compile_expression(parse_expression("sin(x1)"), grid={"x1": grid[:, 0]})
    v = run({"x1": grid[:, 0]}, on_grid=True)
    assert v is run({"x1": grid[:, 0]}, on_grid=True)
    with pytest.raises(ValueError):
        v[0] = 1.0
    assert grid.flags.writeable  # the grid bindings themselves stay writable


def test_is_grid_matches_only_the_grid_in_grid_order(dom2):
    grid = dom2.grid_points()
    assert grid is dom2.grid_points() and not grid.flags.writeable
    assert dom2.is_grid(grid) and dom2.is_grid(grid.copy())
    assert not dom2.is_grid(grid[:-1])
    assert not dom2.is_grid(grid[::-1])
    assert not dom2.is_grid(grid[np.random.default_rng(0).permutation(grid.shape[0])])
    assert not dom2.is_grid(grid + 1e-12)
    assert not dom2.is_grid(grid[:, :1])


@pytest.mark.parametrize("spec", [_LATTICE_2D, _CUSTOM_2D], ids=["anisotropic", "custom"])
def test_lattice_sweep_evaluates_space_once_and_time_on_one_element(spec, monkeypatch):
    """A 20-slice sweep over the 128x128 lattice-2d grid runs sin(x1) on the
    whole grid once in total and every t-only sin or exp on one element."""
    domain = SpatialDomain(2, (6.283185307179586, 4.0), (128, 128))
    sizes = {"sin": [], "exp": []}
    for name, spy in sizes.items():
        ufunc = FUNCTIONS[name][1]
        monkeypatch.setitem(
            FUNCTIONS, name, (1, lambda v, _f=ufunc, _s=spy: _s.append(np.size(v)) or _f(v))
        )
    m = build_metric(spec, domain)  # binds the spied functions
    sample_metric(m, np.linspace(-3.0, 3.0, 20))
    n = domain.n_points
    x_sizes = sorted(s for s in sizes["sin"] if s != 1)
    t_sizes = [s for s in sizes["sin"] + sizes["exp"] if s == 1]
    if spec is _LATTICE_2D:
        assert x_sizes == [n] and sizes["exp"] == [1] * 20
    else:
        # sin(x1) in g11, sin(x1 + x2) in g12, sin(x1) in the lapse: each once
        assert x_sizes == [n, n, n]
        assert len(t_sizes) == 40  # sin(t) in g11 and exp(-t^2) in g12
    assert all(s in (1, n) for s in sizes["sin"] + sizes["exp"])
