"""Scenario configuration: JSON schema, validation, and the metric catalog."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import MIN_RESOLUTION, SpatialDomain
from .errors import ConfigError, FormatError
from .expr import compile_expression, free_variables, parse_expression
from .fields import MetricField, SpdField, as_shape, single_time, warped_product

SCHEMA_VERSION = 1

PIPELINES = ("theorem1", "join_ultrastatic", "join_pair")
CATALOG = ("ultrastatic", "flrw_exp", "flrw_poly", "anisotropic_diag", "custom")


@dataclass(frozen=True)
class MetricSpec:
    catalog: str
    params: dict = field(default_factory=dict)
    lapse: str = "1"


@dataclass(frozen=True)
class VerificationSpec:
    samples: int = 200
    seed: int = 0
    tolerance: float = 1e-4
    t_window: tuple[float, float] = (-3.0, 3.0)
    curve_start: float = -2.0
    step: float = 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    domain: SpatialDomain
    metric_g: MetricSpec
    pipeline: str
    metric_h: MetricSpec | None = None
    verification: VerificationSpec = field(default_factory=VerificationSpec)
    already_gh_after: float | None = None
    n_time_export: int = 25
    out_dir: str | None = None


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        _require(not required, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _metric_spec(obj: dict, path: str, domain: SpatialDomain) -> MetricSpec:
    _require(isinstance(obj, dict), path, "must be an object")
    catalog = _get(obj, "catalog", path)
    _require(catalog in CATALOG, f"{path}.catalog", f"must be one of {CATALOG}")
    params = _get(obj, "params", path, required=False, default={})
    _require(isinstance(params, dict), f"{path}.params", "must be an object")
    lapse = _get(obj, "lapse", path, required=False, default="1")
    _require(isinstance(lapse, str), f"{path}.lapse", "must be an expression string")
    spec = MetricSpec(catalog=catalog, params=dict(params), lapse=lapse)
    # building validates expressions and parameter ranges eagerly
    build_metric(spec, domain, path=path)
    return spec


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read config {path}: {e}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON in {path}: {e.msg}", line=e.lineno)
    return parse_config(raw)


def parse_config(raw: dict) -> ScenarioConfig:
    _require(isinstance(raw, dict), "$", "config must be a JSON object")
    version = _get(raw, "schema_version", "$")
    _require(version == SCHEMA_VERSION, "$.schema_version",
             f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})")
    name = _get(raw, "name", "$", required=False, default="scenario")

    dom = _get(raw, "domain", "$")
    _require(isinstance(dom, dict), "$.domain", "must be an object")
    dim = _get(dom, "dimension", "$.domain")
    _require(dim in (1, 2), "$.domain.dimension", "must be 1 or 2")
    circ = _get(dom, "circumferences", "$.domain")
    _require(
        isinstance(circ, list) and len(circ) == dim
        and all(isinstance(c, (int, float)) and c > 0 for c in circ),
        "$.domain.circumferences", f"must be {dim} positive number(s)",
    )
    res = _get(dom, "resolution", "$.domain")
    _require(
        isinstance(res, list) and len(res) == dim
        and all(isinstance(r, int) and r >= MIN_RESOLUTION for r in res),
        "$.domain.resolution", f"must be {dim} integer(s) >= {MIN_RESOLUTION}",
    )
    domain = SpatialDomain(dim, tuple(float(c) for c in circ), tuple(res))

    pipeline = _get(raw, "pipeline", "$")
    _require(pipeline in PIPELINES, "$.pipeline", f"must be one of {PIPELINES}")

    metric_g = _metric_spec(_get(raw, "metric_g", "$"), "$.metric_g", domain)
    metric_h = None
    if raw.get("metric_h") is not None:
        metric_h = _metric_spec(raw["metric_h"], "$.metric_h", domain)
    _require(
        pipeline != "join_pair" or metric_h is not None,
        "$.metric_h", "join_pair needs a second metric",
    )

    ver = _get(raw, "verification", "$", required=False, default={})
    _require(isinstance(ver, dict), "$.verification", "must be an object")
    defaults = VerificationSpec()
    samples = ver.get("samples", defaults.samples)
    _require(isinstance(samples, int) and samples > 0, "$.verification.samples",
             "must be a positive integer")
    seed = ver.get("seed", defaults.seed)
    _require(isinstance(seed, int), "$.verification.seed", "must be an integer")
    tol = ver.get("tolerance", defaults.tolerance)
    _require(isinstance(tol, (int, float)) and tol > 0, "$.verification.tolerance",
             "must be a positive number")
    t_window = tuple(ver.get("t_window", list(defaults.t_window)))
    _require(
        len(t_window) == 2 and t_window[0] < t_window[1],
        "$.verification.t_window", "must be [t_lo, t_hi] with t_lo < t_hi",
    )
    curve_start = ver.get("curve_start", defaults.curve_start)
    _require(
        isinstance(curve_start, (int, float)) and curve_start < 0,
        "$.verification.curve_start", "must be negative",
    )
    step = ver.get("step", defaults.step)
    _require(isinstance(step, (int, float)) and 0 < step <= 0.1,
             "$.verification.step", "must be in (0, 0.1]")

    already = raw.get("already_gh_after")
    _require(
        already is None or isinstance(already, (int, float)),
        "$.already_gh_after", "must be a number or null",
    )
    n_time = raw.get("n_time_export", 25)
    _require(isinstance(n_time, int) and n_time >= 4, "$.n_time_export",
             "must be an integer >= 4")

    return ScenarioConfig(
        name=str(name),
        domain=domain,
        metric_g=metric_g,
        metric_h=metric_h,
        pipeline=pipeline,
        verification=VerificationSpec(
            samples=samples, seed=seed, tolerance=float(tol),
            t_window=(float(t_window[0]), float(t_window[1])),
            curve_start=float(curve_start), step=float(step),
        ),
        already_gh_after=None if already is None else float(already),
        n_time_export=n_time,
        out_dir=raw.get("output", {}).get("dir") if isinstance(raw.get("output"), dict) else None,
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _g0_field(domain: SpatialDomain, params: dict, path: str) -> SpdField:
    g0 = params.get("g0", 1.0)
    if isinstance(g0, (int, float)):
        _require(g0 > 0, f"{path}.params.g0", "scalar g0 must be positive")
        mat = float(g0) * np.eye(domain.dimension)
    else:
        _require(isinstance(g0, list), f"{path}.params.g0", "must be a number or matrix")
        mat = np.asarray(g0, dtype=float)
        _require(
            mat.shape == (domain.dimension, domain.dimension),
            f"{path}.params.g0", f"matrix must be {domain.dimension}x{domain.dimension}",
        )
    return SpdField.constant(domain, mat)


def _coords(x) -> dict:
    """Expression bindings of the spatial variables: the columns of x."""
    return {f"x{i + 1}": x[:, i] for i in range(x.shape[1])}


def _compile(text: str, path: str, domain: SpatialDomain, t_only: bool = False):
    """Parse and compile one expression; each t-free subtree that reads x is
    evaluated once per compiled metric on the domain grid.  Returns the
    compiled expression and whether it reads x."""
    try:
        tree = parse_expression(text)
    except Exception as e:
        raise ConfigError(f"{path}: {e}")
    free = free_variables(tree)
    extra = free - ({"t"} if t_only else {"t"} | {f"x{i + 1}" for i in range(domain.dimension)})
    _require(not extra, path,
             f"only t allowed, found {sorted(extra)}" if t_only else f"unknown variables {sorted(extra)}")
    reads_x = bool(free - {"t"})
    grid = _coords(domain.grid_points()) if reads_x else None
    return compile_expression(tree, grid=grid), reads_x


def build_metric(spec: MetricSpec, domain: SpatialDomain, path: str = "$.metric") -> MetricField:
    """Instantiate a catalog (or custom) metric over the given domain, with
    its lapse and spatial form declared constant in space where they are."""
    run, lapse_reads_x = _compile(spec.lapse, f"{path}.lapse", domain)

    def lapse(t, x):
        return as_shape(run({"t": t, **_coords(x)}, on_grid=domain.is_grid(x)), t.shape)

    return replace(_catalog_metric(spec, domain, path, lapse), lapse_reads_x=lapse_reads_x)


def _catalog_metric(spec: MetricSpec, domain: SpatialDomain, path: str, lapse) -> MetricField:
    p = spec.params
    if spec.catalog == "ultrastatic":
        g0 = _g0_field(domain, p, path)
        return warped_product(domain, np.ones_like, g0, lapse=lapse)
    if spec.catalog == "flrw_exp":
        rate = p.get("rate", 1.0)
        _require(isinstance(rate, (int, float)) and abs(rate) <= 10.0,
                 f"{path}.params.rate", "must be a number with |rate| <= 10")
        g0 = _g0_field(domain, p, path)
        return warped_product(domain, lambda t: np.exp(float(rate) * np.asarray(t, float)),
                              g0, lapse=lapse)
    if spec.catalog == "flrw_poly":
        power = p.get("power", 1.0)
        _require(isinstance(power, (int, float)) and 0 <= power <= 8,
                 f"{path}.params.power", "must be a number in [0, 8]")
        g0 = _g0_field(domain, p, path)
        return warped_product(
            domain,
            lambda t: (1.0 + np.asarray(t, float) ** 2) ** (float(power) / 2.0),
            g0, lapse=lapse,
        )
    if spec.catalog == "anisotropic_diag":
        _require(domain.dimension == 2, f"{path}.catalog",
                 "anisotropic_diag needs a 2-dimensional domain")
        a1, a2 = (_compile(str(p.get(nm, "1")), f"{path}.params.{nm}", domain, t_only=True)[0]
                  for nm in ("a1", "a2"))
        g0 = _g0_field(domain, p, path)

        def spatial(t, x):
            # the 2x2 form depends on t alone: one row on a one-time batch
            tt = t[:1] if single_time(t) else t
            s1 = as_shape(a1({"t": tt}), tt.shape)
            s2 = as_shape(a2({"t": tt}), tt.shape)
            scale = np.zeros((tt.shape[0], 2, 2))
            scale[:, 0, 0] = s1 * s1
            scale[:, 1, 1] = s2 * s2
            g = scale * g0.matrix
            return g if g.shape[0] == x.shape[0] else np.repeat(g, x.shape[0], axis=0)

        return MetricField(domain, lambda t, x: (lapse(t, x), spatial(t, x)),
                           spatial_reads_x=False)
    if spec.catalog == "custom":
        d = domain.dimension
        names = ["g11"] if d == 1 else ["g11", "g12", "g22"]
        runs = {}  # name -> (compiled expression, whether it reads x)
        for nm in names:
            _require(nm in p, f"{path}.params.{nm}", "missing spatial entry expression")
            runs[nm] = _compile(str(p[nm]), f"{path}.params.{nm}", domain)

        def spatial(t, x):
            b = {"t": t, **_coords(x)}
            on_grid = domain.is_grid(x)
            v = {nm: as_shape(run(b, on_grid), t.shape) for nm, (run, _) in runs.items()}
            out = np.empty((t.shape[0], d, d))
            out[:, 0, 0] = v["g11"]
            if d == 2:
                out[:, 0, 1] = v["g12"]
                out[:, 1, 0] = v["g12"]
                out[:, 1, 1] = v["g22"]
            return out

        return MetricField(domain, lambda t, x: (lapse(t, x), spatial(t, x)),
                           spatial_reads_x=any(reads_x for _, reads_x in runs.values()))
    raise ConfigError(f"{path}.catalog: unknown catalog entry {spec.catalog!r}")
