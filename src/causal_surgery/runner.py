"""Batch pipeline execution: build, verify, export, report."""
from __future__ import annotations

import datetime
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import causality, surgery
from .config import ScenarioConfig, build_metric
from .domain import SpatialDomain
from .errors import FormatError
from .fields import MetricField, ScalarField, grid_metric, sample_metric
from .surgery import JoinArtifact, StretchResult

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

REPORT_SCHEMA_VERSION = 1


def _thread_cap():
    """Cap BLAS-level parallelism per the CAUSAL_SURGERY_THREADS env var."""
    raw = os.environ.get("CAUSAL_SURGERY_THREADS")
    if not raw:
        return None
    try:
        n = max(1, int(raw))
    except ValueError:
        return None
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=n)
    except ImportError:
        return None


@dataclass
class RunReport:
    """Pipeline outcome: stage timings, certificate verdicts, output files."""

    name: str
    pipeline: str
    seed: int
    stages: list = field(default_factory=list)  # (name, seconds)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    outputs: list = field(default_factory=list)  # paths
    generated_at: str = ""

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.passed else EXIT_VERIFICATION_FAILED

    def to_json(self) -> str:
        """Deterministic report body: no timings or timestamps."""
        doc = {
            "report_schema_version": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "pipeline": self.pipeline,
            "seed": self.seed,
            "checks": [
                {"name": n, "passed": ok, "detail": detail}
                for n, ok, detail in self.checks
            ],
            "outputs": sorted(os.path.basename(p) for p in self.outputs),
            "all_passed": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def timings_json(self) -> str:
        """Volatile run metadata, kept out of the deterministic report."""
        doc = {
            "generated_at": self.generated_at,
            "stage_seconds": {n: s for n, s in self.stages},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Timer:
    def __init__(self, report: RunReport, name: str):
        self.report = report
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.stages.append((self.name, time.perf_counter() - self.t0))
        return False


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# CSV field dumps
# ---------------------------------------------------------------------------


def export_fields(artifact, path: str, t_grid=None) -> list[str]:
    """Write CSV field dumps for an artifact; returns the file manifest.

    One row per (t, grid point): t, x1[, x2], lapse, spatial components
    (row-major upper triangle), then factor values where applicable.
    """
    if isinstance(artifact, StretchResult):
        metric, factor = artifact.metric, artifact.factor
    elif isinstance(artifact, JoinArtifact):
        metric, factor = artifact.metric, None
    elif isinstance(artifact, MetricField):
        metric, factor = artifact, None
    else:
        raise TypeError(f"cannot export {type(artifact).__name__}")
    if t_grid is None:
        lo = max(metric.window[0], -3.0)
        hi = min(metric.window[1], 3.0)
        t_grid = np.linspace(lo, hi, 25)
    t_grid = np.asarray(t_grid, dtype=float)

    domain = metric.domain
    d = domain.dimension
    pts = domain.grid_points()
    upper = [(a, b) for a in range(d) for b in range(a, d)]
    cols = ["t"] + [f"x{i+1}" for i in range(d)] + ["lapse"]
    cols += [f"g{a+1}{b+1}" for a, b in upper]
    if factor is not None:
        cols.append("f")
    row = ",".join(["%.17g"] * len(cols))
    lam, g = sample_metric(metric, t_grid, pts, check=False)
    block = np.empty(lam.shape + (len(cols),))  # (t, grid point, column)
    block[..., 0] = t_grid[:, None]
    block[..., 1 : 1 + d] = pts
    block[..., 1 + d] = lam
    for k, (a, b) in enumerate(upper):
        block[..., 2 + d + k] = g[..., a, b]
    if factor is not None:
        block[..., -1] = sample_metric(factor, t_grid, pts)
    # format slice by slice: only one slice's rows exist as Python floats at once
    chunks = [",".join(cols) + "\n"]
    chunks += ["\n".join([row % tuple(r) for r in rows.tolist()]) + "\n" for rows in block]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    _atomic_write(path, "".join(chunks))
    return [path]


def read_metric_dump(path: str, domain: SpatialDomain) -> MetricField:
    """Rebuild an interpolating metric from a CSV dump written by export_fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise FormatError(f"cannot read dump {path}: {e}")
    if not lines:
        raise FormatError("empty dump file", line=1)
    d = domain.dimension
    expected = ["t"] + [f"x{i+1}" for i in range(d)] + ["lapse"]
    expected += [f"g{a+1}{b+1}" for a in range(d) for b in range(a, d)]
    header = lines[0].split(",")
    if header[: len(expected)] != expected:
        raise FormatError(
            f"unexpected header {lines[0]!r}, expected columns {expected}", line=1
        )
    n_pts = domain.n_points
    n_data = len(lines) - 1
    if n_data == 0 or n_data % n_pts != 0:
        raise FormatError(
            f"{n_data} data rows is not a multiple of the {n_pts}-point grid "
            f"(truncated file?)", line=len(lines),
        )
    n_t = n_data // n_pts
    if n_t < 4:
        raise FormatError("grid interpolation needs at least 4 time samples", line=len(lines))
    n_cols = len(expected)
    n_spatial = d * (d + 1) // 2
    data = np.zeros((n_data, n_cols))
    n_parsed, parse_error = n_data, None
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) < n_cols:
            n_parsed, parse_error = k, FormatError(
                f"expected at least {n_cols} columns, got {len(parts)}", line=k + 2
            )
            break
        try:
            data[k] = [float(p) for p in parts[:n_cols]]
        except ValueError as e:
            n_parsed, parse_error = k, FormatError(str(e), line=k + 2)
            break
    del lines  # free the text before the spline fit
    # Layout checks cover the rows parsed before any parse error, so the
    # earliest defective line is the one reported.
    t_grid = data[::n_pts, 0].copy()
    layout = data.reshape(n_t, n_pts, n_cols)
    bad_t = layout[:, :, 0] != t_grid[:, None]
    bad_t[:, 0] = False
    bad_x = np.abs(layout[:, :, 1 : 1 + d] - domain.grid_points()).max(axis=2) > 1e-12
    bad = (bad_t | bad_x).ravel()[:n_parsed]
    if np.any(bad):
        k = int(np.argmax(bad))
        row = data[k]
        if bad_t.flat[k]:
            raise FormatError(
                f"time value {float(row[0])} breaks the t-outer row ordering", line=k + 2
            )
        raise FormatError(
            f"grid point {row[1 : 1 + d].tolist()} does not match the configured grid",
            line=k + 2,
        )
    if parse_error is not None:
        raise parse_error
    if np.any(np.diff(t_grid) <= 0):
        raise FormatError("time samples are not strictly increasing", line=1)
    lam = data[:, 1 + d].reshape(n_t, n_pts)
    comps = data[:, 2 + d :].reshape(n_t, n_pts, n_spatial)
    res = tuple(domain.resolution)
    spatial = np.empty((n_t, n_pts, d, d))
    idx = 0
    for a in range(d):
        for b in range(a, d):
            spatial[..., a, b] = comps[..., idx]
            spatial[..., b, a] = comps[..., idx]
            idx += 1
    return grid_metric(
        domain, t_grid, lam.reshape((n_t,) + res), spatial.reshape((n_t,) + res + (d, d))
    )


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _add_cert_checks(report: RunReport, certs: dict, prefix: str = ""):
    for name, cert in certs.items():
        if isinstance(cert, dict):
            _add_cert_checks(report, cert, prefix=f"{prefix}{name}.")
        elif hasattr(cert, "passed"):
            report.checks.append(
                (f"{prefix}{name}", bool(cert.passed), getattr(cert, "detail", ""))
            )


def run_build(config: ScenarioConfig, out_dir: str, quiet: bool = False) -> RunReport:
    """Execute the configured pipeline, write dumps and the report."""
    cap = _thread_cap()
    try:
        report = RunReport(
            name=config.name, pipeline=config.pipeline, seed=config.verification.seed,
            generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )
        os.makedirs(out_dir, exist_ok=True)
        ver = config.verification
        t_grid = np.linspace(ver.t_window[0], ver.t_window[1], config.n_time_export)

        with _Timer(report, "build_metrics"):
            g = build_metric(config.metric_g, config.domain, path="$.metric_g")
            h = (
                build_metric(config.metric_h, config.domain, path="$.metric_h")
                if config.metric_h is not None
                else None
            )

        if config.pipeline == "theorem1":
            with _Timer(report, "make_globally_hyperbolic"):
                result = surgery.make_globally_hyperbolic(
                    g,
                    already_gh_after=config.already_gh_after,
                    t_window=ver.t_window,
                    seed=ver.seed,
                    verify=False,
                )
            with _Timer(report, "verify"):
                certificates = surgery.stretch_certificates(
                    result.metric, result.j, result.g0, ver.t_window,
                    n_curves=ver.samples, seed=ver.seed,
                    t_start_range=(ver.curve_start, ver.curve_start),
                    tol=ver.tolerance, step=ver.step,
                )
            _add_cert_checks(report, certificates)
            with _Timer(report, "export"):
                report.outputs += export_fields(
                    result, os.path.join(out_dir, "metric.csv"), t_grid
                )
        elif config.pipeline == "join_ultrastatic":
            with _Timer(report, "join_ultrastatic"):
                artifact = surgery.join_ultrastatic(
                    g, t_window=ver.t_window, seed=ver.seed
                )
            _add_cert_checks(report, artifact.certificates)
            with _Timer(report, "export"):
                report.outputs += export_fields(
                    artifact, os.path.join(out_dir, "metric.csv"), t_grid
                )
        else:  # join_pair
            with _Timer(report, "asymptotic_join"):
                artifact = surgery.asymptotic_join(
                    g, h, t_window=ver.t_window, seed=ver.seed
                )
            _add_cert_checks(report, artifact.certificates)
            with _Timer(report, "diamond_checks"):
                rng = np.random.default_rng(ver.seed)
                k0 = artifact.metric.spatial_slice(0.25)
                k1 = artifact.metric.spatial_slice(2.25)
                all_bounded = True
                for _ in range(10):
                    tp = float(rng.uniform(-1.0, 0.5))
                    tq = float(rng.uniform(tp, 2.5))
                    xp = rng.uniform(0, 1, config.domain.dimension) * np.asarray(
                        config.domain.circumferences
                    )
                    rep = causality.causal_diamond_extent(
                        artifact.metric, (tp, xp), (tq, xp), budget=17, k0=k0, k1=k1
                    )
                    all_bounded = all_bounded and rep.bounded
                report.checks.append(
                    ("causal_diamonds_bounded", all_bounded,
                     "" if all_bounded else "an unbounded diamond slice was reported")
                )
            join_grid = np.linspace(-3.0, 6.0, max(config.n_time_export, 25))
            with _Timer(report, "export"):
                report.outputs += export_fields(
                    artifact, os.path.join(out_dir, "metric.csv"), join_grid
                )

        report_path = os.path.join(out_dir, "report.json")
        _atomic_write(report_path, report.to_json())
        report.outputs.append(report_path)
        _atomic_write(os.path.join(out_dir, "timings.json"), report.timings_json())
        if not quiet:
            _print_report(report)
        return report
    finally:
        if cap is not None:
            cap.unregister()


def run_verify(config: ScenarioConfig, dump_path: str, quiet: bool = False) -> RunReport:
    """Run the causality verifiers against a metric dump."""
    cap = _thread_cap()
    try:
        report = RunReport(
            name=config.name, pipeline="verify", seed=config.verification.seed,
            generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )
        ver = config.verification
        with _Timer(report, "read_dump"):
            m = read_metric_dump(dump_path, config.domain)
        lo, hi = m.window
        with _Timer(report, "verify"):
            g0 = m.spatial_slice(float(np.clip(0.0, lo, hi)))
            gh = causality.verify_global_hyperbolicity(
                m, g0, t_window=(lo, hi), ref_id="g_0 slice"
            )
            report.checks.append(("global_hyperbolicity", gh.passed, gh.detail))
            if lo < 0 <= hi:
                start = float(max(lo, ver.curve_start))
                containment = causality.verify_cone_containment(
                    m, ScalarField.constant(1.0), g0,
                    n_samples=ver.samples, seed=ver.seed,
                    t_start_range=(start, start),
                    tol=ver.tolerance, step=ver.step,
                )
                report.checks.append(
                    ("cone_containment", containment.passed, containment.detail)
                )
        if not quiet:
            _print_report(report)
        return report
    finally:
        if cap is not None:
            cap.unregister()


def _print_report(report: RunReport):
    for name, ok, detail in report.checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {report.name}: {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
