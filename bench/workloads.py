"""Benchmark workloads: scenario configs made from the seed, and the
operations one pass of each workload runs.

Every operation is one `causal-surgery` CLI call (`build` or `verify`).  The
seed becomes `verification.seed` of every scenario and, for `lattice-2d`,
also draws the metric coefficients.  Why each workload exists:

- join: the composed closed-form layers (normalize, freeze, majorant,
  stretch, splice) inside RK4 bundles of 16 curves per policy group.
  No grid interpolation and no CSV reading.
- verify-dumps: CSV reading, cubic grid interpolation and RK4 on grid
  metrics; the dumps are built once per run, untimed.  No majorant, no
  normalize/freeze, no DSL, no CSV writing.
- lattice-2d: a 128x128 torus with few curves and a coarse step, so the
  lattice sweeps (16k points per call), the eigen kernel, the majorant,
  the DSL and CSV write and read do the work rather than the curves.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

DEMO_DIR = Path("src") / "causal_surgery" / "demos"

_DEMO_FILES = {
    "join-pair": "join_pair_flrw_ultrastatic.json",
    "join-ultrastatic": "join_ultrastatic_flrw.json",
    "flrw-circle": "theorem1_flrw_circle.json",
    "anisotropic-torus": "theorem1_anisotropic_torus.json",
}

WORKLOADS = ("join", "verify-dumps", "lattice-2d")


def _demo(root: Path, scenario: str, seed: int) -> dict:
    raw = json.loads((root / DEMO_DIR / _DEMO_FILES[scenario]).read_text(encoding="utf-8"))
    raw["verification"]["seed"] = seed
    return raw


def _lattice(seed: int) -> dict:
    """Seeded 2-d theorem-1 scenario of the `anisotropic_diag` family.

    Only the coefficients vary with the seed; the expression shapes, grid,
    curve count and step are fixed, so the work per pass does not.
    """
    rng = random.Random(seed)
    rate = round(rng.uniform(0.8, 1.2), 4)
    curvature = round(rng.uniform(0.5, 1.5), 4)
    wobble = round(rng.uniform(0.1, 0.3), 4)
    return {
        "schema_version": 1,
        "name": "lattice-2d",
        "pipeline": "theorem1",
        "domain": {
            "dimension": 2,
            "circumferences": [6.283185307179586, 4.0],
            "resolution": [128, 128],
        },
        "metric_g": {
            "catalog": "anisotropic_diag",
            "params": {"a1": f"exp({rate}*t)", "a2": f"(1 + {curvature}*t^2)^(1/2)", "g0": 1.0},
            "lapse": f"1 + {wobble}*sin(x1)*cos(2*pi*x2/4)",
        },
        "verification": {
            "samples": 8,
            "seed": seed,
            "tolerance": 0.0001,
            "t_window": [-3.0, 3.0],
            "curve_start": -2.0,
            "step": 0.02,
        },
        "n_time_export": 13,
    }


def _build(scenario: str) -> dict:
    return {"name": f"{scenario}.build", "kind": "build", "scenario": scenario}


def _verify(scenario: str, dump_from: str) -> dict:
    """A verify of `scenario`'s dump, built either by the untimed preparation
    (`prepared`) or earlier in the same pass (`pass`)."""
    return {"name": f"{scenario}.verify", "kind": "verify", "scenario": scenario,
            "dump_from": dump_from}


def plan(workload: str, root: Path, seed: int) -> tuple[dict, list, list]:
    """(configs by scenario, preparation ops, ops of one measured pass)."""
    if workload == "join":
        configs = {s: _demo(root, s, seed) for s in ("join-pair", "join-ultrastatic")}
        return configs, [], [_build(s) for s in configs]
    if workload == "verify-dumps":
        configs = {s: _demo(root, s, seed) for s in ("flrw-circle", "anisotropic-torus")}
        return configs, [_build(s) for s in configs], [_verify(s, "prepared") for s in configs]
    if workload == "lattice-2d":
        return {"lattice-2d": _lattice(seed)}, [], [_build("lattice-2d"), _verify("lattice-2d", "pass")]
    raise ValueError(f"unknown workload {workload!r}")
