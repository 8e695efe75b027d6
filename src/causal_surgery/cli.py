"""Command-line interface."""
from __future__ import annotations

import dataclasses
import importlib.resources
import json
import os
import sys

import click
import numpy as np

from .config import build_metric, load_config, parse_config
from .errors import CausalSurgeryError, ConfigError, FormatError
from .runner import EXIT_INPUT_ERROR, export_fields, run_build, run_verify

_DEMO_FILES = {
    "flrw-circle": "theorem1_flrw_circle.json",
    "anisotropic-torus": "theorem1_anisotropic_torus.json",
    "join-ultrastatic": "join_ultrastatic_flrw.json",
    "join-pair": "join_pair_flrw_ultrastatic.json",
}
DEMOS = tuple(_DEMO_FILES)


def _fail(exc: Exception) -> "click.exceptions.Exit":
    click.echo(f"error: {exc}", err=True)
    return click.exceptions.Exit(EXIT_INPUT_ERROR)


def _load(config_path: str):
    try:
        return load_config(config_path)
    except (ConfigError, FormatError) as e:
        raise _fail(e)


def _apply_overrides(config, seed, samples, tol):
    ver = config.verification
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if samples is not None:
        if samples < 1:
            raise _fail(ConfigError("--samples must be a positive integer"))
        changes["samples"] = samples
    if tol is not None:
        if tol <= 0:
            raise _fail(ConfigError("--tol must be positive"))
        changes["tolerance"] = tol
    if changes:
        config = dataclasses.replace(
            config, verification=dataclasses.replace(ver, **changes)
        )
    return config


@click.group()
def main():
    """Causal surgery on product Lorentzian metrics: build conformally
    stretched globally hyperbolic metrics and asymptotic joins, verify the
    causal-cone certificates, and export sampled fields."""


_config_opt = click.option(
    "--config", "config_path", required=True, type=click.Path(), metavar="FILE",
    help="Scenario configuration (JSON).",
)
_seed_opt = click.option("--seed", type=int, default=None, help="Override the verification seed.")
_samples_opt = click.option("--samples", type=int, default=None, help="Override the number of verification curves.")
_tol_opt = click.option("--tol", type=float, default=None, help="Override the verification tolerance.")
_out_opt = click.option("--out", "out_dir", type=click.Path(), default=None, metavar="DIR", help="Output directory.")
_quiet_opt = click.option("--quiet", is_flag=True, help="Suppress per-check output.")


@main.command()
@_config_opt
@_seed_opt
@_samples_opt
@_tol_opt
@_out_opt
@_quiet_opt
def build(config_path, seed, samples, tol, out_dir, quiet):
    """Run the configured pipeline and write metric dumps plus a report."""
    config = _apply_overrides(_load(config_path), seed, samples, tol)
    out_dir = out_dir or config.out_dir or "out"
    try:
        report = run_build(config, out_dir, quiet=quiet)
    except CausalSurgeryError as e:
        raise _fail(e)
    raise click.exceptions.Exit(report.exit_code)


@main.command()
@_config_opt
@click.argument("dump", type=click.Path(), metavar="DUMP_CSV")
@_seed_opt
@_samples_opt
@_tol_opt
@_quiet_opt
def verify(config_path, dump, seed, samples, tol, quiet):
    """Check global hyperbolicity and cone containment for a metric dump."""
    config = _apply_overrides(_load(config_path), seed, samples, tol)
    try:
        report = run_verify(config, dump, quiet=quiet)
    except CausalSurgeryError as e:
        raise _fail(e)
    raise click.exceptions.Exit(report.exit_code)


@main.command()
@_config_opt
@_out_opt
@_quiet_opt
def export(config_path, out_dir, quiet):
    """Sample the configured input metric g to CSV, without surgery."""
    config = _load(config_path)
    out_dir = out_dir or config.out_dir or "out"
    try:
        g = build_metric(config.metric_g, config.domain, path="$.metric_g")
        lo, hi = config.verification.t_window
        t_grid = np.linspace(lo, hi, config.n_time_export)
        paths = export_fields(g, os.path.join(out_dir, "input_metric.csv"), t_grid)
    except CausalSurgeryError as e:
        raise _fail(e)
    if not quiet:
        for p in paths:
            click.echo(p)
    raise click.exceptions.Exit(0)


@main.command()
@click.argument("name", type=click.Choice(DEMOS + ("list",)), default="list")
@_seed_opt
@_samples_opt
@_tol_opt
@_out_opt
@_quiet_opt
def demo(name, seed, samples, tol, out_dir, quiet):
    """Run a bundled demonstration scenario (or list them)."""
    if name == "list":
        for n in DEMOS:
            click.echo(n)
        raise click.exceptions.Exit(0)
    resource = importlib.resources.files("causal_surgery.demos") / _DEMO_FILES[name]
    try:
        config = parse_config(json.loads(resource.read_text(encoding="utf-8")))
    except (ConfigError, FormatError) as e:
        raise _fail(e)
    config = _apply_overrides(config, seed, samples, tol)
    out_dir = out_dir or os.path.join("demo_out", name)
    try:
        report = run_build(config, out_dir, quiet=quiet)
    except CausalSurgeryError as e:
        raise _fail(e)
    raise click.exceptions.Exit(report.exit_code)


if __name__ == "__main__":
    sys.exit(main())
