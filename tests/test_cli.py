"""CLI and runner: exit codes, CSV dumps, determinism, verify round-trip."""
from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import causal_surgery
from causal_surgery import export_fields, load_config, read_metric_dump, run_build
from causal_surgery.cli import _DEMO_FILES, main
from causal_surgery.config import build_metric, parse_config
from causal_surgery.domain import SpatialDomain
from causal_surgery.errors import FormatError
from causal_surgery.fields import MetricField, ScalarField, sample_metric
from causal_surgery.runner import _atomic_write, _parse_bulk
from causal_surgery.surgery import StretchResult, make_globally_hyperbolic
from conftest import flrw_exp

CONFIG = {
    "schema_version": 1,
    "name": "cli-test",
    "pipeline": "theorem1",
    "domain": {"dimension": 1, "circumferences": [6.283185307179586], "resolution": [32]},
    "metric_g": {"catalog": "flrw_exp", "params": {"rate": 1.0}},
    "verification": {"samples": 8, "seed": 1, "step": 0.01, "curve_start": -1.0},
    "n_time_export": 25,
}


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_import_loads_numpy_only():
    """Importing the CLI loads no scipy module."""
    src = os.path.dirname(os.path.dirname(causal_surgery.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, causal_surgery.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


_NO_SCIPY = """
import os, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
sys.meta_path.insert(0, NoScipy())
from click.testing import CliRunner
from causal_surgery.cli import _DEMO_FILES, main
demos = os.path.join(os.path.dirname(sys.modules["causal_surgery"].__file__), "demos")
for name, fname in _DEMO_FILES.items():
    out = os.path.join(sys.argv[1], name)
    for args in (["demo", name, "--out", out],
                 ["verify", "--config", os.path.join(demos, fname), os.path.join(out, "metric.csv")]):
        r = CliRunner().invoke(main, args)
        print(args[0], name, r.exit_code, r.output.count("[PASS]"), r.output.count("[FAIL]"))
"""


def test_demos_build_and_verify_without_scipy(tmp_path):
    """Every demo builds and verifies with scipy imports blocked."""
    src = os.path.dirname(os.path.dirname(causal_surgery.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    # (exit code, PASS lines, FAIL lines) of each build and verify
    want = {"flrw-circle": ((0, 3, 0), (0, 2, 0)), "anisotropic-torus": ((0, 3, 0), (0, 2, 0)),
            "join-ultrastatic": ((0, 5, 0), (0, 2, 0)), "join-pair": ((0, 11, 0), (0, 1, 0))}
    got = {}
    for line in out.stdout.splitlines():
        cmd, name, *counts = line.split()
        got.setdefault(name, []).append(tuple(map(int, counts)))
    assert got == {name: list(w) for name, w in want.items()}


# -- exit codes ------------------------------------------------------------


def _past_oscillation(k):
    """g11 = 1 - sin(k pi t)^2 / 2 for t < 0, 1 after: it looks constant at
    t = -2, -1 and -0.25, yet its past is not constant."""
    return {"catalog": "custom", "params": {"g11": f"1 - 0.5*sin({k}*pi*min(t,0))^2"}}


@pytest.mark.parametrize("metric_g", [
    CONFIG["metric_g"], _past_oscillation(16), _past_oscillation(4),
], ids=["flrw_exp", "past_oscillation_16pi", "past_oscillation_4pi"])
def test_build_success_exit_zero(metric_g, tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(dict(CONFIG, metric_g=metric_g)))
    out = str(tmp_path / "out")
    res = invoke("build", "--config", str(p), "--out", out)
    assert res.exit_code == 0, res.output
    assert os.path.exists(os.path.join(out, "metric.csv"))
    assert os.path.exists(os.path.join(out, "report.json"))
    for check in ("global_hyperbolicity", "cone_inequality", "cone_containment"):
        assert f"[PASS] cli-test: {check}" in res.output


def test_build_bad_config_exit_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": 99}')
    res = invoke("build", "--config", str(p), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2
    assert "schema_version" in res.output


def test_build_missing_config_exit_two(tmp_path):
    res = invoke("build", "--config", str(tmp_path / "nope.json"))
    assert res.exit_code == 2


def test_build_rejects_bad_overrides(config_file):
    assert invoke("build", "--config", config_file, "--samples", "0").exit_code == 2
    assert invoke("build", "--config", config_file, "--tol", "-1").exit_code == 2


def test_verify_failing_metric_exit_one(config_file, tmp_path):
    """A dump of the unstretched FLRW metric fails cone containment."""
    dump = str(tmp_path / "raw.csv")
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-3, 3, 25))
    res = invoke("verify", "--config", config_file, dump, "--samples", "8")
    assert res.exit_code == 1, res.output
    assert "[FAIL]" in res.output


def test_verify_unresolved_containment_exit_one(tmp_path):
    """A dump whose containment the ladder cannot decide at its finest step
    (lapse (1 + 0.3 cos(16 pi (t + 2)))^2, step 0.05; see
    test_cone_containment_fails_an_undecided_bundle_as_unresolved) fails
    the check as unresolved: exit 1, not exit 2 and not a pass."""
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    m = MetricField(domain, lambda t, x: (
        (1.0 + 0.3 * np.cos(16 * np.pi * (t + 2.0))) ** 2, np.ones((t.size, 1, 1))))
    dump = str(tmp_path / "undecided.csv")
    export_fields(m, dump, t_grid=np.linspace(-2.0, 0.0, 401))
    cfg = dict(CONFIG, verification=dict(CONFIG["verification"], step=0.05, curve_start=-2.0))
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    res = invoke("verify", "--config", str(p), dump)
    assert res.exit_code == 1, res.output
    assert "[PASS] cli-test: global_hyperbolicity" in res.output
    assert "[FAIL] cli-test: cone_containment (curve (" in res.output
    assert "unresolved at the finest step 0.0625" in res.output


def test_verify_good_dump_exit_zero(config_file, tmp_path):
    out = str(tmp_path / "out")
    assert invoke("build", "--config", config_file, "--out", out, "--quiet").exit_code == 0
    res = invoke(
        "verify", "--config", config_file, os.path.join(out, "metric.csv"), "--samples", "8"
    )
    assert res.exit_code == 0, res.output


def test_build_and_verify_a_window_of_partial_slabs(tmp_path):
    """A validity window that is not a whole number of unit slabs builds and
    verifies its own dump: no certificate samples past the dump's last row."""
    cfg = dict(CONFIG, verification=dict(CONFIG["verification"], t_window=[-3.0, 2.6]))
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    res = invoke("build", "--config", str(p), "--out", out, "--quiet")
    assert res.exit_code == 0, res.output
    res = invoke("verify", "--config", str(p), os.path.join(out, "metric.csv"), "--samples", "8")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("name, halves", [("join-ultrastatic", 1), ("join-pair", 2)])
def test_join_build_takes_the_verification_settings(tmp_path, monkeypatch, name, halves):
    """A join build certifies each half with the config's curve count,
    tolerance and step (through --samples and --tol too), at the join's own
    start range."""
    from causal_surgery import causality

    seen = []
    verify = causality.verify_cone_containment

    def spy(*args, **kwargs):
        report = verify(*args, **kwargs)
        seen.append((kwargs, report.n_curves))
        return report

    monkeypatch.setattr(causality, "verify_cone_containment", spy)
    raw = json.loads((importlib.resources.files("causal_surgery.demos")
                      / _DEMO_FILES[name]).read_bytes())
    raw["verification"].update(samples=8, step=0.01)
    p = tmp_path / "join.json"
    p.write_text(json.dumps(raw))
    assert run_build(load_config(str(p)), str(tmp_path / "a"), quiet=True).exit_code == 0
    res = invoke("build", "--config", str(p), "--out", str(tmp_path / "b"), "--quiet",
                 "--samples", "12", "--tol", "0.001")
    assert res.exit_code == 0, res.output
    assert [(k["n_samples"], k["tol"], k["step"], n) for k, n in seen] == (
        [(8, 1e-4, 0.01, 8)] * halves + [(12, 0.001, 0.01, 12)] * halves)
    assert all(k["t_start_range"] == (-2.0, -0.5) for k, _ in seen)


def test_verify_garbage_dump_exit_two(config_file, tmp_path):
    dump = tmp_path / "garbage.csv"
    dump.write_text("this,is,not\na,metric,dump\n")
    res = invoke("verify", "--config", config_file, str(dump))
    assert res.exit_code == 2
    assert "header" in res.output


# -- demo dumps ------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_dumps(tmp_path_factory):
    """Each demo built once at its default seed: name -> (config file, dump)."""
    root = tmp_path_factory.mktemp("demos")
    out = {}
    for name, fname in _DEMO_FILES.items():
        cfg = root / fname
        cfg.write_bytes((importlib.resources.files("causal_surgery.demos") / fname).read_bytes())
        assert run_build(load_config(str(cfg)), str(root / name), quiet=True).exit_code == 0
        out[name] = (str(cfg), str(root / name / "metric.csv"))
    return out


@pytest.mark.parametrize("name", list(_DEMO_FILES))
def test_demo_dump_reproduces_its_samples(demo_dumps, name):
    """The grid metric read back from a dump equals every CSV value at its row."""
    cfg, dump = demo_dumps[name]
    domain = load_config(cfg).domain
    d = domain.dimension
    rows = np.loadtxt(dump, delimiter=",", skiprows=1)
    lam, g = read_metric_dump(dump, domain).eval(rows[:, 0], rows[:, 1 : 1 + d], check=False)
    np.testing.assert_allclose(lam, rows[:, 1 + d], rtol=1e-12, atol=0)
    upper = [(a, b) for a in range(d) for b in range(a, d)]
    for k, (a, b) in enumerate(upper):
        np.testing.assert_allclose(g[:, a, b], rows[:, 2 + d + k], rtol=1e-12, atol=0)


# sha256 of (metric.csv, report.json) of each demo at its default seed
DEMO_DIGESTS = {
    "flrw-circle": (
        "c4b1dff000c2f208ef0da0d0b5172672ad506999d050545da03c731d6a4392ce",
        "ef6d5b7eba1ca7aae7bbe1ec53ebcf30f115a87d31847881ffa3a61854e06180",
    ),
    "anisotropic-torus": (
        "b004b91b0a5a0f1514a59a3da80bc6f4417e3ef1263a44481fe13a6fdd944121",
        "69b16099dea234102f799bbbfb30c521ac192d9fa76f43f976cb97e559500030",
    ),
    "join-ultrastatic": (
        "c89d0ea12ce1e3adfcdc7637e577cd93ebf53ef3bded5cf55a2547a29e1fae87",
        "7df16e6a6207ef0f5e50d85c0e27139403fbc601c0860742b9cbff9dabb138ec",
    ),
    "join-pair": (
        "e1076e689b0a265a2055a2e41256510775276f9dd77d6dc28f058f181dfc76c3",
        "90e3f4f9e67955aaca695ac4715aa4a587c0891729a0de9719e7b4ae59024104",
    ),
}


@pytest.mark.parametrize("name", list(_DEMO_FILES))
def test_demo_outputs_match_their_pinned_digests(demo_dumps, name):
    """The deterministic outputs of every demo stay byte-identical; a change
    that alters them updates DEMO_DIGESTS and says why."""
    folder = os.path.dirname(demo_dumps[name][1])
    for fname, want in zip(("metric.csv", "report.json"), DEMO_DIGESTS[name]):
        with open(os.path.join(folder, fname), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, fname


def test_verify_anisotropic_torus_dump_at_its_own_tolerance(demo_dumps):
    cfg, dump = demo_dumps["anisotropic-torus"]
    res = invoke("verify", "--config", cfg, dump)
    assert res.exit_code == 0, res.output
    assert "[PASS] anisotropic-torus: cone_containment" in res.output


def test_verify_rejects_the_unstretched_dump(demo_dumps, tmp_path):
    """Dividing a theorem-1 dump's spatial columns by its own f column undoes
    the stretch; verify must fail it with a witness curve."""
    cfg, dump = demo_dumps["anisotropic-torus"]
    with open(dump) as fh:
        header = fh.readline().strip()
    rows = np.loadtxt(dump, delimiter=",", skiprows=1)
    cols = header.split(",")
    spatial = [k for k, c in enumerate(cols) if c.startswith("g")]
    rows[:, spatial] /= rows[:, [cols.index("f")]]
    raw = tmp_path / "unstretched.csv"
    np.savetxt(raw, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    res = invoke("verify", "--config", cfg, str(raw))
    assert res.exit_code == 1, res.output
    assert "[FAIL] anisotropic-torus: cone_containment (curve (" in res.output


def test_verify_join_pair_checks_global_hyperbolicity_only(demo_dumps):
    cfg, dump = demo_dumps["join-pair"]
    res = invoke("verify", "--config", cfg, dump)
    assert res.exit_code == 0, res.output
    assert "global_hyperbolicity" in res.output
    assert "cone_containment" not in res.output


def test_export_subcommand(config_file, tmp_path):
    out = str(tmp_path / "exp")
    res = invoke("export", "--config", config_file, "--out", out)
    assert res.exit_code == 0
    assert os.path.exists(os.path.join(out, "input_metric.csv"))


def test_demo_list():
    res = invoke("demo", "list")
    assert res.exit_code == 0
    assert "flrw-circle" in res.output
    assert len(res.output.split()) == 4


def test_quiet_suppresses_check_lines(config_file, tmp_path):
    res = invoke("build", "--config", config_file, "--out", str(tmp_path / "q"), "--quiet")
    assert res.exit_code == 0
    assert "[PASS]" not in res.output


# -- CSV dumps -------------------------------------------------------------


def test_csv_has_17_significant_digits(tmp_path):
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    dump = str(tmp_path / "m.csv")
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-1, 1, 5))
    lines = open(dump).read().splitlines()
    assert lines[0] == "t,x1,lapse,g11"
    # e^{2t} at t = -1 round-trips exactly through the printed representation
    row = lines[1].split(",")
    assert float(row[3]) == np.exp(-2.0)
    assert len(row[3].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_dump_round_trip_interpolates(tmp_path):
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    m = flrw_exp(domain, rate=0.5)
    dump = str(tmp_path / "m.csv")
    export_fields(m, dump, t_grid=np.linspace(-2, 2, 33))
    back = read_metric_dump(dump, domain)
    rng = np.random.default_rng(0)
    t = rng.uniform(-2, 2, 40)
    x = rng.uniform(0, 2 * np.pi, (40, 1))
    lam_a, g_a = m.eval(t, x)
    lam_b, g_b = back.eval(t, x)
    np.testing.assert_allclose(lam_b, lam_a, atol=1e-6)
    np.testing.assert_allclose(g_b, g_a, rtol=1e-4)


def test_dump_reader_reports_line_numbers(tmp_path):
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    dump = str(tmp_path / "m.csv")
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-1, 1, 5))
    lines = open(dump).read().splitlines()
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines[:10] + ["0.5,not-a-number,1,1"] + lines[11:]) + "\n")
    with pytest.raises(FormatError, match="line 11"):
        read_metric_dump(str(broken), domain)


@pytest.mark.parametrize(
    "edits, message",
    [
        ({9: "0.5,0.1"}, "line 10: expected at least 4 columns, got 2"),
        ({40: "0.25,{x},1,1"}, "line 41: time value 0.25 breaks the t-outer row ordering"),
        ({7: "{t},0.5,1,1"}, r"line 8: grid point \[0.5\] does not match the configured grid"),
        # several defects: the earliest line is named, whatever its kind
        ({7: "{t},0.5,1,1", 12: "0.5,0.1"}, "line 8: grid point"),
        ({20: "x,0,1,1", 30: "0.25,{x},1,1"}, "line 21: could not convert"),
        ({30: "0.25,{x},1,1", 20: "{t},{x},1"}, "line 21: expected at least 4 columns"),
        ({12: "{t},{x},1,nan"}, "line 13: non-finite value"),
        ({33: "{t},{x},1,inf", 35: "{t},{x},nan,1"}, "line 34: non-finite value"),
    ],
)
def test_dump_reader_names_the_defective_line(tmp_path, edits, message):
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    dump = str(tmp_path / "m.csv")
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-1, 1, 5))
    lines = open(dump).read().splitlines()
    for i, text in edits.items():
        t, x = lines[i].split(",")[:2]
        lines[i] = text.format(t=t, x=x)
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=message):
        read_metric_dump(str(broken), domain)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_dump_exit_two(config_file, tmp_path, value):
    dump = tmp_path / "m.csv"
    export_fields(flrw_exp(SpatialDomain(1, (2 * np.pi,), (32,))), str(dump),
                  t_grid=np.linspace(-3, 3, 25))
    lines = dump.read_text().splitlines()
    lines[40] = ",".join(lines[40].split(",")[:3] + [value])  # the g11 cell
    dump.write_text("\n".join(lines) + "\n")
    res = invoke("verify", "--config", config_file, str(dump), "--samples", "8")
    assert res.exit_code == 2, res.output
    assert "line 41: non-finite value" in res.output


def test_dump_reader_rejects_truncation(tmp_path):
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    dump = str(tmp_path / "m.csv")
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-1, 1, 5))
    lines = open(dump).read().splitlines()
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(FormatError, match="truncated"):
        read_metric_dump(str(trunc), domain)


@pytest.mark.parametrize("name", list(_DEMO_FILES))
def test_dump_bulk_parse_equals_the_line_loop(demo_dumps, name):
    """The one-call parse of a demo dump is the per-line float() parse, bit
    for bit (the theorem-1 dumps carry an extra f column, not parsed)."""
    cfg, dump = demo_dumps[name]
    d = load_config(cfg).domain.dimension
    n_cols = 2 + d + d * (d + 1) // 2
    rows = open(dump).read().splitlines()[1:]
    loop = np.array([[float(p) for p in row.split(",")[:n_cols]] for row in rows])
    bulk = _parse_bulk(rows, n_cols)
    assert bulk is not None
    np.testing.assert_array_equal(bulk, loop)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 21: expected at least 4 columns, got 1"),  # a blank line
        ("{t},{x},1,1 # note", "line 21: could not convert string to float: '1 # note'"),
        ("{t},{x},1,{g},", None),  # a trailing comma
        ("{t},{x},1,{g},7,junk", None),  # extra columns
        (" {t} ,\t{x}\t, 1 ,{g}  ", None),  # padded fields
        ("{t},{x},1,1_0", None),  # float() reads 10
        ("{t},{x},1,\u0661", None),  # an Arabic-Indic digit one
        ("{t},{x},1,1\x1f", "line 21: could not convert string to float: '1\\x1f'"),
    ],
    ids=["blank", "hash", "trailing-comma", "extra-columns", "padded", "underscore",
         "non-ascii-digit", "unit-separator"],
)
def test_dump_reader_accepts_what_float_accepts(tmp_path, text, message):
    """Each edited line gets float()'s verdict: rejected lines are named, and
    an accepted line reads as if its fields were written canonically."""
    domain = SpatialDomain(1, (2 * np.pi,), (32,))
    dump = str(tmp_path / "m.csv")
    export_fields(flrw_exp(domain), dump, t_grid=np.linspace(-1, 1, 5))
    lines = open(dump).read().splitlines()
    t, x, _, g = lines[20].split(",")
    lines[20] = text.format(t=t, x=x, g=g)
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if message is not None:
        with pytest.raises(FormatError, match=re.escape(message)):
            read_metric_dump(str(edited), domain)
        return
    lines[20] = ",".join("%.17g" % float(p) for p in lines[20].split(",")[:4])
    canonical = tmp_path / "canonical.csv"
    canonical.write_text("\n".join(lines) + "\n")
    a = read_metric_dump(str(edited), domain).fn._coef
    np.testing.assert_array_equal(a, read_metric_dump(str(canonical), domain).fn._coef)


def _per_cell_csv(cols, pts, t_grid, block):
    """The dump as formatted cell by cell, every value with "%.17g"."""
    values = ",%.17g" * block.shape[-1] + "\n"
    rows = "".join(["T" + "".join([",%.17g" % c for c in p]) + values for p in pts.tolist()])
    body = "".join(rows.replace("T", "%.17g" % t) % tuple(v.ravel().tolist())
                   for t, v in zip(t_grid.tolist(), block))
    return ",".join(cols) + "\n" + body


# values the dedup must keep apart or format like any other: both zeros,
# subnormals, infinities and NaNs of two payloads and both signs
_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, -np.nan,
                     np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2]),
    n_t=st.integers(1, 4),
    with_f=st.booleans(),
    pool=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                  min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_export_equals_the_per_cell_format_byte_for_byte(tmp_path_factory, d, n_t, with_f,
                                                         pool, seed):
    """Formatting each distinct bit pattern once writes the bytes of formatting
    every cell, with repeats, signed zeros, subnormals, infinities and NaNs."""
    domain = SpatialDomain(d, (2 * np.pi, 4.0)[:d], (9, 8)[:d])
    pts = domain.grid_points()
    n_vals = 1 + d * (d + 1) // 2 + with_f
    values = np.concatenate([_SPECIAL, pool])
    picks = np.random.default_rng(seed).integers(0, len(values), (n_t, len(pts), n_vals))
    block = values[picks]
    block[0, :2, 0] = [0.0, -0.0]  # both zeros in one column
    t_grid = np.arange(n_t) * 0.75 - 1.0
    upper = [(a, b) for a in range(d) for b in range(a, d)]

    def slice_of(t):
        return block[int(np.searchsorted(t_grid, t[0]))]

    def fn(t, x):
        g = np.zeros((len(t), d, d))
        for k, (a, b) in enumerate(upper):
            g[:, a, b] = slice_of(t)[:, 1 + k]
        return slice_of(t)[:, 0], g

    metric = MetricField(domain, fn)
    artifact = metric
    if with_f:
        artifact = StretchResult(metric, ScalarField(lambda t, x: slice_of(t)[:, -1]),
                                 None, None, None)
    cols = ["t"] + [f"x{i+1}" for i in range(d)] + ["lapse"]
    cols += [f"g{a+1}{b+1}" for a, b in upper] + ["f"] * with_f
    dump = tmp_path_factory.mktemp("dump") / "m.csv"
    export_fields(artifact, str(dump), t_grid)
    assert dump.read_bytes() == _per_cell_csv(cols, pts, t_grid, block).encode()


def test_theorem1_2d_dump_reads_back_bit_for_bit(tmp_path):
    """Every value column of a 2-D theorem-1 dump parses to the sampled block."""
    raw = json.loads((importlib.resources.files("causal_surgery.demos")
                      / _DEMO_FILES["anisotropic-torus"]).read_text())
    raw["domain"]["resolution"] = [12, 8]
    cfg = parse_config(raw)
    g = build_metric(cfg.metric_g, cfg.domain, path="$.metric_g")
    result = make_globally_hyperbolic(g, t_window=(-3.0, 3.0), seed=0, verify=False)
    t_grid = np.linspace(-3.0, 3.0, 13)
    dump = str(tmp_path / "m.csv")
    export_fields(result, dump, t_grid)
    assert open(dump).readline() == "t,x1,x2,lapse,g11,g12,g22,f\n"
    rows = np.loadtxt(dump, delimiter=",", skiprows=1).reshape(13, cfg.domain.n_points, 8)
    pts = cfg.domain.grid_points()
    lam, gs = sample_metric(result.metric, t_grid, pts, check=False)
    for k, column in enumerate([lam, gs[..., 0, 0], gs[..., 0, 1], gs[..., 1, 1],
                                sample_metric(result.factor, t_grid, pts)]):
        assert column.tobytes() == rows[..., 3 + k].tobytes()


@pytest.mark.parametrize("existing", [True, False])
def test_atomic_write_leaves_no_temp_file_when_writing_raises(tmp_path, existing):
    target = tmp_path / "aw.csv"
    if existing:
        target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(target), chunks())
    assert not (tmp_path / "aw.csv.tmp").exists()
    assert target.read_text() == "old\n" if existing else not target.exists()


# -- determinism -----------------------------------------------------------


def _strip_volatile(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "timings.json":
            continue  # the one designated volatile artifact
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_build_reruns_are_byte_identical(config_file, tmp_path):
    cfg = load_config(config_file)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_build(cfg, a, quiet=True)
    run_build(cfg, b, quiet=True)
    fa, fb = _strip_volatile(a), _strip_volatile(b)
    assert set(fa) == set(fb) == {"metric.csv", "report.json"}
    for name in fa:
        assert fa[name] == fb[name], f"{name} differs between reruns"


def test_seed_override_changes_report(config_file, tmp_path):
    out = str(tmp_path / "s")
    res = invoke("build", "--config", config_file, "--out", out, "--seed", "42", "--quiet")
    assert res.exit_code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["seed"] == 42
