"""Workload process of the benchmark; started by run.py, never imported.

    python3 bench/worker.py SPEC.json

SPEC.json names a mode and writes its result as JSON to `spec["result"]`:

- `setup`: time a cold `import causal_surgery` through `parse_config` and
  `build_metric` of every config.
- `prepare`: run the preparation ops once (untimed dumps for verify).
- `measure`: run passes of the workload ops back to back for about
  `seconds`: at least two passes, and no pass that would likely overrun.
  After each op (outside its timing) a fixed reference kernel is timed, so
  that the run records how fast the host was while it measured.
  With `trace`, passes alternate untraced and traced, so the traced run also
  gives the tracing overhead.

Every op is one in-process CLI call.  After each pass (outside its timing)
the op's outcome is checked and the sha256 of its outputs recorded: a
build's `report.json` and `metric.csv`, a verify's printed check lines.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CAUSAL_SURGERY_THREADS")


def _setup(spec: dict) -> dict:
    t0 = perf_counter()
    from causal_surgery.config import build_metric, parse_config

    for path in spec["configs"].values():
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(json.load(fh))
        build_metric(cfg.metric_g, cfg.domain)
        if cfg.metric_h is not None:
            build_metric(cfg.metric_h, cfg.domain)
    return {"setup_s": perf_counter() - t0}


def reference_chunks(n: int = 12) -> list[float]:
    """Times of `n` chunks of a fixed reference kernel, about 5 ms each.

    The kernel mixes interpreted arithmetic with small NumPy ufunc calls, the
    mix the package's RK4 bundles spend their time on.  It never calls the
    package, so its speed follows only the share of a core that a shared
    host gives this process.
    """
    import numpy as np

    times = []
    for _ in range(n):
        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        a = np.arange(32.0)
        for _ in range(200):
            a = np.sin(a) * 0.5 + a * 0.5
        times.append(perf_counter() - t0)
    return times


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Ops:
    """Runs the ops of one pass and checks what they produced."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.first_digests: dict[str, dict] = {}

    def _args(self, op: dict, pass_dir: Path) -> list[str]:
        scenario = op["scenario"]
        config = self.spec["configs"][scenario]
        if op["kind"] == "build":
            return ["build", "--config", config, "--out", str(pass_dir / scenario), "--quiet"]
        base = Path(self.spec["prepared_dir"]) if op["dump_from"] == "prepared" else pass_dir
        return ["verify", "--config", config, str(base / scenario / "metric.csv")]

    def run(self, ops: list, pass_dir: Path, invoke, reference=None) -> tuple[float, list]:
        """Run the ops back to back; returns (wall seconds of the ops, raw
        records).  With a `reference` list, time the reference kernel after
        each op and append its chunk times."""
        records = []
        for op in ops:
            out = io.StringIO()
            error = None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = invoke(self._args(op, pass_dir))
            except Exception as e:  # an op that raises is a failed op, not a crash
                code, error = None, f"{type(e).__name__}: {e}"
            records.append((op, perf_counter() - t0, code, error, out.getvalue()))
            if reference is not None:
                reference += reference_chunks()
        return sum(r[1] for r in records), records

    def check(self, record, pass_dir: Path) -> dict:
        op, seconds, code, error, stdout = record
        problems = []
        digests = {}
        if error is not None:
            problems.append(f"raised {error}")
        elif code not in (0, 1):
            problems.append(f"exit code {code}")
        elif op["kind"] == "build":
            digests = self._check_build(op, code, pass_dir / op["scenario"], problems)
        else:
            digests = self._check_verify(code, stdout, problems)
        first = self.first_digests.setdefault(op["name"], digests)
        if digests and digests != first:
            problems.append("output bytes differ from the first repetition in this run")
        return {"name": op["name"], "kind": op["kind"], "seconds": seconds, "exit": code,
                "failed": code != 0 or bool(problems), "problems": problems,
                "digests": digests}

    def _check_build(self, op, code, out_dir: Path, problems: list) -> dict:
        try:
            data = {name: (out_dir / name).read_bytes() for name in ("report.json", "metric.csv")}
        except OSError as e:
            problems.append(f"missing output: {e}")
            return {}
        report = json.loads(data["report.json"])
        if report["all_passed"] != (code == 0):
            problems.append(f"report all_passed={report['all_passed']} but exit code {code}")
        raw = self.spec["raw"][op["scenario"]]
        n_points = 1
        for n in raw["domain"]["resolution"]:
            n_points *= n
        rows = data["metric.csv"].count(b"\n") - 1
        if rows != raw["n_time_export"] * n_points:
            problems.append(f"metric.csv has {rows} rows, expected "
                            f"{raw['n_time_export']} x {n_points}")
        return {name: _sha256(b) for name, b in data.items()}

    @staticmethod
    def _check_verify(code, stdout: str, problems: list) -> dict:
        lines = stdout.splitlines()
        if not lines or not all(ln.startswith(("[PASS] ", "[FAIL] ")) for ln in lines):
            problems.append(f"unexpected verify output {stdout[:200]!r}")
        elif any(ln.startswith("[FAIL] ") for ln in lines) != (code == 1):
            problems.append(f"exit code {code} does not match the printed checks")
        return {"checks": _sha256(stdout.encode())}


def _cli():
    from causal_surgery.cli import main

    def invoke(args):
        return main.main(args=args, prog_name="causal-surgery", standalone_mode=False)

    return invoke


def _prepare(spec: dict) -> dict:
    ops = Ops(spec)
    prepared = Path(spec["prepared_dir"])
    _, records = ops.run(spec["prepare_ops"], prepared, _cli())
    return {"ops": [ops.check(r, prepared) for r in records]}


def _measure(spec: dict) -> dict:
    invoke = _cli()
    tracer = traced_invoke = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer("causal_surgery")
        traced_invoke = tracer.wrap(invoke, "cli.main")
    ops = Ops(spec)
    work = Path(spec["work_dir"])
    passes = []
    reference = []
    t_start = perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        pass_dir = work / f"pass{k}"
        if traced:
            tracer.install()
        try:
            wall, records = ops.run(spec["ops"], pass_dir, traced_invoke if traced else invoke,
                                    reference)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": wall,
                       "ops": [ops.check(r, pass_dir) for r in records]})
        shutil.rmtree(pass_dir, ignore_errors=True)
        # at least two passes, so each op has a repetition to compare with;
        # then stop once another pass as long as the last would overrun
        elapsed = perf_counter() - t_start
        if len(passes) >= 2 and elapsed + wall > spec["seconds"]:
            break
    result = {"passes": passes, "reference_s": reference,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    return result


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result = {"setup": _setup, "prepare": _prepare, "measure": _measure}[spec["mode"]](spec)
    import causal_surgery

    result["package"] = causal_surgery.__file__
    result["env"] = {v: os.environ.get(v) for v in THREAD_VARS}
    result["threadpoolctl"] = importlib.util.find_spec("threadpoolctl") is not None
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
