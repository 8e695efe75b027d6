"""Self-test of the benchmark at a tiny run length.

    python3 bench/selftest.py

Run from the root of a source checkout; takes a few minutes.  Checks that:

- every workload prints the result object as its last line, with every
  end-to-end metric (`--trace 0`) or per-layer metric (`--trace 1`) of
  BENCHMARK.json, each with its unit;
- each per-layer metric is non-zero on the workloads where its layer runs,
  and zero where the workload bypasses the layer (for example no
  `smooth_unit_step` call on `verify-dumps`);
- traced per-layer self times sum to no more than the traced wall time, and
  on `join` cone containment is the costliest layer;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

SEED = 7
RUN = ["bench/run.py", "--seed", str(SEED), "--seconds", "1"]

# metrics whose layer runs on the workload, and metrics that must read 0
POSITIVE = {
    "join": ["causality.cone_containment.s", "profiles.smooth_unit_step.calls",
             "profiles.calls_per_eval", "surgery.majorant.s", "surgery.splice.s",
             "causality.diamond.s", "causality.window_checks.s", "runner.export.s",
             "config.build_metric.s", "fields.eval.s"],
    "verify-dumps": ["causality.cone_containment.s", "runner.read_dump.s",
                     "runner.read_dump.bytes", "fields.eval.s", "causality.gh_slabs.s"],
    "lattice-2d": ["eigen.gen_max_eig.points", "eigen.gen_max_eig.s", "surgery.majorant.s",
                   "surgery.cone_inequality.s", "causality.gh_slabs.s",
                   "expr.eval_expression.calls", "runner.export.s", "runner.export.bytes",
                   "runner.read_dump.s", "runner.read_dump.bytes", "fields.eval.s"],
}
ZERO = {
    "join": ["runner.read_dump.s", "runner.read_dump.bytes", "runner.run_verify.s"],
    "verify-dumps": ["profiles.smooth_unit_step.calls", "surgery.majorant.s",
                     "runner.export.s", "expr.eval_expression.calls", "runner.run_build.s"],
    "lattice-2d": [],
}
# op-level spans that enclose the layers; not layers themselves
ENCLOSING = {"runner.run_build.s", "runner.run_verify.s", "trace.wall_s"}


def run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run([sys.executable] + RUN + ["--workload", workload, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=400)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload: str, trace: int, bench: dict, fails: list):
    code, out, err = run(Path.cwd(), workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0:
        fails.append(f"{where}: exit {code}: {err.strip()[-300:]}")
        return
    result = json.loads(out.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fails.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fails.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not math.isfinite(got["value"]):
            fails.append(f"{where}: metric {m['name']} missing or malformed: {got}")
    if len(metrics) != len(wanted):
        fails.append(f"{where}: {len(metrics)} metrics, BENCHMARK.json lists {len(wanted)}")
    values = {k: v["value"] for k, v in metrics.items()}
    if not trace:
        fails += [f"{where}: {k} is {v}" for k, v in values.items() if v <= 0]
        return
    fails += [f"{where}: {k} is 0" for k in POSITIVE[workload] if values.get(k, 0) <= 0]
    fails += [f"{where}: {k} is {values[k]}, predicted 0" for k in ZERO[workload]
              if values.get(k, 0) != 0]
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if self_sum > values["trace.wall_s"]:
        fails.append(f"{where}: self times sum to {self_sum} > traced wall {values['trace.wall_s']}")
    if workload == "join":
        layer_s = {k: v for k, v in values.items()
                   if k.endswith(".s") and k not in ENCLOSING}
        top = max(layer_s, key=layer_s.get)
        if top != "causality.cone_containment.s":
            fails.append(f"{where}: largest layer is {top}, not causality.cone_containment.s")


def check_refuses_without_sources(fails: list):
    bare = Path(".bench_work") / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.copy("BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out, _ = run(bare, "join", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        fails.append(f"bare directory: exit {code}, stdout {out.strip()[-200:]!r}")


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    fails: list[str] = []
    check_refuses_without_sources(fails)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, bench, fails)
    for f in fails:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if fails else "passed"))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
