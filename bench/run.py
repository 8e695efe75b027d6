"""The repository benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload join --seed 3 --seconds 36 --trace 0

Run from the root of a source checkout.  Workloads (see workloads.py):
`join`, `verify-dumps`, `lattice-2d`.  Each run is a closed loop from one
process: one caller, operations back to back, BLAS pinned to one thread.

- `--trace 0` measures the end-to-end metrics: `wall_ref` (one pass of the
  workload, each op at its fastest repetition in the run, over the median
  time of a fixed reference kernel timed between the ops; see `wall_ref`),
  `setup_s` (median over fresh interpreters
  of `import causal_surgery` through `parse_config`/`build_metric` of the
  workload's configs) and `peak_rss_mb` (high-water RSS of the workload
  process).  `wall_s` (the same pass in seconds), `build_s`, `verify_s` and
  `failed_ops_frac` are printed too.  They are left out of BENCHMARK.json:
  `wall_s` spreads too far from run to run on a shared host, and the others
  are each 0 on some workload.
- `--trace 1` times calls into each module's public functions from outside
  the package and reports the per-layer metrics, plus `trace.overhead_frac`
  (traced over untraced pass wall time, minus 1).

An operation of a measured pass fails if it raises or exits non-zero;
`verify` exiting 1 is a verification verdict and counts as failed, not as an
incorrect result.
`correct` is false when an op raises, exits 2, writes outputs that disagree
with its exit code, or writes bytes that differ between repetitions.  The
last line of stdout is the result JSON; human-readable lines come before it,
and the full record goes to `.bench_work/results/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

SETUP_REPEATS = 7
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "CAUSAL_SURGERY_THREADS": "1"}
LAYERS = ("cli", "config", "expr", "runner", "surgery", "causality", "fields", "eigen",
          "profiles", "domain")

# per-layer metric -> (trace group, field), as a per-pass mean
GROUP_METRICS = {
    "causality.cone_containment.s": ("causality.cone_containment", "s"),
    "causality.cone_containment.curves": ("causality.cone_containment", "points"),
    "profiles.smooth_unit_step.calls": ("profiles.smooth_unit_step", "calls"),
    "fields.eval.s": ("fields.eval", "s"),
    "fields.eval.calls": ("fields.eval", "calls"),
    "fields.eval.points": ("fields.eval", "points"),
    "eigen.gen_max_eig.points": ("eigen.gen_max_eig", "points"),
    "eigen.gen_max_eig.s": ("eigen.gen_max_eig", "s"),
    "surgery.majorant.s": ("surgery.majorant", "s"),
    "surgery.cone_inequality.s": ("surgery.cone_inequality", "s"),
    "causality.gh_slabs.s": ("causality.gh_slabs", "s"),
    "expr.eval_expression.calls": ("expr.eval_expression", "calls"),
    "runner.export.s": ("runner.export", "s"),
    "runner.export.bytes": ("runner.export", "points"),
    "runner.read_dump.s": ("runner.read_dump", "s"),
    "runner.read_dump.bytes": ("runner.read_dump", "points"),
    "causality.diamond.s": ("causality.diamond", "s"),
    "causality.window_checks.s": ("causality.window_checks", "s"),
    "surgery.splice.s": ("surgery.splice", "s"),
    "config.build_metric.s": ("config.build_metric", "s"),
    "runner.run_build.s": ("runner.run_build", "s"),
    "runner.run_verify.s": ("runner.run_verify", "s"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Run:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        # the measured loop stays within --seconds unless two passes take
        # longer; the rest is set-up and preparation
        self.deadline_s = args.seconds + 120
        self.deadline = monotonic() + self.deadline_s
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.results = root / ".bench_work" / "results"
        self.work = root / ".bench_work" / f"{tag}-{os.getpid()}"
        self.tag = tag
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **THREADS)

    def child(self, spec: dict, name: str) -> dict:
        """Run worker.py on `spec` in a fresh interpreter and return its result."""
        spec_path = self.work / f"{name}.spec.json"
        result_path = self.work / f"{name}.result.json"
        spec["result"] = str(result_path)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {name}")
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} did not finish within {self.deadline_s} s")
        if proc.returncode != 0:
            raise BenchError(f"{name} worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def execute(self) -> dict:
        args = self.args
        configs, prepare_ops, ops = workloads.plan(args.workload, self.root, args.seed)
        (self.work / "configs").mkdir(parents=True)
        paths = {}
        for scenario, raw in configs.items():
            paths[scenario] = str(self.work / "configs" / f"{scenario}.json")
            Path(paths[scenario]).write_text(json.dumps(raw, indent=2), encoding="utf-8")
        base = {"src": str(self.root / "src"), "configs": paths, "raw": configs,
                "prepared_dir": str(self.work / "prepared"), "work_dir": str(self.work)}
        setups = [self.child(dict(base, mode="setup"), f"setup{i}")
                  for i in range(SETUP_REPEATS)]
        prepared = []
        if prepare_ops:
            prepared = self.child(dict(base, mode="prepare", prepare_ops=prepare_ops),
                                  "prepare")["ops"]
        measured = self.child(
            dict(base, mode="measure", ops=ops, seconds=args.seconds, trace=bool(args.trace),
                 spans=str(self.results / f"{self.tag}.spans.csv")), "measure")
        src = self.root / "src"
        if not Path(measured["package"]).is_relative_to(src):
            raise BenchError(f"imported {measured['package']}, not the sources under {src}")
        return {"setups": setups, "prepared": prepared, "measured": measured}


def fastest_pass(passes: list) -> float:
    """Seconds of one pass of the workload, each op at its fastest repetition
    in the run: other tenants of a shared host only ever slow an op down."""
    untraced = [p for p in passes if not p["traced"]]
    return sum(min(p["ops"][i]["seconds"] for p in untraced)
               for i in range(len(untraced[0]["ops"])))


def wall_ref(passes: list, measured: dict) -> float:
    """`fastest_pass` in units of the reference kernel's median chunk time.

    On a shared host the speed this process gets drifts by a quarter or more
    over minutes, and a whole run of a few dozen seconds shares one state, so
    pass seconds spread as far between runs as the host drifts.  The
    reference kernel is timed between the ops of the same run and slows with
    the host, so the ratio keeps the workload's cost and drops the drift.
    """
    return fastest_pass(passes) / statistics.median(measured["reference_s"])


def end_to_end(setups: list, passes: list, measured: dict) -> dict:
    return {
        "wall_ref": wall_ref(passes, measured),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(passes: list, trace: dict) -> dict:
    n = sum(p["traced"] for p in passes)
    groups = trace["groups"]
    zero = {"calls": 0, "points": 0, "s": 0.0}
    out = {name: groups.get(g, zero)[field] / n for name, (g, field) in GROUP_METRICS.items()}
    evals = groups.get("fields.eval", zero)
    out["fields.eval.points_per_call"] = evals["points"] / evals["calls"] if evals["calls"] else 0.0
    profile_entries = trace["layers"].get("profiles", {}).get("entries", 0)
    out["profiles.calls_per_eval"] = profile_entries / evals["calls"] if evals["calls"] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = trace["layers"].get(layer, {}).get("self_s", 0.0) / n
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.spans"] = trace["spans"] / n
    return out


def report(args, bench: dict, record: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    measured = record["measured"]
    passes = measured["passes"]
    # the untimed preparation is checked but not counted, so that the failed
    # share does not depend on how many passes fitted in the run
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["failed"] for op in ops)
    problems = [f"{op['name']}: {msg}" for op in ops + record["prepared"] for msg in op["problems"]]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, closed loop, 1 caller")
    print("# threads " + " ".join(f"{k}={v}" for k, v in measured["env"].items())
          + f" threadpoolctl={'present' if measured['threadpoolctl'] else 'absent'}")
    untraced = [p for p in passes if not p["traced"]]
    reference = measured["reference_s"]
    print(f"wall_s {fastest_pass(passes):.4f} s (each op's fastest of "
          f"{len(untraced)} repetitions)")
    print(f"reference chunk median {statistics.median(reference):.6f} s "
          f"(n={len(reference)}); wall_ref {wall_ref(passes, measured):.2f} ref")
    series = {"pass_s": [p["wall_s"] for p in untraced],
              "setup_s": [s["setup_s"] for s in record["setups"]]}
    for kind in ("build", "verify"):
        series[f"{kind}_s"] = [sum(op["seconds"] for op in p["ops"] if op["kind"] == kind)
                               for p in untraced]
    # a run has too few samples for a percentile, so the upper value is the max
    for name, values in series.items():
        print(f"{name} median {statistics.median(values):.4f} max {max(values):.4f} s "
              f"(n={len(values)})")
    print(f"peak_rss_mb {measured['peak_rss_mb']:.1f} MB")
    print(f"failed_ops_frac {failed / len(ops):.4f} ({failed} of {len(ops)} ops)")
    for op in record["prepared"]:
        print(f"prepared {op['name']} exit {op['exit']}")
    for op in record["prepared"] + passes[0]["ops"]:
        for name, digest in op["digests"].items():
            print(f"digest {op['name']} {name} {digest}")
    for msg in problems:
        print(f"problem {msg}")

    if args.trace:
        values = per_layer(passes, measured["trace"])
        wanted = bench["per_layer"]
    else:
        values = end_to_end(record["setups"], passes, measured)
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"BENCHMARK.json lists {m['name']}, which this run does not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "causal_surgery" / "__init__.py").is_file():
        print(f"error: {root} holds no causal_surgery sources (src/causal_surgery); "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(root, args)
    run.results.mkdir(parents=True, exist_ok=True)
    try:
        record = run.execute()
        result = report(args, bench, record)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    (run.results / f"{run.tag}.json").write_text(
        json.dumps(dict(record, result=result), indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
