"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 bench/spread.py --out .bench_work/set1.json
    python3 bench/spread.py --out .bench_work/set2.json --compare .bench_work/set1.json

Runs bench/run.py once per workload of BENCHMARK.json and seed 0-9
(`--trace 0`, the run length of BENCHMARK.json) from the current directory,
then prints, per workload and end-to-end metric, the median and the quartile spread (Q3 - Q1) / median of
the values, with `statistics.quantiles(values, n=4)`.  A spread must stay
within the metric's bound, and should stay below a third of it.  With
`--compare`, also checks that each median is not worse than the earlier
set's by more than the bound, and that failure counts and output digests
repeat exactly for every seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = sorted(ln for ln in lines if ln.startswith("digest "))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {w["name"]: {str(s): run_once(w["name"], s, bench["run_seconds"]) for s in SEEDS}
            for w in bench["workloads"]}
    Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    before = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None
    bad = 0
    for w, by_seed in runs.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in by_seed.values()]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            line = (f"{w:13s} {m['name']:12s} median {statistics.median(values):10.4f} "
                    f"spread {spread:.3f} bound {m['bound']} {verdict}")
            bad += verdict == "TOO WIDE"
            if before is not None:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in before[w].values())
                worse = (statistics.median(values) - old) / old
                line += f"; vs earlier median {old:.4f}: {worse:+.3f}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    bad += 1
            print(line)
        if before is not None:
            for s, r in by_seed.items():
                old = before[w].get(s)
                frac = r["failed"] / r["attempted"]
                if old and (old["failed"] / old["attempted"], old["digests"]) != (frac, r["digests"]):
                    print(f"{w} seed {s}: failures or digests differ from the earlier set")
                    bad += 1
        fracs = [f"{r['failed']}/{r['attempted']}" for r in by_seed.values()]
        print(f"{w:13s} failed/attempted per run: {fracs}, "
              f"correct: {all(r['correct'] for r in by_seed.values())}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
