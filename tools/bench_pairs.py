"""Alternated parent/change benchmark pairs, summarised in the BENCH_*.json schema.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload join \
        --seeds 50-59 --out BENCH_15.json --what "..."
    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload join \
        --seeds 60 --trace 1 --metrics fields.eval.calls,causality.cone_containment.s \
        --out BENCH_15.json

Run from the root of the repository.  Each side is `git archive` of its rev
unpacked into a temporary directory: ``--parent`` and ``--change`` each name
a commit or a tree (for uncommitted work, the tree of ``git write-tree`` or
``git stash create``).  Each pair runs
``bench/run.py --workload W --seed S --seconds N --trace T`` once in each
checkout, with N the ``run_seconds`` of BENCHMARK.json, one run at a time,
and the side that runs first alternates (the parent on even pair indices),
so a drift of the host's speed falls on both sides alike.

With ``--trace 0`` the workload's entry under ``end_to_end`` gets, for every
end-to-end metric of BENCHMARK.json, the median and quartiles of each side
(``statistics.quantiles``, n=4), the pairs in which the change is lower and
the relative change of the medians, the pairs in which the change is better
(in the metric's ``better`` direction), and two verdicts, both printed at
the end: ``gain_shown``, whether the change is better in at least 9 of
every 10 pairs and its median is
better than the parent's by more than the parent's quartile gap, and
``within_bound``, whether the change's median is worse than the parent's by
no more than the metric's relative ``bound``; plus the failed-op share of each side,
whether every run was correct, in how many pairs the output digests
agree and, under ``digests_differ`` (also printed), the sorted ``op file``
names whose digests differ between the sides in any pair; and, under
``order_effect``, the median change-minus-parent
``wall_ref`` delta over the pairs the parent ran first and over those the
change ran first, with half their difference, the amount by which the side
that runs first reads slower.  With ``--trace 1`` the entry under
``per_layer_trace`` gets each side's median of the metrics named by
``--metrics``.  Entries for other workloads already in ``--out`` are kept,
and the file is rewritten after every pair, so an interrupted run keeps what
it measured.  Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'50-59' or '3,7,11' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def checkout(rev: str, dest: Path) -> str:
    """Unpack rev (a commit or a tree) into dest; returns its short id."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return git("rev-parse", "--short", rev).decode().strip()


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run: its result object plus its digest lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=seconds * 4 + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["digests"] = sorted(ln for ln in lines if ln.startswith("digest "))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def order_effect(pairs: list[dict]) -> dict:
    """Median change-minus-parent wall_ref delta, by the side that ran first."""
    out = {"metric": "wall_ref"}
    for first in ("parent", "change"):
        deltas = [p["change"]["metrics"]["wall_ref"]["value"]
                  - p["parent"]["metrics"]["wall_ref"]["value"]
                  for p in pairs if p["first"] == first]
        out[f"{first}_first_median_delta"] = (
            round(statistics.median(deltas), 4) if deltas else None)
    if None not in (out["parent_first_median_delta"], out["change_first_median_delta"]):
        out["first_side_slower_by"] = round(
            (out["change_first_median_delta"] - out["parent_first_median_delta"]) / 2, 4)
    return out


def digests_differ(pairs: list[dict]) -> list[str]:
    """Sorted ``op file`` names whose digest differs between the two sides of
    some pair, or is printed by one side only."""
    names = set()
    for p in pairs:
        par, chg = ({ln.rsplit(" ", 1)[0].removeprefix("digest "): ln for ln in p[side]["digests"]}
                    for side in ("parent", "change"))
        names |= {name for name in par.keys() | chg.keys() if par.get(name) != chg.get(name)}
    return sorted(names)


def summarise_end_to_end(pairs: list[dict], metrics: list[dict], seeds: list[int]) -> dict:
    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    out = {}
    for m in metrics if ok else []:
        name = m["name"]
        par = [p["parent"]["metrics"][name]["value"] for p in ok]
        chg = [p["change"]["metrics"][name]["value"] for p in ok]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        # the change's gain over the parent, positive when it is better
        sign = 1.0 if m["better"] == "lower" else -1.0
        better = sum(sign * (p - c) > 0 for c, p in zip(chg, par))
        gain = sign * (pmed - cmed)
        out[name] = {
            "unit": m["unit"],
            "parent_median": round(pmed, 4), "parent_q1": round(pq1, 4),
            "parent_q3": round(pq3, 4),
            "change_median": round(cmed, 4), "change_q1": round(cq1, 4),
            "change_q3": round(cq3, 4),
            "change_lower_in_pairs": f"{sum(c < p for c, p in zip(chg, par))}/{len(ok)}",
            "relative_change": round(cmed / pmed - 1.0, 4),
            "change_better_in_pairs": f"{better}/{len(ok)}",
            "gain_shown": better >= 0.9 * len(ok) and gain > pq3 - pq1,
            "within_bound": -gain <= m["bound"] * abs(pmed),
        }

    def share(side):
        runs = [p[side] for p in ok]
        attempted = sum(r["attempted"] for r in runs)
        return round(sum(r["failed"] for r in runs) / attempted, 4) if attempted else None

    out["order_effect"] = order_effect(ok)
    out["failed_ops_frac"] = {"parent": share("parent"), "change": share("change")}
    out["correct_all_runs"] = len(ok) == len(pairs) and all(
        p[side]["correct"] for p in ok for side in ("parent", "change"))
    out["digests_agree_in_pairs"] = (
        f"{sum(p['parent']['digests'] == p['change']['digests'] for p in ok)}/{len(pairs)}")
    out["digests_differ"] = digests_differ(ok)
    out["seeds"] = seeds[:len(pairs)]
    errors = [f"seed {p['seed']} {side}: {p[side]['error']}" for p in pairs
              for side in ("parent", "change") if "error" in p[side]]
    if errors:
        out["errors"] = errors
    return out


def summarise_trace(pairs: list[dict], names: list[str], units: dict, seeds: list[int]) -> dict:
    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    out = {}
    for name in names if ok else []:
        out[name] = {
            "parent": round(statistics.median(p["parent"]["metrics"][name]["value"] for p in ok), 4),
            "change": round(statistics.median(p["change"]["metrics"][name]["value"] for p in ok), 4),
            "unit": units[name],
        }
    out["seeds"] = seeds[:len(pairs)]
    return out


_VERSIONS = """
import importlib.metadata as m
for name in ("numpy", "scipy"):
    try:
        print(m.version(name))
    except m.PackageNotFoundError:
        print("absent")
"""


def host() -> str:
    """The platform, and the numpy and scipy versions ("absent" for a package
    that is not installed, "?" if they cannot be read)."""
    versions = subprocess.run([sys.executable, "-c", _VERSIONS], capture_output=True,
                              text=True).stdout.split() or ["?", "?"]
    return (f"{platform.system()} {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {versions[0]}, scipy {versions[-1]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent side")
    parser.add_argument("--change", required=True,
                        help="git rev of the change side: a commit, or a tree from git write-tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 50-59 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metrics", help="comma-separated per-layer metrics for --trace 1")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", help="what the change is, for a new --out file")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        labels = {side: checkout(rev, roots[side])
                  for side, rev in (("parent", args.parent), ("change", args.change))}
        record.setdefault("what", args.what or "")
        record["parent"], record["change"] = labels["parent"], labels["change"]
        record.setdefault("command", "python3 bench/run.py --workload W --seed S "
                                     f"--seconds {seconds} --trace 0")
        record.setdefault("host", host())
        record.setdefault("pairs", "parent and change alternated, the parent first on even "
                                   "pair indices; one run at a time")
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], args.workload, seed, seconds, args.trace)
            pairs.append(pair)
            if args.trace:
                names = args.metrics.split(",") if args.metrics else [
                    m["name"] for m in bench["per_layer"]]
                units = {m["name"]: m["unit"] for m in bench["per_layer"]}
                section = record.setdefault("per_layer_trace", {
                    "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} "
                               "--trace 1", "metrics": {}})
                section["metrics"][args.workload] = summarise_trace(pairs, names, units, args.seeds)
            else:
                record.setdefault("end_to_end", {})[args.workload] = summarise_end_to_end(
                    pairs, bench["end_to_end"], args.seeds)
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"{args.workload} seed {seed}: " + ", ".join(
                f"{side} " + (pair[side].get("error") or (
                    "traced" if args.trace else f"wall_ref {pair[side]['metrics']['wall_ref']['value']:.2f}"))
                for side in ("parent", "change")), flush=True)
    if not args.trace:
        summary = record["end_to_end"][args.workload]
        for m in bench["end_to_end"]:
            s = summary.get(m["name"])
            if s:
                print(f"{m['name']} median {s['parent_median']} -> {s['change_median']} "
                      f"({s['relative_change']:+.1%}), change better in "
                      f"{s['change_better_in_pairs']} pairs, parent quartile gap "
                      f"{s['parent_q3'] - s['parent_q1']:.4g}, gain_shown {s['gain_shown']}, "
                      f"within_bound {s['within_bound']} (bound {m['bound']:+.0%})")
        print(f"wall_ref first side slower by "
              f"{summary['order_effect'].get('first_side_slower_by')}")
        print(f"digests differ: {', '.join(summary['digests_differ']) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
