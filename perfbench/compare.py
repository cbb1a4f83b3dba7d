#!/usr/bin/env python3
"""A/B-compare two checkouts (parent and change) on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10] [--per-layer]

It runs every workload in BENCHMARK.json. Each pair runs both sides on the
same seed (SEED0 + pair index), alternating which side runs first, with
identical benchmark settings (run_seconds from the change's BENCHMARK.json).
Fewer than 10 pairs cannot support a claim, so --pairs below 10 is refused.
Per workload and metric it prints each side's median and quartiles, the
change's win fraction (ties count for neither side) and a verdict:

  gain        the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run
  same        none of the above

A gain does not count when the change fails more ops than the parent.
--per-layer adds one traced run per side and pair and prints the per-layer
medians, to show which layer moved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED0 = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def bench_files(checkout: Path) -> dict:
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for f in sorted((checkout / "perfbench").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            files[str(f.relative_to(checkout))] = f.read_bytes()
    return files


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list, change: list, wins: int, pairs: int) -> str:
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    bound = metric.get("bound")
    worse = (cm - pm) if lower else (pm - cm)
    if bound is not None and pm != 0 and worse / abs(pm) > bound:
        return "regression"
    if wins >= 0.9 * pairs and -worse > (p3 - p1):
        return "gain"
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if bound is not None and pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "same"


def compare(results: dict, metrics: list, workload: str, pairs: int) -> None:
    print(f"\n== {workload} ({pairs} pairs)")
    for side in ("parent", "change"):
        runs = results[side]
        print(f"   {side}: failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} ops, correct in "
              f"{sum(1 for r in runs if r['correct'])}/{len(runs)} runs")
    print(f"   {'metric':34} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'win':>5}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        unit = results["parent"][0]["metrics"][name]["unit"]
        note = verdict(metric, parent, change, wins, len(parent))
        failed = (sum(r["failed"] for r in results["change"]) >
                  sum(r["failed"] for r in results["parent"]))
        if note == "gain" and failed:
            note = "gain void: change fails more ops"
        label = f"{name} ({unit})"
        print(f"   {label:34} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34}"
              f" {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34} {f'{wins}/{len(parent)}':>5}  {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()
    if args.pairs < 10:
        print("compare: fewer than 10 pairs cannot support a claim", file=sys.stderr)
        return 2

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if not (args.parent / "BENCHMARK.json").is_file() or \
            bench_files(args.parent) != bench_files(args.change):
        print("compare: parent and change must run the same benchmark; copy the change's "
              "BENCHMARK.json and perfbench/ into the parent checkout", file=sys.stderr)
        return 2
    sides = {"parent": args.parent, "change": args.change}
    for workload in (w["name"] for w in spec["workloads"]):
        results = {"parent": [], "change": []}
        layers = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = SEED0 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                results[side].append(
                    run_once(sides[side], workload, seed, spec["run_seconds"], 0))
                if args.per_layer:
                    layers[side].append(
                        run_once(sides[side], workload, seed, spec["run_seconds"], 1))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        compare(results, spec["end_to_end"], workload, args.pairs)
        if args.per_layer:
            compare(layers, spec["per_layer"], workload + " per layer", args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
