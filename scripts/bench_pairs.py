#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, written to one JSON file.

    python3 scripts/bench_pairs.py --parent ../old --change . \\
        --workload honest-n13 --pairs 10 --seconds 35 --out BENCH.json

Each pair runs each tree's own `perfbench/run.py --trace 0` once, on a
seed of its own (pair k on seed k+1), with the tree that goes first
alternating from pair to pair. Every run must end with `correct: true`,
or the script stops with exit 1 and writes nothing. For each end-to-end
metric that the change tree's BENCHMARK.json declares, the output holds
every run's value, each side's median and quartiles, and the number of
pairs the change won. An existing --out file keeps its other
workloads, so one file can collect several invocations. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of a tree; its metrics by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {}
    if proc.returncode != 0 or report.get("correct") is not True:
        sys.exit(f"bench_pairs: {tree} {workload} seed {seed} is not correct "
                 f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, contract: dict) -> dict:
    out = {}
    for metric in contract["end_to_end"]:
        name, better = metric["name"], metric["better"]
        wins = 0
        for pair in runs:
            p, c = pair["parent"][name], pair["change"][name]
            wins += c < p if better == "lower" else c > p
        out[name] = {"unit": metric["unit"], "better": better,
                     "change_wins": wins, "pairs": len(runs)}
        for side in SIDES:
            out[name][side] = spread([pair[side][name] for pair in runs])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    runs = []
    for k in range(args.pairs):
        seed = k + 1
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed,
                                  args.seconds)
        runs.append(pair)
        print(f"pair {k} seed {seed}: " + "  ".join(
            f"{side} op_ms.p50={pair[side]['op_ms.p50']:.2f}"
            for side in SIDES), flush=True)

    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"workloads": {}})
    doc["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                   "python": platform.python_version()}
    doc["workloads"][args.workload] = {
        "pairs": args.pairs, "seconds": args.seconds,
        "metrics": summarise(runs, contract), "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in doc["workloads"][args.workload]["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} change "
              f"{m['change']['median']:.4g} {m['unit']}, change better in "
              f"{m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
