#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, written to one JSON file.

    python3 scripts/bench_pairs.py --parent ../old --change . \\
        --workload honest-n13 --pairs 10 --seconds 35 --out BENCH.json

Each pair runs each tree's own `perfbench/run.py --trace 0` once, on a
seed of its own (pair k on seed k+1), with the tree that goes first
alternating from pair to pair. Every run must end with `correct: true`,
or the script stops with exit 1 and writes nothing. For each end-to-end
metric that the change tree's BENCHMARK.json declares, the output holds
every run's value, each side's median and quartiles, the number of
pairs the change won, and two verdicts: `within_bound`, whether the
change's median is no worse than the parent's by more than the metric's
`bound` (a fraction of the parent's median), and `gain_shown`, whether
the change won at least nine tenths of the pairs (ties count for neither
side) and the medians differ, in the change's favour, by more than the
distance between the parent's quartiles. An existing --out file keeps
its other workloads, so one file can collect several invocations.
Stdlib only.
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
        # sign turns every comparison into "larger is better"
        sign = -1 if better == "lower" else 1
        wins = sum(sign * pair["change"][name] > sign * pair["parent"][name]
                   for pair in runs)
        m = out[name] = {"unit": metric["unit"], "better": better,
                         "change_wins": wins, "pairs": len(runs)}
        for side in SIDES:
            m[side] = spread([pair[side][name] for pair in runs])
        parent, change = m["parent"], m["change"]
        gain = sign * (change["median"] - parent["median"])
        m["within_bound"] = gain >= -metric["bound"] * abs(parent["median"])
        m["gain_shown"] = (10 * wins >= 9 * len(runs)
                           and gain > parent["q3"] - parent["q1"])
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
              f"{m['change_wins']}/{m['pairs']}, within bound "
              f"{m['within_bound']}, gain shown {m['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
