#!/usr/bin/env python3
"""Benchmark of the rucon simulator, run from the root of a source tree.

    python3 perfbench/run.py --workload honest-n13 --seed 3 --seconds 35 --trace 0

Runs one workload through the public library API (`rucon.simulator.run` and
`rucon.simulator.deviation_experiment`) for the given number of seconds in
this one process, checks every output, prints each metric with its unit and
ends with one JSON line. `--trace 0` gives the end-to-end metrics, measured
with nothing patched; `--trace 1` gives the per-layer metrics from a traced
replay of an untimed pass. `--record-reference` rewrites reference.json
from the default seed. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import Tracer
from workloads import (WORKLOADS, build_corpus, check, corpus_digest, digest,
                       operation)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
CONTRACT = HERE.parent / "BENCHMARK.json"   # names and units of the metrics
DEFAULT_SEED = 0
SETUP_REPEATS = 6   # before the timed loop, and as many after it
# time_reference() gives REF_LOOP_S on the reference host (2-core x86-64
# VM, Python 3.11) when nothing else contends for the core. Times are
# reported in that host's seconds, as explained in README.md.
REF_LOOP_S = 0.0016
CALIBRATE_S = 0.02     # operation time between two reference measurements
UNTIMED_SHARE = 0.25   # of --seconds, in a traced run; the replay takes the rest

# Printed but left out of BENCHMARK.json: the time is exactly zero on the
# workloads that never reach the layer, so the call counts stand for them.
PRINTED_ONLY = {"invariants.after_round.ms": "ms",
                "invariants.finalize.ms": "ms", "deviations.hooks.ms": "ms"}


def load_library():
    """Import rucon afresh from this tree's src/ and nowhere else."""
    if not (SRC / "rucon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rucon package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "rucon" or m.startswith("rucon.")]:
        del sys.modules[name]
    rucon = importlib.import_module("rucon")
    if not Path(rucon.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported rucon from {rucon.__file__}")
    return SimpleNamespace(simulator=sys.modules["rucon.simulator"],
                           deviations=sys.modules["rucon.deviations"])


def set_up(name, seed):
    """Imports, the corpus and the reference inputs, timed as one step.

    Returns the host-normalised seconds, the library, the corpus, the
    default-seed corpus and its recorded digests.
    """
    def build():
        lib = load_library()
        return (lib, build_corpus(lib, name, seed),
                build_corpus(lib, name, DEFAULT_SEED),
                json.loads(REFERENCE.read_text())["workloads"][name])
    out, seconds = normalised(build)
    return (seconds, *out)


class Checker:
    """Checks outputs: the workload property, repeats, and the reference."""

    def __init__(self, name, reference=None):
        self.name = name
        self.reference = reference     # item index -> recorded digest
        self.digests = {}              # item index -> first digest seen
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, k, item, out):
        d = digest(self.name, out)
        bad = check(self.name, item, out)
        if self.digests.setdefault(k, d) != d:
            bad.append(f"digest {d} differs from an earlier run {self.digests[k]}")
        if self.reference is not None and self.reference[k] != d:
            bad.append(f"digest {d} differs from reference {self.reference[k]}")
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.append((k, bad))
        return d


def check_reference_slice(name, op, ref_corpus, reference, checker):
    """Re-run the first recorded default-seed inputs against their digests."""
    ref = Checker(name, reference["items"])
    for k in range(WORKLOADS[name].reference_slice):
        ref.record(k, ref_corpus[k], op(ref_corpus[k]))
    checker.attempted += ref.attempted
    checker.failed += ref.failed
    checker.problems += [("reference", bad) for _, bad in ref.problems]


def compute_loop():
    """Dict, tuple and integer work on a small table that stays in cache."""
    seen, acc = {}, 0
    for i in range(4500):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + i
        acc += (i * 7) % 11
    return acc


_rng = random.Random(0)
TABLE = {(i, i % 7): (i, "R", i % 13) for i in range(40_000)}
PROBES = [(j, j % 7) for j in (_rng.randrange(40_000) for _ in range(6000))]


def lookup_loop():
    """Scattered lookups in a table of several MB, which miss the cache."""
    seen, acc = {}, 0
    for key in PROBES:
        v = TABLE[key]
        if v[1] == "R":
            acc += v[2]
        seen[key[1]] = v
    return acc


def time_reference():
    """The host's speed now, as the time of the two reference loops.

    Contention slows the compute loop more than the library and the lookup
    loop less, so their geometric mean tracks the library best.
    """
    t0 = perf_counter()
    compute_loop()
    t1 = perf_counter()
    lookup_loop()
    return math.sqrt((t1 - t0) * (perf_counter() - t1))


def normalised(op):
    """Run op between two reference measurements.

    Returns the result and the host-normalised seconds.
    """
    before = time_reference()
    t0 = perf_counter()
    out = op()
    wall = perf_counter() - t0
    return out, wall / ((before + time_reference()) / 2) * REF_LOOP_S


def end_to_end(op, corpus, checker, seconds):
    """Run every input once, then keep cycling until the time is up.

    The reference loops run after every CALIBRATE_S of operations, and each
    operation's time is divided by the mean of the measurements around it.
    """
    samples = [[] for _ in corpus]   # host-normalised seconds per input
    wall = 0.0
    deadline = perf_counter() + seconds
    i = 0
    before, pending = time_reference(), []
    while True:
        done = i >= len(corpus) and perf_counter() >= deadline
        if pending and (done or sum(d for _, d in pending) >= CALIBRATE_S):
            after = time_reference()
            scale = REF_LOOP_S / ((before + after) / 2)
            for k, d in pending:
                samples[k].append(d * scale)
            before, pending = after, []
        if done:
            break
        k = i % len(corpus)
        t0 = perf_counter()
        out = op(corpus[k])
        dt = perf_counter() - t0
        checker.record(k, corpus[k], out)
        pending.append((k, dt))
        wall += dt
        i += 1
    cost = [statistics.median(s) for s in samples]
    deciles = statistics.quantiles(cost, n=10)
    print(f"samples {i} over {len(corpus)} inputs; wall {i / wall:.3f} ops/s")
    return {"ops_per_s": len(corpus) / sum(cost),
            "op_ms.p50": deciles[4] * 1000,
            "op_ms.p90": deciles[8] * 1000}


def per_layer(name, op, corpus, checker, seconds, seed):
    """Untimed pass, then a traced replay of the same inputs."""
    outs, untimed = [], 0.0
    deadline = perf_counter() + seconds * UNTIMED_SHARE
    while len(outs) < len(corpus) and (not outs or perf_counter() < deadline):
        k = len(outs)
        t0 = perf_counter()
        outs.append(op(corpus[k]))
        untimed += perf_counter() - t0
        checker.record(k, corpus[k], outs[-1])
    ops = len(outs)

    # Recording each output again checks it against the untimed digest.
    traced = 0.0
    with Tracer() as tracer:
        for k in range(ops):
            tracer.keep_spans = k == 0
            t0 = perf_counter()
            out = op(corpus[k])
            traced += perf_counter() - t0
            if k == 0:
                first = tracer.snapshot()
            checker.record(k, corpus[k], out)
    with Tracer() as again:
        checker.record(0, corpus[0], op(corpus[0]))
    if not (tracer.restored() and again.restored()):
        sys.exit("perfbench: a traced name was not restored")
    missing = tracer.missing(name)
    if missing:
        sys.exit(f"perfbench: no calls reached {missing} on {name}; "
                 "a call site was renamed or bypasses the traced names")
    if again.snapshot() != first:
        checker.failed += 1
        checker.problems.append((0, ["counters differ between two runs: "
                                     f"{first} vs {again.snapshot()}"]))

    metrics = tracer.layer_metrics(ops)
    trials = [s for out in outs for s in out] if name == "deviation-study" else []
    metrics["deviations.applied_rate"] = (
        statistics.fmean(s.applied_rate for s in trials) if trials else 0.0)
    metrics["deviations.detection_rate"] = (
        statistics.fmean(s.detection_rate for s in trials) if trials else 0.0)
    metrics["tracing.overhead"] = traced / untimed - 1
    print(f"traced {ops} inputs: untimed {ops / untimed:.3f} ops/s, "
          f"traced {ops / traced:.3f} ops/s")
    print("rejections by rule "
          + json.dumps(tracer.rejections_by_rule(), sort_keys=True))
    print("counters " + json.dumps(tracer.snapshot(), sort_keys=True))
    write_spans(tracer.spans, name, seed)
    return metrics


def write_spans(spans, name, seed):
    """The first traced operation's spans, one JSON object a line."""
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    start = min((s[3] for s in spans), default=0.0)
    with open(out / f"spans-{name}-{seed}.jsonl", "w") as f:
        for sid, parent, span, t0, t1 in sorted(spans):
            f.write(json.dumps({"id": sid, "parent": parent, "name": span,
                                "start_us": round((t0 - start) * 1e6, 3),
                                "dur_us": round((t1 - t0) * 1e6, 3)}) + "\n")


def record_reference():
    lib = load_library()
    recorded = {}
    for name in WORKLOADS:
        corpus = build_corpus(lib, name, DEFAULT_SEED)
        checker = Checker(name)
        op = operation(lib, name)
        items = [checker.record(k, x, op(x)) for k, x in enumerate(corpus)]
        if checker.failed:
            sys.exit(f"perfbench: {name} fails its own checks: "
                     f"{checker.problems[:3]}")
        recorded[name] = {"digest": corpus_digest(items), "items": items}
        print(f"{name}: {len(items)} inputs, digest {recorded[name]['digest']}")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED,
                                     "workloads": recorded}, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    name = args.workload

    setups = [set_up(name, args.seed) for _ in range(SETUP_REPEATS)]
    _, lib, corpus, ref_corpus, reference = setups[-1]
    op = operation(lib, name)
    checker = Checker(name, reference["items"]
                      if args.seed == DEFAULT_SEED else None)

    contract = json.loads(CONTRACT.read_text())
    if args.trace:
        metrics = per_layer(name, op, corpus, checker, args.seconds, args.seed)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        metrics = end_to_end(op, corpus, checker, args.seconds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    check_reference_slice(name, op, ref_corpus, reference, checker)
    if not args.trace:
        # As many set-ups again after the timed loop, so that one host
        # stall cannot cover them all.
        times = [s[0] for s in setups]
        times += [set_up(name, args.seed)[0] for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = statistics.median(times)
        if name == "deviation-study":
            trials = metrics["ops_per_s"] * len(corpus[0])
            print(f"trials_per_s {trials!r} 1/s")
        else:
            print(f"runs_per_s {metrics['ops_per_s']!r} 1/s")

    print(f"digest {name} seed={args.seed} inputs={len(checker.digests)} "
          f"{corpus_digest(checker.digests[k] for k in sorted(checker.digests))}")
    for k, bad in checker.problems[:10]:
        print(f"FAILED input {k}: {'; '.join(bad)}")
    print(f"failed_share {checker.failed / checker.attempted} "
          f"({checker.failed}/{checker.attempted})")
    for metric, value in sorted(metrics.items()):
        unit = units.get(metric) or PRINTED_ONLY.get(metric, "")
        print(f"{metric} {value!r} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items()}}))
    return 1 if checker.failed else 0


if __name__ == "__main__":
    sys.exit(main())
