"""The benchmark's workloads: their inputs, one operation each, and checks.

Every workload turns the benchmark seed into a fixed corpus of inputs and
defines one operation on an input through the public library API. An
operation's output is reduced to a digest of every field the protocol
determines, and checked against the property the workload must hold on
any seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

# (n, t) scales and the deviating agent of the paired deviation study, as in
# the acceptance test that checks no deviation is profitable.
DEVIATION_SCALES = ((5, 1), (7, 2))
DEVIANT = 1


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int    # inputs per corpus, all run at least once per run
    reference_slice: int  # default-seed inputs re-checked on every run


# Why each workload was chosen is recorded in BENCHMARK.json. Corpus sizes
# keep each input repeated at least three times in a 35 s run, so that a
# median time per input exists. The work of a run at (13,4) varies by about
# 13% from input to input, so 32 inputs hold the corpus mean to about 2.5%.
WORKLOADS = {w.name: w for w in (
    Workload("honest-n13", corpus_size=32, reference_slice=2),
    Workload("honest-n5-checked", corpus_size=400, reference_slice=40),
    # One input is one seed: its 20 paired trials, 10 types at 2 scales. A
    # single trial is a poor unit, since the two scales split its latency
    # into two equal modes and the median falls in the gap between them.
    Workload("deviation-study", corpus_size=30, reference_slice=1),
)}


def _seeds(name: str, seed: int, count: int) -> list:
    rng = random.Random(f"perfbench:{name}:{seed}")
    return rng.sample(range(1_000_000), count)


def build_corpus(lib, name: str, seed: int) -> list:
    """The workload's inputs for one benchmark seed, in run order."""
    sim = lib.simulator
    size = WORKLOADS[name].corpus_size
    if name == "honest-n13":
        return [sim.RunConfig(n=13, t=4, seed=s, sample_pattern=True,
                              check_invariants=False)
                for s in _seeds(name, seed, size)]
    if name == "honest-n5-checked":
        return [sim.RunConfig(n=5, t=1, seed=s, sample_pattern=True)
                for s in _seeds(name, seed, size)]
    types = sorted(lib.deviations.DEVIATION_TYPES)
    return [[(sim.RunConfig(n=n, t=t, seed=s), tid)
             for n, t in DEVIATION_SCALES for tid in types]
            for s in _seeds(name, seed, size)]


def operation(lib, name: str):
    """The callable that runs one input of the workload.

    Library names are looked up at each call, so a traced run reaches them.
    """
    if name != "deviation-study":
        return lambda cfg: lib.simulator.run(cfg)

    def trial(base, tid):
        return lib.simulator.deviation_experiment(
            base, lambda: lib.deviations.make_deviation(tid, agent=DEVIANT,
                                                        seed=0), 1)
    return lambda trials: [trial(base, tid) for base, tid in trials]


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _items(d: dict):
    return tuple(sorted(d.items()))


def run_digest(res) -> str:
    """Every field of a RunResult that the protocol determines."""
    p = res.pattern
    return _hash((
        res.values, _items(p.crash), _items(p.send_om), _items(p.recv_om),
        _items(res.decisions), res.outcome, res.m_star, res.d_set,
        _items(res.utilities), _items(res.invariants), _items(res.errors),
        tuple(_items(g) for g in res.guesses), res.deviation_applied))


def summary_digest(summaries) -> str:
    """Every field of each ExperimentSummary."""
    return _hash(tuple(dataclasses.astuple(s) for s in summaries))


def digest(name: str, out) -> str:
    return summary_digest(out) if name == "deviation-study" else run_digest(out)


def corpus_digest(item_digests) -> str:
    return hashlib.sha256(" ".join(item_digests).encode()).hexdigest()


def check(name: str, item, out) -> list:
    """Violations of the workload property by one output; empty if none."""
    if name == "deviation-study":
        return [bad for trial, summary in zip(item, out)
                for bad in _check_trial(trial, summary)]
    return _check_honest(item, out)


def _check_honest(cfg, res) -> list:
    bad = []
    b0, b1, _ = cfg.utilities
    if res.outcome[0] != "consensus":
        return [f"outcome {res.outcome}"]
    v = res.outcome[1]
    decided = {d for d in res.decisions.values() if d != "no_decision"}
    if decided != {v} or v not in res.values:
        bad.append(f"decisions {res.decisions} vs outcome {v}")
    if not res.invariants_ok:
        bad.append(f"invariants {res.invariants}")
    if not (isinstance(res.m_star, int) and 1 <= res.m_star <= cfg.t + 2):
        bad.append(f"m_star {res.m_star}")
    if not res.d_set:
        bad.append("empty decision set")
    if res.errors or res.guesses or res.deviation_applied:
        bad.append(f"errors {res.errors} in an honest run")
    want = {i: (b0 if res.values[i - 1] == v else b1)
            for i in range(1, cfg.n + 1)}
    if res.utilities != want:
        bad.append(f"utilities {res.utilities}")
    return bad


def _check_trial(item, s) -> list:
    base, tid = item
    b0, b1, b2 = base.utilities
    bad = []
    if s.runs != 1 or s.deviation != f"type{tid}":
        bad.append(f"trial {s.deviation} x{s.runs}")
    if s.mean_honest not in (b0, b1):
        bad.append(f"honest half not in consensus: {s.mean_honest}")
    if s.mean_deviant not in (b0, b1, b2):
        bad.append(f"deviant utility {s.mean_deviant}")
    if (s.mean_diff != s.mean_deviant - s.mean_honest or s.se_diff != 0.0
            or s.gain_within_noise != (s.mean_diff <= 0)):
        bad.append(f"inconsistent summary {s}")
    if s.detection_rate not in (0.0, 1.0) or s.applied_rate not in (0.0, 1.0):
        bad.append(f"rates {s.detection_rate}, {s.applied_rate}")
    if s.detection_rate == 1.0 and s.mean_deviant != b2:
        bad.append("detected deviant not punished")
    if not 0 <= s.guess_hits <= s.guess_trials or (tid != 5 and s.guess_trials):
        bad.append(f"guesses {s.guess_hits}/{s.guess_trials}")
    return bad
