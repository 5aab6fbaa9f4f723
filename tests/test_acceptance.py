"""Acceptance suite: end-to-end checks of the properties the library promises.

Each test prints exactly one [PASS]/[FAIL] line (surfaced by the -rP pytest
option) so a reviewer can read the verdicts without digging through asserts.
The deviation study is the slow part; the whole module runs in minutes.
"""

import itertools
import math
import time

import pytest

from rucon.deviations import DEVIATION_TYPES, make_deviation
from rucon.errors import InconsistencyError
from rucon.sharing import make_polynomial, reconstruct, share_for
from rucon.simulator import RunConfig, deviation_study, run
from rucon.cli import main as cli_main
from rule_fixtures import FIXTURES

SCALES = [(5, 1), (7, 2), (9, 3)]
SWEEP_RUNS = 1000
LARGE_SCALES = [(11, 4), (13, 5)]
LARGE_RUNS = 20
DEVIATION_RUNS = 1000


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def honest_sweep():
    """1000 seeded runs with sampled failure patterns at each scale."""
    return {(n, t): [run(RunConfig(n=n, t=t, seed=s, sample_pattern=True))
                     for s in range(SWEEP_RUNS)]
            for n, t in SCALES}


def _consensus_violation(res):
    """What keeps an honest run from agreement, validity, termination and
    no punishment; None when nothing does."""
    decided = {d for d in res.decisions.values() if d not in ("no_decision",)}
    if "bot" in res.decisions.values():
        return "punishment outcome"
    if "undecided" in res.decisions.values():
        return "agent never terminated"
    if len(decided) != 1:
        return f"no agreement: {decided}"
    if not decided <= set(res.values):
        return f"invalid value: {decided}"
    return None


def test_honest_runs_reach_consensus(honest_sweep):
    bad = [(n, t, res.config.seed, why)
           for (n, t), results in honest_sweep.items() for res in results
           if (why := _consensus_violation(res)) is not None]
    _report("honest runs: agreement, validity, termination, no punishment "
            f"({len(SCALES)}x{SWEEP_RUNS} sampled patterns)",
            not bad, f"{len(bad)} violations, first: {bad[:1]}")


def test_honest_runs_at_larger_n():
    bad = []
    for n, t in LARGE_SCALES:
        for seed in range(LARGE_RUNS):
            res = run(RunConfig(n=n, t=t, seed=seed, sample_pattern=True))
            why = _consensus_violation(res)
            if why is not None:
                bad.append((n, t, seed, why))
            bad += [(n, t, seed, name, detail)
                    for name, (ok, detail) in sorted(res.invariants.items())
                    if not ok]
    _report("honest runs at larger n: consensus with every invariant "
            f"holding ({len(LARGE_SCALES)}x{LARGE_RUNS} sampled patterns)",
            not bad, f"{len(bad)} violations, first: {bad[:1]}")


def test_failure_knowledge_propagation(honest_sweep):
    bad = []
    for (n, t), results in honest_sweep.items():
        for res in results:
            for name in ("message_passing_bound", "hs_convergence"):
                ok, detail = res.invariants[name]
                if not ok:
                    bad.append((n, t, res.config.seed, name, detail))
    _report("failure knowledge: relay bound holds and link histories agree "
            "at full information exchange", not bad, f"first: {bad[:1]}")


def test_clean_round_supply(honest_sweep):
    bad = []
    for (n, t), results in honest_sweep.items():
        for res in results:
            ok, detail = res.invariants["clean_round_density"]
            if not ok:
                bad.append((n, t, res.config.seed, detail))
    _report("clean rounds: every run shows a failure-free round early enough "
            "to decide", not bad, f"first: {bad[:1]}")


def test_share_arithmetic_exhaustive():
    bad = []
    for p in (7, 101):
        for secret, slope in itertools.product(range(p), repeat=2):
            poly = make_polynomial(secret, _FixedRng(slope), p=p)
            shares = [(i, share_for(poly, i)) for i in (1, 2, 3)]
            for a, b in itertools.combinations(shares, 2):
                got = reconstruct([a, b], p=p)
                if got != secret:
                    bad.append((p, secret, slope, a[0], b[0], got))
        # a single share reveals nothing: over all slopes it is uniform
        for secret in range(p):
            seen = {share_for(make_polynomial(secret, _FixedRng(s), p=p), 1)
                    for s in range(p)}
            if seen != set(range(p)):
                bad.append((p, secret, "share not uniform over slopes"))
        with pytest.raises(InconsistencyError) as exc:
            reconstruct([(1, 1), (2, 2), (3, 4)], p=p)
        if (exc.value.category, exc.value.rule) != ("share", "off-line"):
            bad.append((p, "off-line shares raised", str(exc.value)))
    _report("secret sharing: exhaustive split/reconstruct over GF(7) and "
            "GF(101), single shares uniform", not bad, f"first: {bad[:1]}")


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def randrange(self, _p):
        return self.value


def test_every_verification_rule_fires():
    bad = []
    for name in sorted(FIXTURES):
        fn, category, rule = FIXTURES[name]
        try:
            fn(mutate=False)
        except InconsistencyError as exc:
            bad.append((name, f"clean input rejected: {exc}"))
            continue
        try:
            fn(mutate=True)
        except InconsistencyError as exc:
            if (exc.category, exc.rule) != (category, rule):
                bad.append((name, f"wrong rule: {exc.category}/{exc.rule}"))
        else:
            bad.append((name, "mutation not rejected"))
    _report(f"verification rules: {len(FIXTURES)} targeted fixtures each "
            "accepted clean and rejected mutated with the exact rule",
            not bad, f"{bad[:2]}")


def test_no_deviation_is_profitable():
    start = time.monotonic()
    bad = []
    guess_stats = {}
    types = sorted(DEVIATION_TYPES)
    makers = [lambda tid=tid: make_deviation(tid, agent=1, seed=0)
              for tid in types]
    for n, t in [(5, 1), (7, 2)]:
        summaries = deviation_study(RunConfig(n=n, t=t, seed=0), makers,
                                    DEVIATION_RUNS)
        for type_id, summary in zip(types, summaries):
            if summary.mean_diff > 2 * summary.se_diff:
                bad.append((n, t, type_id,
                            f"diff {summary.mean_diff:+.4f} "
                            f"se {summary.se_diff:.4f}"))
            # a deviation that never acts proves nothing
            if summary.applied_rate < 0.5:
                bad.append((n, t, type_id,
                            f"applied {summary.applied_rate:.3f}"))
            if type_id == 5:
                guess_stats[n] = (summary.guess_hits, summary.guess_trials)
    for n, (hits, trials) in guess_stats.items():
        p0 = 1.0 / n
        margin = 2.576 * math.sqrt(p0 * (1 - p0) / trials)
        if abs(hits / trials - p0) > margin:
            bad.append((n, "guess", f"{hits}/{trials} vs {p0:.3f}"))
    elapsed = time.monotonic() - start
    if elapsed > 600:
        bad.append(("runtime", f"{elapsed:.0f}s over budget"))
    _report(f"deviations: all {len(DEVIATION_TYPES)} strategies gain nothing "
            f"over {DEVIATION_RUNS} paired seeds at two scales, share guesses "
            f"at chance level ({elapsed:.0f}s)", not bad, f"{bad[:3]}")


def test_trace_reproducibility(tmp_path, capsys):
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in paths:
        code = cli_main(["run", "--n", "5", "--t", "1", "--seed", "23",
                         "--sample-pattern", "--trace", str(path)])
        assert code == 0
    capsys.readouterr()
    same = paths[0].read_bytes() == paths[1].read_bytes()
    _report("reproducibility: identical seeds yield byte-identical traces",
            same)
