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

# (n, t) -> seeds of sampled failure patterns in the honest sweep
SWEEP = {(5, 1): 1000, (7, 2): 1000, (9, 3): 1000, (11, 4): 20, (13, 5): 20}
# the invariant monitor's checks: each sweep run must report every one
MONITORED = {"message_passing_bound", "hs_convergence", "clean_round_density",
             "machinery_agreement"}
DEVIATION_RUNS = 1000


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


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


def test_honest_runs_reach_consensus():
    bad = []
    for (n, t), runs in SWEEP.items():
        for seed in range(runs):
            res = run(RunConfig(n=n, t=t, seed=seed, sample_pattern=True))
            why = _consensus_violation(res)
            if why is not None:
                bad.append((n, t, seed, why))
            if not MONITORED <= res.invariants.keys():
                bad.append((n, t, seed, "unreported",
                            sorted(MONITORED - res.invariants.keys())))
            bad += [(n, t, seed, name, detail)
                    for name, (ok, detail) in sorted(res.invariants.items())
                    if not ok]
    scales = ", ".join(f"{runs} at {scale}" for scale, runs in SWEEP.items())
    _report("honest runs: agreement, validity, termination, no punishment, "
            f"every invariant holding ({scales} sampled patterns)",
            not bad, f"{len(bad)} violations, first: {bad[:1]}")


def test_share_arithmetic_exhaustive():
    bad = []
    # each field with the nonzero points its single shares are checked at
    for p, points in ((7, range(1, 7)), (101, (1, 2, 3, 4, 5, 50, 100))):
        for secret, slope in itertools.product(range(p), repeat=2):
            poly = make_polynomial(secret, _FixedRng(slope), p=p)
            shares = [(i, share_for(poly, i)) for i in range(1, 6)]
            for subset in [*itertools.combinations(shares, 2), shares]:
                got = reconstruct(subset, p=p)
                if got != secret:
                    bad.append((p, secret, slope, [i for i, _ in subset], got))
        # a single share reveals nothing: over all slopes it is uniform
        for secret, point in itertools.product(range(p), points):
            seen = {share_for(make_polynomial(secret, _FixedRng(s), p=p),
                              point) for s in range(p)}
            if seen != set(range(p)):
                bad.append((p, secret, point, "share not uniform over slopes"))
        with pytest.raises(InconsistencyError) as exc:
            reconstruct([(1, 1), (2, 2), (3, 4)], p=p)
        if (exc.value.category, exc.value.rule) != ("share", "off-line"):
            bad.append((p, "off-line shares raised", str(exc.value)))
    _report("secret sharing: exhaustive split over GF(7) and GF(101), "
            "reconstructed from every pair of five shares and from all five, "
            "single shares uniform", not bad, f"first: {bad[:1]}")


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
            not bad, f"{bad}")


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
