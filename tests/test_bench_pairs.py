"""The summary arithmetic of scripts/bench_pairs.py: wins, quartiles and
the two verdicts."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = (Path(__file__).resolve().parent.parent / "scripts"
               / "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONTRACT = {"end_to_end": [
    {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]}


def _pair(parent, change):
    names = ("op_ms.p50", "ops_per_s")
    return {"parent": dict(zip(names, parent)),
            "change": dict(zip(names, change))}


def test_summarise_follows_each_metrics_direction(bench_pairs):
    runs = [_pair((10.0, 5.0), (9.0, 4.0)),     # faster and fewer ops
            _pair((10.0, 5.0), (11.0, 6.0)),    # slower and more ops
            _pair((10.0, 5.0), (8.0, 7.0))]     # better on both
    out = bench_pairs.summarise(runs, CONTRACT)
    assert out["op_ms.p50"]["change_wins"] == 2
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["op_ms.p50"]["better"] == "lower"
    assert out["ops_per_s"]["unit"] == "1/s"
    assert {m["pairs"] for m in out.values()} == {3}


def test_summarise_counts_ties_for_neither_side(bench_pairs):
    ties = [_pair((10.0, 5.0), (10.0, 5.0)) for _ in range(3)]
    out = bench_pairs.summarise(ties, CONTRACT)
    assert [m["change_wins"] for m in out.values()] == [0, 0]
    # one pair the change wins on both metrics counts once, ties still none
    out = bench_pairs.summarise(ties + [_pair((10.0, 5.0), (9.0, 6.0))],
                                CONTRACT)
    assert [m["change_wins"] for m in out.values()] == [1, 1]


def test_spread_uses_inclusive_quartiles(bench_pairs):
    # the exclusive method would give 1.25 and 3.75 here
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 10.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    out = bench_pairs.summarise(
        [_pair((v, 1.0), (2 * v, 1.0)) for v in (1.0, 2.0, 3.0, 4.0)],
        CONTRACT)
    assert out["op_ms.p50"]["parent"] == bench_pairs.spread(
        [1.0, 2.0, 3.0, 4.0])
    assert out["op_ms.p50"]["change"] == {"median": 5.0, "q1": 3.5,
                                          "q3": 6.5}


def test_within_bound_allows_a_loss_up_to_the_bound(bench_pairs):
    # parent medians 10 ms and 5 ops/s; a bound of 0.2 allows 12 and 4
    for change, ok in (((12.0, 4.0), True), ((12.5, 3.9), False),
                       ((8.0, 6.0), True)):
        out = bench_pairs.summarise(
            [_pair((10.0, 5.0), change) for _ in range(3)], CONTRACT)
        assert [m["within_bound"] for m in out.values()] == [ok, ok], change


def _gain_runs(deltas):
    """Ten pairs: the parent's op_ms.p50 spreads over 10.0..10.9, an IQR
    of 0.45, and the change adds one delta to each; ops_per_s is tied."""
    return [_pair((10.0 + 0.1 * k, 5.0), (10.0 + 0.1 * k + d, 5.0))
            for k, d in enumerate(deltas)]


@pytest.mark.parametrize("deltas,wins,shown", [
    ([-1.0] * 9 + [0.5], 9, True),          # 9/10 wins, gap 1.0 > IQR
    ([-1.0] * 8 + [0.5, 0.5], 8, False),    # too few wins
    ([-1.0] * 9 + [0.0], 9, True),          # a tie counts for neither side
    ([-1.0] * 8 + [0.0, 0.0], 8, False),
    ([-0.3] * 10, 10, False),               # every pair, but gap < IQR
])
def test_gain_shown_needs_nine_tenths_of_the_pairs_and_the_iqr(
        bench_pairs, deltas, wins, shown):
    out = bench_pairs.summarise(_gain_runs(deltas), CONTRACT)
    m = out["op_ms.p50"]
    assert m["parent"]["q3"] - m["parent"]["q1"] == pytest.approx(0.45)
    assert (m["change_wins"], m["gain_shown"]) == (wins, shown)
    assert m["within_bound"]
    assert (out["ops_per_s"]["change_wins"], out["ops_per_s"]["gain_shown"],
            out["ops_per_s"]["within_bound"]) == (0, False, True)
