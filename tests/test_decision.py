"""Agent status, decision round/set, and the proposal election."""

import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rucon.decision import (agent_status, clean_rounds, decision_round,
                            decision_set, elect, status_timeline)
from rucon.errors import InconsistencyError
from rucon.links import X, link_of
from rucon.sharing import DEFAULT_PRIME as PRIME


def _mark_faulty(settled, agent, peers, rounds):
    """Settled fault markings for one agent's links, as after a run."""
    for q in peers:
        for r in rounds:
            settled[(link_of(agent, q), r)] = X


def test_agent_status_threshold():
    # two faulty links leave agent 3 with 2 < n-t-1 = 3 correct ones
    settled = {}
    _mark_faulty(settled, 3, [1, 2], [1])
    newly, removed = agent_status(settled, 1, n=5, t=1)
    assert newly == removed == {3}


def test_agent_status_fault_free():
    newly, removed = agent_status({}, 1, n=5, t=1)
    assert not newly and not removed


def test_agent_status_excludes_removed_peers():
    # agent 3's only faulty link goes to the already-removed agent 4,
    # which no longer counts against it
    settled = {}
    _mark_faulty(settled, 3, [4], [1])
    newly, removed = agent_status(settled, 1, n=5, t=1, removed={4})
    assert removed == {4}
    assert not newly


def test_agent_status_removes_lowest_id_first():
    # agents 1 and 2 both start below n-t-1 = 3 correct links; removing 1
    # first lowers the bound to 2 and leaves 2 with links to 3 and 5
    settled = {((1, 2), 1): X, ((1, 3), 1): X, ((2, 4), 1): X}
    assert agent_status(settled, 1, n=5, t=1) == ({1}, {1})


def _reference_status(settled, r, n, t, removed=()):
    """The plain fixpoint: rescan every link of every agent after each
    removal, lowest id first."""
    removed = set(removed)
    newly = set()
    changed = True
    while changed:
        changed = False
        for a in range(1, n + 1):
            if a in removed:
                continue
            good = sum(settled.get((link_of(a, q), r)) != X
                       for q in range(1, n + 1)
                       if q != a and q not in removed)
            if good < n - t - 1 - len(removed):
                removed.add(a)
                newly.add(a)
                changed = True
                break
    return newly, removed


@st.composite
def _status_inputs(draw):
    """(settled, r, n, t, removed): a settled history, a round of it and
    any set of agents removed before that round."""
    n = draw(st.integers(3, 9))
    t = draw(st.integers(0, (n - 1) // 2))
    links = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    marks = draw(st.sets(st.tuples(st.sampled_from(links),
                                   st.integers(1, t + 3))))
    r = draw(st.integers(1, t + 3))
    removed = draw(st.sets(st.integers(1, n)))
    return {mark: X for mark in marks}, r, n, t, removed


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=_status_inputs())
def test_agent_status_matches_reference_fixpoint(case):
    settled, r, n, t, removed = case
    assert (agent_status(settled, r, n, t, removed)
            == _reference_status(settled, r, n, t, removed))


def test_agent_status_round_range():
    with pytest.raises(ValueError):
        agent_status({}, 0, n=5, t=1)
    with pytest.raises(ValueError):
        agent_status({}, 5, n=5, t=1)


def test_decision_round_fault_free():
    # newly-faulty counts [0,0,0,0]: first two fault-quiet rounds are 1
    # and 2; the decision round precedes the earliest usable one
    assert decision_round(status_timeline({}, n=5, t=1)) == 1


def test_decision_round_alternating_faults():
    # counts [1,0,1,0] over rounds 1..4 (n=7,t=2 would give more range;
    # n=5,t=1 spans rounds 1..4): quiet rounds are 2 and 4, so m*=1
    settled = {}
    _mark_faulty(settled, 4, [1, 2], range(1, 5))
    _mark_faulty(settled, 5, [1, 2], range(3, 5))
    timeline = status_timeline(settled, n=5, t=1)
    assert [len(timeline[r][0]) for r in range(1, 5)] == [1, 0, 1, 0]
    assert decision_round(timeline) == 1


def test_decision_round_skips_round_zero():
    # counts [0,1,0,0]: round 1 is quiet but "round 0" is not a decision
    # round, so the next quiet round (3) fixes m*=2
    settled = {}
    _mark_faulty(settled, 5, [1, 2], range(2, 5))
    timeline = status_timeline(settled, n=5, t=1)
    assert [len(timeline[r][0]) for r in range(1, 5)] == [0, 1, 0, 0]
    assert decision_round(timeline) == 2


def test_decision_round_without_quiet_round():
    # a history with a new faulty agent in every round has no usable
    # quiet round; unreachable honestly, so the timeline is built by hand
    timeline = {r: ({r}, set(range(1, r + 1))) for r in range(1, 5)}
    with pytest.raises(InconsistencyError) as exc:
        decision_round(timeline)
    assert (exc.value.category, exc.value.rule) == ("decision",
                                                    "no-quiet-round")


@st.composite
def _settled_histories(draw):
    """(n, t, settled): any set of links marked faulty in rounds 1..t+3."""
    n = draw(st.integers(3, 7))
    t = draw(st.integers(0, (n - 1) // 2))
    links = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    marks = draw(st.sets(st.tuples(st.sampled_from(links),
                                   st.integers(1, t + 3))))
    return n, t, {mark: X for mark in marks}


@settings(derandomize=True, deadline=None, database=None)
@given(history=_settled_histories())
def test_decision_round_within_t_plus_2(history):
    # status_timeline covers rounds 1..t+3, so a quiet round c gives at most
    # m* = c - 1 = t + 2; the only way to fail is having no quiet round
    n, t, settled = history
    timeline = status_timeline(settled, n, t)
    try:
        m_star = decision_round(timeline)
    except InconsistencyError as exc:
        assert (exc.category, exc.rule) == ("decision", "no-quiet-round")
    else:
        assert 1 <= m_star <= t + 2


def test_clean_rounds():
    assert clean_rounds({1: (set(), set()), 2: ({3}, {3}),
                         3: (set(), {3})}) == [1, 3]


def test_decision_set_fault_free():
    assert decision_set(status_timeline({}, n=3, t=0), 1, n=3) == [1, 2, 3]


def test_decision_set_excludes_faulty():
    settled = {}
    _mark_faulty(settled, 4, [1, 2], range(1, 5))
    timeline = status_timeline(settled, n=5, t=1)
    m_star = decision_round(timeline)
    assert decision_set(timeline, m_star, n=5) == [1, 2, 3, 5]


def test_elect_unique_second_max():
    values = {1: "v1", 2: "v2", 3: "v3"}
    assert elect([1, 2, 3], values, {1: 5, 2: 9, 3: 7}) == "v3"


def test_elect_all_proposals_equal():
    values = {2: "v2", 5: "v5", 9: "v9"}
    # common proposal 7 picks rank 7 mod 3 = 1 among ids [9, 5, 2]
    assert elect([2, 5, 9], values, {2: 7, 5: 7, 9: 7}) == "v5"


def test_elect_tied_second_max():
    values = {1: "v1", 2: "v2", 3: "v3", 4: "v4"}
    # second-largest distinct proposal 7 held by {2,3}; 7 mod 2 = 1 picks
    # index 1 of [3, 2]
    assert elect([1, 2, 3, 4], values, {1: 9, 2: 7, 3: 7, 4: 3}) == "v2"


@pytest.mark.parametrize("size", range(2, 7))
def test_elect_picks_the_second_largest_of_distinct_proposals(size):
    # every order of distinct proposals over a decision set: the holder of
    # the second-largest proposal wins, so each member wins in exactly
    # (size-1)! of the size! orders and an honest winner is uniform over D
    ids = [2, 3, 5, 8, 13, 21][:size]
    values = {a: f"v{a}" for a in ids}
    wins = Counter()
    for order in permutations(range(10, 10 * size + 1, 10)):
        proposals = dict(zip(ids, order))
        second = sorted(ids, key=proposals.get)[-2]
        assert elect(ids, values, proposals) == values[second], proposals
        wins[second] += 1
    assert wins == dict.fromkeys(ids, factorial(size - 1))


def test_elect_requires_complete_input():
    with pytest.raises(ValueError):
        elect([1, 2], {1: "a"}, {1: 0, 2: 1})
    with pytest.raises(ValueError):
        elect([], {}, {})


@given(ids=st.sets(st.integers(1, 30), min_size=1, max_size=8),
       data=st.data())
def test_elect_is_pure_and_valid(ids, data):
    ids = sorted(ids)
    values = {a: f"v{a}" for a in ids}
    proposals = {a: data.draw(st.integers(0, 50), label=f"p{a}") for a in ids}
    winner = elect(ids, values, proposals)
    assert winner in values.values()
    assert elect(list(reversed(ids)), values, proposals) == winner


@pytest.mark.parametrize("q", [0.25, 0.5])
def test_a_fixed_quantile_proposal_wins_at_the_formula_rate(q):
    # Agent 1 always proposes the quantile 1-q of GF(PRIME); the other four
    # draw uniformly. It wins exactly when one honest proposal lies above
    # it and three below, with probability (|D|-1)*q*(1-q)^(|D|-2); ties
    # among draws from GF(2^31-1) are negligible. The tolerance is four
    # binomial standard errors.
    size, draws = 5, 20_000
    rng = random.Random(f"elect:{q}")
    fixed = int((1 - q) * PRIME)
    ids = list(range(1, size + 1))
    values = {a: a for a in ids}
    wins = 0
    for _ in range(draws):
        proposals = {a: rng.randrange(PRIME) for a in ids[1:]}
        proposals[1] = fixed
        wins += elect(ids, values, proposals) == 1
    p = (size - 1) * q * (1 - q) ** (size - 2)
    se = (p * (1 - p) / draws) ** 0.5
    assert abs(wins / draws - p) <= 4 * se, (wins / draws, p, se)
