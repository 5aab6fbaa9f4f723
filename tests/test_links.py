"""Link ids, history bookkeeping, and the settled link history."""

import random

import pytest
from hypothesis import given, strategies as st

from rucon.agent import build_message, init_agent, receive_phase
from rucon.errors import InconsistencyError
from rucon.links import (R, X, all_links, append_hs, last_update, link_of,
                         own_links, own_vector, peers)
from conftest import TYPES, pause_failures, run_agents
from rucon.simulator import FailurePattern
from rucon.verification import RoundMemo, verify_and_update


def test_link_of_canonicalizes():
    assert link_of(3, 1) == (1, 3)
    assert link_of(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        link_of(2, 2)


@pytest.mark.parametrize("n", range(3, 14))
def test_link_vocabulary(n):
    agents = range(1, n + 1)
    assert all_links(n) == tuple(sorted(
        {link_of(a, b) for a in agents for b in agents if a != b}))
    for i in agents:
        assert peers(i, n) == tuple(j for j in agents if j != i)
        assert own_links(i, n) == tuple(
            link_of(i, j) for j in peers(i, n))
        assert set(own_links(i, n)) == {
            link for link in all_links(n) if i in link}


@pytest.mark.parametrize("n", range(3, 14))
def test_own_vector_is_what_phase1_ships_for_an_unheard_peer(n):
    # agent 1 hears every peer but n in round 1 and files its faulty-link
    # report on (1, n) with its bit for that link to each recipient
    states = {i: init_agent(i, n, 0, 0, random.Random(f"{n}:{i}"))
              for i in range(1, n + 1)}
    me = states[1]
    inbox = {j: build_message(states[j], 1, 1, {}) for j in peers(1, n)[:-1]}
    receive_phase(me, 1, inbox)
    verify_and_update(me, me.pending_ns, 1, RoundMemo())
    link = link_of(1, n)
    vector = own_vector(me.own_bits[1], link)
    assert len(vector) == n - 1
    assert vector == tuple(me.own_bits[1][w][link] for w in peers(1, n))
    assert me.ns[link] == ((X, 1, 1, vector), None)
    assert all(me.ns[other][0][0] == R
               for other in own_links(1, n) if other != link)


def test_append_hs_three_steps():
    hs = {}
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    assert hs[((1, 2), 1)] == ((R, 1, 1, 4),)
    append_hs(hs, (1, 2), (R, 1, 2, 0))
    assert len(hs[((1, 2), 1)]) == 2
    with pytest.raises(InconsistencyError) as exc:
        append_hs(hs, (1, 2), (X, 1, 1, (0, 1)))
    assert (exc.value.category, exc.value.rule) == ("round", "hs-conflict")


def test_append_hs_idempotent():
    hs = {}
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    assert hs[((1, 2), 1)] == ((R, 1, 1, 4),)


def test_append_hs_rejects_third_report():
    hs = {}
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    append_hs(hs, (1, 2), (X, 1, 2, (0, 1)))
    with pytest.raises(InconsistencyError) as exc:
        append_hs(hs, (1, 2), (R, 1, 2, 3))
    # a link has two endpoints, so a third report repeats a reporter
    assert (exc.value.category, exc.value.rule) == ("round", "hs-conflict")


def test_append_hs_rejects_none():
    with pytest.raises(ValueError):
        append_hs({}, (1, 2), None)


def test_last_update_reads_hs_alone_without_an_ns_failure():
    # the settled history reads HS alone when NS marks no failure: a
    # faulty report beats a correct one, and unknown is absent
    hs = {}
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    append_hs(hs, (1, 2), (X, 1, 2, (0, 1)))
    assert last_update({}, hs, 1)[((1, 2), 1)] == X
    hs2 = {}
    append_hs(hs2, (1, 2), (R, 1, 1, 4))
    assert last_update({}, hs2, 1)[((1, 2), 1)] == R
    assert ((1, 2), 1) not in last_update({}, {}, 1)
    # the history starts at round 1
    assert last_update({(1, 2): ((X, 1, 1, (0, 1)), None)}, hs, 0) == {}


def test_last_update_backfills_fault():
    # t=1, so the history spans rounds 1..4; a failure from round 2 marks
    # the link faulty for rounds 2, 3 and 4.
    ns = {(1, 3): ((X, 2, 1, (0, 1)), None)}
    settled = last_update(ns, {}, rounds=4)
    assert ((1, 3), 1) not in settled
    for r in (2, 3, 4):
        assert settled[((1, 3), r)] == X


def test_last_update_ignores_correct_links():
    hs = {((1, 2), 1): ((R, 1, 1, 0),)}
    ns = {(1, 2): ((R, 3, 1, 2), None)}
    settled = last_update(ns, hs, 4)
    assert ((1, 2), 2) not in settled
    # a correct NS entry settles nothing: only the HS report counts
    assert settled == {((1, 2), 1): R}


def test_last_update_boundary_round():
    ns = {(1, 3): ((X, 4, 1, (0, 1)), None)}
    settled = last_update(ns, {}, rounds=4)
    assert ((1, 3), 3) not in settled
    assert settled[((1, 3), 4)] == X


def test_last_update_keeps_existing_reports():
    hs = {}
    append_hs(hs, (1, 3), (R, 2, 3, 1))
    ns = {(1, 3): ((X, 2, 1, (0, 1)), None)}
    settled = last_update(ns, hs, 4)
    assert settled[((1, 3), 2)] == X             # X dominates
    assert hs == {((1, 3), 2): ((R, 2, 3, 1),)}  # HS keeps only the report


def _history_properties(settled, n, t, before_backfill):
    total = t + 3
    for k in range(1, n):
        for p in range(k + 1, n + 1):
            link = (k, p)
            for r in range(1, total + 1):
                c = settled.get((link, r))
                if c == X and not before_backfill:
                    assert all(settled.get((link, q)) == X
                               for q in range(r, total + 1))
                if c == R:
                    assert all(settled.get((link, q)) != X
                               for q in range(1, r))
                if c is None and before_backfill:
                    assert all(settled.get((link, q)) is None
                               for q in range(r, total + 1))


def test_fault_monotone_and_prefix_properties():
    # Faulty-from-round-m stays faulty; correct never follows faulty;
    # unknown stays unknown in HS alone, before NS back-fills failures.
    pattern = FailurePattern(send_om={(4, 1): 2, (4, 2): 2})
    _, snap = run_agents(5, 1, seed=21, pattern=pattern, capture_round=4)
    for st_agent in snap.values():
        if st_agent.decision is None:
            _history_properties(last_update({}, st_agent.hs, 4), 5, 1,
                                before_backfill=True)
    agents, _ = run_agents(5, 1, seed=21, pattern=pattern)
    for st_agent in agents.values():
        _history_properties(last_update(st_agent.ns, st_agent.hs, 4), 5, 1,
                            before_backfill=False)


def _old_rule(ns, hs, rounds):
    """The rule as it once ran: back-fill NS failures into a copy of HS as
    synthetic faulty reports, then classify every (link, round)."""
    hs = dict(hs)
    for link, (t_a, _src) in ns.items():
        if t_a[0] != X:
            continue
        for r in range(t_a[1], rounds + 1):
            synthetic = (X, r, t_a[2], t_a[3])
            existing = hs.get((link, r))
            if existing is None:
                hs[(link, r)] = (synthetic,)
            elif not any(e[0] == X for e in existing):
                hs[(link, r)] = existing + (synthetic,)
    settled = {}
    for link in {key[0] for key in hs} | set(ns):
        for r in range(1, rounds + 1):
            entries = hs.get((link, r))
            if entries:
                faulty = any(ta[0] == X for ta in entries)
                settled[(link, r)] = X if faulty else R
    return settled


LINKS = [(1, 2), (1, 3), (2, 3)]
_report = st.tuples(st.sampled_from([R, X]), st.integers(1, 6),
                    st.integers(1, 3), st.integers(0, 2))


@given(ns=st.dictionaries(st.sampled_from(LINKS),
                          st.tuples(_report, st.none())),
       hs=st.dictionaries(st.tuples(st.sampled_from(LINKS),
                                    st.integers(1, 6)),
                          st.lists(_report, min_size=1, max_size=2)
                          .map(tuple)),
       rounds=st.integers(0, 6))
def test_last_update_matches_backfill_then_classify(ns, hs, rounds):
    ns_before, hs_before = dict(ns), dict(hs)
    assert last_update(ns, hs, rounds) == _old_rule(ns, hs, rounds)
    assert ns == ns_before and hs == hs_before


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("type_id", TYPES)
def test_settled_round_is_fixed_by_its_own_horizon(n, t, type_id):
    # every agent's stores at every pause of every grid run: the history
    # through any round s is the history through the last round cut at s,
    # which is what lets the invariant monitor read every source round of
    # one check round from a single last_update
    assert pause_failures(n, t, type_id)["settled"] == []


@given(rand_a=st.integers(0, 4), rand_b=st.integers(0, 4),
       order=st.booleans())
def test_append_hs_order_insensitive(rand_a, rand_b, order):
    reports = [(R, 1, 1, rand_a), (R, 1, 2, rand_b)]
    if order:
        reports.reverse()
    hs = {}
    for rep in reports:
        append_hs(hs, (1, 2), rep)
    assert set(hs[((1, 2), 1)]) == {(R, 1, 1, rand_a), (R, 1, 2, rand_b)}
