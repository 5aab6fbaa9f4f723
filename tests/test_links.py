"""Link ids, history bookkeeping, classification, and the final back-fill."""

import pytest
from hypothesis import given, strategies as st

from rucon.errors import InconsistencyError
from rucon.links import (CORRECT, FAULTY, R, UNKNOWN, X, append_hs, classify,
                         last_update, link_of)
from conftest import run_agents
from rucon.simulator import FailurePattern


def test_link_of_canonicalizes():
    assert link_of(3, 1) == (1, 3)
    assert link_of(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        link_of(2, 2)


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
    assert exc.value.rule in ("hs-conflict", "hs-overflow")


def test_append_hs_rejects_none():
    with pytest.raises(ValueError):
        append_hs({}, (1, 2), None)


def test_classify():
    hs = {}
    append_hs(hs, (1, 2), (R, 1, 1, 4))
    append_hs(hs, (1, 2), (X, 1, 2, (0, 1)))
    assert classify(hs, (1, 2), 1) == FAULTY
    hs2 = {}
    append_hs(hs2, (1, 2), (R, 1, 1, 4))
    assert classify(hs2, (1, 2), 1) == CORRECT
    assert classify({}, (1, 2), 1) == UNKNOWN
    with pytest.raises(ValueError):
        classify({}, (1, 2), 0)


def test_last_update_backfills_fault():
    # t=1, so the history spans rounds 1..4; a failure from round 2 marks
    # the link faulty for rounds 2, 3 and 4.
    hs = {}
    ns = {(1, 3): ((X, 2, 1, (0, 1)), None)}
    last_update(hs, ns, total_rounds=4)
    assert classify(hs, (1, 3), 1) == UNKNOWN
    for r in (2, 3, 4):
        assert classify(hs, (1, 3), r) == FAULTY


def test_last_update_ignores_correct_links():
    hs = {((1, 2), 1): ((R, 1, 1, 0),)}
    ns = {(1, 2): ((R, 3, 1, 2), None)}
    last_update(dict(hs), ns, 4)
    assert classify(hs, (1, 2), 2) == UNKNOWN


def test_last_update_boundary_round():
    hs = {}
    ns = {(1, 3): ((X, 4, 1, (0, 1)), None)}
    last_update(hs, ns, total_rounds=4)
    assert classify(hs, (1, 3), 3) == UNKNOWN
    assert classify(hs, (1, 3), 4) == FAULTY


def test_last_update_keeps_existing_reports():
    hs = {}
    append_hs(hs, (1, 3), (R, 2, 3, 1))
    ns = {(1, 3): ((X, 2, 1, (0, 1)), None)}
    last_update(hs, ns, 4)
    assert classify(hs, (1, 3), 2) == FAULTY     # X dominates
    assert (R, 2, 3, 1) in hs[((1, 3), 2)]       # retained alongside


def _history_properties(st_agent, t, before_backfill):
    total = t + 3
    n = st_agent.n
    for k in range(1, n):
        for p in range(k + 1, n + 1):
            link = (k, p)
            for r in range(1, total + 1):
                c = classify(st_agent.hs, link, r)
                if c == FAULTY and not before_backfill:
                    assert all(classify(st_agent.hs, link, q) == FAULTY
                               for q in range(r, total + 1))
                if c == CORRECT:
                    assert all(classify(st_agent.hs, link, q) != FAULTY
                               for q in range(1, r))
                if c == UNKNOWN and before_backfill:
                    assert all(classify(st_agent.hs, link, q) == UNKNOWN
                               for q in range(r, total + 1))


def test_fault_monotone_and_prefix_properties():
    # Faulty-from-round-m stays faulty; correct never follows faulty;
    # unknown stays unknown until the final back-fill.
    pattern = FailurePattern(send_om={(4, 1): 2, (4, 2): 2})
    _, snap = run_agents(5, 1, seed=21, pattern=pattern, capture_round=4)
    for st_agent in snap.values():
        if st_agent.decision is None:
            _history_properties(st_agent, 1, before_backfill=True)
    agents, _ = run_agents(5, 1, seed=21, pattern=pattern)
    for st_agent in agents.values():
        _history_properties(st_agent, 1, before_backfill=False)


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
