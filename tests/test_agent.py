"""The per-agent state machine: init, message shapes, and give-up rules."""

import random

import pytest

from rucon.agent import (BOT, NO_DECISION, UNDECIDED, build_message,
                         compute_phase, init_agent, receive_phase,
                         send_phase)
from rucon.errors import InconsistencyError
from rucon.links import X
from rucon.verification import RoundMemo, verify_state
from conftest import run_agents


def _fresh(i=1, n=3, t=0, seed=0, value=0):
    return init_agent(i, n, t, value, random.Random(seed))


def test_init_state():
    st = _fresh()
    assert st.lost == {}
    assert st.consensus == set()
    assert st.decision is UNDECIDED
    assert st.q_poly.constant == 0
    assert 0 <= st.proposal < st.p
    assert st.shares[1][1] is not None


def test_init_is_deterministic():
    a = _fresh(seed=5)
    b = _fresh(seed=5)
    assert (a.proposal, a.q_poly, a.b_poly) == (b.proposal, b.q_poly, b.b_poly)
    assert a.randoms == b.randoms
    assert a.own_bits == b.own_bits


def test_init_draws_all_evidence_bits():
    # each of the n-1 own links carries one bit per potential recipient:
    # (n-1)^2 bits in total per round
    for n in (3, 5):
        st = init_agent(1, n, 1 if n > 3 else 0, 0, random.Random(0))
        total = sum(len(bits) for bits in st.own_bits[1].values())
        assert total == (n - 1) ** 2


def test_init_validates_parameters():
    with pytest.raises(ValueError):
        init_agent(1, 4, 2, 0, random.Random(0))    # violates n > 2t+1
    with pytest.raises(ValueError):
        init_agent(5, 4, 1, 0, random.Random(0))    # id out of range
    with pytest.raises(ValueError):
        init_agent(1, 5, 1, 2**40, random.Random(0))    # outside the field


def test_round1_message_payload():
    st = init_agent(1, 5, 1, 0, random.Random(1))
    msg = build_message(st, 1, 2, {})
    assert msg["sender"] == 1 and msg["round"] == 1
    assert set(msg) == {"sender", "round", "rand", "ns", "xr", "q", "b"}
    assert msg["ns"] == {}
    assert len(msg["xr"]) == 4 and all(b in (0, 1) for b in msg["xr"].values())
    assert 0 <= msg["rand"] < 5


def test_prefinal_message_forwards_stored_shares():
    _, snap = run_agents(5, 1, seed=3, capture_round=4)
    st = snap[1]
    msg = build_message(st, 4, 2, dict(st.ns))     # round t+3 for t=1
    assert set(msg) == {"sender", "round", "rand", "ns", "shares"}
    # every stored pair except the recipient's own generation, at our point
    assert set(msg["shares"]) == {1, 3, 4, 5}
    assert msg["shares"][1] == st.shares[1][1]


def test_final_message_carries_consensus():
    st = _fresh()
    st.consensus = {2}
    msg = build_message(st, 4, 2, dict(st.ns))
    assert msg == {"sender": 1, "round": 4, "consensus": frozenset({2})}


def test_send_phase_respects_lost_and_decisions():
    st = init_agent(1, 5, 1, 0, random.Random(1))
    st.lost = {3: 1}
    msgs = send_phase(st, 1)
    assert sorted(msgs) == [2, 4, 5]
    # one table per round, shared by every recipient
    assert msgs[2]["ns"] is msgs[4]["ns"] is msgs[5]["ns"]
    assert msgs[2]["ns"] is not st.ns
    st.decision = NO_DECISION
    assert send_phase(st, 1) == {}


def test_receive_phase_punishes_silence():
    from rucon.simulator import FailurePattern
    pattern = FailurePattern(send_om={(4, 2): 1})
    _, snap = run_agents(5, 1, seed=3, pattern=pattern, capture_round=1)
    st = snap[2]
    assert st.lost == {4: 1}
    assert st.decision is UNDECIDED


def test_receive_phase_gives_up_past_t():
    st = init_agent(1, 5, 1, 0, random.Random(1))
    receive_phase(st, 1, {})    # all four peers silent
    assert st.lost == {2: 1, 3: 1, 4: 1, 5: 1}
    assert st.decision == NO_DECISION


def test_single_loss_tolerated():
    inbox = {j: build_message(init_agent(j, 5, 1, 0, random.Random(j)),
                              1, 1, {})
             for j in (2, 3, 4)}
    fresh = init_agent(1, 5, 1, 0, random.Random(9))
    receive_phase(fresh, 1, inbox)
    assert fresh.lost == {5: 1}
    assert fresh.decision is UNDECIDED


def test_malformed_message_means_bot():
    fresh = init_agent(1, 5, 1, 0, random.Random(9))
    inbox = {j: build_message(init_agent(j, 5, 1, 0, random.Random(j)),
                              1, 1, {})
             for j in (2, 3, 4, 5)}
    inbox[3] = {"sender": 3, "round": 1, "rand": "nope"}
    receive_phase(fresh, 1, inbox)
    assert fresh.decision == BOT
    assert str(fresh.last_error) == "[envelope/rand] bad message random"


def _evidence_inbox(rekey):
    """Receiver 3's round-1 inbox at (5,1), with every evidence bit of
    agent 1 set to 1 and its key set passed through rekey."""
    inbox = {j: build_message(init_agent(j, 5, 1, 0, random.Random(j)),
                              1, 3, {})
             for j in (1, 2, 4, 5)}
    inbox[1]["xr"] = rekey(dict.fromkeys(inbox[1]["xr"], 1))
    return init_agent(3, 5, 1, 0, random.Random(3)), inbox


def _replace_key(old, new, value=1):
    return lambda xr: {**{k: v for k, v in xr.items() if k != old},
                       new: value}


@pytest.mark.parametrize("rekey", [
    lambda xr: {(b, a): bit for (a, b), bit in xr.items()},   # all reversed
    _replace_key((1, 2), (2, 1)),
    _replace_key((1, 2), (1, 1)),
    _replace_key((1, 2), (2, 3)),       # a link of another agent
    _replace_key((1, 2), (1, 2), [1]),  # an unhashable bit
], ids=["all-reversed", "one-reversed", "self-link", "foreign-link",
        "unhashable-bit"])
def test_evidence_bits_on_other_keys_mean_bot(rekey):
    # a bit filed under a key no report reads would let a forged faulty
    # report of link (1,2) pass the evidence check
    st, inbox = _evidence_inbox(rekey)
    receive_phase(st, 1, inbox)
    assert st.decision == BOT
    assert str(st.last_error) == "[envelope/xr-bit] bad evidence bit"


def test_evidence_bits_expose_a_forged_report():
    st, inbox = _evidence_inbox(lambda xr: xr)
    receive_phase(st, 1, inbox)
    assert st.decision is UNDECIDED
    with pytest.raises(InconsistencyError) as exc:
        verify_state(st, 2, (1, 2), ((X, 1, 1, (0, 0, 0, 0)), None))
    assert (exc.value.category, exc.value.rule) == ("random",
                                                    "xrandom-mismatch")


def test_final_round_consensus_union():
    st = _fresh()
    st.consensus = {1}
    msgs = {2: {"sender": 2, "round": 4, "consensus": frozenset({1})},
            3: {"sender": 3, "round": 4, "consensus": frozenset({1})}}
    receive_phase(st, 4, msgs)
    assert st.consensus == {1}
    compute_phase(st, 4, RoundMemo())
    assert st.decision == ("value", 1)


def test_conflicting_consensus_sets_mean_bot():
    st = _fresh()
    st.consensus = {1}
    msgs = {2: {"sender": 2, "round": 4, "consensus": frozenset({0})},
            3: {"sender": 3, "round": 4, "consensus": frozenset({1})}}
    receive_phase(st, 4, msgs)
    compute_phase(st, 4, RoundMemo())
    assert st.decision == BOT
    assert (st.last_error.category, st.last_error.rule) == ("consensus",
                                                            "conflict")


def test_empty_consensus_means_bot():
    st = _fresh()
    receive_phase(st, 4, {2: {"sender": 2, "round": 4,
                              "consensus": frozenset()},
                          3: {"sender": 3, "round": 4,
                              "consensus": frozenset()}})
    compute_phase(st, 4, RoundMemo())
    assert st.decision == BOT
    assert (st.last_error.category, st.last_error.rule) == ("consensus",
                                                            "empty")


def test_decided_agent_is_inert():
    st = _fresh()
    st.decision = NO_DECISION
    receive_phase(st, 2, {})
    compute_phase(st, 2, RoundMemo())
    assert st.decision == NO_DECISION


def test_undecided_agents_keep_quorum():
    # anyone still undecided after a receive phase heard from at least
    # n - t - 1 peers
    from rucon.simulator import FailurePattern
    pattern = FailurePattern(crash={5: 2})
    for r in (1, 2, 3, 4):
        _, snap = run_agents(5, 1, seed=13, pattern=pattern, capture_round=r)
        for st in snap.values():
            if st.decision is UNDECIDED:
                assert len(st.lost) <= 1
