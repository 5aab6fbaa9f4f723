"""Verification rules, the merge case table, the round memo and whole-run
oracles; each rule fixture and honest completeness are gated in
test_acceptance."""

import copy
import dataclasses
from collections import Counter

import pytest

import reference_verifier
from conftest import (TYPES, deviant, deviation_grid, pause_failures,
                      run_agents)
from rule_fixtures import _chain_table, receiver
from rucon import agent, simulator, verification
from rucon.agent import UNDECIDED
from rucon.cli import write_trace
from rucon.errors import InconsistencyError
from rucon.links import R, X, own_vector
from rucon.simulator import Execution, RunConfig, run
from rucon.verification import (RoundMemo, merge_state, verify_and_update,
                                verify_msg_chain, verify_state)


def test_empty_table_before_round_one():
    # no report can be older than round 1, so phase 2 refuses any entry
    with pytest.raises(InconsistencyError) as exc:
        RoundMemo().check(5, 1, 1, 2, {(1, 2): ((R, 1, 2, 0), None)})
    assert (exc.value.category, exc.value.rule) == ("format", "bad-state")
    assert RoundMemo().check(5, 1, 1, 2, {}) == []   # nothing claimed


@pytest.mark.parametrize("lost_round,rule", [(3, None), (4, "claim13")])
def test_claim13_reads_the_round_a_peer_was_lost(lost_round, rule):
    # A report tagged (3, 3) at round 5 with an empty HS. lost={3: 3}: 3 was
    # not heard at round 3, so the report need not be in our history.
    # lost={3: 4}: 3 was heard at round 3, so it must be.
    st = receiver(lost={3: lost_round})
    recv = ((R, 2, 3, 1), (3, 3))
    if rule is None:
        verify_state(st, 5, (3, 4), recv)
        return
    with pytest.raises(InconsistencyError) as exc:
        verify_state(st, 5, (3, 4), recv)
    assert (exc.value.category, exc.value.rule) == ("source", rule)


def _chain_error(check, *args):
    with pytest.raises(InconsistencyError) as exc:
        check(*args)
    e = exc.value
    return e.category, e.rule, e.link, e.round, e.detail


BEYOND = "failure round beyond what relays could carry"


def test_claim5_failure_round_beyond_what_relays_could_carry():
    # sender 1's table of round m=4: a link between connected agents is
    # known through m-1 and no later, so not failed at m
    tbl = _chain_table()
    tbl[(2, 3)] = ((X, 4, 2, (0,) * 6), (2, 4))
    assert _chain_error(verify_msg_chain, 7, 2, 5, 1, tbl) == (
        "chain", "claim5", (2, 3), 4, BEYOND)
    # In a run check_format refuses that entry first: a tag's round exceeds
    # its report's and is at most m.
    assert _chain_error(RoundMemo().check, 7, 2, 5, 1, tbl)[:2] == (
        "format", "bad-source")


def test_claim6_failure_round_beyond_what_relays_could_carry():
    # (2,6) says 6 was reachable at m-1, so its link to 7 is known through
    # m-2 and no later: not failed at m-1. The entry is well formed, so
    # phase 2 as a whole gets to claim 6.
    tbl = _chain_table()
    tbl[(6, 7)] = ((X, 3, 6, (0,) * 6), (2, 4))
    assert _chain_error(RoundMemo().check, 7, 2, 5, 1, tbl) == (
        "chain", "claim6", (6, 7), 3, BEYOND)


def _sighting(st, payload, reporter=3, link=(3, 4)):
    """The rule and detail verify_state gives one round-2 X report."""
    try:
        verify_state(st, 5, link, ((X, 2, reporter, payload), None))
    except InconsistencyError as exc:
        return exc.rule, exc.detail
    return None


def test_first_sighting_checks_the_bits_the_agent_knows():
    # its own vector, when it is the reporter
    own = {2: {w: {(1, 2): w % 2} for w in (2, 3, 4, 5)}}
    st = receiver(own_bits=own)
    assert _sighting(st, (0, 1, 1, 1), reporter=1, link=(1, 2)) == (
        "xrandom-mismatch", "evidence bit for recipient 4 is wrong")
    assert _sighting(st, (0, 1, 0, 1), reporter=1, link=(1, 2)) is None
    assert st.xrandoms == {(1, 2, (1, 2)): (0, 1, 0, 1)}
    # else the one bit the reporter sent it: agent 4 is third of 1, 2, 4, 5
    st = receiver(id=4, heard_bits={(3, 2): {(3, 4): 1}})
    assert _sighting(st, (0, 1, 0, 1)) == (
        "xrandom-mismatch", "evidence bit for recipient 4 is wrong")
    assert st.xrandoms == {}
    assert _sighting(st, (0, 1, 1, 1)) is None
    # else nothing: the first vector passes
    st = receiver()
    assert _sighting(st, (1, 1, 0, 0)) is None
    assert st.xrandoms == {(3, 2, (3, 4)): (1, 1, 0, 0)}


def test_later_sightings_must_equal_the_vector_that_passed():
    st = receiver(heard_bits={(3, 2): {(3, 4): 1}})
    assert _sighting(st, (1, 0, 0, 1)) is None
    # agrees with the bit agent 1 heard, not with the vector that passed
    assert _sighting(st, (1, 0, 1, 0)) == (
        "xrandom-mismatch", "evidence bit for recipient 4 is wrong")
    assert _sighting(st, (1, 0, 0, 1)) is None
    assert st.xrandoms == {(3, 2, (3, 4)): (1, 0, 0, 1)}


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
def test_registered_vectors_are_the_reporters_own(n, t):
    # in honest runs every vector that passed is the one its reporter drew
    vectors = 0
    for seed in range(6):
        ex = Execution(RunConfig(n=n, t=t, seed=seed, sample_pattern=True,
                                 check_invariants=False))
        for _ in ex.steps():
            pass
        agents = ex.agents
        for st in agents.values():
            for (z, m, link), vector in st.xrandoms.items():
                assert type(vector) is tuple
                assert vector == own_vector(agents[z].own_bits[m], link)
                vectors += 1
    assert vectors > 0


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("type_id", TYPES)
def test_no_random_of_a_round_precedes_its_receive_phase(n, t, type_id):
    # _ingest and _gen_randoms store message randoms with no conflict check.
    # That rests on this: check_format admits only reports of earlier
    # rounds, so before round r's receive phase no agent holds a random of
    # round r or later but its own round-r draw. The random/random-conflict
    # rule of verify_state stays live; its rule fixture covers it.
    assert pause_failures(n, t, type_id)["randoms"] == []


# --- merge case table --------------------------------------------------------

def _merge(st, link, recv):
    """Merge a report of sender 2 into agent 1's tables at round 5."""
    merge_state(st, link, recv, (recv[0], (2, 5)))


def test_merge_case1_direct_rr_appends():
    st = receiver(ns={(1, 2): ((R, 5, 1, 2), None)})
    _merge(st, (1, 2), ((R, 4, 2, 1), None))
    assert st.ns[(1, 2)] == ((R, 5, 1, 2), None)        # NS untouched
    assert st.hs[((1, 2), 4)] == ((R, 4, 2, 1),)


def test_merge_case2_is_an_error():
    st = receiver(ns={(1, 2): ((R, 5, 1, 2), None)})
    with pytest.raises(InconsistencyError) as exc:
        _merge(st, (1, 2), ((X, 4, 2, (0, 1, 0, 1)), None))
    assert (exc.value.category, exc.value.rule) == ("merge", "case2")


def test_merge_case3_direct_xr_appends():
    st = receiver(ns={(1, 2): ((X, 3, 1, (0, 0, 1, 1)), None)})
    _merge(st, (1, 2), ((R, 2, 2, 1), None))
    assert st.ns[(1, 2)][0][0] == X                     # fault is kept
    assert st.hs[((1, 2), 2)] == ((R, 2, 2, 1),)


def test_merge_case4_adopts_earlier_failure():
    # partner detected one round before us: its round wins in NS
    local = ((X, 3, 1, (0, 0, 1, 1)), None)
    recv = ((X, 2, 2, (1, 0, 1, 0)), None)
    st = receiver(ns={(1, 2): local})
    _merge(st, (1, 2), recv)
    assert st.ns[(1, 2)] == (recv[0], (2, 5))
    assert st.hs[((1, 2), 2)] == (recv[0],)


def test_merge_case4_appends_same_or_next_round():
    local = ((X, 3, 1, (0, 0, 1, 1)), None)
    for rd in (3, 4):
        st = receiver(ns={(1, 2): local})
        recv = ((X, rd, 2, (1, 0, 1, 0)), None)
        _merge(st, (1, 2), recv)
        assert st.ns[(1, 2)] == local                   # append only
        assert recv[0] in st.hs[((1, 2), rd)]


def test_merge_case5_partner_report_noop():
    local = ((X, 3, 2, (0, 0, 1, 1)), (2, 4))
    st = receiver(ns={(1, 2): local})
    _merge(st, (1, 2), ((X, 3, 2, (0, 0, 1, 1)), None))
    assert st.ns[(1, 2)] == local
    assert st.hs == {}


def test_merge_case6_newer_r_adopted():
    st = receiver(ns={(3, 4): ((R, 2, 3, 1), (3, 3))})
    _merge(st, (3, 4), ((R, 3, 3, 0), (3, 4)))
    assert st.ns[(3, 4)] == ((R, 3, 3, 0), (2, 5))
    st2 = receiver(ns={(3, 4): ((R, 3, 3, 0), (3, 4))})
    _merge(st2, (3, 4), ((R, 2, 3, 1), (3, 3)))
    assert st2.ns[(3, 4)] == ((R, 3, 3, 0), (3, 4))     # older only appends
    assert st2.hs[((3, 4), 2)] == ((R, 2, 3, 1),)


def test_merge_case7_x_replaces_r():
    st = receiver(ns={(3, 4): ((R, 2, 3, 1), (3, 3))})
    recv = ((X, 3, 3, (0, 1, 0, 1)), (3, 4))
    _merge(st, (3, 4), recv)
    assert st.ns[(3, 4)] == (recv[0], (2, 5))


def test_merge_case8_r_appends_under_x():
    local = ((X, 3, 3, (0, 1, 0, 1)), (3, 4))
    st = receiver(ns={(3, 4): local})
    _merge(st, (3, 4), ((R, 2, 3, 1), (3, 3)))
    assert st.ns[(3, 4)] == local
    assert st.hs[((3, 4), 2)] == ((R, 2, 3, 1),)


def test_merge_case9_earlier_x_adopted():
    local = ((X, 3, 3, (0, 1, 0, 1)), (3, 4))
    recv = ((X, 2, 4, (1, 1, 0, 0)), (4, 3))
    st = receiver(ns={(3, 4): local})
    _merge(st, (3, 4), recv)
    assert st.ns[(3, 4)] == (recv[0], (2, 5))           # earliest round wins
    same_reporter = ((X, 3, 3, (0, 1, 0, 1)), (3, 4))
    st2 = receiver(ns={(3, 4): local})
    _merge(st2, (3, 4), same_reporter)
    assert st2.hs == {}                                 # no-op


def test_merge_case11_unknown_adopts():
    st = receiver()
    recv = ((R, 2, 3, 1), (3, 3))
    _merge(st, (3, 4), recv)
    assert st.ns[(3, 4)] == (recv[0], (2, 5))
    assert st.hs[((3, 4), 2)] == (recv[0],)


def test_case10_absent_entry_skipped():
    # n=3 at round 2: sender 2's table legitimately omits the link (1,3)
    # (nothing was relayed about it yet); the merge pass must skip the
    # absent entry and leave our own direct detection untouched.
    _, snap = run_agents(3, 0, seed=2, capture_round=2)
    st = snap[1]
    assert (1, 3) not in st.pending_ns[2]
    verify_and_update(st, st.pending_ns, 2, RoundMemo())
    assert st.ns[(1, 3)][0][:3] == (R, 2, 1)


# --- full-path behavior ------------------------------------------------------

def test_verify_and_update_direct_detections(captured_round3):
    st = copy.deepcopy(captured_round3[1])
    verify_and_update(st, st.pending_ns, 3, RoundMemo())
    for j in (2, 3, 4, 5):
        entry = st.ns[(min(1, j), max(1, j))]
        assert entry[0][:3] == (R, 3, 1)
        assert entry[1] is None


def test_verify_and_update_flags_bad_link_key(captured_round3):
    st = copy.deepcopy(captured_round3[1])
    st.pending_ns[2][(2, 1)] = st.pending_ns[2].pop((1, 2))
    with pytest.raises(InconsistencyError) as exc:
        verify_and_update(st, st.pending_ns, 3, RoundMemo())
    assert exc.value.category == "format"


def test_verify_and_update_flags_tampered_relay(captured_round3):
    # altering the random inside a relayed correct-report must trip the
    # registry cross-check against the genuine copies
    st = copy.deepcopy(captured_round3[1])
    link = (2, 3)
    t_a, t_b = st.pending_ns[2][link]
    st.pending_ns[2][link] = ((t_a[0], t_a[1], t_a[2], (t_a[3] + 1) % 5), t_b)
    with pytest.raises(InconsistencyError) as exc:
        verify_and_update(st, st.pending_ns, 3, RoundMemo())
    assert exc.value.category in ("random", "source")


@pytest.mark.parametrize("senders", [(3,), (2, 3)])
def test_claim14_does_not_depend_on_sender_order(senders):
    # Sender 3 claims its link to 4 failed at round 2, yet its (4,5) entry
    # says it was adopted from 4 at round 2. Sender 2 ships an equal (4,5)
    # entry, which phase 3 processes first and then skips for sender 3;
    # claim 14 reads only sender 3's table, so it fires either way.
    _, snap = run_agents(5, 1, seed=0, capture_round=3)
    st = snap[1]
    tbl = dict(st.pending_ns[3])
    tbl[(3, 4)] = ((X, 2, 3, (0, 0, 0, 0)), None)
    received = {j: tbl if j == 3 else st.pending_ns[j] for j in senders}
    with pytest.raises(InconsistencyError) as exc:
        verify_and_update(st, received, 3, RoundMemo())
    assert (exc.value.category, exc.value.rule, exc.value.link) == (
        "source", "claim14", (4, 5))


# --- the per-round phase-2 memo ----------------------------------------------

@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("type_id", TYPES)
def test_shipped_tables_are_never_edited(n, t, type_id):
    # A memo hit trusts that a table still holds what was checked, so no
    # compute phase or deviation hook may edit a shipped table in place.
    assert pause_failures(n, t, type_id)["tables"] == []


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("type_id", TYPES)
def test_delivered_evidence_bits_are_never_edited(n, t, type_id):
    # A receiver keeps each delivered xr dict as it came, and phase 3 reads
    # its evidence checks from it, so no compute phase or deviation hook may
    # edit one in place; a sender's bits are copied into each message.
    assert pause_failures(n, t, type_id)["bits"] == []


@pytest.fixture
def chain_walks(monkeypatch):
    """verify_msg_chain calls, counted by (sender, round)."""
    calls = Counter()
    real = verification.verify_msg_chain

    def counted(n, t, r, sender, table):
        calls[(sender, r)] += 1
        return real(n, t, r, sender, table)
    monkeypatch.setattr(verification, "verify_msg_chain", counted)
    return calls


def test_memo_hit_raises_a_fresh_equal_error(captured_round3, chain_walks):
    first, second = (copy.deepcopy(captured_round3[1]) for _ in range(2))
    bad = dict(first.pending_ns[2])
    del bad[(1, 2)]                 # the sender's own direct link
    first.pending_ns[2] = second.pending_ns[2] = bad
    checked = RoundMemo()
    errors = []
    for st in (first, second):
        with pytest.raises(InconsistencyError) as exc:
            verify_and_update(st, st.pending_ns, 3, checked)
        errors.append(exc.value)
    a, b = errors
    assert (a.category, a.rule) == ("chain", "claim1")
    assert ((b.category, b.rule, b.link, b.round, str(b))
            == (a.category, a.rule, a.link, a.round, str(a)))
    assert b is not a
    assert chain_walks == {(2, 3): 1}   # the second agent hit the memo


def test_memo_checks_each_table_once(chain_walks):
    n, t = 7, 2
    res = run(RunConfig(n=n, t=t, seed=0, check_invariants=False))
    assert "bot" not in res.decisions.values()
    assert set(chain_walks.values()) == {1}
    assert sum(chain_walks.values()) <= n * (t + 3)


def test_memo_plans_each_passed_table_once():
    ex = Execution(RunConfig(n=7, t=2, seed=0, sample_pattern=True,
                             check_invariants=False))
    rounds = []
    for r in ex.steps():
        # the tables round r's compute phase verifies, and its memo
        shipped = {(j, id(table)): table
                   for st in ex.agents.values()
                   if st.decision is UNDECIDED and r <= ex.config.t + 3
                   for j, table in st.pending_ns.items()}
        rounds.append((r, ex.checked, shipped))
    for r, memo, shipped in rounds:
        assert memo.tables.keys() == shipped.keys(), r
        uids = {}
        for key, (table, err, plan) in memo.tables.items():
            assert table is shipped[key] and err is None
            assert [(link, recv) for link, recv, _, _ in plan] == sorted(
                table.items())
            for link, recv, uid, adopted in plan:
                assert uids.setdefault((link, recv), uid) == uid
                assert adopted == (recv[0], (key[0], r))
        assert len(set(uids.values())) == len(uids), r


def test_memo_plan_is_in_link_order_whatever_the_insertion_order(
        captured_round3):
    table = captured_round3[1].pending_ns[2]
    reverse = dict(sorted(table.items(), reverse=True))
    assert list(reverse) != sorted(reverse)
    plan = RoundMemo().check(5, 1, 3, 2, reverse)
    assert [(link, recv, adopted) for link, recv, _, adopted in plan] == [
        (link, recv, (recv[0], (2, 3))) for link, recv in sorted(
            table.items())]


def test_memo_refuses_a_bool_key_before_planning(captured_round3):
    # (True, 2) == (1, 2), so a walk of all_links would find its entry
    table = dict(captured_round3[1].pending_ns[2])
    table[(True, 2)] = table.pop((1, 2))
    memo = RoundMemo()
    with pytest.raises(InconsistencyError) as exc:
        memo.check(5, 1, 3, 2, table)
    assert (exc.value.category, exc.value.rule) == ("format", "bad-state")
    assert [plan for _, _, plan in memo.tables.values()] == [None]
    assert memo.ids == {}


# --- relays of one shared entry object ----------------------------------------
# Sender 2's round-5 table at (5,1) ships the tagged entry at link; it
# passes check_format, then fails the chain checks, since the table holds
# nothing else. The memo keeps the entry as format-checked at that link.

def _shared(link):
    return ((R, 2, link[1], 1), (link[1], 3))


def _primed(link):
    memo = RoundMemo()
    with pytest.raises(InconsistencyError) as exc:
        memo.check(5, 1, 5, 2, {link: _shared(link)})
    assert (exc.value.category, exc.value.rule) == ("chain", "claim1")
    return memo


def _phase2_rule(memo, sender, table):
    with pytest.raises(InconsistencyError) as exc:
        memo.check(5, 1, 5, sender, table)
    return exc.value.category, exc.value.rule


@pytest.mark.parametrize("link,key", [((3, 4), (3.0, 4)), ((1, 3), (True, 3))])
def test_shared_entry_under_an_equal_key_of_another_type(link, key):
    memo = _primed(link)
    entry = memo.passed[link]
    assert key == link and hash(key) == hash(link)
    assert _phase2_rule(memo, 5, {key: entry}) == ("format", "bad-state")


def test_shared_entry_shipped_by_the_agent_its_tag_names():
    link = (3, 4)
    memo = _primed(link)
    entry = memo.passed[link]
    assert _phase2_rule(memo, entry[1][0], {link: entry}) == (
        "format", "bad-source")


def test_only_the_same_object_skips_the_format_check(monkeypatch):
    link = (3, 4)
    memo = _primed(link)
    entry = memo.passed[link]
    equal = tuple(list(entry))
    assert equal == entry and equal is not entry
    calls = []
    real = verification.check_format
    monkeypatch.setattr(verification, "check_format",
                        lambda *args: calls.append(args) or real(*args))
    assert _phase2_rule(memo, 5, {link: entry}) == ("chain", "claim1")
    assert calls == []
    assert _phase2_rule(memo, 5, {link: equal}) == ("chain", "claim1")
    assert calls == [(5, 5, 5, link, equal)]


def test_adopters_of_one_entry_hold_one_object():
    # after round 3's compute phase of an honest (7,2) run, the agents that
    # adopted the same entry of one shipped table hold the very same object
    ex = Execution(RunConfig(n=7, t=2, seed=0, check_invariants=False))
    for r in ex.steps():
        if r == 4:
            break
    holders = {}
    for i, st in ex.agents.items():
        assert st.decision is UNDECIDED
        for link, entry in st.ns.items():
            if entry[1] is not None:
                holders.setdefault((link, entry), []).append((i, entry))
    assert max(len(held) for held in holders.values()) >= 3
    for held in holders.values():
        assert len({id(entry) for _, entry in held}) == 1, held


def test_relays_of_an_own_adoption_skip_phase3(monkeypatch):
    # at (13,4) a receiver gets many relays of entries it adopted itself;
    # phase 3 verifies fewer entries than the distinct ones it was sent
    n, t = 13, 4
    verified = Counter()
    real = verification.verify_state

    def counted(state, r, link, recv):
        verified[r] += 1
        return real(state, r, link, recv)

    monkeypatch.setattr(verification, "verify_state", counted)
    ex = Execution(RunConfig(n=n, t=t, seed=0, sample_pattern=True,
                             check_invariants=False))
    distinct = Counter()
    for r in ex.steps():
        for st in ex.agents.values():
            if st.decision is UNDECIDED and r <= t + 3:
                distinct[r] += len({entry for table in st.pending_ns.values()
                                    for entry in table.items()})
    assert "bot" not in ex.result().decisions.values()
    assert verified[2] == distinct[2]    # round-2 tables hold no adoption
    assert sum(verified.values()) < sum(distinct.values())


def _outcome(n, t, spec, path, **cfg):
    """The trace bytes, RunResult fields and every agent's end state of one
    run, spec = (type, params, deviant, seed), at (n, t)."""
    type_id, params, who, seed = spec
    config = RunConfig(n=n, t=t, seed=seed, sample_pattern=True, trace=[],
                       deviation=deviant(type_id, who, seed, **params), **cfg)
    ex = Execution(config)
    for _ in ex.steps():
        pass
    res = ex.result()
    write_trace(str(path), config.trace)
    tables = {i: (st.ns, st.hs, st.randoms, st.xrandoms, st.lost,
                  st.decision, st.consensus, str(st.last_error))
              for i, st in ex.agents.items()}
    fields = {f.name: getattr(res, f.name)
              for f in dataclasses.fields(res) if f.name != "config"}
    return path.read_bytes(), fields, tables


def _patch_changes_no_outcome(monkeypatch, patch, n, t, specs, tmp_path,
                              **cfg):
    """Each run spec at (n, t) gives the same outcome with patch, a
    (target, name, value), set as without."""
    path = tmp_path / "trace.jsonl"
    for spec in specs:
        real = _outcome(n, t, spec, path, **cfg)
        with monkeypatch.context() as m:
            m.setattr(*patch)
            assert _outcome(n, t, spec, path, **cfg) == real, spec


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2), (13, 4)])
def test_reference_verifier_agrees(n, t, monkeypatch, tmp_path):
    # The memo shared between receivers, the phase-3 plans and the skip of
    # an entry already processed change nothing a run computes or records:
    # tests/reference_verifier.py, which checks and merges every entry of
    # every table itself, gives the same trace, result and tables. At
    # (13,4), where relays share entry objects the most, honest play only.
    # The deviant is first and last in id order, so at both ends of every
    # sender-ascending loop.
    grid = [(None, {})] if n == 13 else deviation_grid(t)
    assert len(grid) == {1: 42, 2: 54, 4: 1}[t]
    specs = [(type_id, params, who, seed) for type_id, params in grid
             for who in ((1,) if type_id is None else (1, n))
             for seed in range(3 if n == 13 else 5)]
    calls = Counter()

    def plain_verifier(state, received, r, checked):
        calls[r] += 1
        reference_verifier.verify_and_update(state, received, r)

    _patch_changes_no_outcome(
        monkeypatch, (agent, "verify_and_update", plain_verifier), n, t, specs,
        tmp_path, check_invariants=False)
    assert sorted(calls) == list(range(1, t + 4))


def _rebuilt(value):
    """value with every dict, tuple and frozenset in it built anew, so the
    copy shares no container with anything. copy.deepcopy will not do: it
    returns a tuple of immutables as the very same object."""
    kind = type(value)
    if kind is dict:
        return {_rebuilt(k): _rebuilt(v) for k, v in value.items()}
    if kind is tuple:
        return tuple([_rebuilt(v) for v in value])
    if kind is frozenset:
        return frozenset([_rebuilt(v) for v in value])
    assert kind in (int, bool, float, str, type(None)), kind
    return value


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
def test_delivered_objects_are_never_shared_state(n, t, monkeypatch,
                                                  tmp_path):
    # Every receiver given a copy of every message that shares no object
    # with the sender, another receiver or another message computes and
    # records the same run: the same trace, result and end tables. So no
    # agent edits what it was sent, and the tables, memo, entry objects and
    # identity skips that receivers share change no outcome.
    real_deliver = simulator.deliver

    def isolated(r, outboxes, pattern, n):
        return {a: {s: _rebuilt(msg) for s, msg in inbox.items()}
                for a, inbox in real_deliver(r, outboxes, pattern, n).items()}

    _patch_changes_no_outcome(
        monkeypatch, (simulator, "deliver", isolated), n, t,
        [(type_id, params, 1, seed) for type_id, params in deviation_grid(t)
         for seed in range(3)], tmp_path)


def test_merge_keeps_earliest_failure_round():
    # across any honest run, an NS failure round never increases
    from rucon.simulator import FailurePattern
    pattern = FailurePattern(send_om={(4, 1): 2, (4, 2): 2})
    agents, _ = run_agents(5, 1, seed=7, pattern=pattern)
    for st in agents.values():
        for link, (t_a, _src) in st.ns.items():
            if t_a[0] != X:
                continue
            rounds = [rr for (l, rr), reps in st.hs.items()
                      if l == link and any(x[0] == X for x in reps)]
            assert t_a[1] <= min(rounds)
