"""Behavioral smoke tests for the ten deviation strategies."""

import copy

import pytest

from conftest import TYPES, deviant
from rucon.agent import UNDECIDED
from rucon.cli import main
from rucon.deviations import DEVIATION_TYPES, Deviation, make_deviation
from rucon.errors import InconsistencyError
from rucon.links import R, X, link_of
from rucon.sharing import make_polynomial, share_for
from rucon.simulator import (Execution, ExperimentSummary, FailurePattern,
                             RunConfig, deviation_experiment, deviation_study,
                             run)


def _dev_run(dev, seed=0, n=5, t=1, **cfg):
    config = RunConfig(n=n, t=t, seed=seed, deviation=dev,
                       check_invariants=False, **cfg)
    return run(config)


def test_registry_and_factory():
    assert sorted(DEVIATION_TYPES) == list(range(1, 11))
    dev = make_deviation(5, agent=2, seed=1, round=3)
    assert dev.agent == 2 and dev.params == {"round": 3}
    assert dev.describe().startswith("type5")
    with pytest.raises(ValueError):
        make_deviation(99)


def test_pretend_crash_excluded_from_decision_set():
    dev = make_deviation(10, agent=1, seed=0, round=1)
    res = _dev_run(dev)
    assert res.deviation_applied
    assert res.outcome[0] == "consensus"
    assert 1 not in res.d_set
    decided = {v for a, v in res.decisions.items() if a != 1}
    assert len(decided) == 1 and "bot" not in decided


def test_pretend_crash_never_detected():
    for seed in range(30):
        res = _dev_run(make_deviation(10, agent=1, seed=seed), seed=seed)
        assert "bot" not in res.decisions.values()


def test_wrong_consensus_detected():
    res = _dev_run(make_deviation(9, agent=1, seed=0))
    assert res.deviation_applied
    assert "bot" in res.decisions.values()
    assert res.outcome == ("bot",)


# Lying about a faulty link needs one to exist. Cases 2 and 8 lie about
# the deviant's own faulty link (agent 4 omits towards the deviant);
# cases 4 and 7 lie about a foreign fault, which only reaches the
# deviant's table one relay hop later, hence the later lie round.
LIE_SETUP = {
    2: (FailurePattern(send_om={(4, 1): 2}), 3),
    4: (FailurePattern(send_om={(4, 3): 2, (4, 5): 2}), 4),
    7: (FailurePattern(send_om={(4, 3): 2, (4, 5): 2}), 4),
    8: (FailurePattern(send_om={(4, 1): 2}), 3),
}


@pytest.mark.parametrize("case", range(1, 9))
def test_link_state_lies_detected(case):
    # each lie sub-case, once actually applied, is caught in some run
    pattern, lie_round = LIE_SETUP.get(case, (FailurePattern(), 3))
    detected = applied = 0
    for seed in range(12):
        dev = make_deviation(6, agent=1, seed=seed, case=case,
                             round=lie_round)
        res = _dev_run(dev, seed=seed, pattern=pattern)
        applied += res.deviation_applied
        detected += res.deviation_applied and "bot" in res.decisions.values()
    assert applied > 0
    assert detected > 0


# Each lie's first round, with a pattern under which it acts there at
# (5,1), seed 0. Sub-cases 2 and 8 need a faulty own link, 4 and 7 a
# foreign fault that is relayed to the deviant.
FIRST_ROUNDS = [
    (6, {"case": 1}, 2, FailurePattern()),
    (6, {"case": 2}, 2, FailurePattern(send_om={(4, 1): 1})),
    (6, {"case": 3}, 3, FailurePattern()),
    (6, {"case": 4}, 3, FailurePattern(send_om={(4, 3): 1, (4, 5): 1})),
    (6, {"case": 5}, 2, FailurePattern()),
    (6, {"case": 6}, 3, FailurePattern()),
    (6, {"case": 7}, 4, FailurePattern(send_om={(4, 3): 2, (4, 5): 2})),
    (6, {"case": 8}, 2, FailurePattern(send_om={(4, 1): 1})),
    (7, {}, 3, FailurePattern()),
]


@pytest.mark.parametrize("type_id,params,first,pattern", FIRST_ROUNDS)
def test_lie_acts_from_its_first_round(type_id, params, first, pattern,
                                       capsys):
    dev = make_deviation(type_id, agent=1, seed=0, round=first, **params)
    assert _dev_run(dev, pattern=pattern).deviation_applied
    # one round earlier the lie could never act, so it is rejected
    early = make_deviation(type_id, agent=1, seed=0, round=first - 1,
                           **params)
    with pytest.raises(ValueError, match=f"must be in {first}..4"):
        _dev_run(early, pattern=pattern)
    argv = ["deviate", "--n", "5", "--t", "1", "--seed", "0", "--runs", "1",
            "--type", str(type_id), "--param", f"round={first - 1}"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_lie_without_a_round_at_t0():
    # sub-case 7 needs a round-4 table, and at t=0 round 3 ships the last
    for round_ in (1, 2, 3):
        with pytest.raises(ValueError, match=r"4\.\.3 \(none at t=0\)"):
            _dev_run(make_deviation(6, case=7, round=round_), n=3, t=0)


def test_derandomization_is_silent_but_harmless():
    # pinning every random choice breaks no rule and is never detected
    for seed in range(30):
        res = _dev_run(make_deviation(3, agent=1, seed=seed), seed=seed)
        assert res.deviation_applied
        assert "bot" not in res.decisions.values()
        assert res.outcome[0] == "consensus"


def test_ignore_peers_records_guesses():
    dev = make_deviation(5, agent=1, seed=0)
    res = _dev_run(dev, seed=4)
    assert res.deviation_applied
    assert res.guesses, "uniform guesses must be recorded"
    assert all(g["guess"] in range(5) for g in res.guesses)


def _dropped_links_after_round_2(guess):
    """The deviant's NS entries for its links to the peers it drops from
    round 2, as round 2's compute phase leaves them."""
    dev = make_deviation(5, agent=1, seed=0, guess=guess)
    ex = Execution(RunConfig(n=5, t=1, seed=0, deviation=dev,
                             check_invariants=False))
    for r in ex.steps():
        if r == 3:
            st = ex.agents[1]
            assert st.decision is UNDECIDED and dev.dropped
            entries = {q: st.ns[link_of(1, q)] for q in sorted(dev.dropped)}
    return entries, ex.result()


def test_ignore_peers_without_guessing_rewrites_nothing():
    entries, res = _dropped_links_after_round_2(guess=False)
    assert res.guesses == []
    # the honest phase-1 failure reports, by the deviant, stay as they are
    assert all(ta[0] == X and ta[2] == 1 and tb is None
               for ta, tb in entries.values())
    guessed, res = _dropped_links_after_round_2(guess=True)
    assert res.guesses
    assert all(ta[:3] == (R, 2, 1) for ta, _ in guessed.values())


def test_ignore_peers_resends_the_rounds_one_table():
    # its resends to lost peers ship the table send_phase shipped, so every
    # receiver's phase 2 shares one check of it
    dev = make_deviation(5, agent=1, seed=0)
    mutate, resent = dev.mutate_outgoing, []

    def recording(st, r, msgs):
        msgs = mutate(st, r, msgs)
        if st.lost and st.lost.keys() <= msgs.keys() and r <= st.t + 3:
            resent.append(r)
            assert len({id(msg["ns"]) for msg in msgs.values()}) == 1, r
        return msgs

    dev.mutate_outgoing = recording
    _dev_run(dev)
    assert resent


@pytest.mark.parametrize("type_id", [1, 2, 4, 8])
def test_targets_change_only_the_named_peer(type_id):
    dev = make_deviation(type_id, agent=1, seed=0, targets=[3])
    mutate = dev.mutate_outgoing
    changed = set()

    def recording(st, r, msgs):
        before = copy.deepcopy(msgs)
        after = mutate(st, r, msgs)
        assert after.keys() == before.keys()
        changed.update(j for j in before if after[j] != before[j])
        return after

    dev.mutate_outgoing = recording
    assert _dev_run(dev).deviation_applied
    assert changed == {3}


def test_share_relay_target_without_a_message_stays_unapplied():
    # agent 3 never reaches the deviant, which stops sending to it, so at
    # round t+3 there is no message to 3 to corrupt
    dev = make_deviation(8, agent=1, seed=0, targets=[3])
    res = _dev_run(dev, pattern=FailurePattern(send_om={(3, 1): 1}))
    assert not res.deviation_applied
    assert "bot" not in res.decisions.values()


def test_fake_shares_detected_often():
    detected = 0
    for seed in range(20):
        res = _dev_run(make_deviation(1, agent=1, seed=seed), seed=seed)
        detected += "bot" in res.decisions.values()
    assert detected >= 15


def test_experiment_summary_shape():
    base = RunConfig(n=5, t=1, seed=100)
    summary = deviation_experiment(
        base, lambda: make_deviation(10, agent=1, seed=0), runs=40)
    assert summary.runs == 40
    assert summary.deviation.startswith("type10")
    assert summary.mean_diff == pytest.approx(
        summary.mean_deviant - summary.mean_honest)
    assert 0.0 <= summary.detection_rate <= 1.0
    assert summary.applied_rate == 1.0
    # silence can never profit: the deviant forfeits its own participation
    assert summary.mean_diff <= 0.0


class ChosenProposal(Deviation):
    """A proposal fixed at quantile 1-1/(n-1) of the field, re-shared as
    type 3 re-shares its zero. It stays out of DEVIATION_TYPES."""

    type_id = 11

    def after_init(self, st):
        st.proposal = st.p * (st.n - 2) // (st.n - 1)
        st.b_poly = make_polynomial(st.proposal, self.rng, st.p)
        q_at = st.shares[st.id][st.id][0]
        st.shares[st.id][st.id] = (q_at, share_for(st.b_poly, st.id))
        self.applied = True


def test_a_chosen_proposal_beats_honest_play():
    """A known defect, pinned: elect picks the holder of the second-largest
    proposal and nothing checks how a proposal was drawn, so a deviant that
    fixes its own wins more often than 1/n, undetected. The gain is over
    four standard errors. Invert this test when elect changes: the gain
    must then lie within noise."""
    summary, = deviation_study(RunConfig(n=5, t=1, seed=0),
                               [lambda: ChosenProposal(agent=1)], 400)
    assert summary == ExperimentSummary(
        deviation="type11", runs=400, mean_honest=1.455, mean_deviant=1.5675,
        mean_diff=0.1125, se_diff=0.026952280767988657,
        gain_within_noise=False, detection_rate=0.0, applied_rate=1.0)


def test_experiment_pairs_same_environment():
    base = RunConfig(n=5, t=1, seed=7)
    s1 = deviation_experiment(
        base, lambda: make_deviation(10, agent=1, seed=0), runs=10)
    s2 = deviation_experiment(
        base, lambda: make_deviation(10, agent=1, seed=0), runs=10)
    assert (s1.mean_honest, s1.mean_deviant) == (s2.mean_honest,
                                                 s2.mean_deviant)
    # makers share each seed's honest run, and each maker's summary is the
    # one it gets alone, with a given pattern and values and a deviant
    # that is not the first agent
    base = RunConfig(n=5, t=1, seed=7, values=["a", "b", "a", "c", "b"],
                     pattern=FailurePattern(send_om={(5, 2): 2}))

    def make():
        return make_deviation(5, agent=3, seed=0)
    alone = deviation_experiment(base, make, runs=10)
    assert alone.guess_trials > 0
    assert deviation_study(base, [make, make], runs=10) == [alone, alone]


def test_every_bot_names_its_rule():
    # every type at (5,1) and (7,2) over 20 seeds, deviant agent 1: each
    # honest bot names the rule that fired, in the agent, the trace and the
    # result
    bots = 0
    for n, t in ((5, 1), (7, 2)):
        for tid in TYPES[1:]:
            for seed in range(20):
                trace = []
                ex = Execution(RunConfig(
                    n=n, t=t, seed=seed, sample_pattern=True,
                    check_invariants=False, trace=trace,
                    deviation=deviant(tid, seed=seed)))
                for _ in ex.steps():
                    pass
                res = ex.result()
                where = (n, t, tid, seed)
                for rec in trace:
                    if rec["event"] == "inconsistency":
                        assert rec["payload"]["category"], where
                        assert rec["payload"]["rule"], where
                for i, label in res.decisions.items():
                    if label != "bot":
                        continue
                    assert i in res.errors, where
                    if i == 1:
                        continue
                    err = ex.agents[i].last_error
                    assert isinstance(err, InconsistencyError), where
                    assert err.category and err.rule, where
                    bots += 1
    assert bots == 1465
