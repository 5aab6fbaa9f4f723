"""The lockstep executor: patterns, delivery, utilities, and determinism."""

import copy
import dataclasses
import gc
import json

import pytest
from hypothesis import given, strategies as st

from rucon.agent import BOT
from conftest import TYPES, deviant, deviation_grid
from rucon.deviations import Deviation, make_deviation
from rucon.links import X
from rucon import simulator
from rucon.simulator import (Execution, FailurePattern, RunConfig, deliver,
                             deviation_experiment, deviation_study, run,
                             sample_blind_pattern, sample_values)


def test_fault_free_regression():
    # pinned oracle: n=3, t=0, seed 1 elects agent 1's value 'a'
    res = run(RunConfig(n=3, t=0, seed=1, values=["a", "b", "c"]))
    assert res.decisions == {1: "a", 2: "a", 3: "a"}
    assert res.outcome == ("consensus", "a")
    assert res.m_star == 1 and res.d_set == [1, 2, 3]
    assert res.utilities == {1: 2.0, 2: 1.0, 3: 1.0}
    assert res.invariants_ok


def test_crashed_agent_excluded():
    res = run(RunConfig(n=5, t=1, seed=3,
                        pattern=FailurePattern(crash={5: 1})))
    assert res.d_set == [1, 2, 3, 4]
    assert res.decisions[5] in ("no_decision", res.decisions[1])
    decided = {res.decisions[a] for a in (1, 2, 3, 4)}
    assert len(decided) == 1 and "bot" not in decided
    assert res.invariants_ok


def test_run_is_deterministic():
    def snapshot():
        trace = []
        res = run(RunConfig(n=5, t=1, seed=42, sample_pattern=True,
                            trace=trace))
        return res.decisions, res.utilities, trace
    d1, u1, t1 = snapshot()
    d2, u2, t2 = snapshot()
    assert (d1, u1) == (d2, u2)
    assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)


class _CollectorProbe(Deviation):
    """Records whether the cyclic collector runs during each round."""

    def __init__(self):
        super().__init__(agent=1)
        self.seen = []

    def after_receive(self, st, r):
        self.seen.append(gc.isenabled())


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        probe = _CollectorProbe()
        run(RunConfig(n=5, t=1, seed=0, deviation=probe))
        assert probe.seen == [False] * 5     # paused for the whole run
        assert gc.isenabled() is enabled
        deviation_study(RunConfig(n=5, t=1, seed=0),
                        [lambda: make_deviation(6), lambda: probe], 1)
        assert probe.seen == [False] * 10
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):      # Execution rejects the config
            run(RunConfig(n=4, t=2, seed=0))
        assert gc.isenabled() is enabled
        # steps() yields mid-run, so it leaves the collector alone
        for _ in Execution(RunConfig(n=5, t=1, seed=0)).steps():
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_runs_leave_no_cyclic_garbage():
    # run() pauses the collector on the premise that a run makes no
    # reference cycle, honest or deviant, so reference counting frees all
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    detected = 0     # runs that took the error path, where cycles formed
    try:
        for n, t in ((5, 1), (7, 2)):
            for seed in range(2):
                for type_id in TYPES:
                    res = run(RunConfig(n=n, t=t, seed=seed,
                                        sample_pattern=True,
                                        deviation=deviant(type_id)))
                    assert res.deviation_applied or type_id is None, type_id
                    detected += "bot" in res.decisions.values()
            # a study's forks make none either
            deviation_study(RunConfig(n=n, t=t, seed=0),
                            [lambda tid=tid: deviant(tid)
                             for tid in TYPES[1:]], 2)
        assert detected > 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_config_validation():
    with pytest.raises(ValueError):
        run(RunConfig(n=4, t=2, seed=0))
    with pytest.raises(ValueError):
        run(RunConfig(n=5, t=1, seed=0, utilities=(1.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        run(RunConfig(n=5, t=1, seed=0, values=["a", "b"]))
    with pytest.raises(ValueError):
        run(RunConfig(n=5, t=1, seed=0, values=["z"] * 5))
    # a str of n domain values is not a list of them
    with pytest.raises(ValueError, match="values must list"):
        run(RunConfig(n=5, t=1, seed=0, values="abcab"))
    with pytest.raises(ValueError, match="t must be at least 0"):
        run(RunConfig(n=5, t=-1, seed=0))
    # a value's index in the domain is its encoding: a repeated value
    # would decode two ways, and an empty domain has no value to hold
    for domain in (("a", "a", "b"), (), ("a", "", "b"), "abc", ("a", [1])):
        with pytest.raises(ValueError, match="value domain"):
            run(RunConfig(n=5, t=1, seed=0, value_domain=domain))
    # n, t and seed are ints: a float n or t would fail in range(), a bool
    # pass as 0 or 1, and seed=True or 1.0 run other seeds than 1 does
    for name, bad in (("n", 5.0), ("t", 1.5), ("t", True), ("n", True),
                      ("seed", True), ("seed", 1.0)):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            run(RunConfig(**{"n": 5, "t": 1, "seed": 0, name: bad}))
    # so is the deviant: agent=2.5 has no state, and True or 1.0 would
    # pass as agent 1
    for bad in (2.5, True, 1.0):
        with pytest.raises(ValueError, match="agent must be an int"):
            run(RunConfig(n=5, t=1, seed=0,
                          deviation=make_deviation(10, agent=bad)))
    for dev in (make_deviation(10, agent=9), make_deviation(10, agent=0),
                make_deviation(5, round="abc"),
                make_deviation(1, targets=[2, 6]),
                make_deviation(4, targets=[]), make_deviation(8, targets=[1]),
                make_deviation(2, targets=[2, 2]),
                make_deviation(6, round=5), make_deviation(5, round=9),
                make_deviation(1, rund=3), make_deviation(5, guess="no"),
                make_deviation(9, edit=print),
                make_deviation(6, case=9), make_deviation(6, case=0)):
        with pytest.raises(ValueError):
            run(RunConfig(n=5, t=1, seed=0, deviation=dev))
    # targets=None is the type's own default, as when absent
    for tid in (1, 2, 4, 8):
        make_deviation(tid, targets=None).bind(n=5, t=1, domain_size=3)
    # a sub-case outside 1..8 is rejected when bound, not when it acts
    for case in (0, 9):
        with pytest.raises(ValueError, match="sub-case"):
            make_deviation(6, case=case).bind(n=5, t=1, domain_size=3)
    for runs in (0, -2, True, 2.5, "3"):
        with pytest.raises(ValueError, match="runs"):
            deviation_experiment(RunConfig(n=5, t=1, seed=0),
                                 lambda: make_deviation(10), runs)
        with pytest.raises(ValueError, match="runs"):
            deviation_study(RunConfig(n=5, t=1, seed=0),
                            [lambda: make_deviation(10)], runs)


def test_pattern_validation():
    with pytest.raises(ValueError):
        FailurePattern(crash={1: 1, 2: 1}).validate(5, 1)
    with pytest.raises(ValueError):
        FailurePattern(crash={9: 1}).validate(5, 1)
    # an omission needs two distinct ends, and every onset is a round >= 1
    for bad in (FailurePattern(send_om={(2, 2): 1}),
                FailurePattern(recv_om={(2, 2): 3}),
                FailurePattern(crash={2: -3}),
                FailurePattern(send_om={(2, 3): 0}),
                FailurePattern(recv_om={(2, 3): 0})):
        with pytest.raises(ValueError):
            bad.validate(5, 1)
    FailurePattern(send_om={(2, 3): 1}, recv_om={(2, 4): 1}).validate(5, 1)


def test_pattern_blocks_never_recovers():
    pat = FailurePattern(send_om={(1, 2): 3})
    assert not pat.blocks(2, 1, 2)
    assert all(pat.blocks(r, 1, 2) for r in (3, 4, 5))
    crash = FailurePattern(crash={3: 2})
    assert crash.blocks(2, 3, 1) and crash.blocks(2, 1, 3)


def test_deliver_respects_pattern():
    outboxes = {1: {2: "m12", 3: "m13"}, 2: {1: "m21"}, 3: {}}
    pat = FailurePattern(send_om={(1, 2): 1})
    inboxes = deliver(1, outboxes, pat, 3)
    assert inboxes == {1: {2: "m21"}, 2: {}, 3: {1: "m13"}}


def test_sampler_is_deterministic_and_bounded():
    assert sample_blind_pattern(0, 5, 0) == FailurePattern()
    for seed in range(200):
        pat = sample_blind_pattern(seed, 7, 2)
        assert pat == sample_blind_pattern(seed, 7, 2)
        pat.validate(7, 2)


def test_sampler_inclusion_is_uniform():
    # each agent's inclusion frequency across many samples stays within
    # 3 sigma of the symmetric expectation
    n, t, samples = 5, 2, 4000
    counts = dict.fromkeys(range(1, n + 1), 0)
    total = 0
    for seed in range(samples):
        chosen = sample_blind_pattern(seed, n, t).faulty_agents()
        total += len(chosen)
        for a in chosen:
            counts[a] += 1
    mean = total / n
    sigma = (total * (1 / n) * (1 - 1 / n)) ** 0.5
    for a, c in counts.items():
        assert abs(c - mean) <= 3 * sigma, (a, c, mean, sigma)


def test_sampler_ignores_values():
    # blindness: the schedule is a function of the seed alone, never of
    # the initial values fed to the run
    pat = sample_blind_pattern(7, 5, 1)
    for values in (["a"] * 5, ["c", "b", "a", "b", "c"]):
        res = run(RunConfig(n=5, t=1, seed=7, values=values,
                            sample_pattern=True, check_invariants=False))
        assert res.pattern == pat


def test_sample_values_deterministic():
    assert sample_values(3, 5, ("a", "b")) == sample_values(3, 5, ("a", "b"))
    assert all(v in ("a", "b") for v in sample_values(3, 5, ("a", "b")))


def test_utilities_follow_decisions():
    res = run(RunConfig(n=3, t=0, seed=1, values=["a", "b", "c"],
                        utilities=(5.0, 2.0, 1.0)))
    winner = res.outcome[1]
    for i, v in enumerate(res.values, start=1):
        assert res.utilities[i] == (5.0 if v == winner else 2.0)


def test_trace_format():
    trace = []
    run(RunConfig(n=3, t=0, seed=1, trace=trace))
    assert all(set(rec) == {"run_id", "round", "phase", "agent", "event",
                            "payload"} for rec in trace)
    assert trace[0]["event"] == "config"
    assert trace[-1]["event"] == "result"
    assert any(rec["event"] == "election" for rec in trace)


def test_invariant_report_complete():
    res = run(RunConfig(n=5, t=1, seed=9, sample_pattern=True))
    assert set(res.invariants) >= {
        "uniform_agreement", "termination", "validity",
        "message_passing_bound", "clean_round_density", "hs_convergence",
        "machinery_agreement"}
    assert res.invariants_ok


def test_invariants_without_non_faulty_observer():
    # a pretend crash from round 1 leaves every agent with more than t
    # severed links, so no agent's view can serve as the reference
    res = run(RunConfig(n=5, t=1, seed=0, sample_pattern=True,
                        deviation=make_deviation(10, agent=1, seed=0)))
    for name in ("clean_round_density", "hs_convergence",
                 "machinery_agreement"):
        assert res.invariants[name] == (False, "no non-faulty observer")


def test_invariants_ignore_bot_agents_tables():
    # a bot agent stops wherever its verification did, so the monitor
    # reads no table of it: emptying them after every round changes no
    # report
    bots = 0
    for tid in range(1, 11):
        for seed in range(6):
            def config():
                return RunConfig(n=5, t=1, seed=seed, sample_pattern=True,
                                 deviation=make_deviation(tid, agent=3,
                                                          seed=seed))
            res = run(config())
            ex = Execution(config())
            for _ in ex.steps():
                _empty_bot_tables(ex.agents)
            _empty_bot_tables(ex.agents)
            assert ex.result().invariants == res.invariants, (tid, seed)
            bots += "bot" in res.decisions.values()
    assert bots >= 40


def _empty_bot_tables(agents):
    for st in agents.values():
        if st.decision == BOT:
            st.ns.clear()
            st.hs.clear()


# The monitor gates the acceptance sweep, so each of its checks must be
# able to fail. A fault-free run at (5,1) passes them all; each test
# tampers one observer's tables and reads the FAIL.

def _fault_free():
    return Execution(RunConfig(n=5, t=1, seed=0))


def test_monitor_fails_a_state_still_disputed_at_its_bound():
    ex = _fault_free()
    real = ex.monitor.after_round

    def after_round(agents, r):
        # agent 3 forgets round 1 of (1,2) while the round-3 checks run
        hs = agents[3].hs
        saved = hs.pop(((1, 2), 1)) if r == 3 else None
        real(agents, r)
        if saved is not None:
            hs[((1, 2), 1)] = saved

    ex.monitor.after_round = after_round
    for _ in ex.steps():
        pass
    report = ex.result().invariants
    assert report["message_passing_bound"] == (
        False, "message-passing bound: round-1 state of (1, 2) still "
        "disputed at round 3: ['O', 'R']")
    assert report["hs_convergence"] == (True, "")


def test_monitor_fails_a_window_without_a_quiet_round():
    ex = _fault_free()
    for _ in ex.steps():
        pass
    # the reference observer, agent 1, sees agent 2 fail at round 3 and
    # agent 3 at round 4: rounds 1 and 2 are quiet, but not one of 3 and 4
    ns = ex.agents[1].ns
    for link, m in (((2, 3), 3), ((2, 4), 3), ((3, 4), 4), ((3, 5), 4)):
        ns[link] = ((X, m, link[0], (0,) * 4), None)
    assert ex.result().invariants["clean_round_density"] == (
        False, "no fault-quiet round in [3, 4]")


def test_monitor_names_an_observer_whose_history_differs():
    ex = _fault_free()
    for _ in ex.steps():
        pass
    del ex.agents[3].hs[((1, 2), 1)]
    report = ex.result().invariants
    assert report["clean_round_density"][0]
    assert report["hs_convergence"] == (
        False, "agent 3 judges some link differently through round 2")


@given(r=st.integers(1, 8), onset=st.integers(1, 8))
def test_blocks_is_monotone(r, onset):
    pat = FailurePattern(recv_om={(2, 1): onset})
    if pat.blocks(r, 1, 2):
        assert pat.blocks(r + 1, 1, 2)


def test_a_hook_set_on_an_instance_runs_fresh():
    # the honest base never acts, so a study forks it before the last
    # round, and type 9 forks at t+4; a hook set on either instance is
    # not its class's, so the study runs it fresh and the hook sees every
    # round
    seen = {}

    def maker(dev):
        def make():
            dev.filter_inbox = (lambda st, r, inbox:
                                seen.setdefault(dev.type_id, []).append(r)
                                or inbox)
            return dev
        return make
    base, wrong = Deviation(agent=1), make_deviation(9, agent=1, seed=0)
    assert (base.acts_from(1), wrong.acts_from(1)) == (float("inf"), 5)
    deviation_study(RunConfig(n=5, t=1, seed=0), [maker(base), maker(wrong)],
                    1)
    assert seen == {base.type_id: [1, 2, 3, 4, 5],
                    wrong.type_id: [1, 2, 3, 4, 5]}


def _state(st):
    """A copy of every field of an agent, its rng by state and its error
    by text."""
    return copy.deepcopy({**vars(st), "rng": st.rng.getstate(),
                          "last_error": repr(st.last_error)})


def _fields(res):
    return [(f.name, getattr(res, f.name)) for f in dataclasses.fields(res)
            if f.name != "config"]


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_forked_runs_equal_fresh_runs(n, t, seed, monkeypatch):
    # acts_from(t) is sound for every grid entry, honest play included: up
    # to it, a deviant run's agents are its honest twin's at every pause
    # and the deviation has not applied; a study's fork from the twin ends
    # as the fresh run does, in its result and every agent; and the twin
    # ends as a fresh honest run
    honest_cfg = RunConfig(n=n, t=t, seed=seed, sample_pattern=True,
                           check_invariants=False)
    entries = deviation_grid(t)

    def make(k):
        tid, params = entries[k]
        return deviant(tid, seed=seed, **params) or Deviation(agent=1)

    def fresh(dev):
        ex = Execution(dataclasses.replace(honest_cfg, deviation=dev))
        for _ in ex.steps():
            pass
        return ex

    honest = Execution(honest_cfg)
    paused = [[_state(st) for st in honest.agents.values()]
              for _ in honest.steps()]
    for k in range(len(entries)):
        dev = make(k)
        ex = Execution(dataclasses.replace(honest_cfg, deviation=dev))
        for r in ex.steps():
            if r >= dev.acts_from(t):
                break
            assert [_state(st) for st in ex.agents.values()] == paused[r - 1]
            assert not dev.applied, (entries[k], r)

    devs = [make(k) for k in range(len(entries))]
    twins, forks = [], {}
    fork = simulator._fork

    def recorded(twin, config):
        twins.append(twin)
        k = next(k for k, dev in enumerate(devs) if dev is config.deviation)
        forks[k] = fork(twin, config)
        return forks[k]
    monkeypatch.setattr(simulator, "_fork", recorded)
    utilities, results = simulator._paired_runs(honest_cfg, devs)
    monkeypatch.undo()
    assert sorted(forks) == [k for k, dev in enumerate(devs)
                             if dev.acts_from(t) > 1]
    assert all(twin is twins[0] for twin in twins)

    twin, alone = twins[0], fresh(None)
    assert _fields(twin.result()) == _fields(alone.result())
    assert utilities == alone.result().utilities
    assert ([_state(st) for st in twin.agents.values()]
            == [_state(st) for st in alone.agents.values()])
    for k, ex in forks.items():
        dev = make(k)
        alone = fresh(dev)
        assert _fields(ex.result()) == _fields(alone.result()), entries[k]
        assert ([_state(st) for st in ex.agents.values()]
                == [_state(st) for st in alone.agents.values()]), entries[k]
        assert (ex.dev.applied, ex.dev.guesses) == (dev.applied,
                                                    dev.guesses), entries[k]
    assert [_fields(res) for res in results] == [
        _fields(run(dataclasses.replace(honest_cfg, deviation=make(k))))
        for k in range(len(entries))]
