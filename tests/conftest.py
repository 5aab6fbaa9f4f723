"""Shared helpers: mid-round snapshots and the deviation grid.

The simulator's run() only reports end-of-run results; verification tests
need an agent's state exactly as it stands between the receive and compute
phases, with the received tables still pending. run_agents steps the same
Execution.steps() that run() does and deep-copies every agent at its pause.
"""

import copy
from functools import cache
from itertools import chain, product

import pytest

from rucon import simulator
from rucon.agent import build_message
from rucon.deviations import DEVIATION_TYPES, make_deviation
from rucon.links import last_update
from rucon.simulator import Execution, RunConfig

TYPES = [None] + sorted(DEVIATION_TYPES)


def run_agents(n, t, seed, pattern=None, capture_round=None):
    """Drive a run to completion; optionally snapshot after one receive phase.

    Returns (agents, snapshot): the final agent states and, if capture_round
    was given, a deep copy of every agent taken after that round's receive
    phase (pending tables intact, compute not yet run).
    """
    ex = Execution(RunConfig(n=n, t=t, seed=seed, pattern=pattern,
                             values=[("a", "b", "c")[i % 3] for i in range(n)],
                             check_invariants=False))
    snapshot = None
    for r in ex.steps():
        if r == capture_round:
            snapshot = copy.deepcopy(ex.agents)
    return ex.agents, snapshot


def deviant(type_id, agent=1, seed=0, **params):
    """The deviation of one grid entry; None is honest play."""
    return (None if type_id is None
            else make_deviation(type_id, agent=agent, seed=seed, **params))


def deviation_grid(t):
    """(type, params): honest play, (None, {}), then every deviation type
    with every lie sub-case and every round that bind accepts at t."""
    grid = [(None, {})]
    for type_id, cls in sorted(DEVIATION_TYPES.items()):
        for params in ([{"case": c} for c in sorted(cls.cases)]
                       if "case" in cls.defaults else [{}]):
            rounds = ([{"round": r} for r in cls(**params).rounds(t)]
                      if "round" in cls.defaults else [{}])
            grid += [(type_id, {**params, **r}) for r in rounds]
    return grid


@cache
def pause_failures(n, t, type_id):
    """Step every grid run of one type at (n, t), seeds 0-2 and deviant 1,
    once, checking four properties at every pause and after the run. Returns
    each property's failures, which name their params, seed and round; the
    tests that read them say what each property is."""
    failures = {name: [] for name in ("settled", "randoms", "tables", "bits")}
    where, seen = None, set()
    real = simulator.receive_phase

    def receive(state, r, inbox):
        seen.add(r)
        failures["randoms"].extend(
            (*where, r, state.id, key) for key in state.randoms
            if key[1] >= r and key != (state.id, r))
        real(state, r, inbox)

    runs = product([p for tid, p in deviation_grid(t) if tid == type_id],
                   range(3))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "receive_phase", receive)
        for where in runs:
            params, seed = where
            ex = Execution(RunConfig(n=n, t=t, seed=seed, sample_pattern=True,
                                     deviation=deviant(type_id, seed=seed,
                                                       **params),
                                     check_invariants=False))
            # round r's shipped tables and delivered bits are checked at the
            # next pause, after round r's compute phase and round r+1's
            # receive phase, and after the run
            kept = []
            for r in chain(ex.steps(), ["end"]):
                for name, held, frozen in kept:
                    if held != frozen:
                        failures[name].append((*where, r))
                kept = [(name, held, copy.deepcopy(held))
                        for st in ex.agents.values()
                        for name, store in (("tables", st.pending_ns),
                                            ("bits", st.heard_bits))
                        for held in store.values()]
                for st in ex.agents.values():
                    full = last_update(st.ns, st.hs, t + 4)
                    failures["settled"] += [
                        (*where, r, st.id, s) for s in range(t + 5)
                        if last_update(st.ns, st.hs, s) != {
                            k: v for k, v in full.items() if k[1] <= s}]
            for st in ex.agents.values():
                own = copy.deepcopy(st.own_bits)
                for r in range(1, min(max(own), t + 2) + 1):
                    xr = build_message(st, r, 2 if st.id == 1 else 1,
                                       {})["xr"]
                    for link in xr:
                        xr[link] ^= 1
                if st.own_bits != own:
                    failures["bits"].append((*where, "sent", st.id))
    if seen != set(range(1, t + 5)):
        failures["randoms"].append(("receive phases seen", sorted(seen)))
    return failures


@pytest.fixture(scope="session")
def captured_round3():
    """Fault-free n=5, t=1 run snapshotted after round 3's receive phase."""
    _, snapshot = run_agents(5, 1, seed=11, capture_round=3)
    return snapshot
