"""Shared helpers: a run that can snapshot agents mid-round.

The simulator's run() only reports end-of-run results; verification tests
need an agent's state exactly as it stands between the receive and compute
phases, with the received tables still pending. run_agents steps the same
Execution.steps() that run() does and deep-copies every agent at its pause.
"""

import copy

import pytest

from rucon.simulator import Execution, RunConfig


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


@pytest.fixture(scope="session")
def captured_round3():
    """Fault-free n=5, t=1 run snapshotted after round 3's receive phase."""
    _, snapshot = run_agents(5, 1, seed=11, capture_round=3)
    return snapshot
