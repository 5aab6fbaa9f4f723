"""Status classification and the final value election.

The functions here are pure: given an agent's settled history from
links.last_update they name which agents count as faulty per round, pick
the decision round (the latest round known to be fault-quiet), the
decision set, and finally the elected value. Settled histories can still
differ between agents after the last exchange round; what the non-faulty
agents agree on is the decision round m* and the decision set D, which the
invariant monitor checks as machinery_agreement.
"""

from __future__ import annotations

from .errors import InconsistencyError
from .links import X, all_links


def agent_status(settled: dict, r: int, n: int, t: int, removed=()):
    """Classify every agent at round r, starting from already-removed ones.

    An agent is faulty when, among the peers not yet removed, fewer than
    n - t - 1 - f of its links are non-faulty (f = number removed so far).
    Removal is recomputed to a fixpoint, lowest id first. Each removal
    lowers the bound by one, and the count of every remaining agent whose
    link to the removed one is non-faulty by one.
    Returns (newly_faulty, removed) with removal being absorbing.
    """
    if not 1 <= r <= t + 3:
        raise ValueError(f"round {r} outside 1..{t + 3}")
    removed = set(removed)
    newly: set = set()
    alive = [a for a in range(1, n + 1) if a not in removed]
    # per agent not yet removed, its non-faulty links to such peers
    good = dict.fromkeys(alive, len(alive) - 1)
    x_peers = {}        # agent -> its peers over a link faulty at round r
    for link in all_links(n):
        if settled.get((link, r)) == X:
            a, b = link
            x_peers.setdefault(a, set()).add(b)
            x_peers.setdefault(b, set()).add(a)
            if a in good and b in good:
                good[a] -= 1
                good[b] -= 1
    while True:
        bound = n - t - 1 - len(removed)
        for a, count in good.items():
            if count < bound:
                break
        else:
            return newly, removed
        removed.add(a)
        newly.add(a)
        del good[a]
        spared = x_peers.get(a, ())     # their link to a did not count
        for q in good:
            if q not in spared:
                good[q] -= 1


def status_timeline(settled: dict, n: int, t: int):
    """(newly faulty, removed so far) per round 1..t+3; removal carries
    forward, and each round holds its own removed set."""
    removed: set = set()
    timeline = {}
    for r in range(1, t + 4):
        newly, removed = agent_status(settled, r, n, t, removed)
        timeline[r] = (newly, removed)
    return timeline


def clean_rounds(timeline: dict):
    return sorted(r for r, (newly, _) in timeline.items() if not newly)


def decision_round(timeline: dict) -> int:
    """The round whose survivor set everyone can safely decide from.

    That is the earliest round immediately preceding a round in which no new
    agent turned faulty. A status_timeline covers rounds 1..t+3, so it lands
    in 1..t+2; a history without one is an inconsistency.
    """
    cleans = clean_rounds(timeline)
    candidates = [c - 1 for c in cleans if c >= 2]
    if not candidates:
        raise InconsistencyError("decision", "no-quiet-round",
                                 detail="no fault-quiet round in the history")
    return min(candidates)


def decision_set(timeline: dict, m_star: int, n: int):
    """Agents still non-faulty at the decision round, ascending."""
    removed = timeline[m_star][1]
    return [a for a in range(1, n + 1) if a not in removed]


def elect(d_ids, values: dict, proposals: dict):
    """Pick the decided value from the decision set's values and proposals.

    Agents holding the second-largest distinct proposal form the candidate
    set C. A single candidate wins outright. With no second-largest value
    (all proposals equal) the common proposal picks an id rank within the
    whole decision set; with several candidates the second-largest proposal
    picks an id rank within C. Ranks count from the highest id down.
    An agent that fixes its proposal at quantile x of the uniform draw, q =
    1-x, wins with probability (|D|-1)*q*(1-q)^(|D|-2) against honest draws:
    up to 0.42 against the honest 1/|D| = 0.2 at |D| = 5.
    """
    d_ids = sorted(d_ids)
    if not d_ids:
        raise ValueError("empty decision set")
    for a in d_ids:
        if a not in values or a not in proposals:
            raise ValueError(f"missing value or proposal for agent {a}")
    distinct = sorted({proposals[a] for a in d_ids}, reverse=True)
    if len(distinct) < 2:
        pool = sorted(d_ids, reverse=True)
        pick = pool[distinct[0] % len(pool)]
        return values[pick]
    second = distinct[1]
    candidates = [a for a in d_ids if proposals[a] == second]
    if len(candidates) == 1:
        return values[candidates[0]]
    pool = sorted(candidates, reverse=True)
    pick = pool[second % len(pool)]
    return values[pick]
