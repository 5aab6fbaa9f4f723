"""Link identifiers, link-state reports, and the NS/HS knowledge stores.

Every pair of agents is joined by one undirected link, identified by the
canonically ordered id pair. An agent's knowledge of the network is held in
two structures:

  NS ("new states"): the latest known report per link, tagged with where the
      report came from. For a faulty link the recorded round is always the
      earliest failure round.
  HS ("history states"): per (link, round), the set of endpoint reports seen
      for that round. Each round of each link admits at most two reports,
      one per endpoint.

Report tuples are plain tuples for speed:

  ('R', round, reporter, msg_random)   -- link observed correct
  ('X', round, reporter, bit_vector)   -- link observed faulty; the vector
                                          holds the reporter's per-recipient
                                          fault-evidence bits, sorted by
                                          recipient id
  absence / None                       -- unknown state

An unknown state is never stored explicitly: NS simply has no entry and HS
has no tuples for that (link, round).
"""

from __future__ import annotations

from .errors import InconsistencyError

# Classification results for a (link, round) query.
CORRECT = "correct"
FAULTY = "faulty"
UNKNOWN = "unknown"

R = "R"
X = "X"


def link_of(a: int, b: int) -> tuple[int, int]:
    """Canonical unordered link id for two distinct agents."""
    if a == b:
        raise ValueError(f"no self-link for agent {a}")
    return (a, b) if a < b else (b, a)


def append_hs(hs: dict, link: tuple[int, int], t_a) -> dict:
    """Record one endpoint report under (link, report round).

    Idempotent for byte-identical tuples (the same report legitimately
    arrives over several relay paths). Raises InconsistencyError when the
    report cannot coexist with what is already recorded: a same-reporter
    tuple with different content, or a third distinct tuple. That the
    reporter is an endpoint (claim 8) is checked once, by verify_state,
    before any received report reaches here.
    """
    if t_a is None:
        raise ValueError("unknown states are absence, not HS entries")
    reporter = t_a[2]
    key = (link, t_a[1])
    existing = hs.get(key)
    if existing is None:
        hs[key] = (t_a,)
        return hs
    if t_a in existing:
        return hs
    for other in existing:
        if other[2] == reporter:
            raise InconsistencyError(
                "round", "hs-conflict", link, t_a[1],
                f"reporter {reporter} already reported a different state",
            )
    if len(existing) >= 2:
        raise InconsistencyError(
            "round", "hs-overflow", link, t_a[1],
            "a third distinct report for one link round",
        )
    hs[key] = existing + (t_a,)
    return hs


def classify(hs: dict, link: tuple[int, int], r: int) -> str:
    """State of a link at a round: faulty beats correct beats unknown."""
    if r < 1:
        raise ValueError(f"round {r} outside the recorded range")
    entries = hs.get((link, r))
    if not entries:
        return UNKNOWN
    for t_a in entries:
        if t_a[0] == X:
            return FAULTY
    return CORRECT


def last_update(hs: dict, ns: dict, total_rounds: int) -> dict:
    """Back-fill fault markings from NS into HS for the decision machinery.

    For every link whose latest state is faulty from round m, the link is
    marked faulty for every round m..total_rounds. Existing reports are kept
    alongside; classification lets the fault marking dominate. This bypasses
    the append_hs invariants deliberately: it is a classification-level
    operation, not a new report.
    """
    for link, (t_a, _src) in ns.items():
        if t_a[0] != X:
            continue
        for r in range(t_a[1], total_rounds + 1):
            synthetic = (X, r, t_a[2], t_a[3])
            key = (link, r)
            existing = hs.get(key)
            if existing is None:
                hs[key] = (synthetic,)
            elif not any(e[0] == X for e in existing):
                hs[key] = existing + (synthetic,)
    return hs

