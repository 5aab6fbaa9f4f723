"""Link identifiers, link-state reports, and the NS/HS knowledge stores.

Every pair of agents is joined by one undirected link, identified by the
canonically ordered id pair. This module names the vocabulary that every
rule is stated over: an agent's peers and own links, every link, and the
evidence vector of a faulty-link report. An agent's knowledge of the network
is held in two structures:

  NS ("new states"): the latest known report per link, tagged with where the
      report came from. For a faulty link the recorded round is always the
      earliest failure round.
  HS ("history states"): per (link, round), the set of endpoint reports seen
      for that round. Each round of each link admits at most two reports,
      one per endpoint. HS holds only real reports, each admitted by
      append_hs.

Report tuples are plain tuples for speed:

  ('R', round, reporter, msg_random)   -- link observed correct
  ('X', round, reporter, bit_vector)   -- link observed faulty; the vector
                                          holds the reporter's per-recipient
                                          fault-evidence bits, sorted by
                                          recipient id
  absence / None                       -- unknown state

An unknown state is never stored explicitly: NS simply has no entry and HS
has no tuples for that (link, round). last_update reads both stores into
the settled history that every later fault-status question asks.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InconsistencyError

R = "R"
X = "X"


def link_of(a: int, b: int) -> tuple[int, int]:
    """Canonical unordered link id for two distinct agents."""
    if a == b:
        raise ValueError(f"no self-link for agent {a}")
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def peers(i: int, n: int) -> tuple:
    """Every agent of 1..n but i, ascending."""
    return tuple(j for j in range(1, n + 1) if j != i)


@lru_cache(maxsize=None)
def own_links(i: int, n: int) -> tuple:
    """Agent i's n-1 links, by ascending peer: zip with peers(i, n)."""
    return tuple(link_of(i, j) for j in peers(i, n))


@lru_cache(maxsize=None)
def all_links(n: int) -> tuple:
    """Every link among agents 1..n, in canonical order."""
    return tuple((a, b) for a in range(1, n) for b in range(a + 1, n + 1))


def own_vector(bits_by_recipient: dict, link) -> tuple:
    """The evidence vector of an X report on one of the reporter's own
    links: its bit for link to each recipient, from its draws of one round,
    {recipient -> {own link -> bit}} with recipients ascending."""
    return tuple(bits[link] for bits in bits_by_recipient.values())


_INT = {int}


def only_bits(values: tuple) -> bool:
    """Whether a non-empty tuple holds only the ints 0 and 1. A bool or a
    float compares equal to one, but is no bit of a report or message."""
    return (values.count(0) + values.count(1) == len(values)
            and set(map(type, values)) == _INT)


def append_hs(hs: dict, link: tuple[int, int], t_a) -> dict:
    """Record one endpoint report under (link, report round).

    Idempotent for byte-identical tuples (the same report legitimately
    arrives over several relay paths). Raises InconsistencyError when the
    reporter already reported a different state for that round. Every
    report that reaches here has a link endpoint as reporter: phase 1's
    own, and received ones by claim 8, which check_format checks first. So
    a round holds at most two reports, one per endpoint.
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
    hs[key] = existing + (t_a,)
    return hs


def last_update(ns: dict, hs: dict, rounds: int) -> dict:
    """The settled link history: {(link, r): X or R} for rounds 1..rounds.

    A link whose NS entry is faulty from round m is faulty at every round
    m..rounds. Any other (link, round) takes its HS reports, a faulty one
    beating a correct one. An unknown state is absent. Reads ns and hs and
    writes to neither.
    """
    settled = {}
    for key, reports in hs.items():
        if key[1] <= rounds:
            # append_hs admits at most two reports per (link, round)
            faulty = reports[0][0] == X or reports[-1][0] == X
            settled[key] = X if faulty else R
    for link, (t_a, _src) in ns.items():
        if t_a[0] == X:
            for r in range(t_a[1], rounds + 1):
                settled[(link, r)] = X
    return settled

