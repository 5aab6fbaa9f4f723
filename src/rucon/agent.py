"""Per-agent protocol state machine: init, send, receive, compute.

An agent lives for t+4 synchronous rounds. Rounds 1..t+3 exchange value
shares and link-state tables; round t+4 exchanges the locally computed
consensus set. Decisions are terminal: a decided agent goes silent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import is_

from .errors import InconsistencyError
from .links import last_update, only_bits, own_links, peers
from .sharing import (DEFAULT_PRIME, LinearPolynomial, make_polynomial,
                      reconstruct, share_for)
from .verification import verify_and_update
from . import decision as decision_mod

UNDECIDED = None
BOT = ("bot",)           # punishment decision: an inconsistency was detected
NO_DECISION = ("no_decision",)


def value_decision(v):
    return ("value", v)


@dataclass
class AgentState:
    id: int
    n: int
    t: int
    p: int
    value: int                 # own value, encoded as a field element
    proposal: int
    q_poly: LinearPolynomial
    b_poly: LinearPolynomial
    rng: random.Random
    lost: dict = field(default_factory=dict)         # peer -> first round not heard; never heard again
    ns: dict = field(default_factory=dict)
    hs: dict = field(default_factory=dict)
    shares: dict = field(default_factory=dict)       # generator -> {point -> (q, b)}
    randoms: dict = field(default_factory=dict)      # (agent, round) -> int, own draws too
    own_bits: dict = field(default_factory=dict)     # round -> {recipient -> {own link -> bit}}, the shape sent
    heard_bits: dict = field(default_factory=dict)   # (sender, round) -> its xr dict to us, as delivered
    xrandoms: dict = field(default_factory=dict)     # (reporter, round, link) -> the vector that passed
    pending_ns: dict = field(default_factory=dict)   # sender -> its table, this round
    consensus: set = field(default_factory=set)
    decision: object = UNDECIDED
    last_error: object = None
    m_star: object = None
    d_set: object = None
    elected: object = None


def _canonical_keys(xr: dict, j: int, n: int) -> bool:
    """Whether xr, of n-1 keys, is keyed by sender j's links. An honest
    sender's keys are own_links' own objects, in order (build_message
    copies own_bits); any other keys must equal j's links and be plain
    tuples of ints, as check_format asks of a table's keys: (True, 2) and
    (1.0, 2) compare and hash equal to (1, 2)."""
    if all(map(is_, xr, own_links(j, n))):
        return True
    return xr.keys() == set(own_links(j, n)) and all(
        type(k) is tuple and type(k[0]) is int and type(k[1]) is int
        for k in xr)


def _gen_randoms(state: AgentState, r: int):
    """Draw the message random and fault-evidence bits for round r, the
    bits links outer and recipients ascending inner."""
    i, n, rng = state.id, state.n, state.rng
    # no report of round r or later has arrived yet, so nothing registered
    # our round-r random before this store
    state.randoms[(i, r)] = rng.randrange(n)
    per = state.own_bits[r] = {k: {} for k in peers(i, n)}
    for link in own_links(i, n):
        for bits in per.values():
            bits[link] = rng.getrandbits(1)


def init_agent(i: int, n: int, t: int, value: int,
               rng: random.Random) -> AgentState:
    p = DEFAULT_PRIME
    if not (n >= 3 and n > 2 * t + 1 and 1 <= i <= n):
        raise ValueError(f"bad parameters n={n}, t={t}, id={i}")
    if not 0 <= value < p:
        raise ValueError("value outside the field")
    proposal = rng.randrange(p)
    q_poly = make_polynomial(value, rng, p)
    b_poly = make_polynomial(proposal, rng, p)
    state = AgentState(id=i, n=n, t=t, p=p, value=value, proposal=proposal,
                       q_poly=q_poly, b_poly=b_poly, rng=rng)
    state.shares[i] = {i: (share_for(q_poly, i), share_for(b_poly, i))}
    _gen_randoms(state, 1)
    return state


def build_message(state: AgentState, r: int, recipient: int,
                  table: dict) -> dict:
    """The round-r message to one recipient. table is this round's snapshot
    of state.ns, shared by every recipient so that each receiver's phase 2
    can reuse one check of it: a caller must copy it before editing it."""
    i, t = state.id, state.t
    msg = {"sender": i, "round": r}
    if r <= t + 3:
        msg["rand"] = state.randoms[(i, r)]
        msg["ns"] = table
    if r <= t + 2:
        msg["xr"] = dict(state.own_bits[r][recipient])
    if r == 1:
        msg["q"] = share_for(state.q_poly, recipient)
        msg["b"] = share_for(state.b_poly, recipient)
    elif r == t + 3:
        msg["shares"] = {gen: pts[i] for gen, pts in sorted(state.shares.items())
                         if gen != recipient and i in pts}
    elif r == t + 4:
        msg["consensus"] = frozenset(state.consensus)
    return msg


def send_phase(state: AgentState, r: int) -> dict:
    """Messages for round r, keyed by recipient. Decided agents send nothing."""
    if state.decision is not UNDECIDED:
        return {}
    table = dict(state.ns)
    msgs = {}
    for j in peers(state.id, state.n):
        if j not in state.lost:
            msgs[j] = build_message(state, r, j, table)
    return msgs


def _require(cond, rule, what):
    if not cond:
        raise InconsistencyError("envelope", rule, detail=what)


def _ingest(state: AgentState, j: int, r: int, msg: dict):
    n, t, p = state.n, state.t, state.p
    # every message passes the checks up to the evidence bits, so they
    # raise inline rather than through _require
    if not (isinstance(msg, dict) and msg.get("sender") == j
            and msg.get("round") == r):
        raise InconsistencyError("envelope", "header", detail="bad envelope")
    if r <= t + 3:
        rand = msg.get("rand")
        if not (type(rand) is int and 0 <= rand < n):
            raise InconsistencyError("envelope", "rand",
                                     detail="bad message random")
        # check_format admits only reports of rounds before r, so no
        # report registered j's round-r random before this store
        state.randoms[(j, r)] = rand
        ns = msg.get("ns")
        if not isinstance(ns, dict):
            raise InconsistencyError("envelope", "ns",
                                     detail="missing link-state table")
        state.pending_ns[j] = ns
    if r <= t + 2:
        xr = msg.get("xr")
        if not (isinstance(xr, dict) and len(xr) == n - 1):
            raise InconsistencyError("envelope", "xr",
                                     detail="bad evidence bits")
        # one bit per link of the sender, keyed canonically; no report of
        # round r has arrived yet, so none was checked without them
        if not (_canonical_keys(xr, j, n)
                and only_bits(tuple(xr.values()))):
            raise InconsistencyError("envelope", "xr-bit",
                                     detail="bad evidence bit")
        state.heard_bits[(j, r)] = xr
    if r == 1:
        q, b = msg.get("q"), msg.get("b")
        _require(type(q) is int and 0 <= q < p
                 and type(b) is int and 0 <= b < p, "shares", "bad shares")
        state.shares.setdefault(j, {})[state.id] = (q, b)
    elif r == t + 3:
        shares = msg.get("shares")
        _require(isinstance(shares, dict), "forwarded",
                 "missing forwarded shares")
        for gen, pair in shares.items():
            _require(type(gen) is int and 1 <= gen <= n and gen != state.id
                     and type(pair) is tuple and len(pair) == 2
                     and type(pair[0]) is int and 0 <= pair[0] < p
                     and type(pair[1]) is int and 0 <= pair[1] < p,
                     "forwarded-share", "bad forwarded share")
            state.shares.setdefault(gen, {})[j] = pair
    elif r == t + 4:
        cons = msg.get("consensus")
        _require(isinstance(cons, frozenset), "consensus", "bad consensus set")
        state.consensus |= cons


def receive_phase(state: AgentState, r: int, inbox: dict):
    """Take round-r messages; punish silence, give up on malformed input."""
    if state.decision is not UNDECIDED:
        return
    state.pending_ns = {}
    for j in peers(state.id, state.n):
        if j in state.lost:
            continue
        msg = inbox.get(j)
        if msg is None:
            state.lost[j] = r
            continue
        try:
            _ingest(state, j, r, msg)
        except InconsistencyError as exc:
            state.decision = BOT
            # the traceback's frames reach state: a reference cycle
            state.last_error = exc.with_traceback(None)
            return
    if len(state.lost) > state.t:
        state.decision = NO_DECISION


def _finalize(state: AgentState):
    """End of round t+3: settle the history, elect, fill the consensus set.

    Raises InconsistencyError on a history without a decision round and on
    shares that lie on no common line.
    """
    timeline = decision_mod.status_timeline(
        last_update(state.ns, state.hs, state.t + 3), state.n, state.t)
    m_star = decision_mod.decision_round(timeline)
    d_set = decision_mod.decision_set(timeline, m_star, state.n)
    state.m_star, state.d_set = m_star, d_set
    values, proposals = {}, {}
    for a in d_set:
        if a == state.id:
            values[a], proposals[a] = state.value, state.proposal
            continue
        pts = state.shares.get(a, {})
        if len(pts) < 2:
            return  # not enough shares: leave consensus empty
        values[a] = reconstruct([(pt, q) for pt, (q, _) in pts.items()],
                                state.p)
        proposals[a] = reconstruct([(pt, b) for pt, (_, b) in pts.items()],
                                   state.p)
    elected = decision_mod.elect(d_set, values, proposals)
    state.elected = elected
    state.consensus.add(elected)


def compute_phase(state: AgentState, r: int, checked):
    """Any inconsistency found in this round's work ends in punishment.

    checked is the round's RoundMemo that verify_and_update shares
    between receivers."""
    if state.decision is not UNDECIDED:
        return
    t = state.t
    try:
        if r <= t + 3:
            verify_and_update(state, state.pending_ns, r, checked)
            state.pending_ns = {}
            if r <= t + 2:
                _gen_randoms(state, r + 1)
            else:
                _finalize(state)
        elif len(state.consensus) == 1:
            state.decision = value_decision(next(iter(state.consensus)))
        else:
            raise InconsistencyError(
                "consensus", "conflict" if state.consensus else "empty",
                detail=f"consensus set holds {len(state.consensus)} values")
    except InconsistencyError as exc:
        state.decision = BOT
        state.last_error = exc.with_traceback(None)   # as in receive_phase
