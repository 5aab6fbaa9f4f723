"""Unilateral deviations for the equilibrium experiments.

Each deviation wraps one agent with hooks the simulator calls around the
normal phases. Deviations never touch other agents or the environment, so
a paired honest/deviant comparison isolates exactly the strategy change.

Types:
  1  inconsistent shares of a fake value to a subset of peers
  2  non-reconstructible garbage shares
  3  derandomized proposal, message randoms and evidence bits (all zero)
  4  structurally malformed messages from a chosen round
  5  ignore t+1 peers and keep running, optionally faking their link
     states with uniformly guessed message randoms
  6  lie about one link state (eight selectable sub-cases)
  7  alter the random carried by a relayed correct-report
  8  corrupt forwarded shares in the reconstruction round
  9  send a wrong consensus set in the final round
  10 fall silent from a chosen round (pretend crash)
"""

from __future__ import annotations

import random
from itertools import combinations

from .agent import UNDECIDED, NO_DECISION, build_message
from .links import R, X, all_links, link_of, own_vector, peers
from .sharing import make_polynomial, share_for


class Deviation:
    """Base: an honest agent in disguise. Subclasses override hooks.

    `defaults` declares each parameter a type takes and its default; each
    becomes an attribute. A `round` must lie in rounds(t).
    """

    type_id = 0
    defaults: dict = {}

    def __init__(self, agent: int = 1, seed: int = 0, **params):
        self.agent = agent
        self.params = params
        for name, default in self.defaults.items():
            setattr(self, name, params.get(name, default))
        self.rng = random.Random(f"deviation:{self.type_id}:{agent}:{seed}")
        self.applied = False
        self.guesses = {}       # (peer, round) -> guessed random
        self.n = self.t = self.domain_size = None

    def bind(self, n: int, t: int, domain_size: int):
        """Fix the run's parameters; reject parameters the run cannot use."""
        for name, value in self.params.items():
            default = self.defaults.get(name)
            if name not in self.defaults or (
                    default is not None and type(value) is not type(default)):
                raise ValueError(f"deviation type {self.type_id} takes no "
                                 f"{name}={value!r}")
        rounds = self.rounds(t)
        if "round" in self.defaults and self.round not in rounds:
            none = f" (none at t={t})" if not rounds else ""
            raise ValueError(f"deviation round must be in {rounds.start}.."
                             f"{rounds.stop - 1}{none}, got {self.round}")
        if "case" in self.defaults and not 1 <= self.case <= 8:
            raise ValueError(f"lie sub-case must be in 1..8, got {self.case}")
        if self.params.get("targets") is not None and (
                not isinstance(self.targets, (list, tuple)) or not self.targets
                or any(type(j) is not int or not 1 <= j <= n or j == self.agent
                       for j in self.targets)
                or len(set(self.targets)) != len(self.targets)):
            raise ValueError(f"deviation targets must be a non-empty list of "
                             f"distinct agents in 1..{n} but {self.agent}, "
                             f"got {self.targets!r}")
        self.n, self.t, self.domain_size = n, t, domain_size

    def rounds(self, t: int) -> range:
        """The rounds a `round` parameter may name at t."""
        return range(1, t + 5)

    def describe(self) -> str:
        extra = f" {self.params}" if self.params else ""
        return f"type{self.type_id}{extra}"

    def after_init(self, st):
        pass

    def mutate_outgoing(self, st, r: int, msgs: dict) -> dict:
        return msgs

    def filter_inbox(self, st, r: int, inbox: dict) -> dict:
        return inbox

    def after_receive(self, st, r: int):
        pass

    def after_compute(self, st, r: int):
        pass

    def _targets(self, default):
        return default if self.targets is None else self.targets


class FakeValueShares(Deviation):
    """Round 1: a subset of peers gets shares of a different value."""

    type_id = 1
    defaults = {"targets": None}

    def mutate_outgoing(self, st, r, msgs):
        if r != 1:
            return msgs
        fake = (st.value + 1) % self.domain_size
        poly = make_polynomial(fake, self.rng, st.p)
        recipients = sorted(msgs)
        for j in self._targets(recipients[:len(recipients) // 2]):
            if j in msgs:
                msgs[j]["q"] = share_for(poly, j)
                self.applied = True
        return msgs


class GarbageShares(Deviation):
    """Round 1: shares that lie on no single line."""

    type_id = 2
    defaults = {"targets": None}

    def mutate_outgoing(self, st, r, msgs):
        if r != 1:
            return msgs
        for j in self._targets(sorted(msgs)):
            if j in msgs:
                msgs[j]["q"] = (msgs[j]["q"] + 1 + j) % st.p
                self.applied = True
        return msgs


class Derandomized(Deviation):
    """All 'random' choices pinned to zero; messages stay well-formed."""

    type_id = 3

    def _zero_round(self, st, r):
        st.randoms[(st.id, r)] = 0
        for bits in st.own_bits[r].values():
            for link in bits:
                bits[link] = 0

    def after_init(self, st):
        st.proposal = 0
        st.b_poly = make_polynomial(0, self.rng, st.p)
        q_at = st.shares[st.id][st.id][0]
        st.shares[st.id][st.id] = (q_at, share_for(st.b_poly, st.id))
        self._zero_round(st, 1)
        self.applied = True

    def after_compute(self, st, r):
        if st.decision is UNDECIDED and (st.id, r + 1) in st.randoms:
            self._zero_round(st, r + 1)


class MalformedMessages(Deviation):
    """From round m, targeted peers receive structural garbage."""

    type_id = 4
    defaults = {"round": 2, "targets": None}

    def mutate_outgoing(self, st, r, msgs):
        if r < self.round:
            return msgs
        for j in self._targets(sorted(msgs)):
            if j in msgs:
                msgs[j] = {"sender": st.id, "round": r, "kind": "garbage"}
                self.applied = True
        return msgs


class IgnorePeers(Deviation):
    """Drop t+1 inboxes, override the give-up rule, keep participating.

    With guessing enabled the deviant also rewrites the dropped links in
    its outgoing table to look correct, which requires inventing the
    dropped peers' message randoms; every invented random is recorded so
    the hit rate can be compared against uniform chance.
    """

    type_id = 5
    defaults = {"round": 2, "guess": True}
    dropped = None

    def _guess(self, peer, round_):
        key = (peer, round_)
        if key not in self.guesses:
            self.guesses[key] = self.rng.randrange(self.n)
        return self.guesses[key]

    def filter_inbox(self, st, r, inbox):
        if r < self.round:
            return inbox
        if self.dropped is None:
            candidates = [j for j in peers(st.id, self.n) if j not in st.lost]
            self.dropped = set(candidates[:self.t + 1])
            self.applied = True
        return {j: msg for j, msg in inbox.items() if j not in self.dropped}

    def after_receive(self, st, r):
        if st.decision == NO_DECISION:
            st.decision = UNDECIDED

    def mutate_outgoing(self, st, r, msgs):
        # The give-up rule would have silenced us towards lost peers; a
        # deviant bent on staying in the game keeps sending to everyone.
        if st.decision is not UNDECIDED:
            return msgs
        table = dict(st.ns)
        for q in sorted(st.lost):
            msgs[q] = build_message(st, r, q, table)
        return msgs

    def after_compute(self, st, r):
        if not self.guess:
            return
        if st.decision is not UNDECIDED or self.dropped is None or r > self.t + 2:
            return
        dropped = sorted(self.dropped)
        for q in dropped:
            link = link_of(st.id, q)
            st.ns[link] = ((R, r, st.id, self._guess(q, r)), None)
        if r >= 2:
            for qa, qb in combinations(dropped, 2):
                st.ns[(qa, qb)] = (
                    (R, r - 1, qa, self._guess(qb, r - 1)), (qa, r))


def _fabricate_bits(st, rng, reporter, round_, link, n):
    """An evidence vector for another agent's report that matches whatever
    bits we genuinely know: the vector that passed our check, else random
    bits but the one reporter sent us. One draw per recipient either way."""
    guess = [rng.randrange(2) for _ in range(n - 1)]
    heard = st.heard_bits.get((reporter, round_))
    if heard is not None:
        guess[peers(reporter, n).index(st.id)] = heard[link]
    return st.xrandoms.get((reporter, round_, link), tuple(guess))


class LinkStateLie(Deviation):
    """One-shot lie about a single link state in the outgoing table.

    Sub-cases: 1 own correct link reported faulty; 2 own faulty link
    reported correct; 3 foreign correct link reported faulty; 4 foreign
    faulty link reported correct; 5 own link omitted; 6 foreign link
    omitted; 7 foreign failure round lowered; 8 evidence bits altered.
    """

    type_id = 6
    defaults = {"round": 3, "case": 1}
    # Per sub-case: the first round its lie can act in, whether the link it
    # lies about is its own (direct), and the report kinds it looks for, in
    # order. The round-1 table is empty, an own link's report reaches the
    # table for round 2 and a foreign link's one relay hop later, for round
    # 3; sub-case 7 lowers a foreign failure round of at least 2, so it
    # needs round 4.
    cases = {1: (2, True, (R,)), 2: (2, True, (X,)), 3: (3, False, (R,)),
             4: (3, False, (X,)), 5: (2, True, (R, X)), 6: (3, False, (R, X)),
             7: (4, False, (X,)), 8: (2, True, (X,))}

    def rounds(self, t):
        # round t+4 messages carry no table; a case outside 1..8 is
        # rejected by bind
        return range(self.cases.get(self.case, (1,))[0], t + 4)

    def mutate_outgoing(self, st, r, msgs):
        if r != self.round or not msgs:
            return msgs
        lie = self._build_lie(st, r)
        if lie is None:
            return msgs
        link, entry = lie
        self.applied = True
        ns = dict(st.ns)     # the shipped table is shared: edit a copy
        if entry is None:
            ns.pop(link, None)
        else:
            ns[link] = entry
        for msg in msgs.values():
            msg["ns"] = ns
        return msgs

    def _pick(self, st, want_direct, want_kind):
        i = st.id
        for link in all_links(self.n):
            if (i in link) != want_direct:
                continue
            entry = st.ns.get(link)
            if entry is not None and entry[0][0] == want_kind:
                return link, entry
        return None

    def _build_lie(self, st, r):
        i, n, case = st.id, self.n, self.case
        _, direct, kinds = self.cases[case]
        pick = next(filter(None, (self._pick(st, direct, kind)
                                  for kind in kinds)), None)
        if pick is None:
            return None
        link, (ta, tb) = pick
        if case == 1:
            ro = r - 2 if r >= 3 else r - 1
            return link, ((X, ro, i, own_vector(st.own_bits[ro], link)), None)
        if case == 2:
            return link, ((R, r - 1, i, self.rng.randrange(n)), None)
        if case == 3:
            ro, z = ta[1], link[0]
            bits = _fabricate_bits(st, self.rng, z, ro, link, n)
            return link, ((X, ro, z, bits), (z, min(ro + 1, r - 1)))
        if case == 4:
            ro, z = ta[1], link[0]
            return link, ((R, ro, z, self.rng.randrange(n)), (z, ro + 1))
        if case in (5, 6):
            return link, None
        if case == 7:
            if ta[1] < 2:
                return None
            bits = _fabricate_bits(st, self.rng, ta[2], ta[1] - 1, link, n)
            return link, ((X, ta[1] - 1, ta[2], bits), tb)
        bits = list(ta[3])      # case 8
        bits[0] ^= 1
        return link, ((X, ta[1], ta[2], tuple(bits)), tb)


class WrongRandomRelay(LinkStateLie):
    """Alter the random inside one relayed correct-report."""

    type_id = 7
    defaults = {"round": 3}

    def rounds(self, t):
        # a foreign correct-report arrives one relay hop late
        return range(3, t + 4)

    def _build_lie(self, st, r):
        pick = self._pick(st, False, R)
        if pick is None:
            return None
        link, (ta, tb) = pick
        return link, ((R, ta[1], ta[2], (ta[3] + 1) % self.n), tb)


class CorruptShareRelay(Deviation):
    """Reconstruction round: one forwarded share is shifted off the line."""

    type_id = 8
    defaults = {"targets": None}

    def mutate_outgoing(self, st, r, msgs):
        if r != self.t + 3:
            return msgs
        for j in self._targets(sorted(msgs)):
            if j not in msgs:
                continue
            # never empty: the deviant always holds its own share
            shares = dict(msgs[j]["shares"])
            gen = min(shares)
            q, b = shares[gen]
            shares[gen] = ((q + 1) % st.p, b)
            msgs[j]["shares"] = shares
            self.applied = True
        return msgs


class WrongConsensus(Deviation):
    """Final round: announce a consensus set nobody computed."""

    type_id = 9

    def mutate_outgoing(self, st, r, msgs):
        if r != self.t + 4:
            return msgs
        if st.consensus:
            fake = (next(iter(st.consensus)) + 1) % self.domain_size
        else:
            fake = 0
        for j in msgs:
            msgs[j]["consensus"] = frozenset({fake})
        self.applied = bool(msgs)
        return msgs


class PretendCrash(Deviation):
    """Send nothing from round m on; keep listening."""

    type_id = 10
    defaults = {"round": 1}

    def mutate_outgoing(self, st, r, msgs):
        if r >= self.round:
            self.applied = True
            return {}
        return msgs


DEVIATION_TYPES = {cls.type_id: cls for cls in (
    FakeValueShares, GarbageShares, Derandomized, MalformedMessages,
    IgnorePeers, LinkStateLie, WrongRandomRelay, CorruptShareRelay,
    WrongConsensus, PretendCrash)}


def make_deviation(type_id: int, agent: int = 1, seed: int = 0, **params) -> Deviation:
    try:
        cls = DEVIATION_TYPES[type_id]
    except KeyError:
        raise ValueError(f"unknown deviation type {type_id}") from None
    return cls(agent=agent, seed=seed, **params)
