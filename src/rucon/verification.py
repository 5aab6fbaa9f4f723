"""Inconsistency detection and the merge of received link-state reports.

Each round, every agent cross-checks the link-state tables it receives
against what a legal relay history could have produced, then folds them
into its own tables. Anything that no honest execution can explain makes
the checking agent give up with the punishment decision; the error names
the rule that fired so the behaviour is testable rule by rule.

Rule identifiers, by the phase that checks them:

  phase 2, once per shipped table (check_format, verify_msg_chain):
    format/bad-state, format/bad-source
                           -- structural validity of a link key and report,
                              and of a report's source tag
    round/claim8           -- a report's reporter must be a link endpoint
    chain/claim1, chain/claim3..claim7
                           -- message-chain structure of a received table
                              (claim 2 is check_format's round bound)
    source/claim14         -- a report adopted from src last round needs the
                              sender's own link to src correct then
  phase 3, per receiver (verify_and_update's loop, for every entry):
    source/claim13         -- a tagged report we could have heard is in our HS
  phase 3, correct-link (R) reports (verify_and_update's loop):
    random/random-conflict -- a report's message random must match the one
                              registered for its round
    round/claim10          -- merge case 3, the round relation of a direct
                              link (claim 9 holds by construction)
    round/case8            -- merge case 8, the round relation of an
                              indirect link
  phase 3, faulty-link (X) reports (verify_state, merge_state):
    random/xrandom-mismatch
                           -- a report's evidence bits must equal the vector
                              that passed for its key, and at first sighting
                              the bits the checker knows
    round/claim11, round/claim12
                           -- round relations of direct-link merge cases
    round/case7, round/case9
                           -- round relations of indirect-link merge cases
    merge/case2            -- a faulty report for a link observed correct now
  phase 3, both kinds:
    round/hs-conflict      -- a reporter's second, different report for one
                              link round (links.append_hs)

errors.InconsistencyError lists the categories raised outside this module.

Every agent relays every link's latest report each round, so one value
reaches a receiver from many senders. RoundMemo and verify_and_update keep
the work near one check per value, with every outcome unchanged: phase 2
runs once per shipped table and re-checks a relayed entry object only for
its sender; an adopted entry is one object in the NS of every adopter; and
phase 3 skips an entry it has seen this round or that is its NS's own
object, which it verified and merged itself.
"""

from __future__ import annotations

from .errors import InconsistencyError
from .links import (R, X, all_links, append_hs, link_of, only_bits,
                    own_links, own_vector, peers)


def _knows_round(t_a, r: int) -> bool:
    """Whether a stored report pins down the link state at round r.

    A correct-link report covers every round up to its own; a faulty-link
    report covers all rounds, because it records the earliest failure round
    (correct before, faulty from then on).
    """
    if t_a is None:
        return False
    if t_a[0] == X:
        return True
    return t_a[1] >= r


def _require_exact(t_a, b: int, rule: str, link, unknown: str, stale: str):
    """A report that pins the link down through round b exactly: unknown
    only while b < 1, correct at round b, or failed by round b."""
    if t_a is None:
        if b >= 1:
            raise InconsistencyError("chain", rule, link, b, unknown)
    elif t_a[0] == R:
        if t_a[1] != b:
            raise InconsistencyError("chain", rule, link, t_a[1], stale)
    elif t_a[1] > b:
        raise InconsistencyError(
            "chain", rule, link, t_a[1],
            "failure round beyond what relays could carry")


def verify_msg_chain(n: int, t: int, r: int, sender: int, table: dict):
    """Check sender's table, received in round r, against the legal relay
    histories (claims 1, 3-7 and 14; check_format bounds claim 2).

    The sender's connectivity partition (still-connected vs disconnected
    peers) is reconstructed from the table's own direct-link entries, then
    every indirect entry's round number is checked against what relays
    through that partition could have carried.
    """
    m = r - 1
    if m == 0:
        # check_format admits no report in round 1, so the table is empty
        return

    get = table.get
    connected: set = set()
    x_round: dict = {}   # disconnected peer -> earliest failure round of the direct link
    for p, link in zip(peers(sender, n), own_links(sender, n)):
        entry = get(link)
        if entry is None:
            raise InconsistencyError(
                "chain", "claim1", link, m, "direct-link state unknown")
        t_a = entry[0]
        if t_a[0] == R:
            if t_a[1] < m:
                raise InconsistencyError(
                    "chain", "claim1", link, m, "direct-link round-m state unknown")
            connected.add(p)
        else:
            x_round[p] = t_a[1]
    if len(connected) < n - t - 1:
        raise InconsistencyError(
            "chain", "claim1", None, m,
            f"only {len(connected)} correct direct links, need {n - t - 1}")

    for link in all_links(n):
        if sender in link:
            continue
        k, p = link
        entry = get(link)
        t_a = entry[0] if entry is not None else None
        k_conn = k in connected
        p_conn = p in connected
        if k_conn or p_conn:
            # Claim 5: known at m-1, unknown from m on. A correct report of
            # round m-1 is the common case, and the one that passes.
            if t_a is None or t_a[0] != R or t_a[1] != m - 1:
                _require_exact(
                    t_a, m - 1, "claim5", link,
                    "link of a connected agent unknown at the previous round",
                    "connected-agent link must be reported for the previous round")
            if k_conn == p_conn or t_a is None:
                continue
            # The disconnected end's links to the other disconnected
            # peers. Claim 6: it was alive at m-1, so they must be known
            # through m-2 and no further. Claim 7: the link failed at m',
            # and the end was reachable until then, so they must be known
            # through m'-2.
            dis_end = p if k_conn else k
            m_prime = t_a[1]
            for q in x_round:
                if q == dis_end:
                    continue
                l2 = link_of(dis_end, q)
                e2 = get(l2)
                t2 = e2[0] if e2 is not None else None
                if t_a[0] == R:
                    _require_exact(
                        t2, m - 2, "claim6", l2,
                        "link of a recently alive agent unknown",
                        "round must be exactly two behind")
                elif m_prime - 2 >= 1 and not _knows_round(t2, m_prime - 2):
                    raise InconsistencyError(
                        "chain", "claim7", l2, m_prime - 2,
                        "state implied reachable is unknown")
        else:
            # Both endpoints disconnected.
            if t_a is not None and t_a[1] > m - 2:
                raise InconsistencyError(
                    "chain", "claim3", link, t_a[1],
                    "state of a doubly disconnected pair too recent")
            m1 = max(x_round[k], x_round[p])
            if m1 - 2 >= 1 and not _knows_round(t_a, m1 - 2):
                raise InconsistencyError(
                    "chain", "claim4", link, m1 - 2,
                    "state reachable before both disconnections is unknown")

    # Claim 14: a report adopted from src at round m needs the sender's own
    # link to src correct at m. Claim 1 made every correct direct entry
    # round m, so that link is correct exactly when src is connected.
    for link, (_, t_b) in table.items():
        if t_b is not None and t_b[1] == m and t_b[0] not in connected:
            raise InconsistencyError(
                "source", "claim14", link, m,
                f"sender adopted from {t_b[0]} at round {m} without a correct link")


def check_format(n: int, r: int, sender: int, link, recv):
    """Structural validity of one entry (link key and report) of sender's
    table received in round r, and that its reporter is a link endpoint
    (claim 8); runs before any other check dereferences the entry."""
    if (type(link) is not tuple or len(link) != 2
            or type(link[0]) is not int or type(link[1]) is not int
            or not 1 <= link[0] < link[1] <= n
            or type(recv) is not tuple or len(recv) != 2):
        raise InconsistencyError("format", "bad-state", None, None,
                                 f"malformed link key {link!r}")
    t_a, t_b = recv
    ok = (
        type(t_a) is tuple and len(t_a) == 4
        and (t_a[0] == R or t_a[0] == X)
        and type(t_a[1]) is int and 1 <= t_a[1] < r
        and type(t_a[2]) is int and 1 <= t_a[2] <= n
    )
    if ok:
        if t_a[0] == R:
            ok = type(t_a[3]) is int and 0 <= t_a[3] < n
        else:
            bits = t_a[3]
            ok = (type(bits) is tuple and len(bits) == n - 1
                  and only_bits(bits))
    if not ok:
        raise InconsistencyError("format", "bad-state", link, None,
                                 f"malformed report {t_a!r}")
    if t_b is None:
        # A self-observed state: only on the sender's own links, by itself.
        if sender not in link or t_a[2] != sender:
            raise InconsistencyError(
                "format", "bad-source", link, t_a[1],
                "self-observed tag on a foreign link")
    else:
        ok = (type(t_b) is tuple and len(t_b) == 2
              and type(t_b[0]) is int and 1 <= t_b[0] <= n
              and t_b[0] != sender
              and type(t_b[1]) is int and 1 <= t_b[1] <= r - 1
              and t_a[1] < t_b[1])
        if not ok:
            raise InconsistencyError("format", "bad-source", link, t_a[1],
                                     f"malformed source tag {t_b!r}")
    if t_a[2] != link[0] and t_a[2] != link[1]:
        raise InconsistencyError(
            "round", "claim8", link, t_a[1],
            f"reporter {t_a[2]} is not an endpoint")


def verify_state(state, link, recv):
    """The evidence-bit check for one faulty-link (X) entry against the
    checking agent's own state; phase 2 has passed the entry's table and
    verify_and_update has checked its source (claim 13).

    A faulty-link report carries its reporter's evidence bits of its round,
    one per recipient ascending. They must equal the vector that passed for
    its (reporter, round, link), if any; at its first sighting, they must
    agree with the bits the agent knows itself. What passes is registered.
    """
    kind, m, reporter, payload = recv[0]
    key = (reporter, m, link)
    known = state.xrandoms.get(key)
    if known is None:
        # First sighting: the agent knows its own vector when it is the
        # reporter, else at most the one bit the reporter sent it.
        known = payload
        if reporter == state.id and m in state.own_bits:
            known = own_vector(state.own_bits[m], link)
        elif (reporter, m) in state.heard_bits:
            k = peers(reporter, state.n).index(state.id)
            known = (payload[:k] + (state.heard_bits[(reporter, m)][link],)
                     + payload[k + 1:])
    if known != payload:    # name the first recipient whose bit differs
        w = next(w for w, a, b in zip(peers(reporter, state.n), known,
                                      payload) if a != b)
        raise InconsistencyError(
            "random", "xrandom-mismatch", link, m,
            f"evidence bit for recipient {w} is wrong")
    state.xrandoms[key] = payload


def merge_state(state, link, recv, adopted):
    """Fold one verified faulty-link (X) entry of a received table into the
    checking agent's tables: the X rows of the 11-case merge table.
    verify_and_update merges correct-link reports itself (cases 1, 3, 6, 8
    and their case 11). adopted is the entry as NS stores it when the
    report is adopted: the report tagged with its sender and round, one
    object per shipped table entry (RoundMemo.check).

    Each case first checks the round relations it rests on (claims 11 and
    12 on direct links, cases 7 and 9 on indirect ones), then merges. Case
    10 (received unknown) never reaches here: the caller handles an absent
    entry. Case 2, a faulty report for a direct link we observed correct
    this very round, is always an inconsistency.
    """
    t_a, _ = recv
    ns, hs, i = state.ns, state.hs, state.id
    local = ns.get(link)
    if local is None:                            # Case 11
        ns[link] = adopted
        append_hs(hs, link, t_a)
        return
    lta = local[0]
    lr, li = lta[1], lta[2]
    rr, ri = t_a[1], t_a[2]
    if link[0] == i or link[1] == i:
        if lta[0] == R:                          # Case 2
            raise InconsistencyError(
                "merge", "case2", link, rr,
                "faulty report for a link observed correct this round")
        elif li == i:                            # Case 4: our own detection
            if ri == i:
                if t_a != lta:
                    raise InconsistencyError(
                        "round", "claim11", link, rr,
                        "our own report came back altered")
            elif abs(lr - rr) > 1:
                raise InconsistencyError(
                    "round", "claim11", link, rr,
                    "endpoint failure rounds differ by more than one")
            if rr == lr - 1:
                ns[link] = adopted
            append_hs(hs, link, t_a)
        else:                                    # Case 5: the partner's detection
            partner = link[0] if link[1] == i else link[1]
            if ri == partner:
                if t_a != lta:
                    raise InconsistencyError(
                        "round", "claim12", link, rr,
                        "partner's report came back altered")
            elif rr != lr + 1:
                raise InconsistencyError(
                    "round", "claim12", link, rr,
                    "our detection must trail the partner's by one round")
    else:
        if lta[0] == R:                          # Case 7
            if (ri == li and lr >= rr) or (ri != li and lr > rr):
                raise InconsistencyError(
                    "round", "case7", link, rr,
                    "failure round contradicts a correct-report we hold")
            ns[link] = adopted
            append_hs(hs, link, t_a)
        elif ri == li:                           # Case 9, same reporter
            if t_a != lta:
                raise InconsistencyError(
                    "round", "case9", link, rr,
                    "same reporter, different failure report")
        else:                                    # Case 9, other endpoint
            if abs(lr - rr) > 1:
                raise InconsistencyError(
                    "round", "case9", link, rr,
                    "endpoint failure rounds differ by more than one")
            if lr > rr:
                ns[link] = adopted
            append_hs(hs, link, t_a)


class RoundMemo:
    """What round r's receivers share about the tables shipped to them.

    tables maps (sender, id(table)) to (table, None or the first phase-2
    error, plan). Phase 2 holds every check that reads only the table, so
    each one runs once per shipped table per round. The entry holds the
    table, so the id cannot be reused within the round.

    A table that passed phase 2 has a plan: its entries as (link, recv,
    uid, adopted, hs_key, rand_key) in sorted(table.items()) order. The
    plan walks all_links(n), which is in that order, and looks each link
    up: the format sweep admitted only plain tuple keys of two ints
    1 <= a < b <= n, so the table's keys are distinct members of
    all_links(n), and the walk meets each of them once, with no sort.
    adopted is (report, (sender, r)), the entry that phase 3 stores in NS
    when it adopts the report. It is built once per table entry, so every
    receiver that adopts it holds the same object, and next round each of
    them ships that one object on.

    ids interns each distinct (link, recv) value once per round as (uid,
    hs_key, rand_key). uid is a small int, so equal entries of different
    tables share one uid and distinct ones never do. The keys are the two
    that phase 3 reads for a correct-link (R) report: hs_key, (link, m),
    its HS round, and rand_key, (other endpoint, m), the message random it
    carries. A faulty-link (X) report has None for both. So each key is
    built once per distinct entry per round, however many tables ship the
    entry and receivers process it.

    passed holds, per link, the last tagged entry object that passed
    check_format this round. check_format reads the sender only to test
    that a tag does not name it, so when a later table ships that same
    object at an int-typed key of that link, only that test runs again.
    The key test matters: (True, 3) and (3.0, 4) compare and hash equal to
    links. An own entry (no tag) always gets the full check.
    """

    def __init__(self):
        self.tables = {}
        self.ids = {}
        self.passed = {}

    def check(self, n: int, t: int, r: int, sender: int, table: dict) -> list:
        """Phase 2 for sender's table, received in round r: its plan, from
        the first receiver that checked it. Raises that receiver's
        InconsistencyError, a fresh one with the same fields on a hit. The
        memo keeps a copy without the traceback, so it holds no frame and
        no reference cycle (simulator.run pauses the collector)."""
        key = (sender, id(table))
        entry = self.tables.get(key)
        if entry is None:
            passed = self.passed
            try:
                # the structural sweep runs first, so the chain checks never
                # dereference a malformed report
                for link, recv in table.items():
                    if (passed.get(link, _UNSEEN) is recv
                            and type(link) is tuple and type(link[0]) is int
                            and type(link[1]) is int
                            and recv[1][0] != sender):
                        continue
                    check_format(n, r, sender, link, recv)
                    if recv[1] is not None:
                        passed[link] = recv
                verify_msg_chain(n, t, r, sender, table)
            except InconsistencyError as exc:
                # a copy without the traceback, whose frames reach this memo
                self.tables[key] = (table, InconsistencyError(
                    exc.category, exc.rule, exc.link, exc.round, exc.detail),
                    None)
                raise
            entry = self.tables[key] = (table, None,
                                        self.plan(n, r, sender, table))
        err = entry[1]
        if err is not None:
            raise InconsistencyError(err.category, err.rule, err.link,
                                     err.round, err.detail)
        return entry[2]

    def plan(self, n: int, r: int, sender: int, table: dict) -> list:
        """The plan of sender's table, received in round r, which phase 2
        has passed: its entries in link order with their uids, adopted
        entries and keys."""
        ids, tag = self.ids, (sender, r)
        get, plan = table.get, []
        for link in all_links(n):
            recv = get(link)
            if recv is not None:
                value = (link, recv)
                known = ids.get(value)
                if known is None:
                    t_a = recv[0]
                    if t_a[0] == R:
                        m = t_a[1]
                        other = link[0] if link[1] == t_a[2] else link[1]
                        known = (len(ids), (link, m), (other, m))
                    else:
                        known = (len(ids), None, None)
                    ids[value] = known
                plan.append((link, recv, known[0], (recv[0], tag), known[1],
                             known[2]))
        return plan


_UNSEEN = object()   # no table entry is this object


def verify_and_update(state, received: dict, r: int, checked):
    """One round of the full verify-and-update pass for one agent.

    state is the checking agent's AgentState; received maps each heard
    sender to its table; r is the current round. Mutates state.ns,
    state.hs and the registries in place; raises InconsistencyError on any
    violation.

    Phase 2 (check_format and verify_msg_chain) holds every check that
    reads only the shipped table. It takes n, t, r, the sender and its
    table, no receiver state, so every recipient of one shipped table gets
    the same outcome. So does phase 3's plan: a table's sort order, the
    value equality of its entries and an entry's keys read only the table.
    checked is the RoundMemo that the Execution builds for round r and all
    its receivers share: each shipped table is checked and planned once.

    Phase 3 reads only the checking agent's own state and the entry, and
    writes that state. Its loop states claim 13 for every entry, and for a
    correct-link (R) report, nearly all of them, everything else: the
    random check, the merge table's R rows and the HS append, on the keys
    in the plan. A faulty-link (X) report goes to verify_state and
    merge_state.
    """
    n, t, i = state.n, state.t, state.id
    ns, hs, lost = state.ns, state.hs, state.lost
    randoms, own_bits = state.randoms, state.own_bits[r]

    # Phase 1: this round's direct-link detections.
    for j, link in zip(peers(i, n), own_links(i, n)):
        if j in received:
            t_a = (R, r, i, randoms[(j, r)])
        else:
            entry = ns.get(link)
            if entry is not None and entry[0][0] == X:
                continue  # earliest failure round already recorded
            t_a = (X, r, i, own_vector(own_bits, link))
        ns[link] = (t_a, None)
        append_hs(hs, link, t_a)

    # Phase 2: message-chain verification per sender, once per shipped
    # table.
    plans = [checked.check(n, t, r, j, received[j]) for j in sorted(received)]

    # Phase 3: per-link verify and merge, senders ascending and each table
    # in link order. Two skips, both exact:
    # - An entry equal in every field to one already processed this round
    #   (same uid): its checks (claim 13, the randoms) passed at its first
    #   occurrence, and merging it again would change no table. The merge
    #   does check a skipped entry's round relations only against the local
    #   entry as it stood at the first occurrence.
    # - An entry that is the very object NS holds at its link: an adoption
    #   this agent verified and merged itself in an earlier round, relayed
    #   back by a peer that adopted it from the same table. Its report is
    #   in our HS and its random or evidence bits are registered, so the
    #   checks would pass and register nothing. Merging an entry with
    #   itself is case 5, 6 or 9 (a direct link holds an adoption only
    #   after a failure), none of which writes. The test is on the whole
    #   entry, not the report: a deviation can write a report into NS
    #   without adding it to HS, and peers relay that report object back
    #   under their own tags, which claim 13 must still check.
    seen = [False] * len(checked.ids)     # by uid: processed this round
    for plan in plans:
        for link, recv, uid, adopted, hs_key, rand_key in plan:
            if seen[uid]:
                continue
            seen[uid] = True
            local = ns.get(link)
            if recv is local:
                continue
            t_a, t_b = recv
            # Claim 13: if we heard src in that round too (or the tag names
            # us), the report must already sit in our own history. lost
            # holds the first round we did not hear each lost peer.
            if t_b is not None and (t_b[0] == i
                                    or lost.get(t_b[0], r) > t_b[1]):
                if t_a not in hs.get((link, t_a[1]), ()):
                    raise InconsistencyError(
                        "source", "claim13", link, t_a[1],
                        f"report tagged from {t_b[0]} round {t_b[1]} is not "
                        "in local history")
            if rand_key is None:
                verify_state(state, link, recv)
                merge_state(state, link, recv, adopted)
                continue
            # An R report carries the other endpoint's message random of
            # its round, which must equal the one registered for that
            # (agent, round), if any; what passes is registered.
            rand = t_a[3]
            known = randoms.setdefault(rand_key, rand)
            if known != rand:
                raise InconsistencyError(
                    "random", "random-conflict", None, rand_key[1],
                    f"agent {rand_key[0]} round {rand_key[1]}: {rand} vs "
                    f"registered {known}")
            # The merge table's R rows. Each ends in the HS append.
            if local is not None:
                lta = local[0]
                if link[0] == i or link[1] == i:
                    # Case 1 (we hold our own R) appends only, and needs no
                    # check: claim 9 (a relayed correct report is older than
                    # ours) holds, as phase 1 writes a round-r report on
                    # every heard direct link, no case writes a correct
                    # report there, and check_format admits only older
                    # reports.
                    if lta[0] == X and t_a[1] > lta[1]:      # Case 3
                        raise InconsistencyError(
                            "round", "claim10", link, t_a[1],
                            "correct-report newer than the known failure "
                            "round")
                elif lta[0] == R:                            # Case 6
                    if t_a[1] > lta[1]:
                        ns[link] = adopted
                else:                                        # Case 8
                    rr, ri, lr, li = t_a[1], t_a[2], lta[1], lta[2]
                    if (ri == li and lr <= rr) or (ri != li and lr < rr):
                        raise InconsistencyError(
                            "round", "case8", link, rr,
                            "correct-report contradicts a failure round we "
                            "hold")
            else:                                            # Case 11
                ns[link] = adopted
            # The HS append, inline for a new (link, round), for the other
            # endpoint's report after one, and for a report already held,
            # on which append_hs would change nothing; it takes the rest.
            reports = hs.get(hs_key)
            if reports is None:
                hs[hs_key] = (t_a,)
            elif len(reports) == 1 and reports[0][2] != t_a[2]:
                hs[hs_key] = reports + (t_a,)
            elif t_a not in reports:
                append_hs(hs, link, t_a)
