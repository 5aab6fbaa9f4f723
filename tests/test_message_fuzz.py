"""One-field message fuzz: a corrupted message is punished, never a crash.

A test-only deviation makes agent 1 change one field of its round-r
message to one peer: the envelope, the message random, a link-state table
key, a report's parts, a source tag, an evidence bit, a round-1 share, a
forwarded share or the consensus set. Whatever the change, the run must
finish, and every honest agent that decides bottom must name the rule
that caught it. Evidence-bit corruptions also have a per-variant
expectation: which rule punishes the targeted peer, or that nothing can.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from rucon.deviations import EditMessages
from rucon.errors import InconsistencyError
from rucon.links import R, X
from rucon.simulator import Execution, FailurePattern, RunConfig

def _entry(table, pick):
    """One (link, entry) of a non-empty table, in link order."""
    return sorted(table.items())[pick % len(table)]


def _mutate_entry(entry, variant, n):
    t_a, t_b = entry
    kind, round_, reporter, payload = t_a
    if kind == R:
        payloads = [(payload + 1) % n, n, -1, "0", (0,) * (n - 1)]
    else:
        payloads = [(payload[0] ^ 1,) + payload[1:], payload[:-1],
                    (2,) + payload[1:], list(payload), 0]
    reports = [
        *((kind, round_, reporter, p) for p in payloads),
        (X if kind == R else R, round_, reporter, payload),
        ("Z", round_, reporter, payload),
        (kind, round_ + 1, reporter, payload),
        (kind, round_ - 1, reporter, payload),
        (kind, 0, reporter, payload),
        (kind, str(round_), reporter, payload),
        (kind, round_, reporter % n + 1, payload),
        (kind, round_, n + 1, payload),
        (kind, round_, reporter),
        [kind, round_, reporter, payload],
    ]
    options = [(t_a_, t_b) for t_a_ in reports] + [
        (t_a,), (t_a, t_b, None), "entry", None]
    return options[variant % len(options)]


def _mutate_source(t_b, variant, r, n):
    if t_b is None:
        options = [(1, r - 1), (2, 1), (1, "1"), (1,)]
    else:
        src, round_ = t_b
        options = [None, (src % n + 1, round_), (src, round_ + 1),
                   (src, round_ - 1), (src, str(round_)), (src,), "x"]
    return options[variant % len(options)]


def _mutate_ns(table, field, pick, variant, r, n):
    table = dict(table)      # the shipped table is shared: edit a copy
    link, entry = _entry(table, pick)
    if field == "ns-key":
        a, b = link
        others = [k for k in sorted(table) if k != link]
        keys = [(b, a), (a, a), (a, b, 1), "link", (0, a), (a, n + 1), None,
                *others[:1]]
        del table[link]
        k = variant % (len(keys) + 1)
        if k < len(keys):          # the last option drops the entry
            table[keys[k]] = entry
    elif field == "report":
        table[link] = _mutate_entry(entry, variant, n)
    else:
        table[link] = (entry[0], _mutate_source(entry[1], variant, r, n))
    return table


def _mutate_xr(xr, pick, variant):
    xr = dict(xr)
    link = sorted(xr)[pick % len(xr)]
    a, b = link
    k = variant % 9
    if k == 0:
        del xr[link]
    elif k == 1:
        xr[link] ^= 1
    elif k == 2:
        xr[link] = 2
    elif k == 3:
        xr[link] = "1"
    elif k == 4:
        xr[(b, a)] = xr.pop(link)
    elif k == 5:
        xr[(a, a)] = xr.pop(link)
    elif k == 6:
        xr[(a, b, 0)] = xr.pop(link)
    elif k == 7:
        xr[(True, b)] = xr.pop(link)    # the deviant is agent 1, so a == 1
    else:
        xr[(float(a), b)] = xr.pop(link)
    return xr


def _mutate_shares(shares, pick, variant, recipient, n, p):
    shares = dict(shares)
    gen = sorted(shares)[pick % len(shares)]
    q, b = shares[gen]
    k = variant % 10
    pairs = [(q,), (q, b, 0), (p, b), ((q + 1) % p, b), [q, b], (q, -1)]
    if k < len(pairs):
        shares[gen] = pairs[k]
    else:
        keys = [recipient, 0, str(gen), n + 1]
        shares[keys[k - len(pairs)]] = shares.pop(gen)
    return shares


def mutate(msg, field, pick, variant, recipient, n, p):
    """A copy of msg with one field changed."""
    msg = dict(msg)
    r = msg["round"]
    if field == "envelope":
        options = [("sender", msg["sender"] % n + 1), ("sender", "1"),
                   ("round", r + 1), ("round", r - 1), ("sender", None)]
        k = variant % (len(options) + 3)
        if k < len(options):
            key, value = options[k]
            if value is None:
                del msg[key]
            else:
                msg[key] = value
            return msg
        return ([msg], "garbage", {})[k - len(options)]
    if field == "rand":
        options = [n, -1, "0", 1.5, (msg["rand"] + 1) % n, None]
        value = options[variant % len(options)]
        if value is None:
            del msg["rand"]
        else:
            msg["rand"] = value
    elif field in ("ns-key", "report", "source"):
        msg["ns"] = _mutate_ns(msg["ns"], field, pick, variant, r, n)
    elif field == "xr":
        msg["xr"] = _mutate_xr(msg["xr"], pick, variant)
    elif field == "qb":
        key = ("q", "b")[pick % 2]
        options = [p, -1, (msg[key] + 1) % p, "q", None]
        value = options[variant % len(options)]
        if value is None:
            del msg[key]
        else:
            msg[key] = value
    elif field == "shares":
        msg["shares"] = _mutate_shares(msg["shares"], pick, variant,
                                       recipient, n, p)
    else:
        cons = msg["consensus"]
        v = min(cons) if cons else 0
        options = [frozenset(), frozenset({v + 1}), frozenset({v, v + 1}),
                   {v}, frozenset({"a"}), frozenset({-1}),
                   frozenset({2**40}), None]
        msg["consensus"] = options[variant % len(options)]
    return msg


def _fields(msg):
    """The fields of msg that one mutation can change."""
    out = ["envelope"]
    if "rand" in msg:
        out.append("rand")
    if msg.get("ns"):
        out += ["ns-key", "report", "source"]
    if "xr" in msg:
        out.append("xr")
    if "q" in msg:
        out.append("qb")
    if msg.get("shares"):
        out.append("shares")
    if "consensus" in msg:
        out.append("consensus")
    return out


def one_field_mutation(round_, peer, field, pick, variant):
    """Agent 1 changes one field of its round-r message to one peer."""
    def edit(st, r, msgs):
        if msgs:
            j = sorted(msgs)[peer % len(msgs)]
            fields = _fields(msgs[j])
            msgs[j] = mutate(msgs[j], fields[field % len(fields)], pick,
                             variant, j, st.n, st.p)
            return True
    return EditMessages(round_, edit)


# The seed that derandomize=True derived from this test's source until it
# was pinned; @seed takes precedence, so the 300 examples no longer change
# when the test's text does.
FUZZ_SEED = int("2888997965144892146773603884172289567277121390371262212844"
                "1648495651866158843392482303717665160232278677655391826088")


@seed(FUZZ_SEED)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(scale=st.sampled_from([(5, 1), (7, 2)]),
       seed=st.integers(0, 7),
       round_=st.integers(0, 5),
       peer=st.integers(0, 5),
       field=st.integers(0, 8),      # an index into the message's fields
       pick=st.integers(0, 30),
       variant=st.integers(0, 120))
def test_one_field_mutation_is_punished_by_rule(scale, seed, round_, peer,
                                                field, pick, variant):
    n, t = scale
    dev = one_field_mutation(1 + round_ % (t + 4), peer, field, pick,
                             variant)
    ex = Execution(RunConfig(n=n, t=t, seed=seed, sample_pattern=True,
                             deviation=dev))
    for _ in ex.steps():
        pass
    res = ex.result()
    for i, label in res.decisions.items():
        if i == dev.agent or label != "bot":
            continue
        err = ex.agents[i].last_error
        assert isinstance(err, InconsistencyError), (i, err)
        assert err.category and err.rule
        assert i in res.errors


def _xr_run(n, t, seed, round_, peer, pick, variant, pattern=None):
    """The targeted peer's final state after one evidence-bit mutation."""
    def edit(st, r, msgs):
        if peer in msgs:
            msgs[peer] = mutate(msgs[peer], "xr", pick, variant, peer,
                                st.n, st.p)
            return True

    dev = EditMessages(round_, edit)
    ex = Execution(RunConfig(n=n, t=t, seed=seed, pattern=pattern,
                             deviation=dev))
    for _ in ex.steps():
        pass
    assert dev.applied
    return ex.agents[peer]


# _mutate_xr's variants: 0 deletes a bit, 1 flips one, 2-8 give a bit a
# bad value or file it under a bad key; 7 and 8 file it under a key that
# compares and hashes equal to its link, with a bool or a float in it
XR_RULES = {0: "xr", 2: "xr-bit", 3: "xr-bit", 4: "xr-bit", 5: "xr-bit",
            6: "xr-bit", 7: "xr-bit", 8: "xr-bit"}


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
@pytest.mark.parametrize("variant", range(9))
def test_evidence_bit_mutation_outcome(n, t, variant):
    # every round that ships bits, towards every peer, with no failures;
    # the seed also picks the link whose bit is changed
    for seed in range(2):
        for r in range(1, t + 3):
            for peer in range(2, n + 1):
                st = _xr_run(n, t, seed, r, peer, seed, variant)
                where = (seed, r, peer)
                if variant == 1:
                    # a flipped bit is read only by a faulty-link report of
                    # its link, and no link fails
                    assert st.decision and st.decision[0] == "value", where
                    continue
                err = st.last_error
                assert st.decision == ("bot",), where
                assert (err.category, err.rule) == ("envelope",
                                                    XR_RULES[variant]), where


@pytest.mark.parametrize("n,t", [(5, 1), (7, 2)])
def test_flipped_evidence_bit_exposes_the_report_it_backs(n, t):
    # agent n crashes in the round whose bit of link (1, n) agent 1 flips,
    # so agent 1 reports (1, n) faulty with its true bits next round; (1, n)
    # is the last of agent 1's n-1 links, so pick n-2 names it
    for seed in range(2):
        for r in range(1, t + 3):
            pattern = FailurePattern(crash={n: r})
            for peer in range(2, n):
                st = _xr_run(n, t, seed, r, peer, n - 2, 1, pattern)
                err = st.last_error
                where = (seed, r, peer)
                assert st.decision == ("bot",), where
                assert (err.category, err.rule, err.link) == (
                    "random", "xrandom-mismatch", (1, n)), where


# --- a bool or float where an int belongs ------------------------------------
# True == 1 and 1.0 == 1, and both hash alike, so a check by equality or by
# isinstance(x, int) lets them through. Each variant ships one in every
# round-r message of its deviant, and every peer it reaches must decide
# bottom by the rule named.

def _edit_table(msg, pick, edit):
    table = dict(msg["ns"])      # the shipped table is shared: edit a copy
    link = next(k for k, entry in sorted(table.items()) if pick(k, entry))
    key, entry = edit(link, table.pop(link))
    table[key] = entry
    msg["ns"] = table


def _edit_shares(msg, edit):
    shares = dict(msg["shares"])
    gen, pair = edit(1, shares.pop(1))      # agent 1 forwards its own share
    shares[gen] = pair
    msg["shares"] = shares


def _edit_xr(msg):
    xr = dict(msg["xr"])
    link = min(xr)
    xr[link] = bool(xr[link])
    msg["xr"] = xr


def _edit_bits(link, entry, to=float):
    (kind, m, reporter, bits), t_b = entry
    return link, ((kind, m, reporter, (to(bits[0]),) + bits[1:]), t_b)


# variant -> (deviant, round, edit of one message, expected rule); at (5,1)
# the deviant sends its own share at round 1, forwards shares at round 4,
# first ships a tagged entry at round 3, and, with agent 5 crashed at
# round 1, ships its faulty-link report on (1, 5) at round 2
BOOL_VARIANTS = {
    "rand": (1, 1, lambda m: m.update(rand=True), ("envelope", "rand")),
    "share": (1, 1, lambda m: m.update(q=True), ("envelope", "shares")),
    "forwarded-share": (1, 4, lambda m: _edit_shares(
        m, lambda g, pair: (g, (pair[0], True))),
        ("envelope", "forwarded-share")),
    "forwarded-generator": (1, 4, lambda m: _edit_shares(
        m, lambda g, pair: (True, pair)), ("envelope", "forwarded-share")),
    "evidence-bit": (1, 1, _edit_xr, ("envelope", "xr-bit")),
    "report-bit": (1, 2, lambda m: _edit_table(
        m, lambda k, e: e[0][0] == X, lambda k, e: _edit_bits(k, e, bool)),
        ("format", "bad-state")),
    "report-bit-float": (1, 2, lambda m: _edit_table(
        m, lambda k, e: e[0][0] == X, _edit_bits), ("format", "bad-state")),
    "link-key": (1, 2, lambda m: _edit_table(
        m, lambda k, e: k == (1, 2), lambda k, e: ((True, 2), e)),
        ("format", "bad-state")),
    # agent 2's round-3 table holds reports it adopted from agent 1
    "tag-source": (2, 3, lambda m: _edit_table(
        m, lambda k, e: e[1] is not None and e[1][0] == 1,
        lambda k, e: (k, (e[0], (True, e[1][1])))), ("format", "bad-source")),
    "tag-round": (1, 3, lambda m: _edit_table(
        m, lambda k, e: e[1] is not None and e[1][1] == 2,
        lambda k, e: (k, (e[0], (e[1][0], 2.0)))), ("format", "bad-source")),
}


def _bool_run(variant):
    """The run of one variant and the peers its edited messages went to."""
    agent, round_, edit, _ = BOOL_VARIANTS[variant]
    peers = []

    def edit_all(st, r, msgs):
        for j in msgs:
            msgs[j] = dict(msgs[j])
            edit(msgs[j])
        peers[:] = sorted(msgs)
        return bool(msgs)

    pattern = FailurePattern(crash={5: 1}) if "report" in variant else None
    ex = Execution(RunConfig(n=5, t=1, seed=0, pattern=pattern,
                             deviation=EditMessages(round_, edit_all, agent)))
    return ex, peers


@pytest.mark.parametrize("variant", sorted(BOOL_VARIANTS))
def test_bool_or_float_int_is_punished_by_rule(variant):
    ex, peers = _bool_run(variant)
    for _ in ex.steps():
        pass
    assert ex.dev.applied
    for j in peers:
        st_j = ex.agents[j]
        err = st_j.last_error
        assert st_j.decision == ("bot",), (j, st_j.decision)
        assert (err.category, err.rule) == BOOL_VARIANTS[variant][3], j


def test_bool_random_is_refused_on_receipt():
    # agent 1's real round-1 random at seed 0 is 1, which True equals; every
    # receiver refuses True at once instead of shipping it on in a report
    ex, peers = _bool_run("rand")
    for r in ex.steps():
        assert r == 1
        assert ex.agents[1].randoms[(1, 1)] == 1
        assert peers == [2, 3, 4, 5]
        for j in peers:
            err = ex.agents[j].last_error
            assert ex.agents[j].decision == ("bot",), j
            assert (err.category, err.rule) == ("envelope", "rand"), j
        break
