"""A plain verify_and_update, to check the shared and deduplicated one against.

rucon.verification.verify_and_update checks each shipped table once per
round for all its receivers (RoundMemo), plans each table's entries and
their keys once, skips an entry equal to one it already processed that
round, and checks and merges a correct-link report in its own loop. This
version does none of that. Phase 1 records the round's direct-link
detections; phase 2 runs check_format on every entry and verify_msg_chain,
sender by sender; phase 3 takes every entry, sender by sender and each
table in sorted order, checks claim 13, and then hands a faulty-link
report to verify_state and merge_state and checks and merges a
correct-link report by the rules below, stated anew. It takes the real
one's arguments less the memo; a test wraps it to stand in for the one
that rucon.agent calls.
"""

from rucon.errors import InconsistencyError
from rucon.links import R, X, append_hs, link_of
from rucon.verification import (check_format, merge_state, verify_msg_chain,
                                verify_state)


def verify_and_update(state, received, r):
    n, t, i = state.n, state.t, state.id
    ns, hs = state.ns, state.hs
    senders = sorted(received)

    for j in senders:
        link = link_of(i, j)
        t_a = (R, r, i, state.randoms[(j, r)])
        ns[link] = (t_a, None)
        append_hs(hs, link, t_a)
    for j in range(1, n + 1):
        if j == i or j in received:
            continue
        link = link_of(i, j)
        entry = ns.get(link)
        if entry is not None and entry[0][0] == X:
            continue
        bits = tuple(state.own_bits[r][w][link]
                     for w in range(1, n + 1) if w != i)
        t_a = (X, r, i, bits)
        ns[link] = (t_a, None)
        append_hs(hs, link, t_a)

    for j in senders:
        for link, recv in received[j].items():
            check_format(n, r, j, link, recv)
        verify_msg_chain(n, t, r, j, received[j])

    for j in senders:
        for link, recv in sorted(received[j].items()):
            t_a, t_b = recv
            if t_b is not None:
                src, m_src = t_b
                heard = src not in state.lost or state.lost[src] > m_src
                if (src == i or heard) and t_a not in hs.get((link, t_a[1]),
                                                             ()):
                    raise InconsistencyError(
                        "source", "claim13", link, t_a[1],
                        f"report tagged from {src} round {m_src} is not in "
                        "local history")
            if t_a[0] == X:
                verify_state(state, link, recv)
                merge_state(state, link, recv, (t_a, (j, r)))
            else:
                _check_and_merge_r(state, link, t_a, (t_a, (j, r)))


def _check_and_merge_r(state, link, t_a, adopted):
    """The random check and the merge table's rows for a correct-link
    report t_a."""
    _, rr, ri, rand = t_a
    other = link[1] if ri == link[0] else link[0]
    if (other, rr) in state.randoms and state.randoms[(other, rr)] != rand:
        raise InconsistencyError(
            "random", "random-conflict", None, rr,
            f"agent {other} round {rr}: {rand} vs registered "
            f"{state.randoms[(other, rr)]}")
    state.randoms[(other, rr)] = rand

    local = state.ns.get(link)
    if local is None:                               # case 11: adopt
        state.ns[link] = adopted
    else:
        lkind, lr, li, _ = local[0]
        direct = state.id in link
        if direct and lkind == X and rr > lr:       # case 3
            raise InconsistencyError(
                "round", "claim10", link, rr,
                "correct-report newer than the known failure round")
        if not direct and lkind == R and rr > lr:   # case 6: adopt newer
            state.ns[link] = adopted
        if not direct and lkind == X and (lr < rr or (lr == rr
                                                      and ri == li)):
            raise InconsistencyError(                # case 8
                "round", "case8", link, rr,
                "correct-report contradicts a failure round we hold")
    append_hs(state.hs, link, t_a)
