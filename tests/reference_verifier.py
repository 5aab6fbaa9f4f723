"""A plain verify_and_update, to check the shared and deduplicated one against.

rucon.verification.verify_and_update checks each shipped table once per
round for all its receivers (RoundMemo), plans each table's entries once,
and skips an entry equal to one it already processed that round. This
version does none of that. Phase 1 records the round's direct-link
detections; phase 2 runs check_format on every entry and verify_msg_chain,
sender by sender; phase 3 runs verify_state and merge_state on every entry,
sender by sender and each table in sorted order. It takes the real one's
arguments less the memo; a test wraps it to stand in for the one that
rucon.agent calls.
"""

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
            verify_state(state, r, link, recv)
            merge_state(state, link, recv, (recv[0], (j, r)))
