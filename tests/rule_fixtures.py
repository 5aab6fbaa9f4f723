"""One fixture per verification rule: a passing input and a minimal mutation.

Each fixture is a callable fixture(mutate) that runs the relevant check.
With mutate=False it must complete silently; with mutate=True it must raise
InconsistencyError carrying exactly the registered category and rule. The
acceptance suite iterates the whole registry.
"""

from itertools import combinations
from types import SimpleNamespace

from rucon.links import R, X, link_of
from rucon.verification import check_format, merge_state, \
    verify_msg_chain, verify_state

FIXTURES = {}   # "category/rule" -> fixture callable


def _register(category, rule, suffix=""):
    def deco(fn):
        FIXTURES[f"{category}/{rule}{suffix}"] = (fn, category, rule)
        return fn
    return deco


# --- message-chain fixtures -------------------------------------------------
# Synthetic table of sender 1 at n=7, t=2, as received in round 5 (so the
# table describes round m=4). Agents 6 and 7 are disconnected from the
# sender since round 3; everyone else is connected.

def _chain_table(dis_entry="R"):
    """dis_entry picks how links between connected and disconnected agents
    are reported: 'R' (correct at m-1) or early 'X' detections."""
    tbl = {}
    for p in (2, 3, 4, 5):
        tbl[(1, p)] = ((R, 4, 1, 0), None)
    tbl[(1, 6)] = ((X, 3, 1, (0,) * 6), None)
    tbl[(1, 7)] = ((X, 3, 1, (0,) * 6), None)
    for k, p in combinations((2, 3, 4, 5), 2):
        tbl[(k, p)] = ((R, 3, k, 0), (k, 4))
    for c in (2, 3, 4, 5):
        for d in (6, 7):
            if dis_entry == "R":
                tbl[(c, d)] = ((R, 3, c, 0), (c, 4))
            else:
                tbl[(c, d)] = ((X, 2, c, (0,) * 6), (c, 3))
    tbl[(6, 7)] = ((R, 2, 6, 0), (6, 3))
    return tbl


def _chain_check(tbl):
    verify_msg_chain(7, 2, 5, 1, tbl)


@_register("chain", "claim1")
def _fx_claim1(mutate):
    tbl = _chain_table()
    if mutate:
        del tbl[(1, 2)]     # a direct link's round-m state must be known
    _chain_check(tbl)


@_register("chain", "claim1", suffix=":stale")
def _fx_claim1_stale(mutate):
    tbl = _chain_table()
    if mutate:
        tbl[(1, 2)] = ((R, 3, 1, 0), None)  # round-m state still unknown
    _chain_check(tbl)


@_register("chain", "claim1", suffix=":count")
def _fx_claim1_count(mutate):
    tbl = _chain_table()
    if mutate:
        tbl[(1, 5)] = ((X, 4, 1, (0,) * 6), None)  # only 3 correct < n-t-1
    _chain_check(tbl)


@_register("chain", "claim3")
def _fx_claim3(mutate):
    tbl = _chain_table(dis_entry="X")
    if mutate:
        # both endpoints disconnected: nothing after m-2 can be known
        tbl[(6, 7)] = ((R, 3, 6, 0), (6, 4))
    _chain_check(tbl)


@_register("chain", "claim4")
def _fx_claim4(mutate):
    tbl = _chain_table(dis_entry="X")
    # push the connected-side detections early enough that their own
    # lookback rule does not apply, isolating the disconnected pair
    if mutate:
        del tbl[(6, 7)]     # state before both disconnections must be known
    _chain_check(tbl)


@_register("chain", "claim5")
def _fx_claim5(mutate):
    tbl = _chain_table()
    if mutate:
        tbl[(2, 3)] = ((R, 2, 2, 0), (2, 3))  # connected pair: must be m-1
    _chain_check(tbl)


@_register("chain", "claim6")
def _fx_claim6(mutate):
    tbl = _chain_table()
    if mutate:
        # (2,6) says 6 was reachable at m-1, so (6,7) must be known at m-2
        tbl[(6, 7)] = ((R, 1, 6, 0), (6, 2))
    _chain_check(tbl)


@_register("chain", "claim7")
def _fx_claim7(mutate):
    tbl = _chain_table()
    if mutate:
        # (2,6) failed at m'=3, so (6,7) must still be known at m'-2=1
        tbl[(2, 6)] = ((X, 3, 2, (0,) * 6), (2, 4))
        del tbl[(6, 7)]
    _chain_check(tbl)


# --- per-report fixtures ----------------------------------------------------
# Small synthetic receivers at n=5, t=1: verifier 1 checks a report of
# sender 2, at round 5 unless a fixture says otherwise.

def receiver(**kw):
    """The checking agent's state as phase 3 reads it. By default it has
    heard no one since round 1, so claim 13 never asks for its history."""
    base = dict(id=1, n=5, ns={}, hs={}, randoms={}, own_bits={},
                heard_bits={}, xrandoms={},
                lost={2: 1, 3: 1, 4: 1, 5: 1})
    base.update(kw)
    return SimpleNamespace(**base)


def _verify(state, link, recv, r=5):
    verify_state(state, r, link, recv)


def _verify_merge(state, link, recv, r=5):
    """One report through phase 3 as production runs it: the round
    relations are checked by merge_state, case by case."""
    _verify(state, link, recv, r=r)
    merge_state(state, link, recv, (recv[0], (2, r)))


@_register("format", "bad-state")
def _fx_bad_state(mutate):
    rand = 9 if mutate else 1       # message randoms live in [0, n)
    check_format(5, 5, 2, (3, 4), ((R, 2, 3, rand), (3, 3)))


@_register("format", "bad-source")
def _fx_bad_source(mutate):
    tb = None if mutate else (3, 3)  # own-observation tag on a foreign link
    check_format(5, 5, 2, (3, 4), ((R, 2, 3, 1), tb))


@_register("round", "claim8")
def _fx_claim8(mutate):
    reporter = 5 if mutate else 3   # must be an endpoint of (3,4)
    check_format(5, 5, 2, (3, 4), ((R, 2, reporter, 1), (3, 3)))


@_register("round", "claim10")
def _fx_claim10(mutate):
    st = receiver(ns={(1, 2): ((X, 2, 1, (0, 1, 0, 1)), None)})
    rd = 3 if mutate else 2         # correct-report beyond the failure round
    _verify_merge(st, (1, 2), ((R, rd, 2, 1), None))


@_register("round", "claim11")
def _fx_claim11(mutate):
    st = receiver(ns={(1, 2): ((X, 2, 1, (0, 1, 0, 1)), None)})
    bits = (1, 1, 0, 1) if mutate else (0, 1, 0, 1)  # our report, altered
    _verify_merge(st, (1, 2), ((X, 2, 1, bits), (3, 3)))


@_register("round", "claim11", suffix=":gap")
def _fx_claim11_gap(mutate):
    st = receiver(ns={(1, 2): ((X, 2, 1, (0, 1, 0, 1)), None)})
    rd = 4 if mutate else 3         # endpoint detections differ by > 1
    _verify_merge(st, (1, 2), ((X, rd, 2, (1, 0, 1, 0)), None))


@_register("round", "claim12")
def _fx_claim12(mutate):
    st = receiver(ns={(1, 2): ((X, 2, 2, (0, 1, 0, 1)), (2, 3))})
    bits = (1, 1, 0, 1) if mutate else (0, 1, 0, 1)  # partner's, altered
    _verify_merge(st, (1, 2), ((X, 2 + mutate, 2, bits), None)
                  if mutate else ((X, 2, 2, bits), None))


@_register("round", "claim12", suffix=":lag")
def _fx_claim12_lag(mutate):
    st = receiver(ns={(1, 2): ((X, 2, 2, (0, 1, 0, 1)), (2, 3))})
    rd = 2 if mutate else 3         # our own detection must trail by one
    _verify_merge(st, (1, 2), ((X, rd, 1, (0, 0, 0, 0)), (3, rd + 1)), r=6)


@_register("source", "claim13")
def _fx_claim13(mutate):
    t_a = (R, 2, 3, 1)
    hs = {} if mutate else {((3, 4), 2): (t_a,)}
    st = receiver(hs=hs, lost={2: 1, 4: 1, 5: 1})   # 3 heard at round 3
    _verify(st, (3, 4), (t_a, (3, 3)))


@_register("source", "claim14")
def _fx_claim14(mutate):
    # Sender 2's table at n=5, t=1, received in round 5 (m=4). Agent 3 is
    # disconnected from the sender since round 3; 1, 4 and 5 are connected.
    tbl = {link_of(2, p): ((R, 4, 2, 0), None) for p in (1, 4, 5)}
    tbl[(2, 3)] = ((X, 3, 2, (0,) * 4), None)
    for k, p in ((1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5)):
        q = k if p == 3 else p          # adopted from a connected endpoint
        tbl[(k, p)] = ((R, 3, q, 0), (q, 4))
    if mutate:
        # adopted from 3 in the previous round: the sender's own link to 3
        # must have been correct then
        tbl[(3, 4)] = ((R, 3, 4, 0), (3, 4))
    verify_msg_chain(5, 1, 5, 2, tbl)


@_register("random", "random-conflict")
def _fx_random_conflict(mutate):
    st = receiver(randoms={(4, 2): 0 if mutate else 1})
    _verify(st, (3, 4), ((R, 2, 3, 1), (3, 3)))


@_register("random", "xrandom-mismatch")
def _fx_xrandom_mismatch(mutate):
    # the report must carry the round-2 bit that reporter 3 sent agent 1
    st = receiver(heard_bits={(3, 2): {(3, 4): 1 if mutate else 0}})
    _verify(st, (3, 4), ((X, 2, 3, (0, 1, 0, 1)), (3, 3)))


@_register("round", "case7")
def _fx_case7(mutate):
    st = receiver(ns={(3, 4): ((R, 2, 3, 1), (3, 3))})
    rd = 2 if mutate else 3         # failure round at or before a correct one
    _verify_merge(st, (3, 4), ((X, rd, 3, (0, 1, 0, 1)), (3, rd + 1)), r=6)


@_register("round", "case8")
def _fx_case8(mutate):
    st = receiver(ns={(3, 4): ((X, 2, 3, (0, 1, 0, 1)), (3, 3))})
    rd = 2 if mutate else 1         # correct-report at or after the failure
    _verify_merge(st, (3, 4), ((R, rd, 3, 1), (3, rd + 1)))


@_register("round", "case9")
def _fx_case9(mutate):
    st = receiver(ns={(3, 4): ((X, 2, 3, (0, 1, 0, 1)), (3, 3))})
    bits = (1, 1, 0, 1) if mutate else (0, 1, 0, 1)  # same reporter, altered
    _verify_merge(st, (3, 4), ((X, 2, 3, bits), (3, 3)))


@_register("round", "case9", suffix=":gap")
def _fx_case9_gap(mutate):
    st = receiver(ns={(3, 4): ((X, 1, 3, (0, 1, 0, 1)), (3, 2))})
    rd = 3 if mutate else 2         # endpoint detections differ by > 1
    _verify_merge(st, (3, 4), ((X, rd, 4, (1, 0, 1, 0)), (3, rd + 1)), r=6)


@_register("merge", "case2")
def _fx_case2(mutate):
    st = receiver(ns={(1, 2): ((R, 5, 1, 2), None)})
    recv = ((X, 4, 2, (0, 1, 0, 1)), None) if mutate \
        else ((R, 4, 2, 1), None)
    _verify_merge(st, (1, 2), recv)
