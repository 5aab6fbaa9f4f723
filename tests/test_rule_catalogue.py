"""Every rule the library can raise is documented, every link-state rule
the docs list is raised by verify_and_update on some input, and every
envelope rule by a receiver of one edited message.

The raised rules are read from the source with ast: each
InconsistencyError call with a literal category and rule (both arms of a
conditional rule), and each call of a helper that raises for its caller,
agent._require (envelope) and verification._require_exact (chain). The
docs are the docstrings of errors.py and verification.py, where a rule is
named as category/rule, as a range category/claimA..claimB, or as
category/* followed by "the rules:" and a comma-separated list.

A rule's witness goes through the whole pipeline, verify_and_update, never
a direct call of one check: a rule that only a hand-built input to
check_format, verify_msg_chain, verify_state or merge_state can reach is
one that no message can reach.
"""

import ast
import copy
import re
from pathlib import Path

import pytest

import rucon
from conftest import run_agents
from rucon import agent
from rucon.deviations import EditMessages, make_deviation
from rucon.errors import InconsistencyError
from rucon.links import R, X
from rucon.simulator import Execution, FailurePattern, RunConfig, run
from rucon.verification import RoundMemo, verify_and_update

SRC = Path(rucon.__file__).parent
HELPERS = {"_require": ("envelope", 1), "_require_exact": ("chain", 2)}
LINK_STATE = {"format", "source", "random", "round", "chain", "merge"}
NAME = re.compile(r"\b([a-z]+)/([a-z][a-z0-9-]*)(?:\.\.([a-z0-9-]+))?")
WILDCARD = re.compile(r"\b([a-z]+)/\*[^/]*?the rules: ((?:[\w-]+,\s+)*[\w-]+)")


def _literals(node):
    """The strings an argument can evaluate to; None when not literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        body, orelse = _literals(node.body), _literals(node.orelse)
        if body and orelse:
            return body | orelse
    return None


class _Raises(ast.NodeVisitor):
    """rules: the (category, rule) pairs raised with literal names.
    passing: the functions holding a raise whose names are not literal."""

    def __init__(self):
        self.rules, self.passing, self.where = set(), set(), None

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    def visit_Call(self, node):
        name = getattr(node.func, "id", None)
        if name == "InconsistencyError" or name in HELPERS:
            category, pos = HELPERS.get(name, (None, 1))
            categories = {category} if category else _literals(node.args[0])
            rules = _literals(node.args[pos]) if len(node.args) > pos else None
            if categories and rules:
                self.rules.update((c, r) for c in categories for r in rules)
            else:
                self.passing.add(self.where)
        self.generic_visit(node)


def raised_rules():
    found = _Raises()
    for path in sorted(SRC.glob("*.py")):
        found.visit(ast.parse(path.read_text(), str(path)))
    return found.rules, found.passing


def _expand(first, last):
    """claim10, claim12 -> claim10..claim12."""
    prefix, start = re.fullmatch(r"([a-z-]+?)(\d+)", first).groups()
    stem, end = re.fullmatch(r"([a-z-]+?)(\d+)", last).groups()
    assert stem == prefix, (first, last)
    return [f"{prefix}{k}" for k in range(int(start), int(end) + 1)]


def documented(filename):
    """The (category, rule) pairs that one module's docstrings name."""
    tree = ast.parse((SRC / filename).read_text())
    text = "\n".join(ast.get_docstring(node) or "" for node in ast.walk(tree)
                     if isinstance(node, (ast.Module, ast.ClassDef,
                                          ast.FunctionDef)))
    named = set()
    for category, rule, last in NAME.findall(text):
        rules = _expand(rule, last) if last else [rule]
        named.update((category, r) for r in rules)
    for category, listed in WILDCARD.findall(text):
        named.update((category, r) for r in re.split(r",\s+", listed))
    return named


def test_every_raised_rule_is_documented():
    raised, passing = raised_rules()
    # the two helpers take their rule from their call sites, counted above;
    # RoundMemo.check raises a copy of an error already raised
    assert passing == {"_require", "_require_exact", "check"}
    assert {("envelope", "header"), ("chain", "claim5"),
            ("consensus", "empty"), ("consensus", "conflict"),
            ("round", "hs-conflict")} <= raised
    named = documented("errors.py") | documented("verification.py")
    assert sorted(raised - named) == []


def _listed_link_state_rules():
    return {(c, r) for c, r in documented("verification.py")
            if c in LINK_STATE}


def test_every_listed_link_state_rule_is_raised():
    raised, _ = raised_rules()
    listed = _listed_link_state_rules()
    assert ("round", "claim10") in listed and ("chain", "claim3") in listed
    assert sorted(listed - raised) == []


# A deviant run per rule, from a sweep of every type and parameter value:
# (n, t), seed, deviation type, its parameters, deviant agent.
RUN_WITNESSES = {
    ("chain", "claim1"): ((5, 1), 0, 5, {"guess": False, "round": 1}, 1),
    ("chain", "claim3"): ((7, 2), 0, 6, {"case": 1, "round": 3}, 7),
    ("chain", "claim4"): ((9, 3), 0, 6, {"case": 6, "round": 6}, 1),
    ("chain", "claim5"): ((5, 1), 0, 6, {"case": 6, "round": 3}, 1),
    ("chain", "claim6"): ((7, 2), 6, 6, {"case": 1, "round": 3}, 1),
    ("chain", "claim7"): ((9, 3), 22, 6, {"case": 6, "round": 6}, 2),
    ("merge", "case2"): ((5, 1), 0, 6, {"case": 1, "round": 2}, 1),
    ("round", "case7"): ((5, 1), 16, 6, {"case": 2, "round": 2}, 1),
    ("round", "case8"): ((5, 1), 0, 6, {"case": 1, "round": 2}, 1),
    ("round", "case9"): ((5, 1), 22, 6, {"case": 1, "round": 2}, 1),
    ("round", "claim11"): ((5, 1), 0, 5, {"round": 3}, 5),
    ("round", "claim12"): ((7, 2), 0, 6, {"case": 7, "round": 5}, 1),
    ("round", "hs-conflict"): ((5, 1), 20, 6, {"case": 3, "round": 4}, 5),
    ("source", "claim13"): ((5, 1), 0, 5, {"round": 2}, 5),
    ("source", "claim14"): ((5, 1), 0, 6, {"case": 1, "round": 3}, 1),
    ("random", "random-conflict"): ((5, 1), 0, 5, {"round": 1}, 1),
    ("random", "xrandom-mismatch"):
        ((5, 1), 0, 6, {"case": 7, "round": 4}, 1),
}


# round/claim10, which no deviation type reaches, and the rules of
# check_format, each by one edited entry of a real table: agent 1 checks
# sender 3's table in round 4 of a (5,1) run where agent 2 has never
# reached agent 1, so agent 1 holds link (1,2) failed since round 1. snap
# is that round's snapshot; each maker returns the (link, entry) to write.
CRAFTED_WITNESSES = {
    # a correct report newer than the failure round agent 1 recorded
    ("round", "claim10"):
        lambda snap: ((1, 2), ((R, 2, 1, snap[3].randoms[(2, 2)]), (2, 3))),
    # the sender's own link reported at round r: the round bound of
    # check_format, which is what keeps a table from claiming the future
    ("format", "bad-state"):
        lambda snap: ((1, 3), ((R, 4, 3, snap[3].randoms[(1, 3)]), None)),
    # a self-observed tag on a link the sender is not on
    ("format", "bad-source"):
        lambda snap: ((1, 2), ((R, 2, 1, snap[3].randoms[(2, 2)]), None)),
    # a reporter that is not an endpoint of the link
    ("round", "claim8"):
        lambda snap: ((1, 2), ((R, 2, 4, snap[3].randoms[(2, 2)]), (2, 3))),
}


def test_every_listed_link_state_rule_has_a_pipeline_witness():
    witnessed = RUN_WITNESSES.keys() | CRAFTED_WITNESSES.keys()
    assert sorted(_listed_link_state_rules() ^ witnessed) == []


@pytest.mark.parametrize("rule", sorted(RUN_WITNESSES),
                         ids="/".join)
def test_run_witness_raises_its_rule(rule, monkeypatch):
    (n, t), seed, type_id, params, deviant = RUN_WITNESSES[rule]
    raised = []

    def recording(state, received, r, checked):
        try:
            verify_and_update(state, received, r, checked)
        except InconsistencyError as exc:
            raised.append((exc.category, exc.rule))
            raise

    monkeypatch.setattr(agent, "verify_and_update", recording)
    res = run(RunConfig(n=n, t=t, seed=seed, sample_pattern=True,
                        deviation=make_deviation(type_id, agent=deviant,
                                                 seed=seed, **params)))
    assert rule in raised
    assert any(e.startswith("[%s/%s]" % rule) for e in res.errors.values())


@pytest.fixture(scope="module")
def round4():
    _, snap = run_agents(5, 1, seed=0,
                         pattern=FailurePattern(send_om={(2, 1): 1}),
                         capture_round=4)
    return snap


@pytest.mark.parametrize("rule", sorted(CRAFTED_WITNESSES),
                         ids="/".join)
def test_crafted_witness_raises_its_rule(rule, round4):
    snap = copy.deepcopy(round4)
    state = snap[1]
    assert state.ns[(1, 2)][0][:3] == (X, 1, 1)
    verify_and_update(copy.deepcopy(state), dict(state.pending_ns), 4,
                      RoundMemo())     # the unedited tables pass
    link, entry = CRAFTED_WITNESSES[rule](snap)
    table = dict(state.pending_ns[3])
    table[link] = entry
    with pytest.raises(InconsistencyError) as exc:
        verify_and_update(state, {**state.pending_ns, 3: table}, 4,
                          RoundMemo())
    assert (exc.value.category, exc.value.rule) == rule


# Each envelope rule by one edit of the message agent 1 sends agent 2 in
# one round of a fault-free (5,1) run: round 1 carries the value shares,
# round 4 (t+3) the forwarded shares and round 5 (t+4) the consensus set.
ENVELOPE_EDITS = {
    "header": (2, lambda msg: msg.update(sender=3)),
    "rand": (2, lambda msg: msg.update(rand=5)),
    "ns": (2, lambda msg: msg.pop("ns")),
    "xr": (2, lambda msg: msg.pop("xr")),
    "xr-bit": (2, lambda msg: msg["xr"].update(dict.fromkeys(msg["xr"], 2))),
    "shares": (1, lambda msg: msg.update(q=-1)),
    "forwarded": (4, lambda msg: msg.pop("shares")),
    "forwarded-share": (4, lambda msg: msg.update(shares={0: (0, 0)})),
    "consensus": (5, lambda msg: msg.update(consensus=set())),
}


def test_every_listed_envelope_rule_has_a_message_witness():
    listed = {r for c, r in documented("errors.py") if c == "envelope"}
    assert sorted(listed ^ ENVELOPE_EDITS.keys()) == []


@pytest.mark.parametrize("rule", sorted(ENVELOPE_EDITS))
def test_envelope_witness_raises_its_rule(rule):
    round_, edit = ENVELOPE_EDITS[rule]
    dev = EditMessages(round_, lambda st, r, msgs: edit(msgs[2]))
    ex = Execution(RunConfig(n=5, t=1, seed=0, deviation=dev,
                             check_invariants=False))
    for _ in ex.steps():
        pass
    err = ex.agents[2].last_error
    assert (err.category, err.rule) == ("envelope", rule)
