"""Every rule the library can raise is documented, and every link-state
rule the docs list can be raised.

The raised rules are read from the source with ast: each
InconsistencyError call with a literal category and rule (both arms of a
conditional rule), and each call of a helper that raises for its caller,
agent._require (envelope) and verification._require_exact (chain). The
docs are the docstrings of errors.py and verification.py, where a rule is
named as category/rule, as a range category/claimA..claimB, or as
category/* followed by "the rules:" and a comma-separated list.
"""

import ast
import re
from pathlib import Path

import rucon

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
    """claim9, claim12 -> claim9..claim12."""
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


def test_every_listed_link_state_rule_is_raised():
    raised, _ = raised_rules()
    listed = {(c, r) for c, r in documented("verification.py")
              if c in LINK_STATE}
    assert ("round", "claim10") in listed and ("chain", "claim3") in listed
    assert sorted(listed - raised) == []
