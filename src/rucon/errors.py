"""The one error type the protocol answers with punishment."""

from __future__ import annotations


class InconsistencyError(Exception):
    """A message, or what an agent computed from its messages, broke a rule.

    The protocol response to any inconsistency is the punishment decision
    (bottom). `category` and `rule` name the rule that fired:
      envelope/*          a message lacks its round's shape (agent._ingest);
                          the rules: header, rand, ns, xr, xr-bit, shares,
                          forwarded, forwarded-share, consensus
      format, source, random, round, chain, merge
                          link-state rules, listed in verification.py
      share/off-line      relayed shares on no line (sharing.reconstruct)
      decision/no-quiet-round
                          no legal decision round (decision.decision_round)
      consensus/empty, consensus/conflict
                          the final consensus set is not one value
    """

    def __init__(self, category: str, rule: str, link=None, round_=None, detail: str = ""):
        self.category = category
        self.rule = rule
        self.link = link
        self.round = round_
        self.detail = detail
        where = ""
        if link is not None:
            where += f" link={link}"
        if round_ is not None:
            where += f" round={round_}"
        super().__init__(f"[{category}/{rule}]{where} {detail}".rstrip())
