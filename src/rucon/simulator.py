"""Round-lockstep execution of the protocol under scripted failures.

A run advances all agents through t+4 rounds of send, deliver, receive and
compute. Failures are scripted ahead of time by a FailurePattern drawn
independently of values and seeds used by the agents, so the environment
cannot condition on message contents.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from dataclasses import dataclass, field, replace

from .agent import (BOT, NO_DECISION, UNDECIDED, compute_phase, init_agent,
                    receive_phase, send_phase)
from .deviations import Deviation
from .invariants import InvariantMonitor
from .links import peers
from .verification import RoundMemo

INF = float("inf")


@dataclass(frozen=True)
class FailurePattern:
    """Omission/crash schedule. Failures never recover: each entry is an
    onset round and applies from then on."""

    crash: dict = field(default_factory=dict)      # agent -> round
    send_om: dict = field(default_factory=dict)    # (sender, receiver) -> round
    recv_om: dict = field(default_factory=dict)    # (receiver, sender) -> round

    def faulty_agents(self):
        out = set(self.crash)
        out |= {s for s, _ in self.send_om}
        out |= {r for r, _ in self.recv_om}
        return out

    def validate(self, n: int, t: int):
        agents = self.faulty_agents()
        if len(agents) > t:
            raise ValueError(f"{len(agents)} faulty agents exceed t={t}")
        pairs = list(self.send_om) + list(self.recv_om)
        for a in agents | {x for pair in pairs for x in pair}:
            if not 1 <= a <= n:
                raise ValueError(f"agent {a} out of range")
        for a, b in pairs:
            if a == b:
                raise ValueError(f"omission on agent {a}'s link to itself")
        onsets = [*self.crash.values(), *self.send_om.values(),
                  *self.recv_om.values()]
        if onsets and min(onsets) < 1:
            raise ValueError(f"onset round {min(onsets)} is below 1")

    def blocks(self, r: int, sender: int, receiver: int) -> bool:
        return (self.crash.get(sender, INF) <= r
                or self.crash.get(receiver, INF) <= r
                or self.send_om.get((sender, receiver), INF) <= r
                or self.recv_om.get((receiver, sender), INF) <= r)


def sample_blind_pattern(seed: int, n: int, t: int) -> FailurePattern:
    """A value-independent random schedule with at most t faulty agents."""
    rng = random.Random(f"{seed}:pattern")
    count = rng.randint(0, t)
    chosen = sorted(rng.sample(range(1, n + 1), count))
    crash, send_om, recv_om = {}, {}, {}
    for a in chosen:
        onset = rng.randint(1, t + 3)
        kind = rng.choice(("crash", "send", "receive", "mixed"))
        if kind == "crash":
            crash[a] = onset
            continue
        for peer in peers(a, n):
            if rng.random() >= 0.6:
                continue
            start = rng.randint(onset, t + 3)
            direction = kind if kind != "mixed" else rng.choice(
                ("send", "receive", "both"))
            if direction in ("send", "both"):
                send_om[(a, peer)] = start
            if direction in ("receive", "both"):
                recv_om[(a, peer)] = start
    return FailurePattern(crash=crash, send_om=send_om, recv_om=recv_om)


def deliver(r: int, outboxes: dict, pattern: FailurePattern, n: int) -> dict:
    inboxes = {a: {} for a in range(1, n + 1)}
    for sender in sorted(outboxes):
        for receiver, msg in sorted(outboxes[sender].items()):
            if pattern.blocks(r, sender, receiver):
                continue
            inboxes[receiver][sender] = msg
    return inboxes


@dataclass
class RunConfig:
    n: int
    t: int
    seed: int
    values: list = None            # encoded later against value_domain
    value_domain: tuple = ("a", "b", "c")
    pattern: FailurePattern = None
    sample_pattern: bool = False
    deviation: object = None
    utilities: tuple = (2.0, 1.0, 0.0)
    check_invariants: bool = True
    trace: object = None           # list-like sink for trace records

    def validate(self):
        """Reject a config no run can use, then bind its deviation to it."""
        for name in ("n", "t", "seed"):
            value = getattr(self, name)
            if type(value) is not int:      # a bool or float is refused too
                raise ValueError(f"{name} must be an int, got {name}={value!r}")
        if self.t < 0:
            raise ValueError(f"t must be at least 0, got t={self.t}")
        if not (self.n >= 3 and self.n > 2 * self.t + 1):
            raise ValueError(f"need n>2t+1 and n>=3, got n={self.n}, t={self.t}")
        b0, b1, b2 = self.utilities
        # an infinite utility makes every paired difference inf or nan
        if not (b0 > b1 > b2 and all(map(math.isfinite, self.utilities))):
            raise ValueError("utilities must be finite and strictly "
                             "decreasing")
        domain = self.value_domain      # a value's index is its encoding
        if not isinstance(domain, (tuple, list)):
            raise ValueError(f"value domain must be a tuple or list, "
                             f"got {domain!r}")
        try:
            distinct = len(set(domain)) == len(domain)
        except TypeError:
            raise ValueError(f"value domain needs hashable values, "
                             f"got {list(domain)}") from None
        if not domain or "" in domain or not distinct:
            raise ValueError(f"value domain needs distinct non-empty values, "
                             f"got {list(domain)}")
        if self.values is not None:
            if (not isinstance(self.values, (tuple, list))
                    or len(self.values) != self.n):
                raise ValueError("values must list one value per agent")
            bad = [v for v in self.values if v not in domain]
            if bad:
                raise ValueError(f"values outside the domain: {bad}")
        if self.deviation is not None and not 1 <= self.deviation.agent <= self.n:
            raise ValueError(f"deviating agent {self.deviation.agent} "
                             f"outside 1..{self.n}")
        if self.pattern is not None:
            self.pattern.validate(self.n, self.t)
        if self.deviation is not None:
            self.deviation.bind(self.n, self.t, len(domain))


@dataclass
class RunResult:
    config: RunConfig
    pattern: FailurePattern
    values: list                       # decoded, index 0 is agent 1
    decisions: dict                    # agent -> 'bot'|'no_decision'|'undecided'|value
    utilities: dict
    outcome: tuple                     # ('consensus', v) | ('bot',) | ('no_value',)
    invariants: dict                   # name -> (ok, detail)
    m_star: object
    d_set: object
    errors: dict                       # agent -> stringified inconsistency
    guesses: list = field(default_factory=list)
    deviation_applied: bool = False

    @property
    def invariants_ok(self) -> bool:
        return all(ok for ok, _ in self.invariants.values())


def sample_values(seed: int, n: int, domain) -> list:
    rng = random.Random(f"{seed}:values")
    return [rng.choice(list(domain)) for _ in range(n)]


def _decode(domain, v):
    # a deviant's shares can reconstruct to any field element, so the
    # elected value may fall outside the encoded domain
    return domain[v] if 0 <= v < len(domain) else f"#{v}"


def _decision_label(decision, domain):
    if decision is UNDECIDED:
        return "undecided"
    if decision == BOT:
        return "bot"
    if decision == NO_DECISION:
        return "no_decision"
    return _decode(domain, decision[1])


class Execution:
    """One run, stepped a round at a time by steps().

    Every agent follows a strategy: the deviant follows the configured
    deviation, bound to the run by RunConfig.validate, and every other
    agent the honest base Deviation, whose hooks change nothing. A caller
    that needs the agents between a round's receive and compute phases
    reads them where steps() pauses.
    """

    def __init__(self, config: RunConfig):
        config.validate()
        self.config = config
        n, t, seed = config.n, config.t, config.seed
        pattern = config.pattern
        if pattern is None:
            # a sampled pattern is valid by construction
            pattern = (sample_blind_pattern(seed, n, t) if config.sample_pattern
                       else FailurePattern())
        self.pattern = pattern
        self.values = config.values or sample_values(seed, n, config.value_domain)
        self.domain = list(config.value_domain)
        self.encoded = [self.domain.index(v) for v in self.values]
        self.rounds = range(1, t + 5)

        self.agents = {}
        for i in range(1, n + 1):
            rng = random.Random(f"{seed}:agent:{i}")
            self.agents[i] = init_agent(i, n, t, self.encoded[i - 1], rng)

        honest = Deviation()
        self.dev = config.deviation or honest
        self.dev.after_init(self.agents[self.dev.agent])
        self.strategies = dict.fromkeys(self.agents, honest)
        self.strategies[self.dev.agent] = self.dev

        self.sink = config.trace
        self.run_id = f"{n}-{t}-{seed}"
        self._emit(0, "meta", 0, "config",
                   {"n": n, "t": t, "seed": seed, "values": self.values,
                    "domain": self.domain,
                    "deviation": (None if config.deviation is None
                                  else self.dev.describe())})
        self.monitor = (InvariantMonitor(n, t, pattern)
                        if config.check_invariants else None)

    def _emit(self, round_, phase, agent, event, payload):
        if self.sink is not None:
            self.sink.append({"run_id": self.run_id, "round": round_,
                              "phase": phase, "agent": agent, "event": event,
                              "payload": payload})

    def steps(self):
        """Run every round, pausing after each receive phase: yield r with
        round r's received tables still pending, then, when resumed, run
        round r's compute phase and the invariant monitor."""
        agents, strategies, emit = self.agents, self.strategies, self._emit
        tracing = self.sink is not None     # build no payload nobody keeps
        for r in self.rounds:
            # Round r's phase-2 outcome and phase-3 plan of each shipped
            # table, the round's intern map of table entries and its
            # format-checked entry per link. None of it depends on the
            # receiver, so every receiver shares it; see
            # verification.RoundMemo.
            self.checked = RoundMemo()
            outboxes = {}
            for i, st in sorted(agents.items()):
                msgs = strategies[i].mutate_outgoing(st, r, send_phase(st, r))
                outboxes[i] = msgs
                if tracing:
                    emit(r, "send", i, "sent", {"to": sorted(msgs)})
            inboxes = deliver(r, outboxes, self.pattern, self.config.n)
            for i, st in sorted(agents.items()):
                inbox = strategies[i].filter_inbox(st, r, inboxes[i])
                before = st.decision
                receive_phase(st, r, inbox)
                strategies[i].after_receive(st, r)
                if tracing:
                    emit(r, "receive", i, "received",
                         {"from": sorted(inbox), "lost": sorted(st.lost),
                          "decision": _decision_label(st.decision,
                                                      self.domain)})
                if st.decision is not before and st.decision == BOT:
                    emit(r, "receive", i, "inconsistency", _error_payload(st))
            yield r
            for i, st in sorted(agents.items()):
                before = st.decision
                compute_phase(st, r, self.checked)
                strategies[i].after_compute(st, r)
                if st.decision is not before and st.decision == BOT:
                    emit(r, "compute", i, "inconsistency", _error_payload(st))
                if r == self.config.t + 3 and st.m_star is not None:
                    emit(r, "compute", i, "election",
                         {"m_star": st.m_star, "D": list(st.d_set),
                          "elected": (_decode(self.domain, st.elected)
                                      if st.elected is not None else None)})
            if self.monitor is not None:
                self.monitor.after_round(agents, r)

    def result(self) -> RunResult:
        """Decisions, utilities and invariants of the finished run."""
        config, agents, domain = self.config, self.agents, self.domain
        decisions, errors = {}, {}
        decided_values = set()
        any_bot = False
        for i, st in sorted(agents.items()):
            d = st.decision
            decisions[i] = _decision_label(d, domain)
            if d is UNDECIDED or d == BOT:
                any_bot = True
            elif d != NO_DECISION:
                decided_values.add(d[1])
            if st.last_error is not None:
                errors[i] = str(st.last_error)

        if any_bot or len(decided_values) != 1:
            outcome = ("bot",) if any_bot else ("no_value",)
            b2 = config.utilities[2]
            utilities = {i: b2 for i in agents}
        else:
            v_star = next(iter(decided_values))
            outcome = ("consensus", _decode(domain, v_star))
            b0, b1, _ = config.utilities
            utilities = {i: (b0 if self.encoded[i - 1] == v_star else b1)
                         for i in agents}

        invariants = _basic_invariants(decisions, self.values)
        if self.monitor is not None:
            invariants.update(self.monitor.finalize(agents))

        guesses = []
        for (peer, round_), guess in self.dev.guesses.items():
            actual = agents[peer].randoms.get((peer, round_))
            if actual is None:
                continue  # the peer never drew that round's random
            guesses.append({"peer": peer, "round": round_, "guess": guess,
                            "hit": guess == actual})

        ms = {st.m_star for st in agents.values() if st.m_star is not None}
        ds = {tuple(st.d_set) for st in agents.values() if st.d_set is not None}
        result = RunResult(
            config=config, pattern=self.pattern, values=self.values,
            decisions=decisions, utilities=utilities, outcome=outcome,
            invariants=invariants,
            m_star=(next(iter(ms)) if len(ms) == 1 else sorted(ms) or None),
            d_set=(list(next(iter(ds))) if len(ds) == 1 else None),
            errors=errors, guesses=guesses,
            deviation_applied=self.dev.applied)
        self._emit(self.rounds[-1], "summary", 0, "result",
                   {"decisions": decisions, "outcome": list(outcome),
                    "utilities": utilities,
                    "invariants": {k: ok for k, (ok, _) in invariants.items()}})
        return result


def run(config: RunConfig) -> RunResult:
    """One whole run, with the cyclic garbage collector paused.

    A run allocates many container objects, and each collection re-scans
    the agents' tables, which hold no reference cycle: a run's objects are
    freed by reference counting alone. The one cycle a run could make, an
    InconsistencyError kept with its traceback, is never kept (see
    agent.receive_phase and verification.RoundMemo.check).
    test_runs_leave_no_cyclic_garbage guards that premise. The collector's
    state is restored on return and on error. Execution.steps() never
    pauses it, as it yields to its caller mid-run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        ex = Execution(config)
        for _ in ex.steps():
            pass
        return ex.result()
    finally:
        if enabled:
            gc.enable()


def _error_payload(st):
    err = st.last_error
    return {"agent": st.id, "error": str(err), "category": err.category,
            "rule": err.rule}


def _basic_invariants(decisions, values):
    """Safety properties checkable from decision labels alone."""
    decided = {d for d in decisions.values()
               if d not in ("bot", "no_decision", "undecided")}
    agreement = len(decided) <= 1
    termination = all(d != "undecided" for d in decisions.values())
    validity = decided <= set(values)
    return {
        "uniform_agreement": (agreement, f"decided values {sorted(decided)}"),
        "termination": (termination, ""),
        "validity": (validity, f"{sorted(decided)} vs initial {sorted(set(values))}"),
    }


@dataclass
class ExperimentSummary:
    deviation: str
    runs: int
    mean_honest: float
    mean_deviant: float
    mean_diff: float
    se_diff: float
    gain_within_noise: bool        # deviant gain <= 2 standard errors
    detection_rate: float          # fraction of deviant runs with any bot
    applied_rate: float
    guess_trials: int = 0
    guess_hits: int = 0

    @property
    def guess_rate(self):
        return self.guess_hits / self.guess_trials if self.guess_trials else None


def deviation_study(base: RunConfig, makers, runs: int) -> list:
    """Paired comparison of each deviant's utility against its honest self.

    Every trial runs one seed honest once, then once per maker with its
    fresh deviation installed, and records the deviating agent's utility
    difference. Each run takes the base config's pattern and values when
    given, and otherwise samples them from the seed. Returns one summary
    per maker, in maker order.
    """
    if runs < 1:
        raise ValueError(f"a study needs at least one run, got {runs}")
    tallies = [[] for _ in makers]     # per maker, one row per seed
    for k in range(runs):
        honest_cfg = replace(base, seed=base.seed + k, sample_pattern=True,
                             deviation=None, check_invariants=False,
                             trace=None)
        honest = run(honest_cfg).utilities
        for make_dev, rows in zip(makers, tallies):
            dev = make_dev()
            label = dev.describe()
            rd = run(replace(honest_cfg, deviation=dev))
            rows.append((label, honest[dev.agent], rd.utilities[dev.agent],
                         "bot" in rd.decisions.values(), rd.deviation_applied,
                         len(rd.guesses), sum(g["hit"] for g in rd.guesses)))
    return [_summary(rows) for rows in tallies]


def _summary(rows) -> ExperimentSummary:
    labels, honest_u, dev_u, detected, applied, trials, hits = zip(*rows)
    diffs = [du - hu for hu, du in zip(honest_u, dev_u)]
    runs = len(rows)
    mean_diff = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(runs) if runs > 1 else 0.0
    return ExperimentSummary(
        deviation=labels[-1], runs=runs,
        mean_honest=statistics.fmean(honest_u),
        mean_deviant=statistics.fmean(dev_u),
        mean_diff=mean_diff, se_diff=se,
        gain_within_noise=mean_diff <= 2 * se,
        detection_rate=sum(detected) / runs,
        applied_rate=sum(applied) / runs,
        guess_trials=sum(trials), guess_hits=sum(hits))


def deviation_experiment(base: RunConfig, make_dev, runs: int) -> ExperimentSummary:
    """The study of one deviation; see deviation_study."""
    return deviation_study(base, [make_dev], runs)[0]
