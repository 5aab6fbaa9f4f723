"""Per-layer tracing from outside the library.

A Tracer replaces the public functions of each rucon module, and the
methods of the invariant monitor and the deviation strategies, with timing
wrappers. It patches every module attribute bound to the original object,
so each call site that looks the name up at call time goes through the
wrapper, and it puts every original back on exit. Each call is one span
with a parent; a span's self time is its duration minus that of its child
spans. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (home module, attribute)
FUNCTIONS = {
    "simulator.run": ("rucon.simulator", "run"),
    "simulator.deviation_experiment": ("rucon.simulator",
                                       "deviation_experiment"),
    "simulator.deliver": ("rucon.simulator", "deliver"),
    "agent.init_agent": ("rucon.agent", "init_agent"),
    "agent.send_phase": ("rucon.agent", "send_phase"),
    "agent.receive_phase": ("rucon.agent", "receive_phase"),
    "agent.compute_phase": ("rucon.agent", "compute_phase"),
    "verification.verify_and_update": ("rucon.verification",
                                       "verify_and_update"),
    "verification.verify_msg_chain": ("rucon.verification",
                                      "verify_msg_chain"),
    "verification.verify_state": ("rucon.verification", "verify_state"),
    "verification.merge_state": ("rucon.verification", "merge_state"),
    "links.append_hs": ("rucon.links", "append_hs"),
    "links.last_update": ("rucon.links", "last_update"),
    "decision.decision_round": ("rucon.decision", "decision_round"),
    "decision.decision_set": ("rucon.decision", "decision_set"),
    "decision.elect": ("rucon.decision", "elect"),
    "decision.agent_status": ("rucon.decision", "agent_status"),
    "sharing.reconstruct": ("rucon.sharing", "reconstruct"),
    "sharing.share_for": ("rucon.sharing", "share_for"),
}
# span name -> (module, class, method)
METHODS = {
    "invariants.after_round": ("rucon.invariants", "InvariantMonitor",
                               "after_round"),
    "invariants.finalize": ("rucon.invariants", "InvariantMonitor",
                            "finalize"),
}
DEVIATION_HOOKS = ("bind", "after_init", "mutate_outgoing", "filter_inbox",
                   "after_receive", "after_compute")

# Layers that a workload must reach; zero calls there means a call site was
# renamed or rebound past the wrappers.
BASE_LAYERS = tuple(n for n in FUNCTIONS if n != "simulator.deviation_experiment")
REQUIRED = {
    "honest-n13": BASE_LAYERS,
    "honest-n5-checked": BASE_LAYERS + tuple(METHODS),
    "deviation-study": BASE_LAYERS + ("simulator.deviation_experiment",
                                      "deviations.hooks"),
}

REJECT_CATEGORIES = ("format", "source", "random", "round", "chain", "merge")


class Tracer:
    """Context manager that installs the wrappers and aggregates spans."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)    # name -> seconds, children included
        self.child = defaultdict(float)   # name -> seconds in child spans
        self.counts = Counter()           # name -> events counted at a boundary
        self.spans = []                   # (id, parent, name, start, end)
        self.keep_spans = False
        self._stack = []                  # open spans: [id, child seconds]
        self._next_id = 0
        self._patched = []                # (owner, attribute, original)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        calls, incl, child, stack = self.calls, self.incl, self.child, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            exc = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                incl[name] += t1 - t0
                child[name] += frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent, name, t0, t1))
                if observe is not None:
                    observe(args, kwargs, result, exc)
        return wrapper

    def self_time(self, name):
        return self.incl[name] - self.child[name]

    # -- counters taken at layer boundaries -----------------------------

    def _on_verify(self, args, kwargs, result, exc):
        received = args[1] if len(args) > 1 else kwargs["received"]
        self.counts["verification.reports_received"] += sum(
            len(ns) for ns in received.values())
        category = getattr(exc, "category", None)
        if category is not None:
            self.counts[f"reject:{category}/{exc.rule}"] += 1

    def _on_send(self, args, kwargs, result, exc):
        if result:
            self.counts["agent.ns_entries_sent"] += sum(
                len(m.get("ns", ())) for m in result.values())

    def _on_deliver(self, args, kwargs, result, exc):
        outboxes = args[1] if len(args) > 1 else kwargs["outboxes"]
        self.counts["simulator.messages_sent"] += sum(
            len(m) for m in outboxes.values())
        if result is not None:
            self.counts["simulator.messages_delivered"] += sum(
                len(m) for m in result.values())

    # -- install and restore --------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "rucon" or k.startswith("rucon.")]
        observers = {"verification.verify_and_update": self._on_verify,
                     "agent.send_phase": self._on_send,
                     "simulator.deliver": self._on_deliver}
        try:
            for name, (home, attr) in FUNCTIONS.items():
                original = getattr(sys.modules[home], attr)
                wrapper = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            for name, (home, cls_name, attr) in METHODS.items():
                cls = getattr(sys.modules[home], cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
            deviations = sys.modules["rucon.deviations"]
            for cls in vars(deviations).values():
                if (isinstance(cls, type)
                        and issubclass(cls, deviations.Deviation)):
                    for hook in DEVIATION_HOOKS:
                        if hook in vars(cls):
                            self._patch(cls, hook, self._wrap(
                                "deviations.hooks", vars(cls)[hook]))
        except (KeyError, AttributeError):
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self):
        """Whether every patched name is bound to its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patched)

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Deterministic counters so far: calls per layer and boundary counts."""
        snap = {f"calls:{k}": v for k, v in self.calls.items()}
        snap.update(self.counts)
        return snap

    def missing(self, workload):
        return [name for name in REQUIRED[workload] if not self.calls[name]]

    def layer_metrics(self, ops):
        """Per-operation layer metrics; times in ms, counts per operation."""
        ms = 1000.0 / ops
        c, k = self.calls, self.counts
        received = k["verification.reports_received"]
        rejected = Counter()
        for key, v in k.items():
            if key.startswith("reject:"):
                rejected[key[7:].split("/")[0]] += v
        m = {
            "verification.verify_and_update.self_ms":
                self.self_time("verification.verify_and_update") * ms,
            "verification.verify_msg_chain.ms":
                self.incl["verification.verify_msg_chain"] * ms,
            "verification.verify_state.ms":
                self.incl["verification.verify_state"] * ms,
            "verification.merge_state.ms":
                self.incl["verification.merge_state"] * ms,
            "verification.reports_received": received / ops,
            "verification.reports_verified":
                c["verification.verify_state"] / ops,
            "verification.verify_ratio":
                c["verification.verify_state"] / received if received else 0.0,
            "verification.rejected": sum(rejected.values()) / ops,
        }
        for cat in REJECT_CATEGORIES:
            m[f"verification.rejected.{cat}"] = rejected[cat] / ops
        m.update({
            "links.append_hs.calls": c["links.append_hs"] / ops,
            "links.append_hs.ms": self.incl["links.append_hs"] * ms,
            "links.last_update.ms": self.incl["links.last_update"] * ms,
            "agent.send_phase.ms": self.incl["agent.send_phase"] * ms,
            "agent.receive_phase.ms": self.incl["agent.receive_phase"] * ms,
            "agent.compute_phase.self_ms":
                self.self_time("agent.compute_phase") * ms,
            "agent.ns_entries_sent": k["agent.ns_entries_sent"] / ops,
            "decision.decision_round.ms":
                self.incl["decision.decision_round"] * ms,
            "decision.decision_set.ms": self.incl["decision.decision_set"] * ms,
            "decision.elect.ms": self.incl["decision.elect"] * ms,
            "decision.agent_status.calls": c["decision.agent_status"] / ops,
            "sharing.reconstruct.ms": self.incl["sharing.reconstruct"] * ms,
            "sharing.reconstruct.calls": c["sharing.reconstruct"] / ops,
            "sharing.share_for.calls": c["sharing.share_for"] / ops,
            "invariants.after_round.ms":
                self.incl["invariants.after_round"] * ms,
            "invariants.after_round.calls": c["invariants.after_round"] / ops,
            "invariants.finalize.ms": self.incl["invariants.finalize"] * ms,
            "invariants.finalize.calls": c["invariants.finalize"] / ops,
            "simulator.run.self_ms": self.self_time("simulator.run") * ms,
            "simulator.deliver.ms": self.incl["simulator.deliver"] * ms,
            "simulator.messages_sent": k["simulator.messages_sent"] / ops,
            "simulator.messages_delivered":
                k["simulator.messages_delivered"] / ops,
            "simulator.runs_per_trial": c["simulator.run"] / (
                c["simulator.deviation_experiment"] or ops),
            "deviations.hooks.ms": self.incl["deviations.hooks"] * ms,
            "deviations.hooks.calls": c["deviations.hooks"] / ops,
        })
        return m

    def rejections_by_rule(self):
        return {key[7:]: v for key, v in sorted(self.counts.items())
                if key.startswith("reject:")}
