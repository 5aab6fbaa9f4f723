"""Run-time instrumentation of the knowledge-propagation guarantees.

The monitor watches an honest run from outside: after each round it snapshots
ground-truth faults from the agents' lost maps and checks that the agents'
views actually converge as fast as the analysis promises. An agent's view is
its settled link history, links.last_update, the same rule its decision reads.
All checks are observational: the monitor never feeds anything back into the
protocol.
"""

from __future__ import annotations

from .agent import BOT
from .links import all_links, last_update, link_of
from . import decision as decision_mod


def ground_faulty(agents: dict, t: int):
    """Agents with more than t links severed so far, judged from the agents'
    own lost maps; honest agents never qualify."""
    broken = {link_of(a, b) for a, st in agents.items() for b in st.lost}
    count = {a: 0 for a in agents}
    for (a, b) in broken:
        count[a] += 1
        count[b] += 1
    return {a for a, c in count.items() if c > t}


def observer_set(agents: dict, faulty) -> dict:
    """Agents whose views must agree: neither ground-faulty nor punished,
    since a bot agent's tables stop wherever its verification did."""
    return {a: st for a, st in sorted(agents.items())
            if a not in faulty and st.decision != BOT}


def risk_count(pattern, agents: dict, r: int) -> int:
    """Scripted-faulty agents still in the game at round r.

    An agent stops being a propagation risk once it is silenced: crashed,
    or terminated by its own give-up rule. Until then it may hold link
    knowledge hostage for one extra round each.
    """
    count = 0
    for a in pattern.faulty_agents():
        if pattern.crash.get(a, float("inf")) <= r:
            continue
        if agents[a].decision is not None:
            continue
        count += 1
    return count


class InvariantMonitor:
    """Collects per-round evidence and renders a pass/fail report."""

    def __init__(self, n: int, t: int, pattern):
        self.n = n
        self.t = t
        self.pattern = pattern
        self.links = all_links(n)
        self.pending = []          # (check round, source round, bound name)
        self.failures = []
        self.faulty_by_round = {}

    def after_round(self, agents: dict, r: int):
        """Call once per round, after every agent's compute phase."""
        t = self.t
        faulty = ground_faulty(agents, t)
        self.faulty_by_round[r] = faulty
        if r + t + 1 <= t + 3:
            self.pending.append((r + t + 1, r, "message-passing bound"))
        sharp = r + risk_count(self.pattern, agents, r) + 1
        if sharp < r + t + 1 and sharp <= t + 3:
            self.pending.append((sharp, r, "sharper bound"))
        due = [p for p in self.pending if p[0] == r]
        self.pending = [p for p in self.pending if p[0] > r]
        if not due:
            return
        # every due check has check round r, so one observer set serves all,
        # and the history through r holds that through each source round
        views = [last_update(st.ns, st.hs, r)
                 for st in observer_set(agents, faulty).values()]
        for _, source_round, bound in due:
            for link in self.links:
                # each observer's opinion of the link: 'R', 'X' or 'O' for unknown
                seen = {view.get((link, source_round), "O") for view in views}
                if len(seen) > 1:
                    self.failures.append(
                        f"{bound}: round-{source_round} state of {link} still "
                        f"disputed at round {r}: {sorted(seen)}")

    def finalize(self, agents: dict) -> dict:
        """End-of-run checks; returns {invariant name: (ok, detail)}."""
        n, t = self.n, self.t
        report = {}
        report["message_passing_bound"] = (not self.failures,
                                           "; ".join(self.failures))

        faulty = (self.faulty_by_round[t + 3] if t + 3 in self.faulty_by_round
                  else ground_faulty(agents, t))
        observers = observer_set(agents, faulty)
        if not observers:
            # every agent judged faulty: there is no view to check against
            for name in ("clean_round_density", "hs_convergence",
                         "machinery_agreement"):
                report[name] = (False, "no non-faulty observer")
            return report
        ref = observers[min(observers)]

        timeline = decision_mod.status_timeline(
            last_update(ref.ns, ref.hs, t + 3), n, t)
        cleans = decision_mod.clean_rounds(timeline)
        density_ok = len([c for c in cleans if c <= t + 2]) >= 2
        detail = ""
        for start in range(1, t + 4 - t):
            window = range(start, start + t + 1)
            if not any(c in window for c in cleans):
                density_ok = False
                detail = f"no fault-quiet round in {list(window)}"
        report["clean_round_density"] = (density_ok, detail or str(cleans))

        # All still-working agents must judge every link identically for
        # rounds up to the second fault-quiet round. Raw report sets may
        # differ (a report received directly is kept even when it is never
        # relayed onward), so the comparison is on settled histories.
        horizon = min(cleans[1] if len(cleans) >= 2 else t + 3, t + 3)
        hs_ok, hs_detail = True, ""
        ref_map = last_update(ref.ns, ref.hs, horizon)
        for a, st in sorted(observers.items()):
            if last_update(st.ns, st.hs, horizon) != ref_map:
                hs_ok = False
                hs_detail = f"agent {a} judges some link differently through round {horizon}"
                break
        report["hs_convergence"] = (hs_ok, hs_detail)

        m_stars = {st.m_star for st in observers.values()}
        d_sets = {tuple(st.d_set) if st.d_set else None
                  for st in observers.values()}
        mach_ok = len(m_stars) == 1 and None not in m_stars and len(d_sets) == 1
        report["machinery_agreement"] = (
            mach_ok, f"m*={sorted(m_stars, key=str)} D={sorted(d_sets, key=str)}")
        return report
