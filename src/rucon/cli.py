"""Command-line front end: single runs, batches, deviation sweeps, and
offline re-checking of recorded traces.

Exit codes: 0 success, 1 property failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace

from .deviations import DEVIATION_TYPES, make_deviation
from .simulator import (FailurePattern, RunConfig, _basic_invariants,
                        deviation_study, run)


def _loads(text: str, where: str):
    """json.loads, with input nested too deeply to parse, and any other
    ValueError but a syntax error, raised as a ValueError that names where
    the input came from (an integer of too many digits is one)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _int_field(rec, key, lineno) -> int:
    v = rec.get(key)
    if type(v) is not int:
        raise ValueError(f"pattern line {lineno}: {key} must be an integer, "
                         f"got {v!r}")
    return v


def load_pattern(path: str) -> FailurePattern:
    """One JSON object per line: agent, kind, from_round, and a peer for
    send and receive omissions. Raises ValueError on a malformed line."""
    crash, send_om, recv_om = {}, {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = _loads(line, f"pattern line {lineno}")
            if not isinstance(rec, dict):
                raise ValueError(f"pattern line {lineno} is not an object")
            agent = _int_field(rec, "agent", lineno)
            onset = _int_field(rec, "from_round", lineno)
            kind = rec.get("kind")
            if kind == "crash":
                crash[agent] = onset
            elif kind == "send":
                send_om[(agent, _int_field(rec, "peer", lineno))] = onset
            elif kind == "receive":
                recv_om[(agent, _int_field(rec, "peer", lineno))] = onset
            else:
                raise ValueError(f"unknown failure kind {kind!r}")
    return FailurePattern(crash=crash, send_om=send_om, recv_om=recv_om)


def write_trace(path: str, records: list):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _build_config(args) -> RunConfig:
    domain = tuple(args.domain.split(","))
    values = args.values.split(",") if args.values else None
    pattern = load_pattern(args.pattern) if args.pattern else None
    utilities = tuple(float(x) for x in args.utilities.split(","))
    if len(utilities) != 3:
        raise ValueError("utilities must be three comma-separated numbers")
    config = RunConfig(n=args.n, t=args.t, seed=args.seed, values=values,
                       value_domain=domain, pattern=pattern,
                       utilities=utilities)
    config.validate()   # before any command prints a line
    return config


def _print_result(res):
    print(f"decisions: {res.decisions}")
    print(f"outcome: {res.outcome}")
    print(f"m*: {res.m_star}  D: {res.d_set}")
    print(f"utilities: {res.utilities}")
    for name, (ok, detail) in res.invariants.items():
        line = f"invariant {name}: {'ok' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)


def cmd_run(args) -> int:
    config = _build_config(args)
    config.sample_pattern = args.sample_pattern
    sink = [] if args.trace else None
    config.trace = sink
    res = run(config)
    if args.trace:
        write_trace(args.trace, sink)
    _print_result(res)
    return 0 if res.invariants_ok else 1


def cmd_batch(args) -> int:
    base = _build_config(args)
    failures = 0
    outcomes, m_stars = Counter(), Counter()
    for k in range(args.runs):
        # a --pattern file, when given, takes precedence over sampling
        cfg = replace(base, seed=base.seed + k, sample_pattern=True)
        res = run(cfg)
        ok = res.invariants_ok
        failures += not ok
        outcomes[res.outcome[0]] += 1
        m_stars[res.m_star] += 1
        print(f"seed={cfg.seed} outcome={res.outcome} m*={res.m_star} "
              f"D={res.d_set} invariants={'ok' if ok else 'FAIL'}")
    print("outcomes: " + " ".join(
        f"{o}={c}" for o, c in sorted(outcomes.items())))
    # m* may also be None or a list, so sort by its text
    print("decision rounds (m*): " + " ".join(
        f"{m}={c}" for m, c in sorted(m_stars.items(), key=lambda kv: str(kv[0]))))
    print(f"{args.runs - failures}/{args.runs} runs clean")
    return 0 if failures == 0 else 1


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        key, _, raw = pair.partition("=")
        try:
            params[key] = _loads(raw, f"--param {key}")
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _summary_line(s) -> str:
    line = (f"{s.deviation}: honest {s.mean_honest:.4f} "
            f"deviant {s.mean_deviant:.4f} diff {s.mean_diff:+.4f} "
            f"(se {s.se_diff:.4f}) detection {s.detection_rate:.3f} "
            f"applied {s.applied_rate:.3f}")
    if s.guess_trials:
        line += (f" guesses: {s.guess_hits}/{s.guess_trials} hit "
                 f"({s.guess_rate:.4f})")
    return line


def cmd_deviate(args) -> int:
    types = sorted(DEVIATION_TYPES) if args.type == "all" else [args.type]
    base = _build_config(args)
    params = _parse_params(args.param)
    for key in ("agent", "seed"):
        if key in params:
            raise ValueError(f"--param {key}=... is not a deviation "
                             f"parameter; use --{key}")
    # a bad agent, type or parameter raises inside the first seed, so the
    # study returns, and this prints, only once every deviation is valid
    summaries = deviation_study(
        base, [lambda tid=tid: make_deviation(tid, agent=args.agent,
                                              seed=args.seed, **params)
               for tid in types], args.runs)
    print(f"n={base.n} t={base.t} runs={args.runs} deviant={args.agent}")
    for summary in summaries:
        print(_summary_line(summary))
    worst = max(summaries, key=lambda s: s.mean_diff - 2 * s.se_diff)
    verdict = ("no profitable gain" if worst.gain_within_noise
               else "GAIN DETECTED")
    print(f"verdict: {verdict} (worst: {worst.deviation})")
    return 0 if worst.gain_within_noise else 1


def cmd_verify_trace(args) -> int:
    try:
        records = []
        with open(args.trace_file) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    rec = _loads(line, f"trace line {lineno}")
                    if not isinstance(rec, dict):
                        raise ValueError(f"trace line {lineno} is not an "
                                         "object")
                    records.append(rec)
        meta = next((r for r in records
                     if r.get("phase") == "meta" and r.get("event") == "config"),
                    None)
        if meta is None:
            raise ValueError("trace has no config record")
        n, values = meta["payload"]["n"], meta["payload"]["values"]
        if (type(n) is not int or n < 1 or type(values) is not list
                or len(values) != n):
            raise ValueError(
                f"config needs an integer n >= 1 and n values, got n={n!r}")
        result = next((r for r in records if r.get("event") == "result"), None)
        recorded = result["payload"]["decisions"] if result else {}
        decisions = {i: recorded.get(str(i), "undecided") for i in range(1, n + 1)}
        report = _basic_invariants(decisions, values)
    # a record without the shape write_trace gives it fails in one of these
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        print(f"unreadable trace: {exc!r}", file=sys.stderr)
        return 2
    problems = [f"{name}: FAIL ({detail})"
                for name, (ok, detail) in report.items() if not ok]
    for p in problems:
        print(p)
    if not problems:
        print("trace clean")
    return 0 if not problems else 1


def _type_arg(raw: str):
    return raw if raw == "all" else int(raw)


def _runs_arg(raw: str) -> int:
    runs = int(raw)
    if runs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {runs}")
    return runs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rucon",
        description="Synchronous consensus simulator with omission failures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--values", default=None,
                       help="comma-separated initial values, one per agent")
        p.add_argument("--domain", default="a,b,c")
        p.add_argument("--pattern", default=None, help="failure pattern file")
        p.add_argument("--utilities", default="2,1,0")

    p_run = sub.add_parser("run", help="execute one run")
    add_common(p_run)
    p_run.add_argument("--sample-pattern", action="store_true",
                       help="sample a failure pattern from the seed")
    p_run.add_argument("--trace", default=None, help="trace output path")
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="many seeded runs with sampled patterns")
    add_common(p_batch)
    p_batch.add_argument("--runs", type=_runs_arg, default=100)
    p_batch.set_defaults(func=cmd_batch)

    p_dev = sub.add_parser("deviate", help="paired deviation experiment")
    add_common(p_dev)
    p_dev.add_argument("--type", type=_type_arg, required=True,
                       help="deviation type id, or 'all'")
    p_dev.add_argument("--agent", type=int, default=1)
    p_dev.add_argument("--runs", type=_runs_arg, default=200)
    p_dev.add_argument("--param", action="append",
                       help="deviation parameter key=value (repeatable)")
    p_dev.set_defaults(func=cmd_deviate)

    p_vt = sub.add_parser("verify-trace", help="re-check a recorded trace")
    p_vt.add_argument("trace_file")
    p_vt.set_defaults(func=cmd_verify_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
