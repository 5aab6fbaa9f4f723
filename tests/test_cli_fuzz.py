"""Generated-input fuzz of the command-line front end.

A seeded stream of argument vectors, pattern-file lines and trace lines goes
through cli.main in process: random JSON of bounded depth, nesting deeper
than the parser can follow, NaN and Infinity, ints past the 4,300-digit
conversion limit, duplicate keys, bools and floats where ints belong, and
bytes that are not UTF-8. Whatever the input, the command must end in exit
0, 1 or 2 without a traceback, and exit 1 only with the finding it reports.
Every run it asks for is small: n stays at most 5.
"""

import json
import random

from rucon.cli import main

CASES = 1000
FINDINGS = ("FAIL", "GAIN DETECTED")
WORDS = ["agent", "kind", "from_round", "peer", "crash", "send", "receive",
         "phase", "event", "payload", "meta", "config", "result", "n",
         "values", "decisions", "a", "b", "c", "1", "", "é", " "]
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]


def _scalar(rng) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return str(rng.randint(-3, 8))
    if kind == 1:
        return "9" * rng.randint(4301, 4400)
    if kind == 2:
        return rng.choice(["1.0", "2.5", "-0.0", "5.0", "1e400"])
    if kind == 3:
        return rng.choice(["NaN", "Infinity", "-Infinity"])
    if kind == 4:
        return rng.choice(["true", "false", "null"])
    return json.dumps(rng.choice(WORDS))


def _json(rng, depth: int) -> str:
    """Random JSON text at most depth containers deep. Keys repeat at
    random, so objects may carry duplicates."""
    if depth <= 0 or rng.random() < 0.35:
        return _scalar(rng)
    items = range(rng.randint(0, 4))
    if rng.random() < 0.5:
        return "[" + ",".join(_json(rng, depth - 1) for _ in items) + "]"
    return "{" + ",".join(f"{json.dumps(rng.choice(WORDS))}:"
                          f"{_json(rng, depth - 1)}" for _ in items) + "}"


def _deep(rng) -> str:
    """Nesting near, at and far past what json.loads can follow."""
    k = rng.choice([900, 990, 1000, 5000, 100_000])
    if rng.random() < 0.5:
        return "[" * k + "]" * k
    return '{"a":' * k + "1" + "}" * k


def _field(rng, plausible) -> str:
    """A field's JSON: mostly a plausible value, else anything."""
    roll = rng.random()
    if roll < 0.8:
        return json.dumps(plausible)
    if roll < 0.9:
        return rng.choice(["true", "false", "1.0", "2.0", "NaN", "Infinity"])
    return _json(rng, 2)


def _record(rng, fields: dict) -> str:
    """An object of the given fields, some dropped or repeated."""
    parts = [f"{json.dumps(k)}:{v}" for k, v in fields.items()
             if rng.random() < 0.95]
    if parts and rng.random() < 0.2:
        parts.append(rng.choice(parts))
    return "{" + ",".join(parts) + "}"


def _line(rng, record) -> bytes:
    roll = rng.random()
    if roll < 0.05:
        text = _deep(rng)
    elif roll < 0.15:
        text = _json(rng, 4)
    else:
        text = record(rng)
    raw = text.encode()
    if rng.random() < 0.05:
        cut = rng.randrange(len(raw) + 1)
        raw = raw[:cut] + rng.choice(NOT_UTF8) + raw[cut:]
    return raw


def _pattern_record(rng) -> str:
    return _record(rng, {
        "agent": _field(rng, rng.randint(1, 5)),
        "kind": _field(rng, rng.choice(["crash", "send", "receive"])),
        "from_round": _field(rng, rng.randint(1, 4)),
        "peer": _field(rng, rng.randint(1, 5))})


def _trace_record(rng) -> str:
    if rng.random() < 0.5:
        n = rng.randint(1, 5)
        payload = _record(rng, {
            "n": _field(rng, n),
            "values": _field(rng, [rng.choice("abc") for _ in range(n)])})
        return _record(rng, {"phase": '"meta"', "event": '"config"',
                             "payload": payload})
    decisions = _field(rng, {str(i): rng.choice(["a", "b", "bot",
                                                 "undecided"])
                             for i in range(1, 6)})
    return _record(rng, {"event": '"result"',
                         "payload": _record(rng, {"decisions": decisions})})


def _write(path, rng, record) -> str:
    path.write_bytes(b"\n".join(_line(rng, record)
                                for _ in range(rng.randint(1, 4))) + b"\n")
    return str(path)


def _text(rng) -> str:
    """A command-line word: plausible, JSON, or a non-UTF-8 byte as Python
    decodes it from argv."""
    roll = rng.random()
    if roll < 0.2:
        return _json(rng, 3)
    if roll < 0.3:
        return "\udcff"
    return rng.choice(WORDS)


def _argv(rng, tmp_path, k: int) -> list:
    command = rng.choice(["run", "batch", "deviate", "verify-trace"])
    if command == "verify-trace":
        return [command, _write(tmp_path / f"trace{k}.jsonl", rng,
                                _trace_record)]
    n, t = rng.choice([("5", "1"), ("5", "1"), ("3", "0"), ("4", "1")])
    seed = rng.choice(["0", "7", "-3"])
    if rng.random() < 0.2:
        n = rng.choice(["2", "0", "-1", "x", "5.0", "9" * 4400])
    if rng.random() < 0.1:
        t = rng.choice(["2", "-1", "True", "1.0"])
    if rng.random() < 0.1:
        seed = rng.choice(["1e3", "", "9" * 4400])
    argv = [command, "--n", n, "--t", t, "--seed", seed]
    if rng.random() < 0.2:
        argv += ["--values", ",".join(_text(rng) if rng.random() < 0.2
                                      else rng.choice("abc")
                                      for _ in range(rng.randint(2, 6)))]
    if rng.random() < 0.1:
        argv += ["--domain", rng.choice(["a,b", "x", "a,a", ",", "\udcff,b",
                                         "a,b,c,d"])]
    if rng.random() < 0.1:
        argv += ["--utilities", rng.choice(["2,1,0", "nan,1,0", "inf,1,0",
                                            "1e400,1,0", "1,2,3", "2,1",
                                            "a,b,c", "True,1,0"])]
    if rng.random() < 0.3:
        argv += ["--pattern", _write(tmp_path / f"pattern{k}.jsonl", rng,
                                     _pattern_record)]
    if command == "run" and rng.random() < 0.5:
        argv.append("--sample-pattern")
    if command in ("batch", "deviate"):
        argv += ["--runs", rng.choice(["0", "-1", "x"]) if rng.random() < 0.1
                 else rng.choice(["1", "2"])]
    if command == "deviate":
        argv += ["--type", rng.choice(["0", "11", "x", "True"])
                 if rng.random() < 0.1
                 else rng.choice([str(i) for i in range(1, 11)] + ["all"])]
        if rng.random() < 0.3:
            argv += ["--agent", rng.choice(["1", "5", "0", "6", "x"])]
        for _ in range(rng.randint(0, 2)):
            key = rng.choice(["targets", "round", "case", "guess", "agent",
                              "seed", "value", ""])
            roll = rng.random()
            value = (_deep(rng) if roll < 0.15 else _json(rng, 3)
                     if roll < 0.6 else _text(rng))
            argv += ["--param", f"{key}={value}"]
    return argv


def test_cli_survives_generated_input(tmp_path, capsys):
    rng = random.Random(20240607)
    exits = set()
    for k in range(CASES):
        argv = _argv(rng, tmp_path, k)
        code = main(argv)
        out, err = capsys.readouterr()
        shown = [arg[:80] for arg in argv]
        assert code in (0, 1, 2), (shown, code)
        assert "Traceback" not in out + err, shown
        if code == 1:
            assert any(f in out for f in FINDINGS), (shown, out)
        exits.add(code)
    # the stream reaches every exit, not only the usage errors
    assert exits == {0, 1, 2}
