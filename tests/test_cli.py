"""Exit codes and file formats of the command-line front end."""

import json

import rucon.cli
from rucon.cli import main
from rucon.simulator import ExperimentSummary, run


def test_run_clean_exit(capsys):
    code = main(["run", "--n", "5", "--t", "1", "--seed", "7",
                 "--sample-pattern"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: ('consensus'" in out


def test_run_invalid_parameters():
    assert main(["run", "--n", "4", "--t", "2", "--seed", "1"]) == 2


def test_negative_t_is_usage_error(capsys):
    common = ["--n", "5", "--t", "-1", "--seed", "0"]
    for argv in (["run"] + common, ["run", "--sample-pattern"] + common,
                 ["batch", "--runs", "2"] + common,
                 ["deviate", "--type", "10", "--runs", "2"] + common):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "t must be at least 0" in captured.err, argv


def test_run_validity(capsys):
    code = main(["run", "--n", "3", "--t", "0", "--seed", "1",
                 "--values", "a,b,c"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(f"('consensus', '{v}')" in out for v in "abc")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_pattern_file_roundtrip(tmp_path, capsys):
    pattern = tmp_path / "pattern.jsonl"
    pattern.write_text(
        '{"agent": 5, "kind": "crash", "from_round": 1}\n'
        '{"agent": 5, "kind": "send", "peer": 1, "from_round": 1}\n')
    code = main(["run", "--n", "5", "--t", "1", "--seed", "3",
                 "--pattern", str(pattern)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no_decision" in out


def test_pattern_file_malformed_is_usage_error(tmp_path):
    pattern = tmp_path / "pattern.jsonl"
    for line in ('{"agent": 5}', '[1, 2]',
                 '{"agent": 5, "kind": "send", "from_round": 1}',
                 '{"agent": "5", "kind": "crash", "from_round": 1}',
                 '{"agent": 2, "kind": "send", "peer": 2, "from_round": 1}',
                 '{"agent": 2, "kind": "receive", "peer": 2, "from_round": 1}',
                 '{"agent": 2, "kind": "crash", "from_round": -3}',
                 '{"agent": 2, "kind": "send", "peer": 3, "from_round": 0}'):
        pattern.write_text(line + "\n")
        assert main(["run", "--n", "5", "--t", "1", "--seed", "3",
                     "--pattern", str(pattern)]) == 2, line


def test_pattern_file_unknown_kind_is_usage_error(tmp_path, capsys):
    pattern = tmp_path / "pattern.jsonl"
    pattern.write_text('{"agent": 5, "kind": "drop", "from_round": 1}\n')
    assert main(["run", "--n", "5", "--t", "1", "--seed", "3",
                 "--pattern", str(pattern)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown failure kind 'drop'" in captured.err


def test_pattern_file_skips_blank_lines(tmp_path, capsys):
    pattern = tmp_path / "pattern.jsonl"
    lines = ['{"agent": 5, "kind": "crash", "from_round": 1}',
             '{"agent": 5, "kind": "send", "peer": 1, "from_round": 1}']
    outs = []
    for text in ("\n".join(lines) + "\n",
                 "\n" + "\n  \n".join(lines) + "\n\n"):
        pattern.write_text(text)
        assert main(["run", "--n", "5", "--t", "1", "--seed", "3",
                     "--pattern", str(pattern)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "no_decision" in outs[1]


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    # nesting json.loads cannot follow names its input and exits 2, in
    # each of the three places the front end parses JSON
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    common = ["--n", "5", "--t", "1", "--seed", "0"]
    for argv, where in (
            (["verify-trace", str(deep)], "trace line 1"),
            (["run", "--pattern", str(deep)] + common, "pattern line 1"),
            (["deviate", "--type", "1", "--runs", "1", "--param",
              "targets=" + "[" * 50_000 + "]" * 50_000] + common,
             "--param targets")):
        assert main(argv) == 2, where
        captured = capsys.readouterr()
        assert captured.out == "", where
        assert "Traceback" not in captured.err, where
        assert f"{where}: JSON nested too deeply" in captured.err


def test_malformed_json_messages_name_their_input(tmp_path, capsys):
    not_object = tmp_path / "list.jsonl"
    not_object.write_text('{"event": "noise"}\n\n[1,2]\n')
    huge = "9" * 4_400        # more digits than int() converts
    common = ["--n", "5", "--t", "1", "--seed", "0"]
    for argv, message in (
            (["verify-trace", str(not_object)], "trace line 3 is not an "
                                                "object"),
            (["deviate", "--type", "5", "--runs", "1", "--param",
              f"round={huge}"] + common, "--param round: Exceeds the limit")):
        assert main(argv) == 2, message
        captured = capsys.readouterr()
        assert captured.out == "", message
        assert message in captured.err
        assert "Traceback" not in captured.err, message


def test_utilities_must_be_finite(capsys):
    # an infinite utility would make every paired difference inf or nan
    common = ["--n", "5", "--t", "1", "--seed", "0"]
    for utilities in ("inf,1,0", "1e400,1,0", "2,1,-inf"):
        for argv in (["run"] + common,
                     ["deviate", "--type", "2", "--runs", "2"] + common):
            assert main(argv + ["--utilities", utilities]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "finite" in captured.err


def test_utilities_need_three_numbers(capsys):
    assert main(["run", "--n", "5", "--t", "1", "--seed", "0",
                 "--utilities", "2,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "utilities must be three comma-separated numbers" in captured.err


def test_batch(capsys):
    code = main(["batch", "--n", "5", "--t", "1", "--seed", "0",
                 "--runs", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 runs clean" in out
    assert "outcomes: consensus=" in out
    assert "decision rounds (m*): " in out


def test_batch_honours_values_and_pattern(tmp_path, capsys):
    assert main(["batch", "--n", "5", "--t", "1", "--seed", "0",
                 "--runs", "2", "--values", "z,z,z,z,z"]) == 2
    assert main(["batch", "--n", "5", "--t", "1", "--seed", "0",
                 "--runs", "2", "--sample-pattern"]) == 2
    # a batch of no runs is no evidence: refused before any output
    for runs in ("0", "-2"):
        assert main(["batch", "--n", "5", "--t", "1", "--seed", "0",
                     "--runs", runs]) == 2
    assert capsys.readouterr().out == ""
    pattern = tmp_path / "pattern.jsonl"
    pattern.write_text('{"agent": 5, "kind": "crash", "from_round": 1}\n')
    code = main(["batch", "--n", "5", "--t", "1", "--seed", "0",
                 "--runs", "3", "--values", "a,a,b,a,a",
                 "--pattern", str(pattern)])
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("seed=")]
    assert code == 0 and len(lines) == 3
    assert all("('consensus', 'a')" in line and "D=[1, 2, 3, 4] " in line
               for line in lines)


def test_deviate_unknown_type(capsys):
    assert main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--type", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown deviation type 99\n"


def test_deviate_no_gain(capsys):
    code = main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--type", "10", "--runs", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no profitable gain" in out


def test_deviate_gain_detected_exits_1(capsys, monkeypatch):
    # no real type gains (test_acceptance), so the study is a crafted one
    def study(base, makers, runs):
        return [ExperimentSummary("type3", runs, 1.0, 1.0, 0.0, 0.01, True,
                                  0.0, 1.0),
                ExperimentSummary("type5", runs, 1.0, 1.5, 0.5, 0.1, False,
                                  0.0, 1.0, guess_trials=4, guess_hits=1)]

    monkeypatch.setattr(rucon.cli, "deviation_study", study)
    code = main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--type", "all", "--runs", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[2] == (
        "type5: honest 1.0000 deviant 1.5000 diff +0.5000 (se 0.1000) "
        "detection 0.000 applied 1.000 guesses: 1/4 hit (0.2500)")
    assert out.splitlines()[-1] == "verdict: GAIN DETECTED (worst: type5)"


def test_run_prints_a_failed_invariant_with_its_detail(capsys, monkeypatch):
    def failing(config):
        res = run(config)
        res.invariants["uniform_agreement"] = (False, "decided values [0, 1]")
        return res

    monkeypatch.setattr(rucon.cli, "run", failing)
    code = main(["run", "--n", "5", "--t", "1", "--seed", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert ("invariant uniform_agreement: FAIL (decided values [0, 1])"
            in lines)
    assert "invariant termination: ok" in lines    # no detail when ok


def test_deviate_all_types(capsys):
    code = main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--type", "all", "--runs", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("type")] == [f"type{k}" for k in range(1, 11)]
    assert "verdict: no profitable gain (worst: type" in out


def test_deviate_bad_arguments_are_usage_errors(tmp_path, capsys):
    base = ["deviate", "--n", "5", "--t", "1", "--seed", "0", "--runs", "2"]
    assert main(base + ["--type", "10", "--runs", "0"]) == 2
    assert main(base + ["--type", "all", "--runs", "-2"]) == 2
    assert main(base + ["--type", "10", "--agent", "9"]) == 2
    assert main(base + ["--type", "all", "--agent", "9"]) == 2
    assert main(base + ["--type", "5", "--param", "round=abc"]) == 2
    assert main(base + ["--type", "1", "--param", "targets=[9]"]) == 2
    # a target list must name at least one peer of the deviant
    assert main(base + ["--type", "4", "--param", "targets=[]"]) == 2
    assert main(base + ["--type", "8", "--param", "targets=[1]"]) == 2
    # a repeated peer would take the edit twice
    assert main(base + ["--type", "2", "--param", "targets=[2,2]"]) == 2
    assert main(base + ["--type", "10", "--values", "z,z,z,z,z"]) == 2
    # type 6 has eight lie sub-cases
    assert main(base + ["--type", "6", "--param", "case=9"]) == 2
    assert main(base + ["--type", "6", "--param", "case=0"]) == 2
    # round t+4 messages carry no table to lie in
    assert main(base + ["--type", "7", "--param", "round=5"]) == 2
    assert main(base + ["--type", "6", "--param", "round=5"]) == 2
    # a round the run never has, a parameter the type does not declare, a
    # value of the wrong type
    assert main(base + ["--type", "5", "--param", "round=9"]) == 2
    assert main(base + ["--type", "10", "--param", "round=0"]) == 2
    assert main(base + ["--type", "1", "--param", "rund=3"]) == 2
    assert main(base + ["--type", "5", "--param", "guess=no"]) == 2
    # types 1-3, 8 and 9 take no round, so neither does --type all
    assert main(base + ["--type", "3", "--param", "round=2"]) == 2
    assert main(base + ["--type", "all", "--param", "round=2"]) == 2
    # deviate always samples, so only run takes the flag
    assert main(base + ["--type", "10", "--sample-pattern"]) == 2
    pattern = tmp_path / "pattern.jsonl"
    pattern.write_text('{"agent": 4, "kind": "crash", "from_round": 1}\n'
                       '{"agent": 5, "kind": "crash", "from_round": 1}\n')
    assert main(base + ["--type", "10", "--pattern", str(pattern)]) == 2
    # a repeated or missing domain value would decode two ways or none,
    # in every command that takes a domain
    common = ["--n", "5", "--t", "1", "--seed", "0"]
    for argv in (["run"] + common, ["batch", "--runs", "2"] + common,
                 base + ["--type", "all"]):
        for domain in ("a,a,b", "a,,b"):
            assert main(argv + ["--domain", domain]) == 2, (argv, domain)
    # the deviant and its seed are set by --agent and --seed alone
    assert main(base + ["--type", "10", "--param", "agent=2"]) == 2
    assert main(base + ["--type", "all", "--param", "seed=1"]) == 2
    # each is rejected before the header line
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "use --agent" in captured.err and "use --seed" in captured.err
    # null, the documented default, lets the type pick its own targets
    assert main(base + ["--type", "1", "--param", "targets=null"]) == 0


def test_deviate_honours_values(capsys):
    # every value a: each honest run decides a, worth 2 to the deviant
    assert main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--runs", "3", "--type", "10", "--values", "a,a,a,a,a"]) == 0
    assert "type10: honest 2.0000" in capsys.readouterr().out


def test_deviate_param_forwarding(capsys):
    code = main(["deviate", "--n", "5", "--t", "1", "--seed", "0",
                 "--type", "5", "--runs", "20", "--param", "round=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "guesses:" in out


def _write_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["run", "--n", "5", "--t", "1", "--seed", "7",
                 "--sample-pattern", "--trace", str(trace)]) == 0
    capsys.readouterr()
    return trace


def test_verify_trace_clean(tmp_path, capsys):
    trace = _write_trace(tmp_path, capsys)
    assert main(["verify-trace", str(trace)]) == 0
    assert "trace clean" in capsys.readouterr().out


def test_verify_trace_flags_disagreement(tmp_path, capsys):
    trace = _write_trace(tmp_path, capsys)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    result = next(r for r in records if r["event"] == "result")
    decisions = result["payload"]["decisions"]
    key = next(k for k, v in decisions.items() if v in ("a", "b", "c"))
    decisions[key] = (set("abc") - {decisions[key]}).pop()
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["verify-trace", str(trace)]) == 1
    assert "agreement" in capsys.readouterr().out


def test_verify_trace_flags_truncation(tmp_path, capsys):
    trace = _write_trace(tmp_path, capsys)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    kept = [r for r in records if r["event"] != "result"]
    trace.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
    assert main(["verify-trace", str(trace)]) == 1
    assert "termination" in capsys.readouterr().out


def test_verify_trace_unreadable(tmp_path, capsys):
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("{not json\n")
    assert main(["verify-trace", str(garbage)]) == 2
    missing_meta = tmp_path / "meta.jsonl"
    missing_meta.write_text('{"event": "noise"}\n')
    assert main(["verify-trace", str(missing_meta)]) == 2
    not_object = tmp_path / "list.jsonl"
    not_object.write_text("[1,2]\n")
    assert main(["verify-trace", str(not_object)]) == 2
    no_payload = tmp_path / "payload.jsonl"
    no_payload.write_text('{"phase": "meta", "event": "config"}\n')
    assert main(["verify-trace", str(no_payload)]) == 2
    assert main(["verify-trace", str(tmp_path / "absent.jsonl")]) == 2
    # a config n that disagrees with its values would check the wrong agents
    trace = _write_trace(tmp_path, capsys)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    config = next(r for r in records if r["event"] == "config")
    edited = tmp_path / "edited.jsonl"
    for key, bad in (("n", 3), ("n", True), ("n", 7), ("n", 5.0),
                     ("values", "abcde")):
        good = config["payload"][key]
        config["payload"][key] = bad
        edited.write_text("".join(json.dumps(r) + "\n" for r in records))
        config["payload"][key] = good
        assert main(["verify-trace", str(edited)]) == 2, (key, bad)
    # no agents to check is no verdict
    edited.write_text(json.dumps({"phase": "meta", "event": "config",
                                  "payload": {"n": 0, "values": []}}) + "\n")
    assert main(["verify-trace", str(edited)]) == 2
