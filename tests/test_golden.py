"""Golden outputs: traces and results pinned over a small seed corpus.

Each run group's digest covers, run by run, the trace bytes exactly as
write_trace stores them and every RunResult field but the config, which is
the run's input:
- honest-n-t: honest runs on sampled failure patterns;
- deviations-n-t: every deviation type with deviant agent 1 and the
  invariant monitor off, as in the deviation study; deviations-agent3
  puts deviant agent 3 under the invariant monitor;
- lies-n-t: every type-6 sub-case and type 7 at every round bind accepts,
  which reach the round-relation and merge rules.
Each study group's digest covers every ExperimentSummary field of the
paired deviation study, type by type. The fixtures digest covers the full
error (category, rule, link, round and text) that every rule fixture
raises on its mutated input. So a refactor that changes what any run
computes or records fails here; CHANGES.md says why each digest was last
re-recorded.
"""

import dataclasses
import hashlib

import pytest

from rucon.cli import write_trace
from conftest import deviation_grid
from rucon.deviations import DEVIATION_TYPES, make_deviation
from rucon.errors import InconsistencyError
from rucon.simulator import RunConfig, deviation_study, run
from rule_fixtures import FIXTURES

HONEST_SEEDS = range(4)
DEVIATION_SEEDS = range(2)
STUDY_RUNS = 5

GOLDEN = {
    "honest-5-1":
        "f917d28406bc6db7b6bfe07f1ae5e5a5751b281e7f38cb237c18b7f6aa2c8d8b",
    "honest-7-2":
        "175d4afe16e13c3627adc408fb4fdfeb81041881348e5e581bdeec5e6a7d33e1",
    "honest-9-3":
        "f76cc036c65207a06d47bd01dbebcf705efc9813501f601f2fe80dc2a38d063d",
    "deviations-5-1":
        "d8621ea22081181c681aeb6ef8babcef9f34beca326c51a8d5b8011f011e6e1b",
    "deviations-agent3-5-1":
        "ae553fd52dae247ba1f94c0e8ae10ba4fec178e0582bd93994733e94477259cb",
    "deviations-7-2":
        "ac69b9144e05906e31c7a09d711ff72ae02f41862ebf81fd936b96996c225cba",
    "lies-5-1":
        "b36cd919549be189fdd032da41a47c998fc4cba98dc50937078589093967801d",
    "lies-7-2":
        "470131e7b49acb0ebf23b2456b38b7b8ab90eece85ba1dc51ebef41f3b2bf149",
    "fixtures":
        "5276e36ea95bd44fdac86da051d4ae4344d30f68ef061f4988085db8bee5a413",
    "study-5-1":
        "d552e108002f0c88f26e0c0ac4edefc89318d3954fe9f03f2a2a643993fd3807",
    "study-7-2":
        "6c9de55550c183c3fba0714bbbe6f6403a6c5beaf67b0743facfec11f5100049",
}


def _configs(group):
    kind, n, t = group.rsplit("-", 2)
    n, t = int(n), int(t)
    if kind == "honest":
        return [RunConfig(n=n, t=t, seed=s, sample_pattern=True)
                for s in HONEST_SEEDS]
    # agent 1 with invariants off, as in the deviation study; the agent3
    # group puts a non-first deviant under the invariant monitor
    agent, checked = (3, True) if kind == "deviations-agent3" else (1, False)
    if kind.startswith("deviations"):
        devs = [(tid, {}) for tid in sorted(DEVIATION_TYPES)]
    else:
        # each lie at every round bind accepts: from the first it can act
        # in to round t+3, the last that ships a table
        devs = [(tid, params) for tid, params in deviation_grid(t)
                if tid in (6, 7)]
    return [RunConfig(n=n, t=t, seed=s, sample_pattern=True,
                      check_invariants=checked,
                      deviation=make_deviation(tid, agent=agent, seed=s,
                                               **params))
            for tid, params in devs for s in DEVIATION_SEEDS]


def _canon(obj):
    """A repr-stable form: dicts by sorted key, dataclasses by field."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                tuple((f.name, _canon(getattr(obj, f.name)))
                      for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((k, _canon(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(_canon(x) for x in obj))
    return obj


def _study_digest(group):
    _, n, t = group.rsplit("-", 2)
    makers = [lambda tid=tid: make_deviation(tid, agent=1, seed=0)
              for tid in sorted(DEVIATION_TYPES)]
    digest = hashlib.sha256()
    for summary in deviation_study(RunConfig(n=int(n), t=int(t), seed=0),
                                   makers, STUDY_RUNS):
        digest.update(repr(dataclasses.astuple(summary)).encode())
    return digest.hexdigest()


def _fixtures_digest():
    digest = hashlib.sha256()
    for name in sorted(FIXTURES):
        fn, _, _ = FIXTURES[name]
        with pytest.raises(InconsistencyError) as info:
            fn(mutate=True)
        exc = info.value
        digest.update(repr((name, exc.category, exc.rule, exc.link,
                            exc.round, str(exc))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_corpus(group, tmp_path):
    if group == "fixtures":
        assert _fixtures_digest() == GOLDEN[group]
        return
    if group.startswith("study"):
        assert _study_digest(group) == GOLDEN[group]
        return
    digest = hashlib.sha256()
    for k, config in enumerate(_configs(group)):
        config.trace = []
        res = run(config)
        path = tmp_path / f"{k}.jsonl"
        write_trace(str(path), config.trace)
        digest.update(path.read_bytes())
        fields = tuple((f.name, _canon(getattr(res, f.name)))
                       for f in dataclasses.fields(res) if f.name != "config")
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == GOLDEN[group]
