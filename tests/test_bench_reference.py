"""Every benchmark input still gives its recorded output.

perfbench/workloads.py turns a benchmark seed into each workload's corpus
and reduces every output to a digest; perfbench/reference.json holds the
digests of the seed-0 corpora. perfbench/run.py rejects a tree whose
outputs differ from them. These tests run that check in-process and
untimed over every seed-0 input, so a change that moves a digest fails
here too.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rucon.deviations as deviations
import rucon.simulator as simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_seed0_outputs_match_the_reference(name):
    assert REFERENCE["seed"] == 0
    lib = SimpleNamespace(simulator=simulator, deviations=deviations)
    op = WORKLOADS.operation(lib, name)
    corpus = WORKLOADS.build_corpus(lib, name, 0)
    recorded = REFERENCE["workloads"][name]
    digests = []
    for k, item in enumerate(corpus):
        out = op(item)
        assert WORKLOADS.check(name, item, out) == [], k
        digests.append(WORKLOADS.digest(name, out))
    assert digests == recorded["items"]
    assert WORKLOADS.corpus_digest(digests) == recorded["digest"]
