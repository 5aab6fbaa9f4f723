"""The per-layer tracer of perfbench still reaches every layer it requires.

perfbench/layers.py wraps rucon's module-level functions by name; a traced
function that is renamed, deleted or called past its module attribute gets
zero calls and fails the benchmark's required-layer gate. These tests run
the same gate on one checked honest run, on one paired deviation trial and
on a one-seed study of two deviations, so such a change fails here too.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import rucon.deviations as deviations
import rucon.simulator as simulator

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_gate_reaches_every_required_layer():
    layers = _layers()
    with layers.Tracer() as tracer:
        simulator.run(simulator.RunConfig(n=5, t=1, seed=0,
                                          sample_pattern=True))
    assert tracer.missing("honest-n5-checked") == []
    assert tracer.restored()


def test_trace_gate_reaches_every_deviation_study_layer():
    # type 10 acts from round 1, so its deviant run is a fresh run(); a
    # type that forks from the honest twin calls run() nowhere
    layers = _layers()
    with layers.Tracer() as tracer:
        simulator.deviation_experiment(
            simulator.RunConfig(n=5, t=1, seed=0),
            lambda: deviations.make_deviation(10, agent=1, seed=0), 1)
    assert tracer.calls["simulator.run"] == 1
    assert tracer.missing("deviation-study") == []
    assert tracer.restored()


def test_trace_gate_reaches_every_layer_of_a_shared_study():
    # one seed, two makers: the honest twin is stepped, not run(); type 6
    # forks from it at round 3, and type 5, which acts from round 1, runs
    # fresh: one run() and the agents of two set-ups
    layers = _layers()
    with layers.Tracer() as tracer:
        simulator.deviation_study(
            simulator.RunConfig(n=5, t=1, seed=0),
            [lambda: deviations.make_deviation(6, agent=1, seed=0),
             lambda: deviations.make_deviation(5, agent=1, seed=0)], 1)
    assert tracer.calls["simulator.run"] == 1
    assert tracer.calls["agent.init_agent"] == 2 * 5
    assert [name for name in tracer.missing("deviation-study")
            if name != "simulator.deviation_experiment"] == []
    assert tracer.restored()


def test_trace_gate_reaches_every_layer_at_13_4():
    # The first four inputs of the seed-0 honest-n13 corpus. Inputs 0 and
    # 1 have no faulty agent, so they ship no faulty-link report and never
    # reach verify_state or merge_state, which phase 3 keeps for those
    # reports; so the gate takes a slice, not one run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", LAYERS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    spec.loader.exec_module(workloads)
    lib = SimpleNamespace(simulator=simulator, deviations=deviations)
    corpus = workloads.build_corpus(lib, "honest-n13", 0)[:4]
    layers = _layers()
    with layers.Tracer() as tracer:
        for cfg in corpus:
            simulator.run(cfg)
    assert tracer.missing("honest-n13") == []
    assert tracer.restored()
