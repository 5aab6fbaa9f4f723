"""The per-layer tracer of perfbench still reaches every layer it requires.

perfbench/layers.py wraps rucon's module-level functions by name; a traced
function that is renamed, deleted or called past its module attribute gets
zero calls and fails the benchmark's required-layer gate. These tests run
the same gate on one checked honest run, on one paired deviation trial and
on a one-seed study of two deviations, so such a change fails here too.
"""

import importlib.util
from pathlib import Path

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
    layers = _layers()
    with layers.Tracer() as tracer:
        simulator.deviation_experiment(
            simulator.RunConfig(n=5, t=1, seed=0),
            lambda: deviations.make_deviation(6, agent=1, seed=0), 1)
    assert tracer.missing("deviation-study") == []
    assert tracer.restored()


def test_trace_gate_reaches_every_layer_of_a_shared_study():
    # one seed, two makers: the honest run is shared, so three runs
    layers = _layers()
    with layers.Tracer() as tracer:
        simulator.deviation_study(
            simulator.RunConfig(n=5, t=1, seed=0),
            [lambda: deviations.make_deviation(6, agent=1, seed=0),
             lambda: deviations.make_deviation(5, agent=1, seed=0)], 1)
    assert tracer.calls["simulator.run"] == 3
    assert [name for name in tracer.missing("deviation-study")
            if name != "simulator.deviation_experiment"] == []
    assert tracer.restored()
