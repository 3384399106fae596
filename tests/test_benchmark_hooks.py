"""The names the benchmark's tracer wraps, and the calls it must see.

perfbench/spans.py rebinds each function of its LAYER_FUNCTIONS table, in
every tpsh module that refers to it, to a wrapper that records a span.  A
renamed or removed function makes a traced benchmark run fail, and a call
that bypasses the module global escapes the tracer.  The table is read from
that file, loaded by path, so that these checks follow it.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from tpsh import analyzer as an
from tpsh.synth import DetectionChain

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py")


def layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in layer_functions().items() for name in names
])
def test_each_traced_name_is_a_function_of_its_layer(layer, name):
    assert callable(getattr(importlib.import_module("tpsh." + layer), name, None))


@pytest.mark.parametrize("with_reference, calls", [(False, 2), (True, 3)])
def test_each_floor_correction_goes_through_the_module(monkeypatch, with_reference, calls):
    # the sum, the difference and, with a reference, its difference
    seen = []
    correct = an.correct_electronic_noise
    monkeypatch.setattr(an, "correct_electronic_noise",
                        lambda spec, dark: seen.append(spec) or correct(spec, dark))
    freqs = np.arange(0.0, 10e6, 100e3)
    flat = np.ones(len(freqs))
    signal, reference = (an.CrossSpectralMatrix(freqs, flat, flat, np.full(len(freqs), p12 + 0j),
                                                100e3, 100.0, 1.0, 1.0) for p12 in (0.25, 0.0))
    an.witness_from_matrices(signal, reference if with_reference else None, None,
                             DetectionChain(sample_rate=50e6), (4.5e6, 5.5e6))
    assert len(seen) == calls
