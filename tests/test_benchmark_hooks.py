"""The names the benchmark's tracer wraps, and the calls it must see.

perfbench/spans.py rebinds each function of its LAYER_FUNCTIONS table, in
every tpsh module that refers to it, to a wrapper that records a span.  A
renamed or removed function makes a traced benchmark run fail, and a call
that bypasses the module global escapes the tracer.  The table is read from
that file, loaded by path, so that these checks follow it.

combined_spectrum and analytic_dark_spectrum are in the table but not in
the package API: they stay in tpsh.analyzer as one-statement views of the
matrix path, which these checks pin bit for bit.  witness_from_matrices
attaches each estimate's floor with one correct_electronic_noise call,
through the module global.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import tpsh
from tpsh import analyzer as an
from tpsh.synth import DetectionChain, shot_noise_pair

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


def test_the_package_api_resolves_without_the_traced_views():
    for name in tpsh.__all__:
        assert getattr(tpsh, name, None) is not None, name
    assert "combined_spectrum" not in tpsh.__all__
    assert "analytic_dark_spectrum" not in tpsh.__all__


@pytest.mark.parametrize("gain, mode", [(1.0, "sum"), (0.7, "difference"), (1.3, "sum")])
def test_views_equal_the_matrix_path_bit_for_bit(gain, mode):
    chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1.2e-3)
    tr = shot_noise_pair(1e-3, 1.2e-3, chain, 0.010, seed=3)
    matrix = an.cross_spectral_matrix(tr, 100e3)
    for got, want in (
        (an.combined_spectrum(tr, gain, mode, 100e3), matrix.combination(gain, mode)),
        (an.analytic_dark_spectrum(tr, gain, matrix.combination(gain, mode)),
         an.analytic_dark_matrix(chain, matrix).combination(gain, "sum")),
    ):
        for field in ("frequencies", "power", "sigma"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.rbw, got.n_averages) == (want.rbw, want.n_averages)


@pytest.mark.parametrize("with_reference, calls", [(False, 1), (True, 2)])
def test_each_floor_correction_goes_through_the_module(monkeypatch, with_reference, calls):
    # one call per corrected matrix: the signal and, with one, the reference
    seen = []
    correct = an.correct_electronic_noise
    monkeypatch.setattr(an, "correct_electronic_noise",
                        lambda matrix, floor: seen.append(matrix) or correct(matrix, floor))
    freqs = np.arange(0.0, 10e6, 100e3)
    flat = np.ones(len(freqs))
    signal, reference = (an.CrossSpectralMatrix(freqs, flat, flat, np.full(len(freqs), p12 + 0j),
                                                100e3, 100.0, 1.0, 1.0) for p12 in (0.25, 0.0))
    an.witness_from_matrices(signal, reference if with_reference else None, None,
                             DetectionChain(sample_rate=50e6), (4.5e6, 5.5e6))
    assert len(seen) == calls
