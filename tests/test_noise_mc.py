"""Stochastic-integration oracle check of the closed-form spectra.

Quick single-pump version of the full equivalence run; the z statistic uses
the standard error estimated from a handful of realizations, so it follows
a Student-t law rather than a normal one.  The assertions allow for that:
a small fraction of comparisons may exceed 3 SE, none may exceed 6 SE.
"""

import numpy as np
import pytest

from tpsh.cavity import CavityParams, steady_state
from tpsh.langevin_mc import _BLOCK_SAMPLES, _welch_pair, _welch_setup, mc_spectra
from tpsh.noise import quadrature_spectra

FIELDS = ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y")


def test_mc_matches_closed_form():
    ss = steady_state(CavityParams())
    fx = (ss.rate_input + ss.rate_loss + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (
        2.0 * np.pi
    )
    freqs = np.logspace(np.log10(0.05 * fx), np.log10(0.5 * fx), 6)
    mc = mc_spectra(ss, freqs, seed=5, n_realizations=6, n_steps=1 << 20)
    model = quadrature_spectra(ss, mc.spec.frequencies)

    zs = []
    for name in FIELDS:
        se = np.maximum(getattr(mc.se, name), 1e-12)
        zs.append(np.abs(getattr(mc.spec, name) - getattr(model, name)) / se)
    z = np.concatenate(zs)
    assert np.mean(z <= 3.0) >= 0.9
    assert np.max(z) <= 6.0


def test_mc_squeezing_is_visible():
    # the sum-variance dip must be resolved, not just consistent with 1
    ss = steady_state(CavityParams(pump_power=0.5, conversion_efficiency=0.059))
    fx = (ss.rate_input + ss.rate_loss + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (
        2.0 * np.pi
    )
    mc = mc_spectra(ss, [0.05 * fx], seed=3, n_realizations=6, n_steps=1 << 20)
    var_sum = 0.5 * (mc.spec.s_x1[0] + mc.spec.s_x2[0] + mc.spec.c_x[0])
    se = 0.5 * np.sqrt(mc.se.s_x1[0] ** 2 + mc.se.s_x2[0] ** 2 + mc.se.c_x[0] ** 2)
    assert var_sum + 3.0 * se < 1.0


def test_mc_deterministic_for_seed():
    ss = steady_state(CavityParams())
    a = mc_spectra(ss, [6e6], seed=42, n_realizations=2, n_steps=1 << 16)
    b = mc_spectra(ss, [6e6], seed=42, n_realizations=2, n_steps=1 << 16)
    assert np.array_equal(a.spec.s_x1, b.spec.s_x1)
    assert np.array_equal(a.spec.c_y, b.spec.c_y)


def test_mc_rejects_records_shorter_than_a_segment():
    ss = steady_state(CavityParams())
    with pytest.raises(ValueError, match="nperseg"):
        mc_spectra(ss, [6e6], seed=1, n_realizations=2, n_steps=1 << 15)


@pytest.mark.parametrize("nperseg, n_samples", [
    (1 << 16, 1 << 16),  # one segment, as in a 65 536-step run
    # more segments than one block holds, and not a multiple of it
    (4096, 2048 * (2 * (_BLOCK_SAMPLES // 4096) + 37) + 4096 + 999),
    (385, 385 * 40 + 101),  # odd nperseg
])
def test_welch_pair_matches_scipy(nperseg, n_samples):
    # the oracle's own Welch estimate against scipy.signal (the reference
    # here only) with the oracle's window arguments
    from scipy import signal

    fs = 3.7e9
    rng = np.random.default_rng(nperseg)
    rec1 = rng.standard_normal(n_samples) + 0.2
    rec2 = 0.6 * rec1 + rng.standard_normal(n_samples) - 0.4
    kwargs = dict(fs=fs, window=np.sqrt(signal.windows.hann(nperseg, sym=False)),
                  nperseg=nperseg, noverlap=nperseg // 2, detrend="constant")
    f, p11 = signal.welch(rec1, **kwargs)
    _, p22 = signal.welch(rec2, **kwargs)
    _, p12 = signal.csd(rec1, rec2, **kwargs)

    freqs, window, scale = _welch_setup(nperseg, fs)
    q11, q22, q12 = _welch_pair(rec1, rec2, window, scale)
    assert np.array_equal(freqs, f)
    assert np.max(np.abs(q11 / p11 - 1.0)) <= 1e-10
    assert np.max(np.abs(q22 / p22 - 1.0)) <= 1e-10
    # the cross density passes through zero; compare on the auto scale
    assert np.max(np.abs(q12 - p12) / np.sqrt(p11 * p22)) <= 1e-10
