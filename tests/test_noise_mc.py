"""Stochastic-integration oracle check of the closed-form spectra.

Quick single-pump version of the full equivalence run; the z statistic uses
the standard error estimated from a handful of realizations, so it follows
a Student-t law rather than a normal one.  The assertions allow for that:
a small fraction of comparisons may exceed 3 SE, none may exceed 6 SE.

The oracle's own machinery is checked too: its Welch estimate and its
AR(1) kernel against scipy.signal (welch, csd and lfilter, the references
here only), its two-stage run (draws on a worker thread, one sector ahead)
bit for bit against a serial reference that runs the kernel over whole
records, the worker's lifetime, and the rejection of bad input, an Euler
step that would diverge among it.
"""

import math
import threading
import time

import numpy as np
import pytest

from tpsh import langevin_mc
from tpsh.cavity import CavityParams, steady_state
from tpsh.langevin_mc import (
    _BLOCK_SAMPLES,
    _CHUNK,
    _ar1,
    _ar1_step,
    _welch_buffers,
    _welch_pair,
    _welch_window,
    mc_spectra,
)
from tpsh.noise import quadrature_spectra

FIELDS = ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y")
# the criterion-7 cavities of the acceptance suite
CRITERION_7_CAVITIES = (
    CavityParams(),
    CavityParams(pump_power=0.023),
    CavityParams(pump_power=0.5, conversion_efficiency=0.059),
)


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

    window, scale = _welch_window(nperseg, fs)
    q11, q22, q12 = _welch_pair(rec1, rec2, window, scale, _welch_buffers(nperseg, n_samples))
    # mc_spectra's frequency grid
    assert np.array_equal(np.fft.rfftfreq(nperseg, 1.0 / fs), f)
    assert np.max(np.abs(q11 / p11 - 1.0)) <= 1e-10
    assert np.max(np.abs(q22 / p22 - 1.0)) <= 1e-10
    # the cross density passes through zero; compare on the auto scale
    assert np.max(np.abs(q12 - p12) / np.sqrt(p11 * p22)) <= 1e-10


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_realizations=1), "n_realizations"),
    (dict(n_realizations=0), "n_realizations"),
    (dict(oversample=0.0), "oversample"),
    (dict(oversample=-100.0), "oversample"),
    (dict(oversample=float("nan")), "oversample"),
    (dict(avg_bins=-1), "avg_bins"),
    # D_x dt = 1 / oversample >= 2: the Euler step diverges
    (dict(oversample=0.5), "oversample"),
    (dict(oversample=0.3), "oversample"),
])
def test_mc_rejects_bad_input_before_drawing(kwargs, match, thread_starts):
    ss = steady_state(CavityParams())
    args = dict(n_realizations=2, n_steps=1 << 16)
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        mc_spectra(ss, [6e6], seed=1, **args)
    assert thread_starts == []


def _decay(sector, oversample):
    """The AR(1) decay 1 - D dt of a sector of the default cavity."""
    ss = steady_state(CavityParams())
    gnl = ss.rate_nl_port1 + ss.rate_nl_port2
    dx = ss.rate_input + ss.rate_loss + 3.0 * gnl
    damping = {"x": dx, "y": ss.rate_input + ss.rate_loss + gnl}[sector]
    return 1.0 - damping * (1.0 / (oversample * dx))


AR1_DECAYS = {
    "x-oversample-100": _decay("x", 100.0),
    "y-oversample-100": _decay("y", 100.0),
    "x-oversample-0.6": _decay("x", 0.6),  # c < 0
    "y-oversample-0.6": _decay("y", 0.6),
    "zero": 0.0,  # sector x at oversample 1
}


@pytest.mark.parametrize("x0", [0.0, -1.7])
@pytest.mark.parametrize("decay", AR1_DECAYS.values(), ids=AR1_DECAYS.keys())
def test_ar1_matches_lfilter(decay, x0):
    from scipy.signal import lfilter

    step = _ar1_step(decay)
    block = len(step[1])
    assert block & (block - 1) == 0 and _CHUNK % block == 0
    # either recursion's rounding error, on the scale of the record, is a
    # few eps times sum_k |c|^k = 1 / (1 - |c|)
    tol = 8.0 * np.finfo(float).eps / (1.0 - abs(decay))
    rng = np.random.default_rng(7)
    for n in sorted({1, block - 1, block, block + 1, 1001, 65536, 66537} - {0}):
        d = rng.standard_normal(n)
        ref = lfilter([1.0], [1.0, -decay], -d, zi=[decay * x0])[0]
        x = d.copy()
        _ar1(x, x0, step)
        assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref)), n


@pytest.mark.parametrize("decay", AR1_DECAYS.values(), ids=AR1_DECAYS.keys())
def test_ar1_in_chunks_equals_ar1_over_the_record(decay):
    # blocks start at fixed offsets from the start of the record, so
    # chunks of _CHUNK samples that carry the state give the same bits
    step = _ar1_step(decay)
    d = np.random.default_rng(8).standard_normal(2 * _CHUNK + 999)
    whole = d.copy()
    _ar1(whole, 0.0, step)
    chunked = d.copy()
    for start in range(0, len(d), _CHUNK):
        _ar1(chunked[start:start + _CHUNK], chunked[start - 1] if start else 0.0, step)
    assert np.array_equal(chunked, whole)


def _serial_welch(rec1, rec2, window, scale):
    """The oracle's Welch estimate in its plain form: temporaries not reused."""
    from numpy.lib.stride_tricks import sliding_window_view

    nperseg = len(window)
    step = nperseg - nperseg // 2
    n_segments = (len(rec1) - nperseg) // step + 1
    block = max(1, _BLOCK_SAMPLES // nperseg)
    bins = nperseg // 2 + 1
    p11, p22, p12 = np.zeros(bins), np.zeros(bins), np.zeros(bins, dtype=complex)
    for first in range(0, n_segments, block):
        stop = (min(first + block, n_segments) - 1) * step + nperseg
        x1, x2 = (np.fft.rfft((seg - seg.mean(axis=1, keepdims=True)) * window, axis=1)
                  for seg in (sliding_window_view(rec[first * step:stop], nperseg)[::step]
                              for rec in (rec1, rec2)))
        p11 += np.sum(x1.real ** 2 + x1.imag ** 2, axis=0)
        p22 += np.sum(x2.real ** 2 + x2.imag ** 2, axis=0)
        p12 += np.sum(x1.conj() * x2, axis=0)
    fold = np.full(bins, 2.0 * scale / n_segments)
    fold[0] /= 2.0
    if nperseg % 2 == 0:
        fold[-1] /= 2.0
    return p11 * fold, p22 * fold, p12 * fold


def _serial_mc(ss, freqs, seed, n_realizations, n_steps, oversample=100.0,
               nperseg=1 << 16, avg_bins=2):
    """mc_spectra on one thread, each sector drawn and processed in turn.

    The draws are made with rng.normal in the oracle's order (dW0, dWl, dW1,
    dW2; sector x, then y; realization after realization) and the records
    are built whole, with every temporary; the AR(1) kernel runs over the
    whole record in one call.
    """
    g1, g2 = ss.rate_nl_port1, ss.rate_nl_port2
    dx = ss.rate_input + ss.rate_loss + 3.0 * (g1 + g2)
    dy = ss.rate_input + ss.rate_loss + (g1 + g2)
    dt = 1.0 / (oversample * dx)
    burn = int(10.0 / (dx * dt)) + 1
    n, sd = n_steps + burn, math.sqrt(dt)
    rng = np.random.default_rng(seed)
    fs = 1.0 / dt
    f = np.fft.rfftfreq(nperseg, 1.0 / fs)
    window, scale = _welch_window(nperseg, fs)
    centers = np.array([int(np.argmin(np.abs(f - ft))) for ft in freqs])
    sel = centers[:, None] + np.arange(-avg_bins, avg_bins + 1)[None, :]
    per_real = {k: [] for k in FIELDS}
    for _ in range(n_realizations):
        for sector, damping in (("x", dx), ("y", dy)):
            dw0, dwl, dw1, dw2 = (rng.normal(0.0, sd, n) for _ in range(4))
            drive = (dw0 * math.sqrt(2.0 * ss.rate_input) + dwl * math.sqrt(2.0 * ss.rate_loss)
                     + 2.0 * math.sqrt(g1) * dw1 + 2.0 * math.sqrt(g2) * dw2)
            _ar1(drive, 0.0, _ar1_step(1.0 - damping * dt))
            x = np.concatenate(([0.0], drive[:-1]))
            out1 = dw1 / dt + 2.0 * math.sqrt(g1) * x
            out2 = dw2 / dt + 2.0 * math.sqrt(g2) * x
            p1, p2, cs = _serial_welch(out1[burn:], out2[burn:], window, scale)
            per_real["s_%s1" % sector].append(np.mean(p1[sel], axis=1) / 2.0)
            per_real["s_%s2" % sector].append(np.mean(p2[sel], axis=1) / 2.0)
            per_real["c_%s" % sector].append(np.mean(np.real(cs[sel]), axis=1))
    stacks = {k: np.vstack(v) for k, v in per_real.items()}
    return ({k: v.mean(axis=0) for k, v in stacks.items()},
            {k: v.std(axis=0, ddof=1) / math.sqrt(n_realizations) for k, v in stacks.items()})


def _assert_equals_serial(ss, freqs, seed, **kwargs):
    mc = mc_spectra(ss, freqs, seed, **kwargs)
    means, ses = _serial_mc(ss, freqs, seed, **kwargs)
    for name in FIELDS:
        assert np.array_equal(getattr(mc.spec, name), means[name]), name
        assert np.array_equal(getattr(mc.se, name), ses[name]), name
    return mc


@pytest.mark.parametrize("params", CRITERION_7_CAVITIES)
def test_mc_equals_the_serial_oracle(params):
    ss = steady_state(params)
    fx = (ss.rate_input + ss.rate_loss + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (
        2.0 * np.pi
    )
    freqs = np.logspace(np.log10(0.04 * fx), np.log10(0.6 * fx), 10)
    _assert_equals_serial(ss, freqs, 11, n_realizations=3, n_steps=1 << 16)


def test_mc_equals_the_serial_oracle_with_odd_segments_and_long_records():
    ss = steady_state(CavityParams())
    fx = (ss.rate_input + ss.rate_loss + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (
        2.0 * np.pi
    )
    # an odd segment length on a record shorter than one chunk
    _assert_equals_serial(ss, [0.2 * fx, 0.4 * fx], 4, n_realizations=2, n_steps=385 * 40,
                          oversample=2.0, nperseg=385, avg_bins=1)
    # a record longer than a Welch block and than several chunks, not a
    # multiple of either
    n_steps = _BLOCK_SAMPLES + 3 * _CHUNK + 4321
    assert n_steps > _BLOCK_SAMPLES
    _assert_equals_serial(ss, [0.1 * fx, 0.3 * fx], 5, n_realizations=2, n_steps=n_steps,
                          nperseg=1 << 14)


def test_mc_equals_the_serial_oracle_where_the_decay_is_negative():
    # 0.5 < oversample < 1: c = 1 - D dt < 0 in both sectors; the spectra
    # are those of the serial oracle and finite
    ss = steady_state(CavityParams())
    fx = (ss.rate_input + ss.rate_loss + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (
        2.0 * np.pi
    )
    mc = _assert_equals_serial(ss, [0.05 * fx, 0.2 * fx], 6, n_realizations=2,
                               n_steps=1 << 16, oversample=0.6)
    for name in FIELDS:
        assert np.all(np.isfinite(getattr(mc.spec, name))), name


def test_mc_starts_one_worker_and_joins_it(thread_starts):
    ss = steady_state(CavityParams())
    before = threading.active_count()
    mc_spectra(ss, [6e6], seed=2, n_realizations=3, n_steps=1 << 16)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert threading.active_count() == before


def test_mc_draws_exactly_one_sector_ahead(monkeypatch):
    # while sector k is processed, the draws of sectors k and k + 1 have
    # begun and no others, however long the processing takes
    draws, seen = [], []
    draw_drive, outputs = langevin_mc._draw_drive, langevin_mc._outputs

    def counting_draw(*args):
        draws.append(None)
        return draw_drive(*args)

    def slow_outputs(*args):
        expected = min(len(seen) + 2, 6)
        deadline = time.monotonic() + 10.0
        while len(draws) < expected and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.03)  # time enough for the worker to run further ahead
        seen.append(len(draws))
        return outputs(*args)

    monkeypatch.setattr(langevin_mc, "_draw_drive", counting_draw)
    monkeypatch.setattr(langevin_mc, "_outputs", slow_outputs)
    mc_spectra(steady_state(CavityParams()), [6e6], seed=2, n_realizations=3, n_steps=1 << 16)
    assert seen == [min(k + 2, 6) for k in range(6)]


@pytest.mark.parametrize("stage", ["_welch_pair", "_normal"])
def test_a_failing_sector_raises_and_ends_the_worker(stage, monkeypatch, thread_starts):
    # the third call fails: a sector's estimate on the calling thread, or a
    # draw on the worker
    calls = []
    original = getattr(langevin_mc, stage)

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("sector failed")
        return original(*args)

    monkeypatch.setattr(langevin_mc, stage, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="sector failed"):
        mc_spectra(steady_state(CavityParams()), [6e6], seed=2, n_realizations=3,
                   n_steps=1 << 16)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert threading.active_count() == before
