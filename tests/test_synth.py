"""Trace synthesis: normalization, chain effects, and round trips."""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tpsh.cavity import CavityParams, steady_state
from tpsh.noise import (
    QuadSpectra,
    apply_detection_loss,
    default_frequency_grid,
    quadrature_spectra,
    sumdiff_variance,
)
from tpsh.synth import (
    _RMS_GRID,
    DetectionChain,
    TwoChannelTrace,
    dark_trace,
    shot_noise_pair,
    synthesize,
    witness_arm_traces,
)
from tpsh import analyzer as an
from tpsh import synth


def coherent_spectra():
    f = default_frequency_grid()
    ones = np.ones_like(f)
    zeros = np.zeros_like(f)
    return QuadSpectra(
        frequencies=f, s_x1=ones, s_x2=ones, c_x=zeros,
        s_y1=ones, s_y2=ones, c_y=zeros,
    )


def quiet_chain(**kw):
    """Chain with no electronic noise, no spur, and fine quantization."""
    base = dict(
        sample_rate=50e6, adc_bits=24, dc_current_1=1e-3, dc_current_2=1e-3,
        electronic_noise_rel=0.0, spur_amplitude=0.0,
    )
    base.update(kw)
    return DetectionChain(**base)


def band_mean(spec, lo, hi):
    sel = (spec.frequencies >= lo) & (spec.frequencies <= hi)
    return float(spec.power[sel].mean()), float(
        np.sqrt(np.sum(spec.sigma[sel] ** 2)) / np.count_nonzero(sel)
    )


class TestNormalization:
    def test_coherent_psd_flat_at_shot_level(self):
        # whitened by the chain response, a coherent pair sits at PSD = dc
        chain = quiet_chain()
        tr = synthesize(coherent_spectra(), chain, 0.020, seed=101)
        m = an.cross_spectral_matrix(tr, 100e3)
        sel = (m.frequencies >= 0.5e6) & (m.frequencies <= 20e6)
        h2 = an.chain_power_response(chain, m.frequencies[sel])
        for power in (m.p11, m.p22):
            ratio = power[sel] / (1e-3 * h2)
            z = (ratio - 1.0) * np.sqrt(m.n_averages)  # relative sigma 1/sqrt(n_averages)
            assert np.all(np.abs(z) < 3.0)

    def test_chain_inversion_recovers_flat_spectrum(self):
        chain = quiet_chain()
        tr = synthesize(coherent_spectra(), chain, 0.020, seed=7)
        spec = an.cross_spectral_matrix(tr, 200e3)
        sel = (spec.frequencies >= 1e6) & (spec.frequencies <= 18e6)
        flat = spec.p11[sel] / an.chain_power_response(chain, spec.frequencies[sel])
        mean, sigma = float(flat.mean()), float(flat.std() / np.sqrt(flat.size))
        assert abs(mean - 1e-3) < 3 * sigma + 1e-6 * 1e-3

    def test_electronic_noise_rides_on_top(self):
        chain = quiet_chain(electronic_noise_rel=0.2)
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.020, seed=3)
        spec = an.cross_spectral_matrix(tr, 100e3)
        sel = (spec.frequencies >= 4e6) & (spec.frequencies <= 8e6)
        h2 = an.chain_power_response(chain, spec.frequencies[sel])
        ratio = float(np.mean(spec.p11[sel] / h2)) / 1e-3
        assert abs(ratio - 1.2) < 0.02

    def test_zero_current_channel_keeps_electronic_floor(self):
        chain = quiet_chain(electronic_noise_rel=0.1)
        tr = shot_noise_pair(1e-3, 0.0, chain, 0.020, seed=4)
        m = an.cross_spectral_matrix(tr, 100e3)
        sel = (m.frequencies >= 4e6) & (m.frequencies <= 8e6)
        m_lit = float(m.p11[sel].mean())
        m_dark = float(m.p22[sel].mean())
        # floor = rel * mean(configured dcs) = 1e-4 vs lit 1e-3 + 1e-4
        assert m_dark / m_lit == pytest.approx(0.1 / 1.1, rel=0.10)

    def test_dark_trace_is_electronic_only(self):
        chain = quiet_chain(electronic_noise_rel=0.1)
        tr = dark_trace(chain, 0.020, seed=5)
        spec = an.cross_spectral_matrix(tr, 100e3)
        sel = (spec.frequencies >= 4e6) & (spec.frequencies <= 8e6)
        h2 = an.chain_power_response(chain, spec.frequencies[sel])
        level = float(np.mean(spec.p11[sel] / h2))
        assert level == pytest.approx(chain.electronic_noise_psd, rel=0.05)


class TestDeterminismAndValidation:
    def test_same_seed_bit_identical(self):
        chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1e-3)
        a = synthesize(coherent_spectra(), chain, 0.010, seed=77)
        b = synthesize(coherent_spectra(), chain, 0.010, seed=77)
        assert np.array_equal(a.samples_1, b.samples_1)
        assert np.array_equal(a.samples_2, b.samples_2)
        assert (a.clipped_1, a.clipped_2) == (b.clipped_1, b.clipped_2)

    def test_different_seed_differs(self):
        chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1e-3)
        a = synthesize(coherent_spectra(), chain, 0.010, seed=77)
        b = synthesize(coherent_spectra(), chain, 0.010, seed=78)
        assert not np.array_equal(a.samples_1, b.samples_1)

    def test_nonpositive_matrix_rejected_with_frequency(self):
        spec = coherent_spectra()
        spec.c_x[:] = 2.5
        chain = quiet_chain()
        with pytest.raises(ValueError, match="positive semidefinite at"):
            synthesize(spec, chain, 0.010, seed=1)

    def test_duration_minimum(self):
        chain = quiet_chain()
        with pytest.raises(ValueError, match="10 ms"):
            synthesize(coherent_spectra(), chain, 0.005, seed=1)

    def test_spectra_must_cover_analysis_band(self):
        f = np.linspace(1e6, 10e6, 64)
        ones, zeros = np.ones_like(f), np.zeros_like(f)
        spec = QuadSpectra(frequencies=f, s_x1=ones, s_x2=ones, c_x=zeros,
                           s_y1=ones, s_y2=ones, c_y=zeros)
        with pytest.raises(ValueError, match="cover"):
            synthesize(spec, quiet_chain(), 0.010, seed=1)

    def test_code_range_validated(self):
        chain = quiet_chain(adc_bits=8)
        n = 1000
        good = np.zeros(n, dtype=np.int32)
        bad = np.full(n, 300, dtype=np.int32)
        with pytest.raises(ValueError, match="bit depth"):
            TwoChannelTrace(samples_1=bad, samples_2=good, chain=chain,
                            duration=n / 50e6, seed=0, dc_1=1e-3, dc_2=1e-3)

    def test_negative_dc_rejected(self):
        with pytest.raises(ValueError):
            shot_noise_pair(-1e-3, 1e-3, quiet_chain(), 0.010, seed=1)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectionChain)])
    def test_nan_chain_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            DetectionChain(**{name: math.nan})


class TestImmutableChain:
    def test_replace_gives_a_fresh_chain(self):
        chain = DetectionChain(sample_rate=50e6)
        grid = np.linspace(0.0, 20e6, 201)
        chain.analytic_rms(1.0), chain.lsb(1.0), chain.response(grid)
        copy = dataclasses.replace(chain, detector_pole=3e6)
        fresh = DetectionChain(sample_rate=50e6, detector_pole=3e6)
        assert copy.analytic_rms(1.0) == fresh.analytic_rms(1.0)
        assert copy.lsb(1.0) == fresh.lsb(1.0)
        np.testing.assert_array_equal(copy.response(grid), fresh.response(grid))
        assert copy.analytic_rms(1.0) != chain.analytic_rms(1.0)

    def test_response_follows_interior_grid_points(self):
        # same length and endpoints, different interior points
        chain = DetectionChain(sample_rate=50e6)
        linear = np.linspace(0.0, 20e6, 201)
        quadratic = linear ** 2 / 20e6
        h_linear = chain.response(linear)
        h_quadratic = chain.response(quadratic)
        fresh = DetectionChain(sample_rate=50e6)
        np.testing.assert_array_equal(h_quadratic, fresh.response(quadratic))
        np.testing.assert_array_equal(h_linear, fresh.response(linear))
        assert not np.array_equal(h_linear, h_quadratic)

    def test_fields_cannot_be_assigned(self):
        chain = DetectionChain()
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.detector_pole = 3e6


class TestResponseMatchesSciPy:
    """The chain's NumPy bilinear transform and Horner evaluation reproduce
    scipy.signal.bilinear + freqz bit for bit (SciPy is the reference here only)."""

    @staticmethod
    def scipy_response(chain, freqs):
        from scipy import signal

        fs = chain.sample_rate
        w_ac = 2.0 * np.pi * chain.ac_coupling_center
        b_bp, a_bp = signal.bilinear([w_ac / chain.ac_coupling_q, 0.0],
                                     [1.0, w_ac / chain.ac_coupling_q, w_ac ** 2], fs=fs)
        w_p = 2.0 * np.pi * chain.detector_pole
        b_lp, a_lp = signal.bilinear([1.0], [1.0 / w_p, 1.0], fs=fs)
        _, h_bp = signal.freqz(b_bp, a_bp, worN=freqs, fs=fs)
        _, h_lp = signal.freqz(b_lp, a_lp, worN=freqs, fs=fs)
        return h_bp * h_lp

    @pytest.mark.parametrize("sample_rate", [50e6, 200e6])
    @pytest.mark.parametrize("changed", [
        {},
        {"ac_coupling_q": 1.3, "ac_coupling_center": 2.1e6, "detector_pole": 7.5e6},
    ])
    def test_bit_identical_on_rms_and_synthesis_grids(self, sample_rate, changed):
        chain = dataclasses.replace(DetectionChain(sample_rate=sample_rate), **changed)
        rms_grid = np.linspace(0.0, sample_rate / 2.0, _RMS_GRID)  # Nyquist included
        synthesis_grid = np.fft.rfftfreq(int(round(0.010 * sample_rate)), 1.0 / sample_rate)
        for grid in (rms_grid, synthesis_grid):
            assert np.array_equal(chain.response(grid), self.scipy_response(chain, grid))

    def test_bilinear_transforms_do_not_grow_with_the_block_count(self, monkeypatch):
        # the response is evaluated block by block; its two bilinear
        # transforms depend only on the chain and are derived once for it
        calls = []
        whole = synth._bilinear

        def counting(*args):
            calls.append(args)
            return whole(*args)

        monkeypatch.setattr(synth, "_bilinear", counting)
        counts = []
        try:
            for block in (1 << 16, 4099, 1021):
                monkeypatch.setattr(synth, "_BIN_BLOCK", block)
                synth._digital_filters.cache_clear()
                synth._synthesis_response.cache_clear()
                calls.clear()
                synth._synthesis_response(DetectionChain(sample_rate=50e6), 500_000)
                counts.append(len(calls))
        finally:
            synth._digital_filters.cache_clear()
            synth._synthesis_response.cache_clear()
        assert counts == [2, 2, 2]


def operating_point_spectra():
    params = CavityParams(pump_power=0.023)
    spec = quadrature_spectra(steady_state(params), default_frequency_grid())
    return apply_detection_loss(spec, params.total_detection_efficiency)


def per_bin_synthesis(matrix, dc_pair, chain, duration, seed):
    """Reference synthesis that treats every bin of the grid on its own.

    Whole-grid interpolation, PSD check and Cholesky factors, then the DC
    and Nyquist fix-up and a full-length multiply by the chain response,
    each as its own pass.  Returns (codes_1, codes_2, clipped_1, clipped_2).
    """
    spec_freqs, s11, s22, c12 = matrix
    dc1, dc2 = dc_pair
    fs = chain.sample_rate
    n = int(round(duration * fs))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = []
    for _ in range(2):
        x = np.empty(len(freqs), dtype=np.complex64)
        x.real = rng.standard_normal(len(freqs), dtype=np.float32)
        x.imag = rng.standard_normal(len(freqs), dtype=np.float32)
        z.append(x)
    phases = rng.uniform(0.0, 2.0 * np.pi, 2)

    psd_e = chain.electronic_noise_psd
    p11 = dc1 * np.interp(freqs, spec_freqs, s11) + psd_e
    p22 = dc2 * np.interp(freqs, spec_freqs, s22) + psd_e
    p12 = np.sqrt(dc1 * dc2) / 2.0 * np.interp(freqs, spec_freqs, c12)
    bad = (p11 < 0) | (p22 < 0)
    bad |= p11 * p22 - p12 * p12 < -1e-12 * np.maximum(p11 * p22, 1e-300)
    if np.any(bad):
        raise ValueError("spectral matrix is not positive semidefinite at %.6g Hz"
                         % freqs[np.argmax(bad)])
    l11 = np.sqrt(p11)
    with np.errstate(invalid="ignore", divide="ignore"):
        l21 = np.where(l11 > 0, p12 / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(p22 - l21 * l21, 0.0))
    scale = np.sqrt(n * fs / 4.0)
    a11, a21, a22 = ((scale * l).astype(np.float32) for l in (l11, l21, l22))
    x1, x2 = a11 * z[0], a22 * z[1] + a21 * z[0]

    h = chain.response(freqs).astype(np.complex64)
    for x in (x1, x2):
        x[0] = 0.0
        if n % 2 == 0:
            x[-1] = np.sqrt(2.0) * x[-1].real
        x *= h
    k0 = int(round(chain.spur_freq * n / fs))
    if chain.spur_amplitude > 0 and 0 < k0 < len(freqs) - 1:
        for x, dc, ph in ((x1, dc1, phases[0]), (x2, dc2, phases[1])):
            x[k0] += chain.spur_current_amplitude(dc) * (n / 2.0) * np.exp(1j * ph)
    (c1, k1), (c2, k2) = (synth._quantize(x, n, chain, dc) for x, dc in ((x1, dc1), (x2, dc2)))
    return c1, c2, k1, k2


class TestBlockwiseSynthesis:
    """The synthesis grid is walked in blocks of _BIN_BLOCK bins; the block
    size bounds memory and must not change a single code."""

    @staticmethod
    def all_kinds(chain):
        spec, loud = operating_point_spectra(), loud_spectra()
        return [
            synthesize(spec, chain, 0.010, seed=5),
            synthesize(loud, chain, 0.010, seed=6),  # clips
            witness_arm_traces(spec, chain, 0.010, seed=7),
            shot_noise_pair(1.0, 0.5, chain, 0.010, seed=8),
            dark_trace(chain, 0.010, seed=9),
        ]

    def test_block_size_does_not_change_codes(self, monkeypatch):
        chain = DetectionChain(sample_rate=50e6)
        nfreq = int(round(0.010 * chain.sample_rate)) // 2 + 1
        want = self.all_kinds(chain)
        assert want[1].clipped_1 > 0 and want[1].clipped_2 > 0
        assert nfreq % 4099 != 0
        monkeypatch.setattr(synth, "_BIN_BLOCK", 4099)
        synth._synthesis_response.cache_clear()
        try:
            got = self.all_kinds(chain)
        finally:
            synth._synthesis_response.cache_clear()
        for a, b in zip(want, got):
            assert np.array_equal(a.samples_1, b.samples_1)
            assert np.array_equal(a.samples_2, b.samples_2)
            assert (a.clipped_1, a.clipped_2) == (b.clipped_1, b.clipped_2)

    @staticmethod
    def plateau_spectra():
        # a 100 kHz linear grid; the auto-spectra are constant over 4.1-8.1 MHz
        # and the cross spectrum over 2.1-6.1 MHz, so each is flat on blocks
        # where the other is not.  With 4099-bin blocks of 100 Hz bins, one
        # block starts at 4.099 MHz, between the grid points below and at the
        # start of the common plateau, and another ends at 6.1484 MHz,
        # between its last point and the next
        spec = operating_point_spectra()
        f = np.linspace(0.5e6, 20e6, 196)
        s_x, c_x = (np.where((f > lo) & (f < hi), level, np.interp(f, spec.frequencies, curve))
                    for lo, hi, level, curve in ((4.05e6, 8.15e6, 0.8, spec.s_x1),
                                                 (2.05e6, 6.15e6, -0.3, spec.c_x)))
        ones = np.ones_like(f)
        return QuadSpectra(frequencies=f, s_x1=s_x, s_x2=s_x.copy(), c_x=c_x,
                           s_y1=ones, s_y2=ones, c_y=0 * ones)

    def test_codes_equal_the_per_bin_reference(self, monkeypatch):
        """Flat blocks factored once and the response applied in the block
        pass give the codes of per-bin factors and separate passes."""
        chain = DetectionChain(sample_rate=50e6)
        calls = []
        whole = synth._realize

        def recording(job, spectra, phases, chain, duration, n):
            matrix, dc_pair, seed = job
            calls.append((matrix, dc_pair, chain, duration, seed))
            return whole(job, spectra, phases, chain, duration, n)

        monkeypatch.setattr(synth, "_realize", recording)
        # 61 blocks: the clamped top 5 MHz and the plateau are flat, the rest not
        monkeypatch.setattr(synth, "_BIN_BLOCK", 4099)
        synth._synthesis_response.cache_clear()
        try:
            got = self.all_kinds(chain) + [
                synthesize(self.plateau_spectra(), chain, 0.010, seed=10),
                synthesize(operating_point_spectra(), chain, 0.010 + 1 / chain.sample_rate, seed=11),
            ]
        finally:
            synth._synthesis_response.cache_clear()
        assert got[-1].n_samples % 2 == 1 and len(calls) == len(got) == 7
        assert got[1].clipped_1 > 0 and got[1].clipped_2 > 0
        for args, tr in zip(calls, got):
            c1, c2, k1, k2 = per_bin_synthesis(*args)
            assert np.array_equal(tr.samples_1, c1)
            assert np.array_equal(tr.samples_2, c2)
            assert (tr.clipped_1, tr.clipped_2) == (k1, k2)

    def test_non_psd_on_a_flat_stretch_names_the_whole_grid_frequency(self, monkeypatch):
        # good up to the last bin of block 29, then non-PSD and constant from
        # the first bin of block 30 (12.297 MHz) on: a flat block is the
        # first to fail, and it must name its first bin
        monkeypatch.setattr(synth, "_BIN_BLOCK", 4099)
        chain = quiet_chain()
        f_b = 30 * 4099 * 100.0
        f = np.sort(np.r_[default_frequency_grid(), f_b - 70.0, f_b - 30.0])
        ones = np.ones_like(f)
        c_x = np.where(f > f_b - 50.0, 2.5, 0.0)
        spec = QuadSpectra(frequencies=f, s_x1=ones, s_x2=ones, c_x=c_x,
                           s_y1=ones, s_y2=ones, c_y=0 * ones)
        dc = (chain.dc_current_1, chain.dc_current_2)
        with pytest.raises(ValueError) as whole_grid:
            per_bin_synthesis((f, ones, ones, c_x), dc, chain, 0.010, seed=1)
        assert ("at %.6g Hz" % f_b) in str(whole_grid.value)
        with pytest.raises(ValueError, match=re.escape(str(whole_grid.value))):
            synthesize(spec, chain, 0.010, seed=1)

    @pytest.mark.parametrize("sample_rate, n", [(50e6, 500_000), (50e6, 500_001), (200e6, 2_000_000)])
    def test_response_equals_whole_grid_evaluation(self, sample_rate, n):
        chain = DetectionChain(sample_rate=sample_rate)
        synth._synthesis_response.cache_clear()
        whole = chain.response(np.fft.rfftfreq(n, 1.0 / sample_rate)).astype(np.complex64)
        assert np.array_equal(synth._synthesis_response(chain, n), whole)

    def test_non_psd_in_a_later_block_names_the_first_bad_frequency(self):
        chain = quiet_chain()
        spec = coherent_spectra()
        spec.c_x[spec.frequencies >= 12e6] = 2.5
        n = int(round(0.010 * chain.sample_rate))
        # the whole-grid check the block-wise one replaces
        freqs = np.fft.rfftfreq(n, 1.0 / chain.sample_rate)
        p11 = 1e-3 * np.interp(freqs, spec.frequencies, spec.s_x1)
        p22 = 1e-3 * np.interp(freqs, spec.frequencies, spec.s_x2)
        p12 = 1e-3 / 2.0 * np.interp(freqs, spec.frequencies, spec.c_x)
        bad = p11 * p22 - p12 * p12 < -1e-12 * np.maximum(p11 * p22, 1e-300)
        first = int(np.argmax(bad))
        assert bad[first] and first >= synth._BIN_BLOCK
        with pytest.raises(ValueError, match=re.escape("at %.6g Hz" % freqs[first])):
            synthesize(spec, chain, 0.010, seed=1)


def loud_spectra():
    """Excess noise 25 times the coherent level: the ADC full scale clips it."""
    spec = operating_point_spectra()
    f = spec.frequencies
    return dataclasses.replace(spec, s_x1=25 * np.ones_like(f), s_x2=25 * np.ones_like(f),
                               c_x=np.zeros_like(f))


class TestFixUps:
    """The DC and Nyquist fix-ups, seen through a unit chain response (the
    real one is 0 at DC and about 1e-32 at Nyquist, which hides them)."""

    @pytest.mark.parametrize("n", [500_000, 500_001])
    def test_dc_bin_zeroed_and_even_nyquist_bin_real(self, monkeypatch, n):
        chain = DetectionChain(sample_rate=50e6)
        nfreq = n // 2 + 1
        monkeypatch.setattr(synth, "_synthesis_response",
                            lambda chain, n: np.ones(n // 2 + 1, dtype=np.complex64))
        rng = np.random.default_rng(5)
        z1, z2 = ((rng.standard_normal(nfreq) + 1j * rng.standard_normal(nfreq)).astype(np.complex64)
                  for _ in range(2))
        x1, x2 = z1.copy(), z2.copy()
        flat = (np.array([0.0, chain.sample_rate / 2.0]), np.ones(2), np.ones(2), np.zeros(2))
        synth._mix(x1, x2, flat, (1.0, 1.0), chain, n)
        # equal unit auto-spectra and no cross term: both channels are a z
        a = np.float32(math.sqrt(n * chain.sample_rate / 4.0) * math.sqrt(1.0 + chain.electronic_noise_psd))
        for x, z in ((x1, z1), (x2, z2)):
            want = a * z
            assert np.array_equal(x[1:-1], want[1:-1])
            assert x[0] == 0
            if n % 2 == 0:
                assert x[-1].imag == 0
                assert x[-1].real == pytest.approx(math.sqrt(2.0) * want[-1].real, rel=1e-6)
            else:
                assert x[-1] == want[-1]


class TestQuantize:
    @staticmethod
    def mixed_channel(spec, chain, n, seed):
        """Channel 1's filtered half spectrum, before the spur."""
        nfreq = n // 2 + 1
        x1, x2 = (np.empty(nfreq, dtype=np.complex64) for _ in range(2))
        synth._draw(np.random.default_rng(seed), x1, x2, np.empty(4099, dtype=np.float32))
        matrix = (spec.frequencies, spec.s_x1, spec.s_x2, spec.c_x)
        synth._mix(x1, x2, matrix, (chain.dc_current_1, chain.dc_current_2), chain, n)
        return x1

    @pytest.mark.parametrize("loud", [False, True])
    def test_clip_count_equals_the_boolean_expression(self, loud):
        chain = DetectionChain(sample_rate=50e6)
        n = 500_000
        spec = loud_spectra() if loud else operating_point_spectra()
        x = self.mixed_channel(spec, chain, n, seed=12)
        top = 2 ** (chain.adc_bits - 1)
        y = np.fft.irfft(x, n=n) / np.float32(chain.lsb(chain.dc_current_1))
        rounded = np.rint(y)
        want = int(np.count_nonzero((rounded < -top) | (rounded > top - 1)))
        codes, clipped = synth._quantize(x, n, chain, chain.dc_current_1)
        assert clipped == want
        assert (want > 0) == loud
        assert np.array_equal(codes, np.clip(rounded, -top, top - 1).astype(np.int16))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_clipping_on_one_side_only_is_counted(self, sign):
        chain = DetectionChain(sample_rate=50e6)
        n, top, lsb = 1000, 2 ** (chain.adc_bits - 1), chain.lsb(1.0)
        signal = np.zeros(n)
        signal[[3, 7]] = sign * 3 * top * lsb
        codes, clipped = synth._quantize(np.fft.rfft(signal).astype(np.complex64), n, chain, 1.0)
        assert clipped == 2
        assert codes[3] == codes[7] == (top - 1 if sign > 0 else -top)


class TestSynthesisRun:
    """Several traces through one run: shared buffers, one worker drawing ahead."""

    @staticmethod
    def assert_same(want, got):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert np.array_equal(a.samples_1, b.samples_1)
            assert np.array_equal(a.samples_2, b.samples_2)
            assert (a.clipped_1, a.clipped_2) == (b.clipped_1, b.clipped_2)
            assert (a.dc_1, a.dc_2, a.seed) == (b.dc_1, b.dc_2, b.seed)

    def test_three_traces_equal_separate_calls(self, monkeypatch):
        chain = DetectionChain(sample_rate=50e6)
        duration = 0.010 + 1 / chain.sample_rate  # odd n
        spec, loud = operating_point_spectra(), loud_spectra()
        monkeypatch.setattr(synth, "_BIN_BLOCK", 4099)
        synth._synthesis_response.cache_clear()
        interval = sys.getswitchinterval()
        # hand the GIL over often, so the main thread and the drawing worker interleave finely
        sys.setswitchinterval(1e-6)
        try:
            with synth._Run(chain, duration, (7, 6, 8)) as run:
                got = [witness_arm_traces(spec, chain, duration, 7, _run=run),
                       synthesize(loud, chain, duration, 6, _run=run),
                       shot_noise_pair(1.0, 0.5, chain, duration, 8, _run=run)]
        finally:
            sys.setswitchinterval(interval)
        try:
            want = [witness_arm_traces(spec, chain, duration, seed=7),
                    synthesize(loud, chain, duration, seed=6),
                    shot_noise_pair(1.0, 0.5, chain, duration, seed=8)]
        finally:
            synth._synthesis_response.cache_clear()
        assert got[0].n_samples % 2 == 1
        assert want[1].clipped_1 > 0 and want[1].clipped_2 > 0
        self.assert_same(want, got)

    def test_witness_traces_equal_the_single_calls_and_join_the_worker(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        spec = operating_point_spectra()
        seeds = np.random.SeedSequence(3).generate_state(3, dtype=np.uint64)
        before = threading.active_count()
        got = list(synth.witness_traces(spec, chain, 0.010, seeds))
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before
        s_arm, s_ref, s_dark = (int(s) for s in seeds)
        self.assert_same([witness_arm_traces(spec, chain, 0.010, seed=s_arm),
                          shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, 0.010,
                                          seed=s_ref),
                          dark_trace(chain, 0.010, seed=s_dark)], got)

    def test_witness_traces_go_through_the_public_functions(self, monkeypatch):
        # so that a wrapper of these (perfbench's tracer) sees the synthesis
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("witness_arm_traces", "shot_noise_pair", "dark_trace"):
            monkeypatch.setattr(synth, name, recording(name, getattr(synth, name)))
        chain = DetectionChain(sample_rate=50e6)
        assert len(list(synth.witness_traces(operating_point_spectra(), chain, 0.010, (1, 2, 3)))) == 3
        assert calls == ["witness_arm_traces", "shot_noise_pair", "dark_trace", "shot_noise_pair"]

    def test_single_trace_calls_start_no_thread(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        before = threading.active_count()
        synthesize(operating_point_spectra(), chain, 0.010, seed=1)
        witness_arm_traces(operating_point_spectra(), chain, 0.010, seed=2)
        shot_noise_pair(1.0, 1.0, chain, 0.010, seed=3)
        dark_trace(chain, 0.010, seed=4)
        assert thread_starts == []
        assert threading.active_count() == before

    def test_non_psd_second_trace_raises_and_ends_the_worker(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        bad = coherent_spectra()
        bad.c_x[:] = 2.5
        with pytest.raises(ValueError) as alone:
            synthesize(bad, chain, 0.010, seed=1)
        assert "positive semidefinite at" in str(alone.value)
        before = threading.active_count()
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            with synth._Run(chain, 0.010, (7, 1, 8)) as run:
                assert witness_arm_traces(operating_point_spectra(), chain, 0.010, 7,
                                          _run=run).n_samples == 500_000
                synthesize(bad, chain, 0.010, 1, _run=run)  # drawn on the worker
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    def test_closing_witness_traces_early_ends_the_worker(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        before = threading.active_count()
        run = synth.witness_traces(operating_point_spectra(), chain, 0.010, (1, 2, 3))
        next(run)  # the reference's draw is now under way on the worker
        run.close()
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    def test_a_trace_off_the_schedule_gets_its_own_draws(self):
        chain = DetectionChain(sample_rate=50e6)
        with synth._Run(chain, 0.010, (1, 2)) as run:
            shot_noise_pair(1.0, 1.0, chain, 0.010, 1, _run=run)
            got = shot_noise_pair(1.0, 1.0, chain, 0.010, 3, _run=run)  # the worker drew seed 2
        self.assert_same([shot_noise_pair(1.0, 1.0, chain, 0.010, seed=3)], [got])

    def test_a_trace_must_have_its_runs_chain_and_duration(self):
        chain = DetectionChain(sample_rate=50e6)
        with synth._Run(chain, 0.010) as run:
            for other_chain, other_duration in ((chain, 0.020),
                                                (dataclasses.replace(chain, adc_bits=16), 0.010)):
                with pytest.raises(ValueError, match="run's chain and duration"):
                    dark_trace(other_chain, other_duration, 1, _run=run)


class TestMemoryAndCodeDtype:
    def test_witness_synthesis_memory_is_bounded(self):
        # 50 MS/s, 10 ms: 250 001 bins, 2 MB per complex64 spectrum; whole-grid
        # float64 scratch arrays and int32 codes took 32.7 MiB here
        spec = operating_point_spectra()
        chain = DetectionChain(sample_rate=50e6)
        synth._synthesis_response.cache_clear()
        tracemalloc.start()
        try:
            witness_arm_traces(spec, chain, 0.010, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20

    def test_code_dtype_follows_adc_bits(self):
        for bits, dtype in ((14, np.int16), (16, np.int16), (20, np.int32)):
            chain = DetectionChain(sample_rate=50e6, adc_bits=bits)
            tr = shot_noise_pair(1.0, 1.0, chain, 0.010, seed=4)
            assert tr.samples_1.dtype == dtype and tr.samples_2.dtype == dtype
        # codes beyond 16 bits still go through the estimator
        csm = an.cross_spectral_matrix(tr, 100e3)
        band = (csm.frequencies >= 1e6) & (csm.frequencies <= 10e6)
        assert np.all(np.isfinite(csm.p11)) and np.all(csm.p11[band] > 0)
        assert np.max(np.abs(tr.samples_1)) > 2 ** 15


class TestChainImperfections:
    def test_spur_is_a_single_visible_line(self):
        chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1e-3)
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.020, seed=11)
        spec = an.cross_spectral_matrix(tr, 100e3)
        power = spec.p11
        k0 = int(np.argmin(np.abs(spec.frequencies - chain.spur_freq)))
        assert abs(spec.frequencies[k0] - 15.8e6) <= spec.rbw / 2
        local = np.r_[power[k0 - 9:k0 - 3], power[k0 + 4:k0 + 10]]
        peak_db = 10 * np.log10(power[k0] / np.median(local))
        assert 10.0 < peak_db < 40.0

    def test_quantization_is_gentle_at_14_bits(self):
        # same analog realization, 14 vs 24 bits: band PSD shifts < 0.05 dB
        spec = coherent_spectra()
        kw = dict(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1e-3)
        coarse = synthesize(spec, DetectionChain(adc_bits=14, **kw), 0.020, seed=21)
        fine = synthesize(spec, DetectionChain(adc_bits=24, **kw), 0.020, seed=21)
        pc = an.cross_spectral_matrix(coarse, 100e3)
        pf = an.cross_spectral_matrix(fine, 100e3)
        sel = (pc.frequencies >= 4e6) & (pc.frequencies <= 8e6)
        mc = float(pc.p11[sel].mean())
        mf = float(pf.p11[sel].mean())
        assert abs(10 * np.log10(mc / mf)) < 0.05
        assert coarse.clipped_1 == 0 and coarse.clipped_2 == 0

    def test_clipping_counted_when_scale_underestimated(self):
        # full scale assumes the coherent level, so strong excess noise clips
        f = default_frequency_grid()
        ones, zeros = np.ones_like(f), np.zeros_like(f)
        loud = QuadSpectra(frequencies=f, s_x1=25 * ones, s_x2=25 * ones, c_x=zeros,
                           s_y1=ones, s_y2=ones, c_y=zeros)
        chain = quiet_chain(adc_bits=14)
        tr = synthesize(loud, chain, 0.010, seed=31)
        assert tr.clipped_1 > 0 and tr.clipped_2 > 0
        top = 2 ** (chain.adc_bits - 1)
        assert tr.samples_1.max() == top - 1 and tr.samples_1.min() == -top

    def test_coherence_estimate_bounded(self):
        from scipy import signal as sg
        ss = steady_state(CavityParams())
        spec = quadrature_spectra(ss, default_frequency_grid())
        chain = quiet_chain(adc_bits=16)
        tr = synthesize(spec, chain, 0.020, seed=41)
        _, coh = sg.coherence(tr.samples_1.astype(float), tr.samples_2.astype(float),
                              fs=chain.sample_rate, nperseg=500)
        assert np.all(coh <= 1.0 + 1e-9)


class TestModelRoundTrip:
    def test_intensity_sum_matches_model_at_operating_point(self):
        params = CavityParams()
        ss = steady_state(params)
        spec = apply_detection_loss(
            quadrature_spectra(ss, default_frequency_grid()),
            params.total_detection_efficiency,
        )
        chain = quiet_chain(adc_bits=16)
        tr = synthesize(spec, chain, 0.040, seed=51)
        m = an.cross_spectral_matrix(tr, 100e3)
        psd_sum = m.combination(1.0, "sum")
        qnl = an.analytic_qnl_matrix(chain, m).combination(1.0, "sum")
        sel = (psd_sum.frequencies >= 5.5e6) & (psd_sum.frequencies <= 6.5e6)
        measured = float(np.mean(psd_sum.power[sel] / qnl.power[sel]))
        sigma = float(np.mean(psd_sum.sigma[sel] / qnl.power[sel]) / np.sqrt(np.count_nonzero(sel)))
        _, var_sum = sumdiff_variance(spec)
        idx = np.argmin(np.abs(spec.frequencies - 6e6))
        assert abs(measured - var_sum[idx]) < 3 * sigma + 0.003

    def test_witness_arms_carry_both_witness_variances(self):
        params = CavityParams(pump_power=0.023)
        ss = steady_state(params)
        spec = apply_detection_loss(
            quadrature_spectra(ss, default_frequency_grid()),
            params.total_detection_efficiency,
        )
        chain = quiet_chain(adc_bits=16)
        tr = witness_arm_traces(spec, chain, 0.040, seed=61)
        rep = an.witness_from_traces(tr, None, 100e3, (4.5e6, 5.5e6))
        from tpsh.noise import witness_report
        model = witness_report(spec, 5e6)
        assert rep.var_sum == pytest.approx(model.var_sum, abs=0.04)
        assert rep.var_diff == pytest.approx(model.var_diff, abs=0.04)
        assert rep.entangled

    def test_witness_arms_coherent_baseline(self):
        chain = quiet_chain(adc_bits=16)
        tr = witness_arm_traces(coherent_spectra(), chain, 0.040, seed=71)
        rep = an.witness_from_traces(tr, None, 100e3, (4e6, 8e6))
        assert abs(rep.intensity_sum_db) < 0.05
        assert abs(rep.intensity_diff_db) < 0.05

    def test_shot_pair_sum_equals_difference(self):
        chain = quiet_chain()
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.020, seed=81)
        s = an.combined_spectrum(tr, 1.0, "sum", 100e3)
        d = an.combined_spectrum(tr, 1.0, "difference", 100e3)
        ms, es = band_mean(s, 4e6, 8e6)
        md, ed = band_mean(d, 4e6, 8e6)
        assert abs(ms - md) < 3 * np.hypot(es, ed)
