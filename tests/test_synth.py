"""Trace synthesis: normalization, chain effects, and round trips."""

import dataclasses
import re
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


def operating_point_spectra():
    params = CavityParams(pump_power=0.023)
    spec = quadrature_spectra(steady_state(params), default_frequency_grid())
    return apply_detection_loss(spec, params.total_detection_efficiency)


class TestBlockwiseSynthesis:
    """The synthesis grid is walked in blocks of _BIN_BLOCK bins; the block
    size bounds memory and must not change a single code."""

    @staticmethod
    def all_kinds(chain):
        spec = operating_point_spectra()
        f = spec.frequencies
        loud = dataclasses.replace(spec, s_x1=25 * np.ones_like(f), s_x2=25 * np.ones_like(f),
                                   c_x=np.zeros_like(f))
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
