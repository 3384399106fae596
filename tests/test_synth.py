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

    @pytest.mark.parametrize("duration", [0.005, math.inf, math.nan])
    def test_duration_minimum(self, duration):
        chain = quiet_chain()
        with pytest.raises(ValueError, match="duration must be finite and >= 10 ms"):
            synthesize(coherent_spectra(), chain, duration, seed=1)

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

    @pytest.mark.parametrize("dc", [-1e-3, math.inf, math.nan])
    def test_negative_or_non_finite_dc_rejected(self, dc):
        # a NaN or infinite current would scale its channel's codes to 0
        for pair in ((dc, 1e-3), (1e-3, dc)):
            with pytest.raises(ValueError, match="dc currents must be finite and >= 0"):
                shot_noise_pair(*pair, quiet_chain(), 0.010, seed=1)

    @pytest.mark.parametrize("bits", [14.7, 24.9, "14"])
    def test_non_integral_adc_bits_rejected(self, bits):
        # never truncated to a bit depth the value does not state
        with pytest.raises(ValueError, match="adc_bits must be an integer"):
            DetectionChain(adc_bits=bits)

    def test_integral_float_adc_bits_accepted(self):
        chain = DetectionChain(adc_bits=14.0)
        assert type(chain.adc_bits) is int and chain == DetectionChain(adc_bits=14)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectionChain)])
    def test_nan_chain_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            DetectionChain(**{name: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectionChain)])
    def test_infinite_chain_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            DetectionChain(**{name: value})


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

    def test_in_place_horner_equals_the_expression_form(self):
        chain = DetectionChain()
        f = np.linspace(0.0, chain.sample_rate / 2.0, 1 << 16)
        zm1 = np.exp(-1j * (2 * np.pi * f / chain.sample_rate))
        coefficient_sets = [c for pair in synth._digital_filters(chain) for c in pair]
        assert len(coefficient_sets) == 4
        for coef in coefficient_sets:
            h = np.full(zm1.shape, coef[-1], dtype=complex)
            for c in coef[-2::-1]:
                h = c + h * zm1
            assert np.array_equal(synth._polyval(coef, zm1), h)

    def test_bilinear_transforms_do_not_grow_with_the_block_count(self, monkeypatch):
        # a trace's kernels come from one response on the kernel grid, and
        # its two bilinear transforms depend only on the chain: derived once
        # for it, however many blocks the trace spans
        calls = []
        whole = synth._bilinear

        def counting(*args):
            calls.append(args)
            return whole(*args)

        monkeypatch.setattr(synth, "_bilinear", counting)
        counts = []
        try:
            for duration in (0.010, 0.020, 0.040):
                synth._digital_filters.cache_clear()
                calls.clear()
                synthesize(coherent_spectra(), DetectionChain(sample_rate=50e6), duration, seed=1)
                counts.append(len(calls))
        finally:
            synth._digital_filters.cache_clear()
        assert counts == [2, 2, 2]


def operating_point_spectra():
    params = CavityParams(pump_power=0.023)
    spec = quadrature_spectra(steady_state(params), default_frequency_grid())
    return apply_detection_loss(spec, params.total_detection_efficiency)


def per_bin_synthesis(job, chain, duration):
    """Reference synthesis: every block filtered on its own from the whole noise record.

    The kernels come from synth._kernels, whose factors are taken bin by bin
    on the whole kernel grid and carry the factor size, and the normals from
    synth._normals; each frame's rfft is scaled by 1/size.  Each
    channel's noise is drawn in full first,
    in a run's order (the first frame, then hop new samples per channel and
    block); each block's frame is cut from it and filtered into fresh
    arrays, with no buffer reused and no worker.  Returns (codes_1,
    codes_2, clipped_1, clipped_2).
    """
    _, dc_pair, seed = job
    n = int(round(duration * chain.sample_rate))
    taps, size, hop, per_draw = synth._block_sizes(chain.sample_rate)
    n_blocks = -(-n // hop)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    phases = rng.uniform(0.0, 2.0 * np.pi, 2)
    draw = per_draw * hop
    scratch = np.empty((2, (taps - 1 + draw) // 2 + 1), dtype=np.float32)
    n_draws = -(-n_blocks // per_draw)
    noise = np.empty((2, taps - 1 + n_draws * draw), dtype=np.float32)
    for row in noise[:, :taps - 1 + draw]:
        synth._normals(rng, row, scratch)
    for lo in range(taps - 1 + draw, noise.shape[1], draw):
        for row in noise[:, lo:lo + draw]:
            synth._normals(rng, row, scratch)

    k11, k21, k22 = synth._kernels(job, chain)
    omega = 2.0 * np.pi * chain.spur_freq / chain.sample_rate
    amplitudes = [1.0 / chain.lsb(dc) * chain.spur_current_amplitude(dc) if chain.lsb(dc) > 0 else 0.0
                  for dc in dc_pair]
    top = 2 ** (chain.adc_bits - 1)
    codes = np.empty((2, n), dtype=np.int16 if chain.adc_bits <= 16 else np.int32)
    clipped = [0, 0]
    for lo in range(0, n, hop):
        m = min(hop, n - lo)
        z1, z2 = (np.fft.rfft(noise[c, lo:lo + size], norm="forward") for c in range(2))
        x2 = z2 * k22
        if k21 is not None:
            x2 += k21 * z1
        y = np.array([np.fft.irfft(x, n=size)[taps - 1:taps - 1 + m] for x in (z1 * k11, x2)])
        for c in range(2):
            if amplitudes[c] > 0:
                theta = omega * lo + phases[c]
                t = omega * np.arange(m)
                y[c] += np.float32(amplitudes[c] * math.cos(theta)) * np.cos(t).astype(np.float32)
                y[c] -= np.float32(amplitudes[c] * math.sin(theta)) * np.sin(t).astype(np.float32)
        y = np.rint(y)
        for c in range(2):
            clipped[c] += int(np.count_nonzero((y[c] < -top) | (y[c] > top - 1)))
        codes[:, lo:lo + m] = np.clip(y, -top, top - 1)
    return codes[0], codes[1], clipped[0], clipped[1]


def assembled(stream):
    """A stream's blocks, all taken, joined into a TwoChannelTrace."""
    codes = np.concatenate([np.array(block) for block in stream.blocks], axis=1)
    return TwoChannelTrace(codes[0], codes[1], stream.chain, stream.duration, stream.seed,
                           stream.dc_1, stream.dc_2, stream.clipped_1, stream.clipped_2)


class TestBlockwiseSynthesis:
    """A trace is filtered in blocks of hop samples through reused buffers
    while the next block is drawn; the blocks must join without a seam."""

    @staticmethod
    def all_jobs(chain):
        spec, loud = operating_point_spectra(), loud_spectra()
        return [
            synth._synthesis_job(spec, chain, 5),
            synth._synthesis_job(loud, chain, 6),  # clips
            synth._arm_job(spec, chain, 7),
            synth._pair_job(1.0, 0.5, chain, 8),
            synth._pair_job(0.0, 0.0, chain, 9),
        ]

    @staticmethod
    def plateau_spectra():
        # a 100 kHz linear grid; the auto-spectra are constant over 4.1-8.1 MHz
        # and the cross spectrum over 2.1-6.1 MHz, so each is flat where the
        # other is not
        spec = operating_point_spectra()
        f = np.linspace(0.5e6, 20e6, 196)
        s_x, c_x = (np.where((f > lo) & (f < hi), level, np.interp(f, spec.frequencies, curve))
                    for lo, hi, level, curve in ((4.05e6, 8.15e6, 0.8, spec.s_x1),
                                                 (2.05e6, 6.15e6, -0.3, spec.c_x)))
        ones = np.ones_like(f)
        return QuadSpectra(frequencies=f, s_x1=s_x, s_x2=s_x.copy(), c_x=c_x,
                           s_y1=ones, s_y2=ones, c_y=0 * ones)

    def test_codes_equal_the_per_bin_reference(self):
        """The run's block buffers, carried frame tails and draw-ahead give
        the codes of blocks cut from the whole record and filtered apart,
        at 50 MS/s; with four times the taps, at 200 MS/s; and at 400 MS/s,
        whose draws hold two blocks."""
        chain, fast = DetectionChain(sample_rate=50e6), DetectionChain()
        fastest = DetectionChain(sample_rate=400e6)
        jobs = [(job, chain, 0.010) for job in self.all_jobs(chain)] + [
            (synth._synthesis_job(self.plateau_spectra(), chain, 10), chain, 0.010),
            (synth._synthesis_job(operating_point_spectra(), chain, 11), chain,
             0.010 + 1 / chain.sample_rate),
            (synth._arm_job(operating_point_spectra(), fast, 12), fast, 0.010),
            (synth._synthesis_job(operating_point_spectra(), fastest, 13), fastest, 0.010),
        ]
        run = synth._Run(chain, 0.010, draw_ahead=True)
        got = [assembled(run.stream(job)) for job, _, _ in jobs[:5]]
        got += [synth._trace(job, c, d, None) for job, c, d in jobs[5:]]
        hop = synth._block_sizes(chain.sample_rate)[2]
        assert got[-3].n_samples % 2 == 1 and got[-3].n_samples % hop != 0
        assert synth._block_sizes(fastest.sample_rate)[3] == 2
        assert synth._block_sizes(fast.sample_rate)[0] == 4 * synth._block_sizes(chain.sample_rate)[0]
        assert got[1].clipped_1 > 0 and got[1].clipped_2 > 0
        for (job, c, duration), tr in zip(jobs, got):
            c1, c2, k1, k2 = per_bin_synthesis(job, c, duration)
            assert np.array_equal(tr.samples_1, c1)
            assert np.array_equal(tr.samples_2, c2)
            assert (tr.clipped_1, tr.clipped_2) == (k1, k2)

    @pytest.mark.parametrize("rate, per_draw", [(50e6, 18), (100e6, 9), (200e6, 4), (400e6, 2)])
    def test_each_draw_is_transformed_in_one_call_each_way(self, fft_calls, rate, per_draw):
        # 10 ms is 70 blocks at every rate, in draws of per_draw blocks (the
        # last draw's frames are all transformed, but only its remaining
        # blocks filtered).  One forward call per draw over both channels'
        # frames and one inverse call over all of the draw's blocks; one
        # call per block and channel took 72 forward and 140 inverse calls
        # of one or two rows at 200 MS/s, which NumPy transforms row by row
        chain = DetectionChain(sample_rate=rate)
        taps, fft, hop, drawn = synth._block_sizes(chain.sample_rate)
        n_blocks = -(-int(round(0.010 * chain.sample_rate)) // hop)
        assert (n_blocks, drawn) == (70, per_draw)
        draws = -(-n_blocks // per_draw)
        synthesize(operating_point_spectra(), chain, 0.010, seed=1)
        shapes = {name: [shape for called, dtype, shape, _ in fft_calls
                         if called == name and dtype in (np.float32, np.complex64)]
                  for name in ("rfft", "irfft")}
        assert shapes["rfft"] == [(2, per_draw, fft)] * draws
        last = n_blocks - (draws - 1) * per_draw
        assert shapes["irfft"] == [(2, per_draw, fft // 2 + 1)] * (draws - 1) + [(2, last, fft // 2 + 1)]

    def test_a_shorter_trace_is_the_start_of_a_longer_one(self):
        # the noise is drawn in the same blocks from the same stream, however
        # long the trace: its codes depend on the seed, not on where it ends
        chain = DetectionChain(sample_rate=50e6)
        short, long = (synthesize(loud_spectra(), chain, duration, seed=4) for duration in (0.010, 0.025))
        n = short.n_samples
        assert np.array_equal(long.samples_1[:n], short.samples_1)
        assert np.array_equal(long.samples_2[:n], short.samples_2)

    def test_non_psd_on_a_flat_stretch_names_the_whole_grid_frequency(self):
        # non-PSD and constant from a point of the spectra's grid on.  The
        # check runs on that whole grid, where np.interp's straight lines
        # start and end, and names the first bad point; a dense check finds
        # the first bad frequency in the interval just below it
        chain = quiet_chain()
        f = default_frequency_grid()
        ones = np.ones_like(f)
        c_x = np.where(np.arange(len(f)) >= 150, 2.5, 0.0)
        spec = QuadSpectra(frequencies=f, s_x1=ones, s_x2=ones, c_x=c_x,
                           s_y1=ones, s_y2=ones, c_y=0 * ones)
        with pytest.raises(ValueError, match=re.escape("at %.6g Hz" % f[150])):
            synthesize(spec, chain, 0.010, seed=1)
        dense = np.linspace(f[149], f[150], 10001)
        p12 = 1e-3 / 2.0 * np.interp(dense, f, c_x)
        bad = 1e-3 * 1e-3 - p12 * p12 < -1e-12 * 1e-6
        assert f[149] < dense[np.argmax(bad)] < f[150]

    def test_non_psd_in_a_later_block_names_the_first_bad_frequency(self):
        # bad only from 12 MHz up, past the first of the spectra's points
        chain = quiet_chain()
        spec = coherent_spectra()
        spec.c_x[spec.frequencies >= 12e6] = 2.5
        first = spec.frequencies[spec.frequencies >= 12e6][0]
        with pytest.raises(ValueError, match=re.escape("at %.6g Hz" % first)):
            synthesize(spec, chain, 0.010, seed=1)


def loud_spectra():
    """Excess noise 25 times the coherent level: the ADC full scale clips it."""
    spec = operating_point_spectra()
    f = spec.frequencies
    return dataclasses.replace(spec, s_x1=25 * np.ones_like(f), s_x2=25 * np.ones_like(f),
                               c_x=np.zeros_like(f))


class TestQuantize:
    @staticmethod
    def signal(loud, seed):
        """One block of both channels' filtered noise in code units, unrounded."""
        chain = DetectionChain(sample_rate=50e6)
        spec = loud_spectra() if loud else operating_point_spectra()
        k11, _, k22 = synth._kernels(synth._synthesis_job(spec, chain, seed), chain)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rng.uniform(0.0, 2.0 * math.pi, 2)  # the spur phases, as a trace draws them first
        run = synth._Run(chain, 0.010)
        synth._next_draw(rng, run._noise, run._spectra[0], run.hop, first=True)
        y = np.array([np.fft.irfft(x * k, n=run._signal.shape[-1])
                      for x, k in zip(run._spectra[0, :, 0], (k11, k22))])
        return chain, y[:, run.taps - 1:]

    @pytest.mark.parametrize("loud", [False, True])
    def test_clip_count_equals_the_boolean_expression(self, loud):
        chain, y = self.signal(loud, seed=12)
        top = 2 ** (chain.adc_bits - 1)
        rounded = np.rint(y)
        want = [int(np.count_nonzero((row < -top) | (row > top - 1))) for row in rounded]
        codes = np.empty(y.shape, dtype=np.int16)
        assert synth._quantize(y.copy(), chain, codes) == want
        assert (min(want) > 0) == loud
        assert np.array_equal(codes, np.clip(rounded, -top, top - 1).astype(np.int16))

    @pytest.mark.parametrize("adc_bits", [14, 24])
    def test_trace_codes_equal_the_stream_blocks(self, adc_bits, thread_starts):
        # a trace quantizes each block straight into its one allocation, a
        # stream into one reused block buffer; several blocks and a partial
        # one.  The stream's run draws ahead on exactly one worker, joined
        # when the context is left
        chain = DetectionChain(sample_rate=50e6, adc_bits=adc_bits)
        want = synthesize(loud_spectra(), chain, 0.010, seed=13)
        assert want.n_samples % synth._block_sizes(chain.sample_rate)[2] != 0
        before = threading.active_count()
        interval = sys.getswitchinterval()
        # hand the GIL over often, so the main thread and the drawing worker interleave finely
        sys.setswitchinterval(1e-6)
        try:
            with synth.synthesis_stream(loud_spectra(), chain, 0.010, 13) as stream:
                got = np.concatenate([np.array(block) for block in stream.blocks], axis=1)
        finally:
            sys.setswitchinterval(interval)
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before
        assert got.dtype == want.samples_1.dtype
        assert np.array_equal(got, [want.samples_1, want.samples_2])
        assert (stream.clipped_1, stream.clipped_2) == (want.clipped_1, want.clipped_2) != (0, 0)

    def test_a_trace_is_one_allocation(self):
        chain = DetectionChain(sample_rate=50e6)
        trace = synthesize(operating_point_spectra(), chain, 0.010, seed=14)
        assert trace.samples_1.base is not None
        assert trace.samples_1.base is trace.samples_2.base

    @pytest.mark.parametrize("sign", [1, -1])
    def test_clipping_on_one_side_only_is_counted(self, sign):
        chain = DetectionChain(sample_rate=50e6)
        top = 2 ** (chain.adc_bits - 1)
        y = np.zeros((2, 1000), dtype=np.float32)
        y[0, [3, 7]] = sign * 3 * top
        codes = np.empty(y.shape, dtype=np.int16)
        assert synth._quantize(y, chain, codes) == [2, 0]
        assert codes[0, 3] == codes[0, 7] == (top - 1 if sign > 0 else -top)


class TestSynthesisRun:
    """Several traces through one run: shared buffers, drawn on the calling
    thread, or on one worker drawing ahead for synthesis_stream."""

    @staticmethod
    def assert_same(want, got):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert np.array_equal(a.samples_1, b.samples_1)
            assert np.array_equal(a.samples_2, b.samples_2)
            assert (a.clipped_1, a.clipped_2) == (b.clipped_1, b.clipped_2)
            assert (a.dc_1, a.dc_2, a.seed) == (b.dc_1, b.dc_2, b.seed)

    def test_three_traces_equal_separate_calls(self):
        chain = DetectionChain(sample_rate=50e6)
        duration = 0.010 + 1 / chain.sample_rate  # odd n
        spec, loud = operating_point_spectra(), loud_spectra()
        run = synth._Run(chain, duration)
        got = [assembled(witness_arm_traces(spec, chain, duration, 7, _run=run)),
               assembled(synthesize(loud, chain, duration, 6, _run=run)),
               assembled(shot_noise_pair(1.0, 0.5, chain, duration, 8, _run=run))]
        want = [witness_arm_traces(spec, chain, duration, seed=7),
                synthesize(loud, chain, duration, seed=6),
                shot_noise_pair(1.0, 0.5, chain, duration, seed=8)]
        assert got[0].n_samples % 2 == 1
        assert want[1].clipped_1 > 0 and want[1].clipped_2 > 0
        self.assert_same(want, got)

    def test_witness_traces_equal_the_single_calls_and_start_no_thread(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        spec = operating_point_spectra()
        seeds = np.random.SeedSequence(3).generate_state(3, dtype=np.uint64)
        got = [assembled(stream) for stream in synth.witness_streams(spec, chain, 0.010, seeds)]
        assert thread_starts == []
        s_arm, s_ref, s_dark = (int(s) for s in seeds)
        self.assert_same([witness_arm_traces(spec, chain, 0.010, seed=s_arm),
                          shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, 0.010,
                                          seed=s_ref),
                          dark_trace(chain, 0.010, seed=s_dark)], got)

    @staticmethod
    def record_calls(monkeypatch, names):
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(synth, name, recording(name, getattr(synth, name)))
        return calls

    def test_witness_traces_go_through_the_public_functions(self, monkeypatch):
        # so that a wrapper of these (perfbench's tracer) sees the synthesis
        calls = self.record_calls(monkeypatch, ("witness_arm_traces", "shot_noise_pair", "dark_trace"))
        chain = DetectionChain(sample_rate=50e6)
        streams = synth.witness_streams(operating_point_spectra(), chain, 0.010, (1, 2, 3))
        assert [assembled(stream).n_samples for stream in streams] == [500_000] * 3
        assert calls == ["witness_arm_traces", "shot_noise_pair", "dark_trace", "shot_noise_pair"]

    def test_synthesis_stream_goes_through_synthesize(self, monkeypatch):
        calls = self.record_calls(monkeypatch, ("synthesize",))
        chain = DetectionChain(sample_rate=50e6)
        with synth.synthesis_stream(operating_point_spectra(), chain, 0.010, 4) as stream:
            assert assembled(stream).n_samples == 500_000
        assert calls == ["synthesize"]

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
        run = synth._Run(chain, 0.010, draw_ahead=True)
        assert assembled(witness_arm_traces(operating_point_spectra(), chain, 0.010, 7,
                                            _run=run)).n_samples == 500_000
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            synthesize(bad, chain, 0.010, 1, _run=run)
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    def test_closing_witness_traces_early_starts_no_thread(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        run = synth.witness_streams(operating_point_spectra(), chain, 0.010, (1, 2, 3))
        for _ in next(run).blocks:
            pass
        next(next(run).blocks)  # the reference's first block
        run.close()
        assert thread_starts == []

    def test_a_draw_ahead_stream_closed_mid_trace_leaves_no_thread(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        before = threading.active_count()
        with synth.synthesis_stream(operating_point_spectra(), chain, 0.010, 4) as stream:
            next(stream.blocks)  # the next draw is now under way on the worker
            stream.blocks.close()
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("end", ["taken", "closed", "left"])
    def test_a_draw_ahead_streams_worker_is_joined_with_its_blocks(self, thread_starts, end):
        # the worker belongs to the trace, not to the run: its blocks taken
        # to the end, or closed mid-trace, join it with no context to leave;
        # leaving synthesis_stream's context mid-trace closes the blocks
        chain = DetectionChain(sample_rate=50e6)
        before = threading.active_count()
        if end == "left":
            with synth.synthesis_stream(operating_point_spectra(), chain, 0.010, 4) as stream:
                next(stream.blocks)  # the next draw is now under way on the worker
        else:
            run = synth._Run(chain, 0.010, draw_ahead=True)
            stream = synthesize(operating_point_spectra(), chain, 0.010, 4, _run=run)
            if end == "taken":
                assert assembled(stream).n_samples == 500_000
            else:
                next(stream.blocks)
                stream.blocks.close()
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    def test_a_draw_ahead_stream_of_a_non_psd_job_starts_no_thread(self, thread_starts):
        chain = DetectionChain(sample_rate=50e6)
        bad = coherent_spectra()
        bad.c_x[:] = 2.5
        with pytest.raises(ValueError, match="positive semidefinite at"):
            with synth.synthesis_stream(bad, chain, 0.010, 4):
                pass
        assert thread_starts == []

    def test_a_run_without_a_worker_holds_one_draws_spectra(self):
        # the inline run draws each next draw into the spectra it has just
        # filtered, and gives the codes of a run that draws ahead
        chain = DetectionChain(sample_rate=50e6)
        spec = operating_point_spectra()
        inline, ahead = synth._Run(chain, 0.010), synth._Run(chain, 0.010, draw_ahead=True)
        assert len(inline._spectra) == 1 and len(ahead._spectra) == 2
        self.assert_same([assembled(synthesize(spec, chain, 0.010, 5, _run=ahead))],
                         [assembled(synthesize(spec, chain, 0.010, 5, _run=inline))])

    def test_a_trace_must_have_its_runs_chain_and_duration(self):
        chain = DetectionChain(sample_rate=50e6)
        run = synth._Run(chain, 0.010)
        for other_chain, other_duration in ((chain, 0.020),
                                            (dataclasses.replace(chain, adc_bits=16), 0.010)):
            with pytest.raises(ValueError, match="run's chain and duration"):
                dark_trace(other_chain, other_duration, 1, _run=run)


def target_matrix(job, chain, freqs):
    """P11, P22 and P12 that job's kernels aim at, chain response included."""
    h2 = np.abs(chain.response(freqs)) ** 2
    return tuple(h2 * p for p in synth._job_matrix(job, chain, freqs))


def expected_welch(p, sample_rate, nperseg):
    """The analyzer's expected estimate of a real one-sided density p on
    the grid linspace(0, fs/2, len(p)): p smoothed by its root-Hann window."""
    n = 2 * (len(p) - 1)
    autocovariance = sample_rate / 2.0 * np.fft.irfft(p, n=n)[:nperseg]
    window = np.sin(np.pi * np.arange(nperseg) / nperseg)
    lagged = np.correlate(window, window, "full")[nperseg - 1:] * autocovariance
    return 2.0 / (sample_rate * np.sum(window ** 2)) * (2.0 * np.fft.rfft(lagged).real - lagged[0])


def circulant_synthesis(job, chain, n, seed):
    """Reference synthesis by circulant embedding (Davies & Harte 1987).

    Complex normal draws on the n-sample record's own rfft grid, scaled by
    the Cholesky factors of the interpolated matrix and the chain response
    at each bin, and one irfft per channel: the target realized at every
    bin of the record.  Returns both channels' currents, unquantized and
    without the spur.
    """
    fs = chain.sample_rate
    f = np.fft.rfftfreq(n, 1.0 / fs)
    p11, p22, p12 = synth._job_matrix(job, chain, f)
    l11 = np.sqrt(p11)
    l21 = p12 / l11
    l22 = np.sqrt(p22 - l21 ** 2)
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal((2, len(f))) + 1j * rng.standard_normal((2, len(f)))
    # complex draws of variance 2 per bin: one-sided density P for scale^2 |L|^2 = n fs P / 4
    h = np.sqrt(n * fs / 4.0) * chain.response(f)
    return np.fft.irfft(h * l11 * z1, n=n), np.fft.irfft(h * (l21 * z1 + l22 * z2), n=n)


class TestSynthesisFidelity:
    """What the traces realize, against the matrix they are made from."""

    @pytest.mark.parametrize("sample_rate", [50e6, 200e6])
    @pytest.mark.parametrize("kind", ["arm", "reference", "dark"])
    def test_kernels_match_their_targets(self, kind, sample_rate):
        """|K|^2 of each kernel against (fs/2) l^2 |H|^2 over 0.5-20 MHz.

        l are the Cholesky factors of the interpolated matrix at each
        frequency, on a grid 64 times finer than the kernels'.  k11 and k22
        stay within 1e-5 of their own targets (8.1e-6 and 8.9e-6 at both
        rates, at 20 MHz).  k21, the arms' cross factor, misses its own
        target by 3.6e-4 at 20 MHz, where the clamped spectra's slope jumps
        against a factor that is all excess noise, and by under 1e-5 below
        19.5 MHz.
        """
        chain = DetectionChain(sample_rate=sample_rate)
        job = {"arm": synth._arm_job(operating_point_spectra(), chain, 1),
               "reference": synth._pair_job(chain.dc_current_1, chain.dc_current_2, chain, 1),
               "dark": synth._pair_job(0.0, 0.0, chain, 1)}[kind]
        taps, size, _, _ = synth._block_sizes(chain.sample_rate)
        fine = 64 * taps
        f = np.fft.rfftfreq(fine, 1.0 / chain.sample_rate)
        band = (f >= 0.5e6) & (f <= 20e6)
        p11, p22, p12 = (p[band] for p in target_matrix(job, chain, f))
        l11 = np.sqrt(p11)
        l21 = p12 / l11
        l22 = np.sqrt(p22 - l21 ** 2)
        kernels = synth._kernels(job, chain)
        lsb = [chain.lsb(dc) for dc in job[1]]
        # each kernel's transform carries the factor size
        got = [None if k is None else
               np.abs(np.fft.rfft(np.fft.irfft(k.astype(complex) / size, n=size), n=fine)[band]) ** 2
               * lsb[min(i, 1)] ** 2 for i, k in enumerate(kernels)]
        scale = chain.sample_rate / 2.0
        assert np.max(np.abs(got[0] / (scale * l11 ** 2) - 1)) < 1e-5
        assert np.max(np.abs(got[2] / (scale * l22 ** 2) - 1)) < 1e-5
        if kind == "arm":
            miss = np.abs(got[1] / (scale * l21 ** 2) - 1)
            assert np.max(miss) < 4e-4
            assert np.max(miss[f[band] < 19.5e6]) < 1e-5
        else:
            assert got[1] is None

    @pytest.mark.parametrize("synthesis", ["overlap-save", "circulant reference"])
    def test_realized_spectra_pull_with_unit_width(self, synthesis):
        """Per-bin pulls of P11, P22 and Re P12 over a seed ensemble.

        Witness arms at 50 MS/s, 10 ms, 100 kHz RBW.  The expectation is
        the target matrix smoothed by the analyzer's window; the variance
        of a bin is E11^2 (or E22^2, or (E11 E22 + E12^2) / 2 for Re P12)
        times (K + 2 (K - 1) rho) / K^2 for K half-overlapping segments that
        correlate in power by rho.  Every other bin over 0.5-20 MHz, where
        neighbours do not correlate, is pooled.  The circulant reference,
        which realizes the target at every bin of the record, pulls with
        unit width too: that checks the model the synthesis is judged by.
        """
        chain = DetectionChain(sample_rate=50e6, adc_bits=16, spur_amplitude=0.0)
        spec = operating_point_spectra()
        job = synth._arm_job(spec, chain, 0)
        nperseg, n = 500, 500_000
        grid = np.linspace(0.0, chain.sample_rate / 2.0, (1 << 15) + 1)
        e11, e22, e12 = (expected_welch(p, chain.sample_rate, nperseg)
                         for p in target_matrix(job, chain, grid))
        window = np.sin(np.pi * np.arange(nperseg) / nperseg)
        rho = (np.sum(window[:nperseg // 2] * window[nperseg // 2:]) / np.sum(window ** 2)) ** 2
        k = (n - nperseg) // (nperseg // 2) + 1
        factor = (k + 2 * (k - 1) * rho) / k ** 2
        pulls = []
        for seed in range(40):
            if synthesis == "overlap-save":
                m = an.cross_spectral_matrix(witness_arm_traces(spec, chain, 0.010, seed=seed), 100e3)
                freqs, p11, p22, p12 = m.frequencies, m.p11, m.p22, m.p12
            else:
                freqs, (p11, p22, p12), _, _ = an._averaged_periodograms(
                    [circulant_synthesis(job, chain, n, seed)], n, (1.0, 1.0), chain.sample_rate,
                    100e3, np.float32)
            sel = (freqs >= 0.5e6) & (freqs <= 20e6) & (np.arange(len(freqs)) % 2 == 0)
            for got, want, var in ((p11, e11, e11 ** 2), (p22, e22, e22 ** 2),
                                   (p12.real, e12, (e11 * e22 + e12 ** 2) / 2.0)):
                pulls.append((got[sel] - want[sel]) / np.sqrt(var[sel] * factor))
        pulls = np.concatenate(pulls)
        assert len(pulls) > 10000
        assert abs(np.mean(pulls)) < 0.05
        assert abs(np.std(pulls) - 1.0) < 0.04


class TestMemoryAndCodeDtype:
    def test_witness_synthesis_memory_is_bounded(self):
        # 50 MS/s, 10 ms: the trace's codes are 1.9 MiB and the run's buffers,
        # a draw's noise, its spectra (also the Box-Muller scratch) and one
        # inverse call's signal, 2.3 MiB whatever the duration
        # (3.6 MiB above the codes in all, the test run alone);
        # the circulant form's grid-sized spectra and response took 13.2 MiB.  The ADC scaling is derived once per chain
        # beforehand (its 65537-point response alone takes 4 MiB)
        spec = operating_point_spectra()
        chain = DetectionChain(sample_rate=50e6)
        chain.lsb(0.5 * (chain.dc_current_1 + chain.dc_current_2))
        tracemalloc.start()
        try:
            trace = witness_arm_traces(spec, chain, 0.010, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= trace.samples_1.base.nbytes + 6 * 2 ** 20

    @pytest.mark.parametrize("sample_rate", [50e6, 200e6])
    def test_filtering_a_draw_allocates_less_than_its_spectra(self, sample_rate):
        # k21 x1 is formed in the signal buffer, so no (blocks, fft/2 + 1)
        # complex64 temporary is made per draw
        chain = DetectionChain(sample_rate=sample_rate)
        job = synth._arm_job(operating_point_spectra(), chain, 1)
        kernels = synth._kernels(job, chain)
        assert kernels[1] is not None
        run = synth._Run(chain, 0.010)
        spectra = run._spectra[0]
        synth._next_draw(np.random.default_rng(1), run._noise, spectra, run.hop, first=True)
        tracemalloc.start()
        try:
            run._filter(spectra, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectra[0].nbytes

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
