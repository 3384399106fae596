"""Spectral estimation, corrections, shot-noise referencing, witnesses."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tpsh.cavity import CavityParams, steady_state
from tpsh.noise import (
    QuadSpectra,
    apply_detection_loss,
    default_frequency_grid,
    quadrature_spectra,
    witness_pair,
    witness_report,
)
from tpsh.synth import (DetectionChain, TraceStream, TwoChannelTrace, dark_trace, shot_noise_pair,
                        synthesize, witness_arm_traces)
from tpsh.traceio import read_trace, write_trace
from tpsh import analyzer as an


def coherent_spectra():
    f = default_frequency_grid()
    ones = np.ones_like(f)
    zeros = np.zeros_like(f)
    return QuadSpectra(frequencies=f, s_x1=ones, s_x2=ones, c_x=zeros,
                       s_y1=ones, s_y2=ones, c_y=zeros)


def quiet_chain(**kw):
    base = dict(
        sample_rate=50e6, adc_bits=24, dc_current_1=1e-3, dc_current_2=1e-3,
        electronic_noise_rel=0.0, spur_amplitude=0.0,
    )
    base.update(kw)
    return DetectionChain(**base)


class TestWelchEstimator:
    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4_000_000)
        spec = an.welch_psd(x, 200e6, 100e3)
        total = float(np.sum(spec.power) * spec.rbw)
        assert abs(total - float(np.var(x))) < 1e-3 * float(np.var(x))

    def test_white_noise_flat_within_3_sigma(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2_000_000)
        spec = an.welch_psd(x, 200e6, 100e3)
        level = 1.0 / 100e6  # variance 1 spread over the one-sided band
        z = (spec.power[1:-1] - level) / spec.sigma[1:-1]
        assert np.all(np.abs(z) < 3.0)

    def test_sinusoid_lands_in_its_bin(self):
        fs = 200e6
        t = np.arange(1_000_000) / fs
        x = np.sin(2 * np.pi * 15.8e6 * t)
        spec = an.welch_psd(x, fs, 100e3)
        peak = spec.frequencies[int(np.argmax(spec.power))]
        assert abs(peak - 15.8e6) <= spec.rbw / 2

    def test_rbw_snaps_within_one_bin(self):
        x = np.random.default_rng(2).standard_normal(500_000)
        spec = an.welch_psd(x, 50e6, 130e3)
        assert abs(spec.rbw - 130e3) < spec.rbw ** 2 / 50e6 + 1.0

    def test_sigma_field_matches_definition(self):
        x = np.random.default_rng(3).standard_normal(200_000)
        spec = an.welch_psd(x, 50e6, 100e3)
        assert spec.n_averages == 200_000 // 500
        assert np.allclose(spec.sigma, spec.power / math.sqrt(spec.n_averages))

    def test_coarser_rbw_shrinks_sigma_by_sqrt2(self):
        x = np.random.default_rng(4).standard_normal(1_000_000)
        fine = an.welch_psd(x, 200e6, 100e3)
        coarse = an.welch_psd(x, 200e6, 200e3)
        rel_fine = np.mean(fine.sigma / fine.power)
        rel_coarse = np.mean(coarse.sigma / coarse.power)
        assert rel_fine / rel_coarse == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            an.welch_psd(np.zeros(2000), 200e6, 100e3)

    def test_sigma_scales_with_inverse_sqrt_duration(self):
        chain = quiet_chain()
        spec = coherent_spectra()
        rels = []
        for ms in (20, 80, 320):
            tr = synthesize(spec, chain, ms * 1e-3, seed=5)
            # gain 0: channel 1 alone, with its sigma
            est = an.cross_spectral_matrix(tr, 100e3).combination(0.0, "sum")
            rels.append(float(np.mean(est.sigma / est.power)))
        assert rels[0] / rels[1] == pytest.approx(2.0, rel=0.10)
        assert rels[1] / rels[2] == pytest.approx(2.0, rel=0.10)


class TestCombinedSpectrum:
    def test_zero_gain_reduces_to_channel_one(self):
        chain = quiet_chain()
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.010, seed=6)
        combo = an.combined_spectrum(tr, 0.0, "difference", 100e3)
        solo = an.cross_spectral_matrix(tr, 100e3).p11
        assert np.allclose(combo.power, solo, rtol=1e-6)

    def test_mode_validated(self):
        chain = quiet_chain()
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.010, seed=6)
        with pytest.raises(ValueError, match="mode"):
            an.combined_spectrum(tr, 1.0, "ratio", 100e3)

    def test_paper_point_sum_vs_difference_band(self):
        # squeezed sum at -0.9 dB; difference at shot, reading +0.2 dB
        # against the deliberately lowered g=0.95 reference
        params = CavityParams()
        spec = apply_detection_loss(
            quadrature_spectra(steady_state(params), default_frequency_grid()),
            params.total_detection_efficiency,
        )
        chain = quiet_chain(adc_bits=16)
        tr = synthesize(spec, chain, 0.040, seed=7)
        ref = shot_noise_pair(1e-3, 1e-3, chain, 0.040, seed=8)
        sel = None
        psd_sum = an.combined_spectrum(tr, 1.0, "sum", 100e3)
        psd_diff = an.combined_spectrum(tr, 1.0, "difference", 100e3)
        qnl = an.cross_spectral_matrix(ref, 100e3).combination(0.95, "difference")
        sel = (psd_sum.frequencies >= 5.5e6) & (psd_sum.frequencies <= 6.5e6)
        ratio_db = 10 * np.log10(np.mean(psd_sum.power[sel]) / np.mean(psd_diff.power[sel]))
        assert ratio_db == pytest.approx(-0.9, abs=0.25)
        diff_db = 10 * np.log10(np.mean(psd_diff.power[sel]) / np.mean(qnl.power[sel]))
        assert diff_db == pytest.approx(10 * np.log10(2 / (1 + 0.95 ** 2)), abs=0.15)


class TestSciPyEquivalence:
    """The one-pass matrix estimator against scipy.signal as the reference.

    Single-precision FFTs summed in double agree with scipy's double-precision
    estimate to a few 1e-7; 1e-5 leaves room without hiding a wrong scale,
    window, detrend or segment count.  130 kHz gives an odd segment length
    (385 at 50 MS/s), and neither case fills its last block of segments.
    """

    @pytest.fixture(scope="class")
    def arms(self):
        params = CavityParams(pump_power=0.023)
        spec = apply_detection_loss(
            quadrature_spectra(steady_state(params), default_frequency_grid()),
            params.total_detection_efficiency,
        )
        tr = witness_arm_traces(spec, DetectionChain(sample_rate=50e6), 0.010, seed=60)
        cur1 = tr.samples_1 * tr.chain.lsb(tr.dc_1)
        cur2 = tr.samples_2 * tr.chain.lsb(tr.dc_2)
        return tr, cur1, cur2

    @pytest.mark.parametrize("rbw, nperseg", [(100e3, 500), (130e3, 385)])
    def test_matches_scipy(self, arms, rbw, nperseg):
        from scipy import signal

        tr, cur1, cur2 = arms
        n_segments = (tr.n_samples - nperseg) // (nperseg - nperseg // 2) + 1
        assert n_segments % an._BLOCK_SEGMENTS != 0
        kw = dict(fs=50e6, window=np.sqrt(signal.windows.hann(nperseg, sym=False)),
                  nperseg=nperseg, noverlap=nperseg // 2, detrend="constant")
        f, ref11 = signal.welch(cur1, scaling="density", **kw)
        _, ref22 = signal.welch(cur2, scaling="density", **kw)
        _, ref12 = signal.csd(cur1, cur2, **kw)
        sel = (f >= 0.1e6) & (f <= 20e6)

        def rel(got, want):
            return float(np.max(np.abs(got[sel] / want[sel] - 1.0)))

        psd = an.welch_psd(cur1.astype(np.float32), 50e6, rbw)
        assert np.array_equal(psd.frequencies, f)
        assert rel(psd.power, ref11) <= 1e-5

        m = an.cross_spectral_matrix(tr, rbw)
        assert rel(m.p11, ref11) <= 1e-5 and rel(m.p22, ref22) <= 1e-5
        # the cross density can pass through zero, so its error is measured
        # against the auto densities that bound it
        scale = np.sqrt(ref11 * ref22)[sel]
        assert float(np.max(np.abs(m.p12[sel] - ref12[sel]) / scale)) <= 1e-5

        for mode, sign in (("sum", 1.0), ("difference", -1.0)):
            _, want = signal.welch(cur1 + sign * 0.7 * cur2, scaling="density", **kw)
            got = an.combined_spectrum(tr, 0.7, mode, rbw)
            assert rel(got.power, want) <= 1e-5
            assert got.n_averages == tr.n_samples // nperseg

        # the optimal-gain fit sees the same band-averaged matrix as scipy
        band = (4.5e6, 5.5e6)
        mask = an._band_mask(f, band, tr.chain, m.rbw)
        s1, s2 = float(np.mean(ref11[mask])), float(np.mean(ref22[mask]))
        c = 2.0 * float(np.mean(ref12.real[mask]))
        want_gain = (s2 - s1 - math.hypot(s2 - s1, c)) / c
        assert 0.5 <= want_gain <= 2.0
        got_gain = an._resolve_gain(m, "optimal", 0.95, mask)
        assert got_gain == pytest.approx(want_gain, rel=1e-5)


def serial_periodograms(channels, scales, sample_rate, rbw, dtype):
    """The estimator's sums, both channels block by block.

    The reference for the estimate: the same segments, blocks, precisions
    and order of additions, with no buffer reuse and whole-block transforms.
    """
    nperseg = int(round(sample_rate / rbw))
    step = nperseg - nperseg // 2
    n_segments = (len(channels[0]) - nperseg) // step + 1
    window = np.sin(np.pi * np.arange(nperseg) / nperseg)
    weights = [(window * scale).astype(dtype) for scale in scales]
    bins = nperseg // 2 + 1
    sums = [np.zeros(bins) for _ in channels]
    if len(channels) == 2:
        sums.append(np.zeros(bins, dtype=complex))
    for first in range(0, n_segments, an._BLOCK_SEGMENTS):
        last = min(first + an._BLOCK_SEGMENTS, n_segments)
        span = slice(first * step, (last - 1) * step + nperseg)
        spectra = []
        for x, weight in zip(channels, weights):
            seg = sliding_window_view(np.asarray(x[span], dtype=dtype), nperseg)[::step]
            seg = seg - seg.mean(axis=1, keepdims=True)
            seg *= weight
            spectra.append(np.fft.rfft(seg, axis=1, norm="forward"))
        for total, spectrum in zip(sums, spectra):
            power = np.abs(spectrum)
            power *= power
            total += power.sum(axis=0, dtype=np.float64)
        if len(spectra) == 2:
            sums[2] += (spectra[0].conj() * spectra[1]).sum(axis=0, dtype=complex)
    # the transforms scale by NumPy's reciprocal of nperseg in dtype
    norm = float(np.reciprocal(nperseg, dtype=dtype)) ** 2
    scale = np.full(bins, 2.0 / (sample_rate * float(np.sum(window * window)) * n_segments * norm))
    scale[0] /= 2.0
    if nperseg % 2 == 0:
        scale[-1] /= 2.0
    return [total * scale for total in sums], n_segments


def code_trace(n, seed, sample_rate=50e6):
    rng = np.random.default_rng(seed)
    chain = DetectionChain(sample_rate=sample_rate)
    codes = [rng.integers(-3000, 3000, n).astype(np.int16) for _ in range(2)]
    return TwoChannelTrace(codes[0], codes[1], chain, n / sample_rate, seed, 1.0, 0.8)


class TestBlockEstimator:
    """Reused staging and block buffers and batched channel-2 transforms:
    the bytes of the straightforward block loop."""

    # (record length, rbw) at 50 MS/s: even (500) and odd (385) segment
    # lengths, with segment counts a multiple of the block, not a multiple,
    # one whole block and a remainder, exactly one block and within one block
    CASES = [
        (511 * 250 + 500, 100e3, 512),
        (300_000, 100e3, 1199),
        (40_000, 100e3, 159),
        (127 * 250 + 500, 100e3, 128),
        (20_000, 100e3, 79),
        (511 * 193 + 385, 130e3, 512),
        (300_000, 130e3, 1553),
        (40_000, 130e3, 206),
        (127 * 193 + 385, 130e3, 128),
        (20_000, 130e3, 102),
    ]

    @pytest.mark.parametrize("n, rbw, n_segments", CASES)
    def test_matrix_equals_the_serial_estimate(self, n, rbw, n_segments):
        tr = code_trace(n, seed=n)
        scales = (tr.chain.lsb(tr.dc_1), tr.chain.lsb(tr.dc_2))
        (p11, p22, p12), count = serial_periodograms((tr.samples_1, tr.samples_2), scales,
                                                     50e6, rbw, np.float32)
        assert count == n_segments
        m = an.cross_spectral_matrix(tr, rbw)
        assert np.array_equal(m.p11, p11)
        assert np.array_equal(m.p22, p22)
        assert np.array_equal(m.p12, p12)

    @pytest.mark.parametrize("n, rbw, n_segments", CASES)
    def test_welch_psd_equals_the_serial_estimate(self, n, rbw, n_segments):
        x = np.random.default_rng(n).standard_normal(n)
        (power,), count = serial_periodograms((x,), (1.0,), 50e6, rbw, np.float64)
        assert count == n_segments
        assert np.array_equal(an.welch_psd(x, 50e6, rbw).power, power)

    def test_interleaved_channels_equal_the_serial_estimate(self):
        # read_trace gives the channels as strided views of one frame array
        rng = np.random.default_rng(9)
        frames = rng.integers(-3000, 3000, (300_000, 2)).astype(np.int16)
        chain = DetectionChain(sample_rate=50e6)
        tr = TwoChannelTrace(frames[:, 0], frames[:, 1], chain, 300_000 / 50e6, 9, 1.0, 0.8)
        assert tr.samples_1.strides == (4,)
        (p11, p22, p12), _ = serial_periodograms((tr.samples_1, tr.samples_2),
                                                 (chain.lsb(tr.dc_1), chain.lsb(tr.dc_2)),
                                                 50e6, 130e3, np.float32)
        m = an.cross_spectral_matrix(tr, 130e3)
        assert np.array_equal(m.p11, p11)
        assert np.array_equal(m.p22, p22)
        assert np.array_equal(m.p12, p12)

    def test_concurrent_matrices_under_fine_switching_equal_the_serial_estimate(self):
        # three callers at once, each with its own buffers, handing the GIL
        # over often
        traces = [code_trace(300_000, seed=seed) for seed in (4, 5, 6)]
        want = [serial_periodograms((t.samples_1, t.samples_2),
                                    (t.chain.lsb(t.dc_1), t.chain.lsb(t.dc_2)), 50e6, 130e3,
                                    np.float32)[0] for t in traces]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as callers:
                got = list(callers.map(lambda t: an.cross_spectral_matrix(t, 130e3), traces))
        finally:
            sys.setswitchinterval(interval)
        for (p11, p22, p12), m in zip(want, got):
            assert np.array_equal(m.p11, p11)
            assert np.array_equal(m.p22, p22)
            assert np.array_equal(m.p12, p12)

    @pytest.mark.parametrize("source", ["file", "synthesis"])
    def test_matrix_ignores_how_the_record_is_cut(self, tmp_path, source):
        # a record that arrives in pieces of any size, single samples too,
        # gives the matrix of the whole: a block is transformed once it is
        # complete from the record's start.  A file's channels are strided
        # int16 views, a synthesized trace's contiguous codes
        chain = DetectionChain(sample_rate=50e6)
        trace = shot_noise_pair(1.0, 0.8, chain, 0.010, seed=21)
        if source == "file":
            write_trace(trace, str(tmp_path / "trace.bin"))
            trace = read_trace(str(tmp_path / "trace.bin"), chain)
            assert trace.samples_1.strides == (4,)
        whole = an.cross_spectral_matrix(trace, 100e3)
        n = trace.n_samples
        for size in (1, 999, 1000, 65_537, 257_001, n):
            pieces = ((trace.samples_1[i:i + size], trace.samples_2[i:i + size]) for i in range(0, n, size))
            m = an.cross_spectral_matrix(TraceStream(chain, trace.duration, trace.seed, trace.dc_1,
                                                     trace.dc_2, n, pieces), 100e3)
            assert np.array_equal(m.p11, whole.p11)
            assert np.array_equal(m.p22, whole.p22)
            assert np.array_equal(m.p12, whole.p12)


def estimates(n, rbw):
    """The matrix and the PSD of an n-sample record, each against the serial sums."""
    tr = code_trace(n, seed=n)
    scales = (tr.chain.lsb(tr.dc_1), tr.chain.lsb(tr.dc_2))
    x = np.random.default_rng(n).standard_normal(n)
    return [
        (lambda: an.cross_spectral_matrix(tr, rbw),
         serial_periodograms((tr.samples_1, tr.samples_2), scales, 50e6, rbw, np.float32)[0]),
        (lambda: an.welch_psd(x, 50e6, rbw),
         serial_periodograms((x,), (1.0,), 50e6, rbw, np.float64)[0]),
    ]


def assert_equal_sums(result, want):
    got = [result.power] if isinstance(result, an.NoiseSpectrum) else [result.p11, result.p22,
                                                                       result.p12]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def long_stream(n, pieces_of=65_536, fail_after=None):
    """A 200 MS/s TraceStream of n samples whose pieces are views of one
    fixed pool of codes; it raises OSError after fail_after pieces."""
    chain = DetectionChain(sample_rate=200e6)
    pool = np.random.default_rng(8).integers(-3000, 3000, (2, 1 << 20)).astype(np.int16)

    def pieces():
        for k, start in enumerate(range(0, n, pieces_of)):
            if k == fail_after:
                raise OSError("read failed mid-record")
            first = start % (pool.shape[1] - pieces_of)
            size = min(pieces_of, n - start)
            yield pool[0, first:first + size], pool[1, first:first + size]

    return TraceStream(chain, n / 200e6, 1, 1.0, 0.8, n, pieces())


class TestEstimateThreads:
    """A record within one block is reduced on the calling thread; a longer
    one on the calling thread and one worker, joined before the call ends."""

    @pytest.mark.parametrize("n, rbw, n_segments",
                             [c for c in TestBlockEstimator.CASES if c[2] <= an._BLOCK_SEGMENTS])
    def test_record_within_one_block_starts_no_thread(self, thread_starts, n, rbw, n_segments):
        for estimate, want in estimates(n, rbw):
            assert_equal_sums(estimate(), want)
        assert thread_starts == []

    def test_longer_record_joins_its_one_worker(self, thread_starts):
        # the first whole block of a longer record finds the worker idle
        for estimate, _ in estimates(300_000, 100e3):
            thread_starts.clear()
            estimate()
            assert len(thread_starts) == 1 and not thread_starts[0].is_alive()

    MULTI_BLOCK = [c for c in TestBlockEstimator.CASES if c[2] > an._BLOCK_SEGMENTS]

    @pytest.mark.parametrize("schedule", ["every", "none", "late"])
    @pytest.mark.parametrize("n, rbw, n_segments", MULTI_BLOCK)
    def test_any_schedule_gives_the_serial_sums(self, monkeypatch, schedule, n, rbw, n_segments):
        # the worker takes every block it can be given (the caller waits for
        # it to finish its last), none, or finishes each one late while the
        # caller reduces the blocks behind it; the sums are added in block
        # order whichever thread reduced which block
        caller = threading.get_ident()
        reducers = []
        block_sums = an._block_sums

        def recording(*args):
            here = threading.get_ident() == caller
            if not here and schedule == "late":
                time.sleep(0.02)
            sums = block_sums(*args)
            reducers.append(here)  # in the order the reductions end
            return sums

        def wait_for_it(future):
            if future is not None:
                wait([future])
            return True

        monkeypatch.setattr(an, "_block_sums", recording)
        if schedule != "late":
            monkeypatch.setattr(an, "_idle", wait_for_it if schedule == "every" else lambda f: False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for estimate, want in estimates(n, rbw):
                reducers.clear()
                assert_equal_sums(estimate(), want)
                whole = n_segments // an._BLOCK_SEGMENTS
                by_worker = reducers.count(False)
                assert len(reducers) == -(-n_segments // an._BLOCK_SEGMENTS)
                if schedule == "every":
                    # all but a last whole block with no block after it
                    assert by_worker == whole - (n_segments % an._BLOCK_SEGMENTS == 0)
                elif schedule == "none":
                    assert by_worker == 0
                else:
                    # a later block was done here before the worker's first
                    assert by_worker >= 1 and reducers[0]
        finally:
            sys.setswitchinterval(interval)

    def test_stream_that_raises_mid_record_leaves_no_thread(self, thread_starts):
        # the error comes after several blocks, with the worker started
        with pytest.raises(OSError, match="read failed mid-record"):
            an.cross_spectral_matrix(long_stream(1 << 21, fail_after=20), 100e3)
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()

    def test_reduction_that_raises_on_the_worker_leaves_no_thread(self, monkeypatch,
                                                                   thread_starts):
        caller = threading.get_ident()
        block_sums = an._block_sums

        def failing(*args):
            if threading.get_ident() != caller:
                raise FloatingPointError("reduction failed on the worker")
            return block_sums(*args)

        monkeypatch.setattr(an, "_block_sums", failing)
        for estimate, _ in estimates(300_000, 100e3):
            thread_starts.clear()
            with pytest.raises(FloatingPointError, match="reduction failed on the worker"):
                estimate()
            assert len(thread_starts) == 1 and not thread_starts[0].is_alive()

    def test_memory_does_not_grow_with_the_record(self):
        # 200 MS/s at 100 kHz: two blocks in flight, so two staged blocks of
        # int16 codes per channel and, for each thread, a block's segments,
        # channel 1's spectra and _CROSS_ROWS of channel 2's; the stream's
        # pieces are views of a pool made beforehand.  At most _HELD_BLOCKS
        # blocks' sums wait behind the worker's block, 32 KiB each
        nperseg, step, bins = 2000, 1000, 1001
        span = (an._BLOCK_SEGMENTS - 1) * step + nperseg
        per_block = (2 * span * 2 + an._BLOCK_SEGMENTS * (nperseg * 4 + bins * 8)
                     + an._CROSS_ROWS * bins * 8)
        # a process's first estimate peaks about 0.8 MB higher than later
        # ones, so one untraced estimate runs first and the bounds hold
        # whichever tests ran before
        an.cross_spectral_matrix(long_stream(2_000_000), 100e3)
        peaks = []
        for n in (2_000_000, 8_000_000):  # 10 and 40 ms
            stream = long_stream(n)
            tracemalloc.start()
            try:
                an.cross_spectral_matrix(stream, 100e3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + an._HELD_BLOCKS * 2 ** 15, peaks
        assert max(peaks) <= 2 * per_block + 2 ** 20, (peaks, per_block)


class TestRecordPlan:
    """The estimate is planned from the record's announced length."""

    def test_too_short_record_is_refused_before_its_first_piece(self):
        # 50 MS/s, 10 ms at 300 Hz: 2 averages of 166 667 samples, whose
        # window alone would take 1.3 MB and a block's buffers about 180 MiB
        pulled = []

        def pieces():
            pulled.append(True)
            yield np.zeros(500_000, np.int16), np.zeros(500_000, np.int16)

        stream = TraceStream(DetectionChain(sample_rate=50e6), 0.010, 1, 1.0, 0.8, 500_000,
                             pieces())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2 averages < 10"):
                an.cross_spectral_matrix(stream, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pulled == []
        assert peak < 2 ** 16, peak

    @pytest.mark.parametrize("actual", [1_999_999, 1_000_000, 2_000_001, 2_007_110])
    def test_pieces_that_miss_the_announced_length_are_refused(self, thread_starts, actual):
        stream = long_stream(actual)
        stream.n_samples = 2_000_000
        with pytest.raises(ValueError, match="the pieces hold %d samples, not the record's "
                                             "2000000" % actual):
            an.cross_spectral_matrix(stream, 100e3)
        assert all(not t.is_alive() for t in thread_starts)

    def test_a_record_of_few_segments_gets_buffers_of_its_size(self, monkeypatch):
        # 10 averages at 1 kHz, 19 segments: rows for those, not for a
        # whole block of _BLOCK_SEGMENTS
        sizes = []
        buffers = an._buffers

        def recording(*args):
            made = buffers(*args)
            sizes.append([b.shape for b in made])
            return made

        monkeypatch.setattr(an, "_buffers", recording)
        an.cross_spectral_matrix(long_stream(2_000_000), 1e3)
        assert sizes == [[(19, 200_000), (19, 100_001), (19, 100_001)]]


class TestShotNoiseReference:
    def test_default_gain_is_conservative(self):
        chain = quiet_chain()
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.020, seed=9)
        m = an.cross_spectral_matrix(tr, 100e3)
        lowered = m.combination(0.95, "difference")
        exact = m.combination(1.0, "difference")
        sel = (exact.frequencies >= 4e6) & (exact.frequencies <= 8e6)
        ratio = float(np.mean(lowered.power[sel]) / np.mean(exact.power[sel]))
        assert ratio == pytest.approx((1 + 0.95 ** 2) / 2, abs=0.01)
        assert ratio < 1.0

    def test_unit_gain_matches_analytic_pair_shot(self):
        chain = quiet_chain()
        tr = shot_noise_pair(1e-3, 1e-3, chain, 0.020, seed=10)
        m = an.cross_spectral_matrix(tr, 100e3)
        ref = m.combination(1.0, "difference")
        qnl = an.analytic_qnl_matrix(chain, m).combination(1.0, "difference")
        sel = (ref.frequencies >= 4e6) & (ref.frequencies <= 8e6)
        z = (ref.power[sel] - qnl.power[sel]) / ref.sigma[sel]
        assert abs(float(np.mean(z))) * math.sqrt(np.count_nonzero(sel)) < 3.0


def flat_matrix(n_bins, auto, n_averages):
    """A matrix of uncorrelated channels with equal, flat auto densities."""
    p = np.full(n_bins, auto)
    return an.CrossSpectralMatrix(np.arange(float(n_bins)), p, p, np.zeros(n_bins, complex),
                                  1.0, n_averages, 1.0, 1.0)


class TestElectronicCorrection:
    # at unit gain each combination is twice the auto density, and its
    # sigma is that combination over sqrt(n_averages): 1.1/sqrt(3025) = 0.02
    # for the signal and 0.1/sqrt(100) = 0.01 for the floor
    def test_trivial_arithmetic(self):
        out = an.correct_electronic_noise(flat_matrix(5, 0.55, 3025), flat_matrix(5, 0.05, 100))
        for mode in ("sum", "difference"):
            spec = out.combination(1.0, mode)
            assert np.allclose(spec.power, 1.0)
            assert np.allclose(spec.sigma, np.hypot(0.02, 0.01))

    def test_zero_dark_is_identity(self):
        sig = flat_matrix(5, 0.55, 3025)
        out = an.correct_electronic_noise(sig, flat_matrix(5, 0.0, 100))
        assert np.array_equal(out.combination(1.0, "sum").power, sig.combination(1.0, "sum").power)

    def test_floor_at_zero(self):
        out = an.correct_electronic_noise(flat_matrix(3, 0.05, 100), flat_matrix(3, 0.15, 100))
        assert np.all(out.combination(1.0, "difference").power == 0.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            an.correct_electronic_noise(flat_matrix(5, 1.0, 100), flat_matrix(4, 1.0, 100))

    def test_second_floor_refused(self):
        sig = an.correct_electronic_noise(flat_matrix(5, 1.0, 100), flat_matrix(5, 0.1, 100))
        with pytest.raises(ValueError, match="one floor"):
            an.correct_electronic_noise(sig, flat_matrix(5, 0.1, 100))

    def test_floor_with_its_own_floor_refused(self):
        floor = an.correct_electronic_noise(flat_matrix(5, 0.2, 100), flat_matrix(5, 0.1, 100))
        with pytest.raises(ValueError, match="none of its own"):
            an.correct_electronic_noise(flat_matrix(5, 1.0, 100), floor)

    def test_corrected_trace_matches_clean_synthesis(self):
        spec = coherent_spectra()
        noisy_chain = quiet_chain(electronic_noise_rel=0.1, adc_bits=16)
        clean_chain = quiet_chain(adc_bits=16)
        noisy = synthesize(spec, noisy_chain, 0.020, seed=11)
        clean = synthesize(spec, clean_chain, 0.020, seed=11)
        dark = dark_trace(noisy_chain, 0.020, seed=12)
        est = an.correct_electronic_noise(
            an.cross_spectral_matrix(noisy, 100e3), an.cross_spectral_matrix(dark, 100e3),
        ).combination(1.0, "difference")
        want = an.cross_spectral_matrix(clean, 100e3).combination(1.0, "difference")
        sel = (est.frequencies >= 4e6) & (est.frequencies <= 8e6)
        n = np.count_nonzero(sel)
        pull = float(np.mean((est.power[sel] - want.power[sel]) / est.sigma[sel]))
        assert abs(pull) * math.sqrt(n) < 3.0


class TestGainBalance:
    def trace_with_dc(self, dc1, dc2):
        chain = quiet_chain(dc_current_1=dc1, dc_current_2=dc2)
        return shot_noise_pair(dc1, dc2, chain, 0.010, seed=13)

    def test_equal_dc_gives_unity(self):
        assert an.gain_balance_from_dc(self.trace_with_dc(1e-3, 1e-3)) == 1.0

    def test_paper_ratio(self):
        tr = self.trace_with_dc(100e-6, 105.26e-6)
        assert an.gain_balance_from_dc(tr) == pytest.approx(0.95, abs=1e-3)

    def test_scale_invariant(self):
        a = an.gain_balance_from_dc(self.trace_with_dc(100e-6, 105.26e-6))
        b = an.gain_balance_from_dc(self.trace_with_dc(700e-6, 736.82e-6))
        assert a == pytest.approx(b, rel=1e-12)

    def test_clamped(self):
        assert an.gain_balance_from_dc(self.trace_with_dc(3e-3, 1e-3)) == 2.0
        assert an.gain_balance_from_dc(self.trace_with_dc(1e-3, 3e-3)) == 0.5

    def test_zero_dc_rejected(self):
        chain = quiet_chain(electronic_noise_rel=0.1)
        tr = shot_noise_pair(1e-3, 0.0, chain, 0.010, seed=14)
        with pytest.raises(ValueError, match="DC"):
            an.gain_balance_from_dc(tr)
        # the optimal fit divides by each channel's DC, and refuses it the same way
        with pytest.raises(ValueError, match="DC"):
            an.witness_from_matrices(an.cross_spectral_matrix(tr, 100e3), None, None, chain,
                                     (4.5e6, 5.5e6), "optimal")

    @pytest.mark.parametrize("eta", (0.97, 0.9))
    def test_optimal_fit_in_shot_noise_units(self, eta):
        # the 23 mW arm matrix at 5 MHz with arm 1 behind a further loss eta:
        # its DC, its excess noise and the cross density all scale, and the
        # balanced sum (P11 + g^2 P22 + 2g Re P12) / (dc_1 + g^2 dc_2) is
        # lowest at g = 1
        params = CavityParams(pump_power=0.023)
        spec = apply_detection_loss(quadrature_spectra(steady_state(params), [5e6]),
                                    params.total_detection_efficiency)
        vp, vm = (float(v[0]) for v in witness_pair(spec))
        s_arm, c_arm, dc = (vp + vm) / 4.0, (vp - vm) / 2.0, 1e-3
        p11, p22, p12 = eta * dc * (eta * s_arm + 1.0 - eta), dc * s_arm, eta * dc * c_arm / 2.0
        g = np.linspace(0.5, 2.0, 30001)
        ratio = (p11 + g * g * p22 + 2.0 * g * p12) / (eta * dc + g * g * dc)
        assert g[np.argmin(ratio)] == pytest.approx(1.0, abs=1e-4)

        freqs = np.arange(0.0, 10e6, 100e3)
        full = lambda x: np.full(len(freqs), x)
        signal = an.CrossSpectralMatrix(freqs, full(p11), full(p22), full(complex(p12)),
                                        100e3, math.inf, eta * dc, dc)
        report, _, _ = an.witness_from_matrices(signal, None, None, quiet_chain(),
                                                (4.5e6, 5.5e6), "optimal")
        assert report.optimal_gain == pytest.approx(1.0, abs=1e-9)


class TestWitnessFromTraces:
    def test_coherent_duan_at_baseline(self):
        # entangled is a strict inequality on the point estimate, so the
        # fixed seeds are ones whose fluctuation lands at or above 4
        chain = quiet_chain(adc_bits=16, electronic_noise_rel=0.05)
        ab = witness_arm_traces(coherent_spectra(), chain, 0.040, seed=50)
        ref = shot_noise_pair(1e-3, 1e-3, chain, 0.040, seed=51)
        dark = dark_trace(chain, 0.040, seed=52)
        rep = an.witness_from_traces(ab, ref, 100e3, (4e6, 8e6), dark=dark)
        assert rep.duan_sum == pytest.approx(4.0, abs=4 * rep.uncertainty["duan_sum"])
        assert rep.uncertainty["duan_sum"] < 0.03
        assert not rep.entangled
        assert rep.duan_sum == rep.var_sum + rep.var_diff

    def test_entangled_point_with_full_reference_chain(self):
        params = CavityParams(pump_power=0.023)
        spec = apply_detection_loss(
            quadrature_spectra(steady_state(params), default_frequency_grid()),
            params.total_detection_efficiency,
        )
        chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1e-3,
                               adc_bits=14, electronic_noise_rel=0.1)
        ab = witness_arm_traces(spec, chain, 0.040, seed=19)
        ref = shot_noise_pair(1e-3, 1e-3, chain, 0.040, seed=20)
        dark = dark_trace(chain, 0.040, seed=21)
        rep = an.witness_from_traces(ab, ref, 100e3, (4.5e6, 5.5e6), dark=dark)
        assert rep.duan_sum == pytest.approx(3.76, abs=0.08)
        assert rep.entangled

    def test_vanishing_qnl_rejected(self):
        chain = quiet_chain()
        ab = witness_arm_traces(coherent_spectra(), chain, 0.010, seed=22)
        silent = dark_trace(chain, 0.010, seed=23)  # zero dc, zero electronic
        with pytest.raises(ValueError, match="vanishes"):
            an.witness_from_traces(ab, silent, 100e3, (4e6, 8e6),
                                   gain_mode="fixed", fixed_gain=1.0)

    def test_floor_that_cancels_the_signal_rejected(self):
        # the signal as its own dark record: sum and difference correct to zero
        chain = quiet_chain()
        ab = witness_arm_traces(coherent_spectra(), chain, 0.010, seed=22)
        with pytest.raises(ValueError, match="sum or difference spectrum vanishes"):
            an.witness_from_traces(ab, None, 100e3, (4e6, 8e6), dark=ab)

    def test_gain_modes(self):
        chain = quiet_chain(adc_bits=16, dc_current_1=1e-3, dc_current_2=1.1e-3)
        ab = witness_arm_traces(coherent_spectra(), chain, 0.010, seed=24)
        fixed = an.witness_from_traces(ab, None, 100e3, (4e6, 8e6),
                                       gain_mode="fixed", fixed_gain=0.9)
        assert fixed.optimal_gain == 0.9
        balanced = an.witness_from_traces(ab, None, 100e3, (4e6, 8e6))
        assert balanced.optimal_gain == 1.0  # arms share the mean current
        opt = an.witness_from_traces(ab, None, 100e3, (4e6, 8e6), gain_mode="optimal")
        assert 0.5 < opt.optimal_gain < 2.0
        with pytest.raises(ValueError, match="gain_mode"):
            an.witness_from_traces(ab, None, 100e3, (4e6, 8e6), gain_mode="best")
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="fixed gain must be > 0"):
                an.witness_from_traces(ab, None, 100e3, (4e6, 8e6), gain_mode="fixed", fixed_gain=bad)

    def test_band_must_contain_bins(self):
        chain = quiet_chain()
        ab = witness_arm_traces(coherent_spectra(), chain, 0.010, seed=25)
        with pytest.raises(ValueError, match="band"):
            an.witness_from_traces(ab, None, 100e3, (8e6, 4e6))

    def test_amplitude_scaling_invariance(self):
        # doubling every analog amplitude (DC x4) leaves all ratios bit-exact
        spec = coherent_spectra()

        def run(scale):
            chain = DetectionChain(
                sample_rate=50e6, adc_bits=14,
                dc_current_1=scale * 1e-3, dc_current_2=scale * 1e-3,
                electronic_noise_rel=0.1,
            )
            ab = witness_arm_traces(spec, chain, 0.010, seed=26)
            ref = shot_noise_pair(scale * 1e-3, scale * 1e-3, chain, 0.010, seed=27)
            return an.witness_from_traces(ab, ref, 100e3, (4e6, 8e6))

        base, scaled = run(1.0), run(4.0)
        assert abs(scaled.db - base.db) < 1e-9
        assert abs(scaled.intensity_sum_db - base.intensity_sum_db) < 1e-9
        assert abs(scaled.intensity_diff_db - base.intensity_diff_db) < 1e-9


class TestRoundTrip:
    def test_recovers_generating_spectra_per_bin(self):
        # fixed seed batch; conservative sigma makes 3 sigma roomy
        params = CavityParams()
        spec = apply_detection_loss(
            quadrature_spectra(steady_state(params), default_frequency_grid()),
            params.total_detection_efficiency,
        )
        chain = quiet_chain(adc_bits=16)
        worst = 0.0
        for seed in range(20):
            tr = synthesize(spec, chain, 0.010, seed=1000 + seed)
            est = an.combined_spectrum(tr, 1.0, "sum", 100e3)
            sel = (est.frequencies >= 4e6) & (est.frequencies <= 8e6)
            f = est.frequencies[sel]
            h2 = an.chain_power_response(chain, f)
            s1 = np.interp(f, spec.frequencies, spec.s_x1)
            s2 = np.interp(f, spec.frequencies, spec.s_x2)
            c = np.interp(f, spec.frequencies, spec.c_x)
            model = 1e-3 * (s1 + s2 + c) * h2
            z = np.abs(est.power[sel] - model) / est.sigma[sel]
            worst = max(worst, float(z.max()))
        assert worst < 3.0


class TestWitnessFromMatrices:
    """The matrix-level core against its trace-level view and the old closed forms."""

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, records, gain):
        # refused where the gain enters, not later as a NaN power or a
        # negative witness variance
        chain, ab, _, _ = records
        with pytest.raises(ValueError, match="fixed gain must be > 0 and finite"):
            an.check_gain_settings("fixed", gain)
        matrix = an.cross_spectral_matrix(ab, 100e3)
        with pytest.raises(ValueError, match="fixed gain must be > 0 and finite"):
            an.witness_from_matrices(matrix, None, None, chain, (4.5e6, 5.5e6), "fixed", gain)
        with pytest.raises(ValueError, match="gain must be >= 0 and finite"):
            matrix.combination(gain, "sum")

    @pytest.fixture(scope="class")
    def records(self):
        params = CavityParams(pump_power=0.023)
        spec = apply_detection_loss(
            quadrature_spectra(steady_state(params), default_frequency_grid()),
            params.total_detection_efficiency,
        )
        # unequal configured currents: the reference pair's DCs differ from
        # the arms' (which run at their mean), so each floor has its own pair
        chain = DetectionChain(sample_rate=50e6, dc_current_1=1e-3, dc_current_2=1.1e-3)
        ab = witness_arm_traces(spec, chain, 0.010, seed=90)
        ref = shot_noise_pair(1e-3, 1.1e-3, chain, 0.010, seed=91)
        dark = dark_trace(chain, 0.010, seed=92)
        return chain, ab, ref, dark

    @pytest.mark.parametrize("gain_mode", an.GAIN_MODES)
    @pytest.mark.parametrize("with_dark", (False, True))
    @pytest.mark.parametrize("with_reference", (False, True))
    def test_path_equivalence(self, records, gain_mode, with_dark, with_reference):
        chain, ab, ref, dark = records
        ref = ref if with_reference else None
        dark = dark if with_dark else None
        band = (4.5e6, 5.5e6)
        report = an.witness_from_traces(ab, ref, 100e3, band, dark=dark,
                                        gain_mode=gain_mode, fixed_gain=0.9)
        matrices = [None if t is None else an.cross_spectral_matrix(t, 100e3)
                    for t in (ab, ref, dark)]
        core, _, _ = an.witness_from_matrices(*matrices, chain, band, gain_mode, 0.9)
        assert core == report

        # the model floors reproduce the closed forms they replaced, noise-free
        g = report.optimal_gain
        h2 = an.chain_power_response(chain, matrices[0].frequencies)
        for m in matrices[:2]:
            if m is None:
                continue
            dark_floor = ((1.0 + g * g) * chain.electronic_noise_psd * h2
                          + (chain.lsb(m.dc_1) ** 2 + (g * chain.lsb(m.dc_2)) ** 2)
                          / (6.0 * chain.sample_rate))
            shot = (m.dc_1 + g * g * m.dc_2) * h2
            for model, want in ((an.analytic_dark_matrix(chain, m), dark_floor),
                                (an.analytic_qnl_matrix(chain, m), shot)):
                for mode in ("sum", "difference"):
                    got = model.combination(g, mode)
                    assert np.all(np.abs(got.power - want) <= 1e-15 * want)
                    assert not np.any(got.sigma)

    @pytest.mark.parametrize("with_other", (False, True))
    @pytest.mark.parametrize("off_grid", ("reference", "dark"))
    def test_record_on_another_grid_rejected(self, records, off_grid, with_other):
        # 200 kHz against the signal's 100 kHz, with or without the other record
        chain, ab, ref, dark = records
        rbw = {"reference": 100e3, "dark": 100e3, off_grid: 200e3}
        matrices = {name: an.cross_spectral_matrix(t, rbw[name])
                    for name, t in (("reference", ref), ("dark", dark))
                    if with_other or name == off_grid}
        signal = an.cross_spectral_matrix(ab, 100e3)
        for gain_mode in an.GAIN_MODES:
            with pytest.raises(ValueError, match="signal and %s matrices" % off_grid):
                an.witness_from_matrices(signal, matrices.get("reference"), matrices.get("dark"),
                                         chain, (4.5e6, 5.5e6), gain_mode)

    def test_optimal_mode_takes_the_qnl_at_the_signal_gain(self, records):
        # the reference pair is uncorrelated, so a gain fitted on it is noise;
        # the QNL must be the reference's difference PSD at the signal's gain
        chain, ab, ref, dark = records
        band = (4.5e6, 5.5e6)
        for floor in (None, dark):
            opt = an.witness_from_traces(ab, ref, 100e3, band, dark=floor, gain_mode="optimal")
            assert opt.optimal_gain != an.gain_balance_from_dc(ab)  # the fit, not a fallback
            at_gain = an.witness_from_traces(ab, ref, 100e3, band, dark=floor,
                                             gain_mode="fixed", fixed_gain=opt.optimal_gain)
            assert opt.as_dict() == pytest.approx(at_gain.as_dict(), rel=1e-12)

    def test_each_floor_matrix_built_once(self, records, monkeypatch):
        chain, ab, ref, _ = records
        built = []
        model = an.analytic_dark_matrix
        monkeypatch.setattr(an, "analytic_dark_matrix",
                            lambda chain, m: built.append(m) or model(chain, m))
        signal, reference = (an.cross_spectral_matrix(t, 100e3) for t in (ab, ref))
        an.witness_from_matrices(signal, reference, None, chain, (4.5e6, 5.5e6))
        assert [id(m) for m in built] == [id(signal), id(reference)]

    def test_measured_and_model_db_agree(self):
        # v = 514/1024 is a ratio whose np.log10 and math.log10 differ in the
        # last bit; both paths must take db from the one duan_sum formula
        v = 514 / 1024
        assert np.log10(v) != math.log10(v)
        freqs = np.arange(0.0, 10e6, 100e3)

        def matrix(p11, p12):
            full = lambda x: np.full(len(freqs), x)
            return an.CrossSpectralMatrix(freqs, full(p11), full(p11), full(complex(p12)),
                                          100e3, 100.0, 1.0, 1.0)

        # dyadic values keep every step exact: sum 2.5 v, difference 1.5 v, QNL 2
        measured, _, _ = an.witness_from_matrices(matrix(v, v / 4), matrix(1.0, 0.0),
                                                  matrix(0.0, 0.0), quiet_chain(),
                                                  (4.5e6, 5.5e6), "fixed", 1.0)
        one = lambda x: np.array([x])
        spec = QuadSpectra(one(5e6), one(1.25 * v), one(1.25 * v), one(0.0),
                           one(0.75 * v), one(0.75 * v), one(0.0))
        model = witness_report(spec, 5e6)
        assert (model.var_sum, model.var_diff) == (2.5 * v, 1.5 * v)
        assert (measured.var_sum, measured.var_diff) == (2.5 * v, 1.5 * v)
        assert model.db == measured.db == 10.0 * math.log10(v)
