"""Noise power spectra and witness evaluation from recorded traces.

Estimation follows the averaged-periodogram route (Welch 1967): root-Hann
window, 50% overlap, a constant detrend per segment, density scaling, RBW =
sample_rate / segment_length.  One pass over a trace gives its whole 2x2
cross-spectral matrix: each channel is cut once into segments, the segments
are transformed in fixed-size blocks by a batched single-precision FFT, and
P11, P22 and P12 = <X1* X2> are summed in double precision.  Every channel
combination then follows algebraically, PSD(i1 +/- g i2) = P11 + g^2 P22
+/- 2g Re P12.  The record may arrive whole or in pieces of any size, the
blocks of a TraceStream, and its length plans the estimate before the
first piece: a record too short for the rbw is refused before anything is
read or allocated, and pieces that do not add up to that length are
refused.  The pieces are gathered into whole blocks of segments from the
record's start, and the half segment that two blocks share is carried
over, so the matrix does not depend on how the samples arrive.  The CLI's
witness and analyze push each block as it is synthesized or read and never
hold a record.  The last block is reduced on the calling thread, and any
other on one worker thread when it is idle; the sums are added in block
order, so the matrix does not depend on which thread reduced which block
either.  Memory stays bounded by the block size, whatever the record
length: two gathered blocks per channel, and per thread one segment buffer
and one block-sized spectrum.

The quoted n_averages is the non-overlapping segment count and sigma =
power / sqrt(n_averages).  Per bin that is 1/0.775 of the scatter: the
root-Hann segments overlap by half and correlate in power by 1/pi^2, so
the variance is power^2 (1 + 2/pi^2) / (2 n_averages).  A band's sigma
treats its bins as independent, but adjacent bins correlate in power by
0.25, which nearly cancels the first error only for wide bands: the
scatter is 0.95 of the reported sigma for a wide band and 0.72 for a
one-bin band.  ROADMAP item 1 derives both factors from the window.

The witness is a function of three such matrices, witness_from_matrices:
the signal pair, a shot-noise reference pair and a dark record.  One gain,
resolved once from the signal matrix, sets the sum, the difference and the
reference combination alike.  A missing reference or dark record is
replaced by a model matrix with P12 = 0 built from the chain and the DC pair
of the estimate it stands in for: the shot noise dc_k |H|^2, or the
expected matrix of a silent pair, the electronic floor e |H|^2 plus the
quantization density lsb_k^2 / (6 fs).  A model matrix has n_averages =
inf, so its sigma is zero.  expected_matrix is the one model of a
synthesis job's traces: the job's matrix (synth._job_matrix) through the
chain, plus quantization, unsmoothed at the bin centres.  The estimator's
expectation is that density smoothed by its window, which at 100 kHz RBW
differs from it by at most 1.2e-4 (relative) in 4.5-5.5 MHz and by 2.1e-3
at 1 MHz, at 50 and 200 MS/s.  Every estimate is corrected the same way:
correct_electronic_noise attaches its floor matrix, and each combination
subtracts the floor's combination at the same gain and clamps the
difference at zero, once.

Shot-noise referencing follows the measurement convention: the difference
PSD of an uncorrelated reference pair is used directly as the pair quantum
noise limit.  A gain below 1 therefore lowers the QNL and can only shrink,
never inflate, any nonclassical effect.

The segment FFT is NumPy's rfft with norm="forward": its float32 scale
factor keeps pocketfft in the single-precision loop, where the default
norm's int 1 runs a float32 block in double (1.0 against 5.9 ms for 256
segments of 2000 samples, 2-vCPU x86).  The density scale divides the
square of that factor back out.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .noise import WitnessReport, minimizing_gain
from .synth import DetectionChain, TraceStream, TwoChannelTrace, _job_matrix

GAIN_MODES = ("fixed", "optimal", "dc_balance")
DEFAULT_GAIN_MODE = "dc_balance"
DEFAULT_FIXED_GAIN = 0.95
GAIN_WINDOW = (0.5, 2.0)

# bins dropped on each side of the spur line in band averages
_SPUR_GUARD = 2

# segments per batched FFT: at 100 kHz RBW a block's segments and spectra
# take 0.5-2 MB per thread (50-200 MS/s), whatever the record length, and
# two blocks are in flight
_BLOCK_SEGMENTS = 128
# channel 2's segments per FFT within a block, so that its spectra stay small
_CROSS_ROWS = 32
# blocks whose sums may wait behind the worker's block before the calling
# thread waits for it: the sums are added in block order
_HELD_BLOCKS = 4


@dataclass(frozen=True)
class NoiseSpectrum:
    """Averaged one-sided PSD with per-bin statistical error: an output only.

    power is in (current units)^2/Hz unless stated otherwise; rbw is the bin
    spacing sample_rate/nperseg; sigma is power/sqrt(n_averages) for a raw
    estimate and zero for a model spectrum (n_averages = inf).  welch_psd
    and CrossSpectralMatrix.combination return it; nothing takes it back in.
    """

    frequencies: np.ndarray
    power: np.ndarray
    rbw: float
    n_averages: float
    sigma: np.ndarray


@dataclass(frozen=True)
class CrossSpectralMatrix:
    """Averaged one-sided cross-spectral matrix of a two-channel record.

    p11 and p22 are the auto densities and p12 = <X1* X2> the cross density
    (the scipy.signal.csd convention), in (current units)^2/Hz; rbw and
    n_averages are as in NoiseSpectrum, with n_averages = inf for a model
    matrix, whose combinations carry zero sigma.  dc_1 and dc_2 are the
    mean photocurrents of the record.  floor is the electronic floor matrix
    that correct_electronic_noise attached, or None.
    """

    frequencies: np.ndarray
    p11: np.ndarray
    p22: np.ndarray
    p12: np.ndarray
    rbw: float
    n_averages: float
    dc_1: float
    dc_2: float
    floor: CrossSpectralMatrix | None = None

    def _psd(self, gain: float, mode: str) -> np.ndarray:
        cross = 2.0 * gain * self.p12.real
        return self.p11 + gain * gain * self.p22 + (cross if mode == "sum" else -cross)

    def combination(self, gain: float, mode: str) -> NoiseSpectrum:
        """PSD of i1 -/+ gain*i2 less the floor's; mode is 'difference' or 'sum'.

        The floor's combination is taken at the same gain, and sigma adds
        the two errors in quadrature: hypot(raw/sqrt(n), floor/sqrt(n_floor)).
        """
        if mode not in ("sum", "difference"):
            raise ValueError("mode must be 'sum' or 'difference'")
        if not 0 <= gain < math.inf:  # NaN included
            raise ValueError("gain must be >= 0 and finite")
        power = self._psd(gain, mode)
        sigma = np.abs(power) / math.sqrt(self.n_averages)
        if self.floor is not None:
            floor = self.floor._psd(gain, mode)
            power -= floor
            sigma = np.hypot(sigma, floor / math.sqrt(self.floor.n_averages))
        # the one clamp: a PSD is nonnegative, and only rounding or a floor
        # above the estimate takes it below
        return NoiseSpectrum(self.frequencies, np.maximum(power, 0.0), self.rbw,
                             self.n_averages, sigma)


def _segment_length(sample_rate: float, rbw: float) -> int:
    if rbw <= 0:
        raise ValueError("rbw must be > 0")
    if not math.isfinite(sample_rate / rbw):
        raise ValueError("rbw too fine for the sample rate")
    nperseg = int(round(sample_rate / rbw))
    if nperseg < 8:
        raise ValueError("rbw too coarse for the sample rate")
    return nperseg


def _segments(x, nperseg: int, step: int, weight, buf):
    """x's segments cast into buf, mean-removed and windowed there in place.

    x is one block's contiguous stretch of one channel.
    """
    view = sliding_window_view(x, nperseg)[::step]
    seg = buf[: len(view)]
    seg[...] = view
    seg -= seg.mean(axis=1, keepdims=True)
    seg *= weight
    return seg


def _power_in(buf, shape):
    """A float32 array of the given shape over the start of buf's memory."""
    return buf.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _buffers(channels: int, rows: int, nperseg: int, dtype):
    """One thread's buffers for blocks of up to rows segments: the segments,
    channel 1's spectra and, for two channels, _CROSS_ROWS of channel 2's."""
    spectra = np.result_type(dtype, np.complex64)
    bins = nperseg // 2 + 1
    return (np.empty((rows, nperseg), dtype=dtype),
            np.empty((rows, bins), dtype=spectra),
            np.empty((min(rows, _CROSS_ROWS), bins), dtype=spectra) if channels == 2 else None)


def _block_sums(channels, weights, nperseg: int, step: int, buffers):
    """Column sums of one block: |X1|^2, then |X2|^2 and conj(X1) X2.

    buffers are the reducing thread's, and every transform writes into
    them through out=.  Each channel's segments go through the segment
    buffer, and |X| of a transformed batch lands there where its segments
    were.  Channel 2 goes through the FFT _CROSS_ROWS segments at a time,
    and conj(X1) X2 replaces those rows of X1, so no second block-sized
    spectrum is ever held.  A row's rfft does not depend on the rows
    batched with it, so the sums are those of one whole-block transform per
    channel.
    """
    buf, spectra_1, spectra_2 = buffers
    seg = _segments(channels[0], nperseg, step, weights[0], buf)
    x1 = np.fft.rfft(seg, axis=1, norm="forward", out=spectra_1[: len(seg)])
    power = np.abs(x1, out=_power_in(buf, x1.shape))
    power *= power
    sums = [power.sum(axis=0, dtype=np.float64)]
    if len(channels) == 2:
        seg = _segments(channels[1], nperseg, step, weights[1], buf)
        # power row i ends at (i + 1) * bins <= (i + 1) * nperseg, before
        # the segments still to be transformed
        for first in range(0, len(seg), _CROSS_ROWS):
            rows = slice(first, first + _CROSS_ROWS)
            x2 = np.fft.rfft(seg[rows], axis=1, norm="forward",
                             out=spectra_2[: len(seg[rows])])
            np.abs(x2, out=power[rows])
            np.conjugate(x1[rows], out=x1[rows])
            x1[rows] *= x2
        power *= power
        sums += [power.sum(axis=0, dtype=np.float64), x1.sum(axis=0, dtype=complex)]
    return sums


def _idle(future) -> bool:
    """Whether the worker can take a block: it has had none, or is done with its last."""
    return future is None or future.done()


def _averaged_periodograms(blocks, n: int, scales, sample_rate: float, rbw: float, dtype):
    """Averaged periodograms of one or two equally long records in one pass.

    blocks yields the records, n samples each, in pieces, in order: tuples
    with one array per channel, of equal length; a piece may reuse the
    previous piece's memory.  Channel k is multiplied by scales[k] and
    transformed in precision dtype.  Returns the frequencies, the auto
    densities of every channel followed, for two channels, by their cross
    density <X1* X2>, the snapped rbw and the non-overlapping segment count.

    The plan comes from n: a record of fewer than 10 averages is refused
    before a piece is taken or a buffer allocated, and pieces that do not
    add up to n are refused once all are read.  The pieces are gathered
    into one block-sized staging buffer per channel, in its own dtype, and
    the half segment a complete block shares with the next one stays.  The
    last block is reduced on this thread; any other goes to one worker
    thread if it is idle, while this thread gathers on into a second
    staging buffer, and is reduced here otherwise.  Every buffer, each
    thread's segment and spectrum buffers too, is allocated on this thread.
    The block sums are added in block order, so the estimate does not
    depend on how the records are cut into pieces or which thread reduced
    which block.  A record within one block starts no thread, and the
    worker is joined before the call returns or raises.
    """
    nperseg = _segment_length(sample_rate, rbw)
    n_averages = n // nperseg
    if n_averages < 10:
        raise ValueError("trace too short for the requested rbw: %d averages < 10" % n_averages)
    step = nperseg - nperseg // 2
    n_segments = (n - nperseg) // step + 1
    n_blocks = -(-n_segments // _BLOCK_SEGMENTS)
    rows = min(n_segments, _BLOCK_SEGMENTS)  # segments of a whole block, or of the one block
    # samples of such a block, and of the last block, with the segments that start in it
    span = (rows - 1) * step + nperseg
    last_span = (n_segments - 1) % _BLOCK_SEGMENTS * step + nperseg
    shift = _BLOCK_SEGMENTS * step  # from one block's start to the next's
    overlap = span - shift  # samples a whole block shares with the next one
    window = np.sin(np.pi * np.arange(nperseg) / nperseg)  # square root of periodic Hann
    weights = [(window * scale).astype(dtype) for scale in scales]
    bins = nperseg // 2 + 1
    sums = [np.zeros(bins) for _ in scales]
    if len(scales) == 2:
        sums.append(np.zeros(bins, dtype=complex))
    results = deque()  # every block's sums in block order, the worker's as a Future

    def add(wait=False):
        """Add the sums at the front of results that are done, or all if wait."""
        while results and (wait or len(results) > _HELD_BLOCKS
                           or isinstance(results[0], list) or results[0].done()):
            front = results.popleft()
            for total, block_total in zip(sums, front if isinstance(front, list) else front.result()):
                total += block_total

    # the staged blocks, the one being gathered and the one with the worker,
    # and the block buffers of this thread and of the worker
    staged = buffers = last = None  # last: the worker's last block
    current, block, filled, seen = 0, 0, 0, 0
    with ThreadPoolExecutor(max_workers=1) as worker:  # no thread until the first submit
        for piece in blocks:
            size = len(piece[0])
            if any(len(x) != size for x in piece):
                raise ValueError("channels must have equal length")
            if staged is None:
                staged = [[np.empty(span, x.dtype) for x in piece] for _ in range(min(n_blocks, 2))]
                buffers = [_buffers(len(piece), rows, nperseg, dtype) for _ in staged]
            seen += size
            done = 0
            while done < size and block < n_blocks:
                length = last_span if block == n_blocks - 1 else span
                take = min(length - filled, size - done)
                for s, x in zip(staged[current], piece):
                    s[filled:filled + take] = x[done:done + take]
                filled += take
                done += take
                if filled == length:
                    add()
                    channels = [s[:length] for s in staged[current]]
                    if block < n_blocks - 1 and _idle(last):
                        last = worker.submit(_block_sums, channels, weights, nperseg, step,
                                             buffers[1])
                        results.append(last)
                        following = 1 - current  # the worker's last staged block is free
                    else:
                        results.append(_block_sums(channels, weights, nperseg, step, buffers[0]))
                        following = current
                    block += 1
                    if block < n_blocks:
                        for s, t in zip(staged[current], staged[following]):
                            t[:overlap] = s[shift:]
                        current, filled = following, overlap
        if seen != n:
            raise ValueError("the pieces hold %d samples, not the record's %d" % (seen, n))
        add(wait=True)

    # density scaling, less the rfft's squared scale factor; every bin but DC
    # (and Nyquist for even nperseg) is doubled to fold in the negative frequencies
    norm = float(np.reciprocal(nperseg, dtype=dtype)) ** 2
    scale = np.full(bins, 2.0 / (sample_rate * float(np.sum(window * window)) * n_segments * norm))
    scale[0] /= 2.0
    if nperseg % 2 == 0:
        scale[-1] /= 2.0
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    return freqs, [total * scale for total in sums], sample_rate / nperseg, n_averages


def welch_psd(x: np.ndarray, sample_rate: float, rbw: float) -> NoiseSpectrum:
    """Averaged periodogram of one record; rbw snaps to sample_rate/nperseg.

    The estimate keeps the record's precision: single for float32 and 8- or
    16-bit integer records, double otherwise.
    """
    x = np.asarray(x)
    dtype = np.result_type(x.dtype, np.float32)
    freqs, (power,), rbw, n_averages = _averaged_periodograms(((x,),), len(x), (1.0,), sample_rate,
                                                              rbw, dtype)
    return NoiseSpectrum(freqs, power, rbw, n_averages, power / math.sqrt(n_averages))


def cross_spectral_matrix(trace: TwoChannelTrace | TraceStream, rbw: float) -> CrossSpectralMatrix:
    """Cross-spectral matrix of a trace's two channels in current units.

    trace is a TwoChannelTrace or a TraceStream, whose blocks are reduced
    as they arrive; the matrix is the same either way.
    """
    # codes to current units in single precision: percent-level estimates
    # at about half the FFT cost of double
    chain = trace.chain
    freqs, (p11, p22, p12), rbw, n_averages = _averaged_periodograms(
        trace.blocks, trace.n_samples, (chain.lsb(trace.dc_1), chain.lsb(trace.dc_2)),
        chain.sample_rate, rbw, np.float32,
    )
    return CrossSpectralMatrix(freqs, p11, p22, p12, rbw, n_averages, trace.dc_1, trace.dc_2)


def combined_spectrum(trace: TwoChannelTrace, gain: float, mode: str, rbw: float) -> NoiseSpectrum:
    """cross_spectral_matrix(trace, rbw).combination(gain, mode).

    Kept only because benchmark tracing names it; not part of the package API.
    """
    return cross_spectral_matrix(trace, rbw).combination(gain, mode)


def _check_same_grid(a, b, names: str) -> None:
    """Raise unless matrices a and b share frequencies and rbw."""
    if len(a.frequencies) != len(b.frequencies) or not np.allclose(a.frequencies, b.frequencies):
        raise ValueError("%s are on different frequency grids" % names)
    if abs(a.rbw - b.rbw) > 1e-9 * a.rbw:
        raise ValueError("%s have different rbw" % names)


def correct_electronic_noise(matrix: CrossSpectralMatrix,
                             floor: CrossSpectralMatrix) -> CrossSpectralMatrix:
    """matrix with floor attached: each combination then subtracts floor's.

    The floor is a dark record's matrix or a model one on matrix's grid.  A
    matrix that already has a floor, or a floor with its own, is refused,
    so no correction silently replaces or stacks on another.
    """
    _check_same_grid(matrix, floor, "matrix and floor")
    if matrix.floor is not None or floor.floor is not None:
        raise ValueError("a matrix takes one floor, and a floor has none of its own")
    return dataclasses.replace(matrix, floor=floor)


def chain_power_response(chain: DetectionChain, frequencies: np.ndarray) -> np.ndarray:
    """|H(f)|^2 of the AC coupling and detector pole on the given grid."""
    return np.abs(chain.response(np.asarray(frequencies, dtype=float))) ** 2


def expected_matrix(job, chain: DetectionChain, grid: CrossSpectralMatrix) -> CrossSpectralMatrix:
    """The model matrix of a synthesis job's traces on grid's bins, at the job's DC pair.

    |H|^2 times synth._job_matrix, plus the quantization density
    lsb(dc_k)^2 / (6 fs) on the auto densities: unsmoothed, at the bin
    centres, with n_averages = inf.
    """
    h2 = chain_power_response(chain, grid.frequencies)
    p11, p22, p12 = (h2 * p for p in _job_matrix(job, chain, grid.frequencies))
    q11, q22 = (chain.lsb(dc) ** 2 / (6.0 * chain.sample_rate) for dc in job[1])
    return CrossSpectralMatrix(grid.frequencies, p11 + q11, p22 + q22, p12, grid.rbw, math.inf,
                               *job[1])


def analytic_dark_matrix(chain: DetectionChain, grid: CrossSpectralMatrix) -> CrossSpectralMatrix:
    """Chain noise floor as a model matrix on grid's bins, at grid's DC pair.

    The expected matrix of a silent pair: electronic noise e |H|^2 and
    quantization noise.  The channels are independent, so sum and
    difference see the same floor.
    """
    # spectra 0 everywhere: np.interp holds a one-point job's values
    silent = ((np.zeros(1),) * 4, (grid.dc_1, grid.dc_2), None)
    return expected_matrix(silent, chain, grid)


def analytic_qnl_matrix(chain: DetectionChain, grid: CrossSpectralMatrix) -> CrossSpectralMatrix:
    """Shot noise dc_k |H|^2 of grid's DC pair as a model matrix on its bins."""
    h2 = chain_power_response(chain, grid.frequencies)
    return CrossSpectralMatrix(grid.frequencies, grid.dc_1 * h2, grid.dc_2 * h2, np.zeros_like(h2),
                               grid.rbw, math.inf, grid.dc_1, grid.dc_2)


def analytic_dark_spectrum(trace: TwoChannelTrace, gain: float, grid: NoiseSpectrum) -> NoiseSpectrum:
    """analytic_dark_matrix(...).combination(gain, "sum") at trace's DC pair on grid's bins.

    Kept only because benchmark tracing names it; not part of the package API.
    """
    return analytic_dark_matrix(trace.chain, CrossSpectralMatrix(
        grid.frequencies, *(np.zeros_like(grid.frequencies),) * 3, grid.rbw, math.inf,
        trace.dc_1, trace.dc_2)).combination(gain, "sum")


def gain_balance_from_dc(record) -> float:
    """DC balancing gain dc_1/dc_2 of a trace or its matrix, clamped to GAIN_WINDOW."""
    if record.dc_1 <= 0 or record.dc_2 <= 0:
        raise ValueError("gain balancing requires nonzero DC on both channels")
    return float(min(max(record.dc_1 / record.dc_2, GAIN_WINDOW[0]), GAIN_WINDOW[1]))


def _band_mask(freqs: np.ndarray, band, chain: DetectionChain, rbw: float) -> np.ndarray:
    lo, hi = band
    if not lo < hi:
        raise ValueError("band limits must satisfy low < high")
    mask = (freqs >= lo) & (freqs <= hi)
    if not np.any(mask):
        raise ValueError("band contains no spectrum bins")
    if lo - _SPUR_GUARD * rbw <= chain.spur_freq <= hi + _SPUR_GUARD * rbw:
        spur_bin = int(np.argmin(np.abs(freqs - chain.spur_freq)))
        left = max(spur_bin - _SPUR_GUARD, 0)
        mask[left : spur_bin + _SPUR_GUARD + 1] = False
        if not np.any(mask):
            raise ValueError("band contains only the spur region")
    return mask


def check_gain_settings(gain_mode: str, fixed_gain: float) -> None:
    """Raise unless gain_mode is one of GAIN_MODES and fixed_gain is finite and > 0."""
    if gain_mode not in GAIN_MODES:
        raise ValueError("gain_mode must be one of %s" % (GAIN_MODES,))
    if not 0 < fixed_gain < math.inf:  # NaN included
        raise ValueError("fixed gain must be > 0 and finite")


def _resolve_gain(signal: CrossSpectralMatrix, gain_mode, fixed_gain, mask) -> float:
    if gain_mode == "fixed":
        return float(fixed_gain)
    balance = gain_balance_from_dc(signal)  # refuses a channel at zero DC
    if gain_mode == "optimal":
        # the closed-form minimizer assumes the shot level 1 + g^2, so it fits the
        # band-averaged matrix in shot-noise units: P_kk/dc_k, 2 Re P12/sqrt(dc_1 dc_2)
        dc_1, dc_2 = signal.dc_1, signal.dc_2
        c = 2.0 * float(np.mean(signal.p12.real[mask])) / math.sqrt(dc_1 * dc_2)
        if c != 0.0:
            g = minimizing_gain(float(np.mean(signal.p11[mask])) / dc_1,
                                float(np.mean(signal.p22[mask])) / dc_2, c) * math.sqrt(dc_1 / dc_2)
            # the gain is a small balancing correction: an insignificant cross
            # term sends the fit far from unity, even below 0, and a gain
            # outside GAIN_WINDOW falls back to DC balance
            if GAIN_WINDOW[0] <= g <= GAIN_WINDOW[1]:
                return g
    return balance


def witness_from_matrices(signal: CrossSpectralMatrix, reference: CrossSpectralMatrix | None,
                          dark: CrossSpectralMatrix | None, chain: DetectionChain, band,
                          gain_mode: str = DEFAULT_GAIN_MODE, fixed_gain: float = DEFAULT_FIXED_GAIN):
    """Witness evaluation from the matrices of a post-beamsplitter pair.

    var_plus = 2 PSD_sum / QNL_pair and var_minus = 2 PSD_diff / QNL_pair,
    band-averaged with the spur region excluded, all at the one gain that
    gain_mode resolves from signal.  The pair QNL is the difference PSD of
    the reference matrix (the conservative measurement convention) or,
    without one, the analytic shot level of the signal's DC pair.  Each
    estimate has its electronic floor subtracted: the dark matrix when
    given, else the chain's analytic floor at that estimate's DC pair.  The
    matrices share the chain; a reference or dark matrix on another
    frequency grid or rbw than signal's raises ValueError.

    Returns (report, psd_sum, psd_diff): the sum and difference PSDs at the
    report's gain, with electronic noise removed.
    """
    check_gain_settings(gain_mode, fixed_gain)
    for name, m in (("reference", reference), ("dark", dark)):
        if m is not None:
            _check_same_grid(signal, m, "signal and %s matrices" % name)
    mask = _band_mask(signal.frequencies, band, chain, signal.rbw)
    g = _resolve_gain(signal, gain_mode, fixed_gain, mask)

    # calls through the module's global, which benchmark tracing rebinds: the
    # analyzer spans a witness or analyze run records
    signal = correct_electronic_noise(signal, dark or analytic_dark_matrix(chain, signal))
    reference = (analytic_qnl_matrix(chain, signal) if reference is None else
                 correct_electronic_noise(reference, dark or analytic_dark_matrix(chain, reference)))
    psd_sum, psd_diff, qnl = (m.combination(g, mode) for m, mode in (
        (signal, "sum"), (signal, "difference"), (reference, "difference")))
    if np.any(qnl.power[mask] <= 0):
        raise ValueError("shot-noise reference vanishes inside the band")

    n = int(np.count_nonzero(mask))
    (sum_mean, sum_sigma), (diff_mean, diff_sigma), (qnl_mean, qnl_sigma) = (
        (float(np.mean(s.power[mask])), float(np.sqrt(np.sum(s.sigma[mask] ** 2)) / n))
        for s in (psd_sum, psd_diff, qnl))
    # a floor that cancels a whole estimate leaves no relative error to take
    if sum_mean <= 0 or diff_mean <= 0:
        raise ValueError("floor-corrected sum or difference spectrum vanishes across the band")

    vp = 2.0 * sum_mean / qnl_mean
    vm = 2.0 * diff_mean / qnl_mean
    rel_qnl = qnl_sigma / qnl_mean
    num_sigma = math.hypot(sum_sigma, diff_sigma)
    sigma = (vp * math.hypot(sum_sigma / sum_mean, rel_qnl),
             vm * math.hypot(diff_sigma / diff_mean, rel_qnl),
             (vp + vm) * math.hypot(num_sigma / (sum_mean + diff_mean), rel_qnl))
    report = WitnessReport(0.5 * (band[0] + band[1]), vp, vm, g, sigma)
    return report, psd_sum, psd_diff


def witness_from_traces(
    ab_trace: TwoChannelTrace,
    reference_trace: TwoChannelTrace | None,
    rbw: float,
    band,
    dark: TwoChannelTrace | None = None,
    gain_mode: str = DEFAULT_GAIN_MODE,
    fixed_gain: float = DEFAULT_FIXED_GAIN,
) -> WitnessReport:
    """witness_from_matrices on the cross-spectral matrix of each trace.

    The report only; None stands for a missing reference or dark trace.
    """
    matrices = [None if t is None else cross_spectral_matrix(t, rbw)
                for t in (ab_trace, reference_trace, dark)]
    return witness_from_matrices(*matrices, ab_trace.chain, band, gain_mode, fixed_gain)[0]
