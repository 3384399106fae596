"""Noise power spectra and witness evaluation from recorded traces.

Estimation follows the averaged-periodogram route (Welch 1967): root-Hann
window, 50% overlap, a constant detrend per segment, density scaling, RBW =
sample_rate / segment_length.  One pass over a trace gives its whole 2x2
cross-spectral matrix: each channel is cut once into segments, the segments
are transformed in fixed-size blocks by a batched single-precision FFT, and
P11, P22 and P12 = <X1* X2> are summed in double precision.  Every channel
combination then follows algebraically, PSD(i1 +/- g i2) = P11 + g^2 P22
+/- 2g Re P12, so the sum, the difference, the shot-noise reference and the
optimal-gain fit of one trace all come from that single estimate.  Memory
stays bounded by the block size, whatever the record length.  The quoted
n_averages is the non-overlapping segment count and sigma = power /
sqrt(n_averages), which slightly overstates the error of the overlapped
estimate; headline numbers inherit that conservatism.

Shot-noise referencing follows the measurement convention: the difference
PSD of an uncorrelated reference pair is used directly as the pair quantum
noise limit.  A reference gain below 1 therefore lowers the QNL and can only
shrink, never inflate, any nonclassical effect.  Electronic noise is removed
by linear power subtraction, either from a recorded dark trace or from the
chain's analytic noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft

from .noise import WitnessReport
from .synth import DetectionChain, TwoChannelTrace

GAIN_MODES = ("fixed", "optimal", "dc_balance")

# bins dropped on each side of the spur line in band averages
_SPUR_GUARD = 2

# segments per batched FFT: at 100 kHz RBW a block is 1-4 MB per channel
# (50-200 MS/s), whatever the record length
_BLOCK_SEGMENTS = 256


@dataclass
class NoiseSpectrum:
    """Averaged one-sided PSD with per-bin statistical error.

    power is in (current units)^2/Hz unless stated otherwise; rbw is the bin
    spacing sample_rate/nperseg; sigma = power/sqrt(n_averages).
    """

    frequencies: np.ndarray
    power: np.ndarray
    rbw: float
    n_averages: int
    sigma: np.ndarray


def _noise_spectrum(frequencies, power, rbw, n_averages) -> NoiseSpectrum:
    return NoiseSpectrum(
        frequencies=frequencies,
        power=power,
        rbw=rbw,
        n_averages=n_averages,
        sigma=power / math.sqrt(n_averages),
    )


@dataclass
class CrossSpectralMatrix:
    """Averaged one-sided cross-spectral matrix of a two-channel record.

    p11 and p22 are the auto densities and p12 = <X1* X2> the cross density
    (the scipy.signal.csd convention), in (current units)^2/Hz; rbw and
    n_averages are as in NoiseSpectrum.
    """

    frequencies: np.ndarray
    p11: np.ndarray
    p22: np.ndarray
    p12: np.ndarray
    rbw: float
    n_averages: int

    def combination(self, gain: float, mode: str) -> NoiseSpectrum:
        """PSD of i1 -/+ gain*i2; mode is 'difference' or 'sum'."""
        _check_combination(gain, mode)
        cross = 2.0 * gain * self.p12.real
        power = self.p11 + gain * gain * self.p22 + (cross if mode == "sum" else -cross)
        # a combination's PSD is nonnegative; only rounding can take it below
        return _noise_spectrum(self.frequencies, np.maximum(power, 0.0), self.rbw, self.n_averages)


def _check_combination(gain: float, mode: str) -> None:
    if mode not in ("sum", "difference"):
        raise ValueError("mode must be 'sum' or 'difference'")
    if gain < 0:
        raise ValueError("gain must be >= 0")


def _segment_length(sample_rate: float, rbw: float) -> int:
    if rbw <= 0:
        raise ValueError("rbw must be > 0")
    nperseg = int(round(sample_rate / rbw))
    if nperseg < 8:
        raise ValueError("rbw too coarse for the sample rate")
    return nperseg


def _averaged_periodograms(channels, scales, sample_rate: float, rbw: float, dtype):
    """Averaged periodograms of one or two equally long records in one pass.

    Channel k is multiplied by scales[k] and transformed in precision dtype.
    Returns the frequencies, the auto densities of every channel followed,
    for two channels, by their cross density <X1* X2>, the snapped rbw and
    the non-overlapping segment count.
    """
    nperseg = _segment_length(sample_rate, rbw)
    n = len(channels[0])
    n_averages = n // nperseg
    if n_averages < 10:
        raise ValueError(
            "trace too short for the requested rbw: %d averages < 10" % n_averages
        )
    step = nperseg - nperseg // 2
    n_segments = (n - nperseg) // step + 1
    window = np.sin(np.pi * np.arange(nperseg) / nperseg)  # square root of periodic Hann
    weights = [(window * scale).astype(dtype) for scale in scales]
    bins = nperseg // 2 + 1
    sums = [np.zeros(bins) for _ in channels]
    if len(channels) == 2:
        sums.append(np.zeros(bins, dtype=complex))

    for first in range(0, n_segments, _BLOCK_SEGMENTS):
        last = min(first + _BLOCK_SEGMENTS, n_segments)
        span = slice(first * step, (last - 1) * step + nperseg)
        spectra = []
        for x, weight in zip(channels, weights):
            seg = sliding_window_view(np.asarray(x[span], dtype=dtype), nperseg)[::step]
            seg = seg - seg.mean(axis=1, keepdims=True)
            seg *= weight
            spectra.append(fft.rfft(seg, axis=1))
        for total, spectrum in zip(sums, spectra):
            power = np.abs(spectrum)
            power *= power
            total += power.sum(axis=0, dtype=np.float64)
        if len(spectra) == 2:
            sums[2] += (spectra[0].conj() * spectra[1]).sum(axis=0, dtype=complex)

    # density scaling; every bin but DC (and Nyquist for even nperseg) is
    # doubled to fold in the negative frequencies
    scale = np.full(bins, 2.0 / (sample_rate * float(np.sum(window * window)) * n_segments))
    scale[0] /= 2.0
    if nperseg % 2 == 0:
        scale[-1] /= 2.0
    freqs = fft.rfftfreq(nperseg, 1.0 / sample_rate)
    return freqs, [total * scale for total in sums], sample_rate / nperseg, n_averages


def welch_psd(x: np.ndarray, sample_rate: float, rbw: float) -> NoiseSpectrum:
    """Averaged periodogram of one record; rbw snaps to sample_rate/nperseg.

    The estimate keeps the record's precision: single for float32 and 8- or
    16-bit integer records, double otherwise.
    """
    x = np.asarray(x)
    dtype = np.result_type(x.dtype, np.float32)
    freqs, (power,), rbw, n_averages = _averaged_periodograms((x,), (1.0,), sample_rate, rbw, dtype)
    return _noise_spectrum(freqs, power, rbw, n_averages)


def _trace_channels(trace: TwoChannelTrace, channels, rbw: float):
    # codes to current units in single precision: percent-level estimates
    # at about half the FFT cost of double
    chain = trace.chain
    samples = {1: trace.samples_1, 2: trace.samples_2}
    dc = {1: trace.dc_1, 2: trace.dc_2}
    return _averaged_periodograms(
        [samples[c] for c in channels], [chain.lsb(dc[c]) for c in channels],
        chain.sample_rate, rbw, np.float32,
    )


def cross_spectral_matrix(trace: TwoChannelTrace, rbw: float) -> CrossSpectralMatrix:
    """Cross-spectral matrix of a trace's two channels in current units."""
    freqs, (p11, p22, p12), rbw, n_averages = _trace_channels(trace, (1, 2), rbw)
    return CrossSpectralMatrix(freqs, p11, p22, p12, rbw, n_averages)


def welch_spectrum(trace: TwoChannelTrace, channel: int, rbw: float) -> NoiseSpectrum:
    """PSD of one trace channel in current units."""
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    freqs, (power,), rbw, n_averages = _trace_channels(trace, (channel,), rbw)
    return _noise_spectrum(freqs, power, rbw, n_averages)


def combined_spectrum(trace: TwoChannelTrace, gain: float, mode: str, rbw: float) -> NoiseSpectrum:
    """PSD of i1 -/+ gain*i2 after DC removal; mode is 'difference' or 'sum'."""
    _check_combination(gain, mode)  # bad arguments fail before the estimate
    return cross_spectral_matrix(trace, rbw).combination(gain, mode)


def shot_noise_reference(trace: TwoChannelTrace, gain: float = 0.95, rbw: float = 100e3) -> NoiseSpectrum:
    """Difference PSD of an uncorrelated pair, used directly as the pair QNL."""
    return combined_spectrum(trace, gain, "difference", rbw)


def correct_electronic_noise(spec: NoiseSpectrum, dark: NoiseSpectrum) -> NoiseSpectrum:
    """Linear power subtraction of the dark spectrum, floored at zero."""
    if len(spec.frequencies) != len(dark.frequencies) or not np.allclose(
        spec.frequencies, dark.frequencies
    ):
        raise ValueError("signal and dark spectra are on different frequency grids")
    if abs(spec.rbw - dark.rbw) > 1e-9 * spec.rbw:
        raise ValueError("signal and dark spectra have different rbw")
    return NoiseSpectrum(
        frequencies=spec.frequencies,
        power=np.maximum(spec.power - dark.power, 0.0),
        rbw=spec.rbw,
        n_averages=spec.n_averages,
        sigma=np.hypot(spec.sigma, dark.sigma),
    )


def chain_power_response(chain: DetectionChain, frequencies: np.ndarray) -> np.ndarray:
    """|H(f)|^2 of the AC coupling and detector pole on the given grid."""
    return np.abs(chain.response(np.asarray(frequencies, dtype=float))) ** 2


def analytic_dark_spectrum(trace: TwoChannelTrace, gain: float, grid: NoiseSpectrum) -> NoiseSpectrum:
    """Chain noise floor for i1 -/+ gain*i2 on an existing spectrum's grid.

    Electronic noise is white before the chain filters; quantization noise
    enters after them.  Both channels share the electronic PSD, so sum and
    difference combinations have the same floor.
    """
    chain = trace.chain
    h2 = chain_power_response(chain, grid.frequencies)
    scale = 1.0 + gain * gain
    quant = (chain.lsb(trace.dc_1) ** 2 + (gain * chain.lsb(trace.dc_2)) ** 2) / (
        6.0 * chain.sample_rate
    )
    power = scale * chain.electronic_noise_psd * h2 + quant
    return NoiseSpectrum(
        frequencies=grid.frequencies,
        power=power,
        rbw=grid.rbw,
        n_averages=grid.n_averages,
        sigma=np.zeros_like(power),
    )


def analytic_qnl_spectrum(trace: TwoChannelTrace, gain: float, grid: NoiseSpectrum) -> NoiseSpectrum:
    """Shot-noise PSD of i1 -/+ gain*i2 implied by the trace DC currents."""
    h2 = chain_power_response(trace.chain, grid.frequencies)
    power = (trace.dc_1 + gain * gain * trace.dc_2) * h2
    return NoiseSpectrum(
        frequencies=grid.frequencies,
        power=power,
        rbw=grid.rbw,
        n_averages=grid.n_averages,
        sigma=np.zeros_like(power),
    )


def gain_balance_from_dc(trace: TwoChannelTrace) -> float:
    """DC balancing gain dc_1/dc_2, clamped to [0.5, 2]."""
    if trace.dc_1 <= 0 or trace.dc_2 <= 0:
        raise ValueError("gain balancing requires nonzero DC on both channels")
    return float(min(max(trace.dc_1 / trace.dc_2, 0.5), 2.0))


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


def _band_stats(spec: NoiseSpectrum, mask: np.ndarray):
    n = int(np.count_nonzero(mask))
    mean = float(np.mean(spec.power[mask]))
    sigma = float(np.sqrt(np.sum(spec.sigma[mask] ** 2)) / n)
    return mean, sigma


def _resolve_gain(trace, matrix, gain_mode, fixed_gain, band):
    if gain_mode == "fixed":
        if fixed_gain <= 0:
            raise ValueError("fixed gain must be > 0")
        return float(fixed_gain)
    if gain_mode == "dc_balance":
        return gain_balance_from_dc(trace)
    # optimal: closed-form minimizer applied to band-averaged measured spectra
    mask = _band_mask(matrix.frequencies, band, trace.chain, matrix.rbw)
    s1 = float(np.mean(matrix.p11[mask]))
    s2 = float(np.mean(matrix.p22[mask]))
    c = 2.0 * float(np.mean(matrix.p12.real[mask]))
    if c == 0.0:
        return gain_balance_from_dc(trace)
    d = s2 - s1
    g = (d - math.sqrt(d * d + c * c)) / c
    # the electronic scale factor is a small balancing correction; when the
    # measured cross term is insignificant the minimizer wanders (it can even
    # go negative), so anything far from unity falls back to DC balance
    if not 0.5 <= g <= 2.0:
        return gain_balance_from_dc(trace)
    return g


def witness_from_traces(
    ab_trace: TwoChannelTrace,
    reference_trace: TwoChannelTrace | None,
    rbw: float,
    band,
    dark: TwoChannelTrace | None = None,
    gain_mode: str = "dc_balance",
    fixed_gain: float = 0.95,
) -> WitnessReport:
    """Witness evaluation from a post-beamsplitter trace pair.

    var_plus = 2 PSD_sum / QNL_pair and var_minus = 2 PSD_diff / QNL_pair,
    band-averaged with the spur region excluded.  The pair QNL comes from
    the reference trace's difference PSD (the conservative measurement
    convention); without a reference trace it falls back on the analytic
    shot level implied by the trace DC currents.  Electronic noise is
    subtracted from every estimate, using the dark trace when given and the
    chain's analytic floor otherwise.
    """
    return witness_with_spectra(ab_trace, reference_trace, rbw, band, dark, gain_mode, fixed_gain)[0]


def witness_with_spectra(ab_trace, reference_trace, rbw, band, dark=None,
                         gain_mode="dc_balance", fixed_gain=0.95):
    """witness_from_traces, plus the corrected spectra its report averages.

    Returns (report, psd_sum, psd_diff): the sum and difference PSDs at the
    report's gain, with electronic noise removed.
    """
    if gain_mode not in GAIN_MODES:
        raise ValueError("gain_mode must be one of %s" % (GAIN_MODES,))
    chain = ab_trace.chain
    # one cross-spectral matrix per trace; every spectrum below derives from them
    ab = cross_spectral_matrix(ab_trace, rbw)
    dark_matrix = cross_spectral_matrix(dark, rbw) if dark is not None else None
    g = _resolve_gain(ab_trace, ab, gain_mode, fixed_gain, band)

    def corrected(trace, matrix, gain, mode):
        spec = matrix.combination(gain, mode)
        if dark_matrix is not None:
            floor = dark_matrix.combination(gain, mode)
        else:
            floor = analytic_dark_spectrum(trace, gain, spec)
        return correct_electronic_noise(spec, floor)

    psd_sum = corrected(ab_trace, ab, g, "sum")
    psd_diff = corrected(ab_trace, ab, g, "difference")

    if reference_trace is not None:
        reference = cross_spectral_matrix(reference_trace, rbw)
        g_ref = _resolve_gain(reference_trace, reference, gain_mode, fixed_gain, band)
        qnl = corrected(reference_trace, reference, g_ref, "difference")
    else:
        qnl = analytic_qnl_spectrum(ab_trace, g, psd_sum)

    mask = _band_mask(psd_sum.frequencies, band, chain, psd_sum.rbw)
    if np.any(qnl.power[mask] <= 0):
        raise ValueError("shot-noise reference vanishes inside the band")

    sum_mean, sum_sigma = _band_stats(psd_sum, mask)
    diff_mean, diff_sigma = _band_stats(psd_diff, mask)
    qnl_mean, qnl_sigma = _band_stats(qnl, mask)

    vp = 2.0 * sum_mean / qnl_mean
    vm = 2.0 * diff_mean / qnl_mean
    rel_qnl = qnl_sigma / qnl_mean
    vp_sigma = vp * math.hypot(sum_sigma / sum_mean, rel_qnl)
    vm_sigma = vm * math.hypot(diff_sigma / diff_mean, rel_qnl)

    duan = vp + vm
    num_sigma = math.hypot(sum_sigma, diff_sigma)
    duan_sigma = duan * math.hypot(num_sigma / (sum_mean + diff_mean), rel_qnl)
    db = 10.0 * math.log10(duan / 4.0)

    report = WitnessReport(
        freq=0.5 * (band[0] + band[1]),
        var_sum=vp,
        var_diff=vm,
        duan_sum=duan,
        v=duan / 4.0,
        db=db,
        intensity_sum_db=10.0 * math.log10(vp / 2.0),
        intensity_diff_db=10.0 * math.log10(vm / 2.0),
        optimal_gain=g,
        entangled=bool(duan < 4.0),
        uncertainty={
            "var_sum": vp_sigma,
            "var_diff": vm_sigma,
            "duan_sum": duan_sigma,
            "v": duan_sigma / 4.0,
            "db": 10.0 / math.log(10.0) * duan_sigma / duan,
        },
    )
    return report, psd_sum, psd_diff
