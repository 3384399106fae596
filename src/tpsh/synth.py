"""Synthetic two-channel photocurrent traces from target quadrature spectra.

Current-unit convention: a channel with mean photocurrent dc has a flat
one-sided shot-noise PSD equal to dc (current^2/Hz).  Every trace is a job,
a normalized matrix (s_11, s_22, c_12 on a frequency grid), the DC pair and
a seed, realized by a synthesis run (_Run).  _job_matrix states the PSD
matrix a job stands for, in current units and with electronic noise (the
1/2 of its P12 undoes the symmetrized-cross-spectrum convention).

Traces are white noise filtered by overlap-save FIR convolution (Oppenheim
& Schafer).  The per-bin Cholesky factors of the 2x2 PSD matrix (electronic
noise included, as it is white before the chain), times the chain response
(AC-coupling bandpass and detector pole), are sampled on a kernel grid of
fixed spacing, _KERNEL_SPACING, so the kernels' taps grow with the sample
rate; the irfft of each factor is a kernel.  Two streams of white float32
noise, drawn by the Box-Muller transform from the trace's own
SeedSequence, are filtered in blocks through transforms of at least eight
kernel lengths: channel 1 = k11 * w1 and channel 2 = k21 * w1 + k22 * w2.
The noise is drawn a draw of blocks at a time (_DRAW_SAMPLES per channel,
four blocks at 200 MS/s); one rfft call transforms all of a draw's frames
and one irfft call filters all of its blocks, both channels, since NumPy
transforms four or more rows of one call together, at about half the time
per row.  Each block then gets the spur, a cosine at exactly spur_freq,
and is quantized.  The sample stream is the AC-coupled fluctuation; mean
currents ride along as metadata because the bandpass would remove any
embedded DC anyway.  Codes are int16 for ADCs of
up to 16 bits (int32 above).

No array spans the record but a trace's codes: a run's buffers hold a few
blocks, whatever the duration.  A TraceStream hands a trace's codes over
block by block, so a caller that reduces them as they come (the CLI's
witness and synth) never holds the trace; synthesize, witness_arm_traces,
shot_noise_pair and dark_trace assemble the same blocks into one (2, n)
array of codes, their only record-sized allocation, and draw on the
calling thread.  witness_streams makes the witness's three traces in one
run, also on the calling thread: the estimate that takes their blocks
reduces them on a worker thread of its own.  synthesis_stream makes one
trace for a consumer without a thread of its own, such as a file writer:
while the caller filters blocks, one worker thread draws the noise of the
next blocks and their forward transforms (NumPy releases the GIL for
both).  Each trace draws from its own SeedSequence stream in fixed blocks,
so its codes equal those of a call on its own, whichever thread drew them.
The worker cut a fresh 200 MS/s, 320 ms synth from 2.09-2.12 to
1.12-1.49 s of wall for about the same CPU (2-vCPU x86).
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cavity import refuse_infinite
from .noise import ANALYSIS_BAND, QuadSpectra, witness_pair

# Spur amplitudes are quoted relative to the shot-noise RMS in this bandwidth,
# so the default produces a fixed peak-over-baseline at the nominal 100 kHz RBW.
SPUR_REFERENCE_BANDWIDTH = 100e3

# Fixed grid size for the analytic RMS integral that sets the ADC full scale.
_RMS_GRID = 65537

# Full scale = this many analytic RMS; clipping beyond it is counted.
_FULL_SCALE_SIGMAS = 6.0

# Kernel grid spacing: 1024 taps at 50 MS/s.  |K|^2 of the auto factors
# then stays within 1e-5 of its target over 0.5-20 MHz at any sample rate;
# the error peaks at 20 MHz, where the clamped spectra's slope jumps, and
# shrinks with the spacing.
_KERNEL_SPACING = 50e6 / 1024
# Each block's transforms span at least this many kernel lengths, so that
# at most an eighth of each transform's outputs, those that wrap around,
# are discarded
_FFT_PER_TAP = 8
# noise samples per channel and draw: noise is drawn and transformed this
# many samples' blocks at a time, so that a worker makes few, long calls
# and the two threads hand the interpreter lock over less often (three
# warm 200 MS/s, 10 ms traces drawn ahead in one run switched context
# about 3,500 times with one 15 361-sample block per draw and 1,100 with
# eight, on a 2-vCPU x86 host)
_DRAW_SAMPLES = 1 << 17


@dataclass(frozen=True)
class DetectionChain:
    """Measurement-chain parameters shared by synthesis and analysis.

    sample_rate          Hz
    adc_bits             ADC resolution, 8..24 (binary trace files hold <= 16)
    dc_current_1/2       mean photocurrents, arbitrary current units
    electronic_noise_rel electronic noise PSD relative to the shot PSD at the
                         mean of the two configured DC currents
    ac_coupling_center   Hz, center of the second-order AC-coupling bandpass
    ac_coupling_q        bandpass quality factor
    detector_pole        Hz, single-pole detector roll-off
    spur_freq            Hz, residual rf modulation line
    spur_amplitude       sinusoid amplitude per channel in units of the shot
                         RMS in SPUR_REFERENCE_BANDWIDTH (scales with sqrt(dc))

    A chain is immutable and hashable: derived values (the ADC scaling, the
    digital filters) are cached by the chain's value, so they cannot go
    stale.  Vary a chain with dataclasses.replace, which builds and
    validates a new one.
    """

    sample_rate: float = 200e6
    adc_bits: int = 14
    dc_current_1: float = 1.0
    dc_current_2: float = 1.0
    electronic_noise_rel: float = 0.1
    ac_coupling_center: float = 3.5e6
    ac_coupling_q: float = 0.7
    detector_pole: float = 12e6
    spur_freq: float = 15.8e6
    spur_amplitude: float = 5.0

    def __post_init__(self):
        # every parameter is a finite physical quantity; NaN fails the checks below
        refuse_infinite(self)
        if not self.sample_rate > 2.0 * ANALYSIS_BAND[1]:
            raise ValueError("sample_rate must exceed twice the %g MHz analysis band"
                             % (ANALYSIS_BAND[1] / 1e6))
        bits = self.adc_bits  # 14.0 is 14; 14.7, NaN or "14" is no bit depth
        if not (isinstance(bits, numbers.Real) and bits % 1 == 0 and 8 <= bits <= 24):
            raise ValueError("adc_bits must be an integer in [8, 24]")
        object.__setattr__(self, "adc_bits", int(bits))
        if not (self.dc_current_1 >= 0 and self.dc_current_2 >= 0):
            raise ValueError("dc currents must be >= 0")
        if not self.electronic_noise_rel >= 0:
            raise ValueError("electronic_noise_rel must be >= 0")
        if not self.spur_amplitude >= 0:
            raise ValueError("spur_amplitude must be >= 0")
        if not (self.ac_coupling_center > 0 and self.detector_pole > 0):
            raise ValueError("filter corner frequencies must be > 0")
        if not self.ac_coupling_q > 0:
            raise ValueError("ac_coupling_q must be > 0")
        if not 0 < self.spur_freq < self.sample_rate / 2:
            raise ValueError("spur_freq must lie below Nyquist")

    @property
    def electronic_noise_psd(self) -> float:
        """White electronic noise PSD in current^2/Hz, a fixed chain property."""
        return self.electronic_noise_rel * 0.5 * (self.dc_current_1 + self.dc_current_2)

    def response(self, freqs: np.ndarray) -> np.ndarray:
        """Complex chain transfer function (AC coupling times pole) at freqs (Hz)."""
        (b_bp, a_bp), (b_lp, a_lp) = _digital_filters(self)
        # the digital frequency of each point, as scipy.signal.freqz forms it
        zm1 = np.exp(-1j * (2 * np.pi * np.asarray(freqs, dtype=float) / self.sample_rate))
        h_bp = _polyval(b_bp, zm1) / _polyval(a_bp, zm1)
        h_lp = _polyval(b_lp, zm1) / _polyval(a_lp, zm1)
        return h_bp * h_lp

    def spur_current_amplitude(self, dc: float) -> float:
        return self.spur_amplitude * math.sqrt(dc * SPUR_REFERENCE_BANDWIDTH)

    def analytic_rms(self, dc: float) -> float:
        """RMS of a shot-limited channel at mean current dc after the chain.

        Uses the coherent (flat) PSD plus electronic noise and the spur, on a
        fixed frequency grid, so traces of every kind taken at the same DC
        share the same ADC scaling exactly.
        """
        return _analytic_rms(self, float(dc))

    def lsb(self, dc: float) -> float:
        """ADC code size in current units for a channel at mean current dc."""
        return _FULL_SCALE_SIGMAS * self.analytic_rms(dc) / 2 ** (self.adc_bits - 1)

    def check_codes(self, codes: np.ndarray) -> None:
        """Raise unless every ADC code in codes fits adc_bits."""
        top = 2 ** (self.adc_bits - 1)
        if codes.size and (codes.min() < -top or codes.max() > top - 1):
            raise ValueError("ADC codes exceed the declared bit depth")


def _bilinear(b, a, fs: float):
    """Digital (b, a) of the analog filter b(s)/a(s) by the bilinear transform.

    Coefficients run from the highest power down.  s = 2 fs (z - 1)/(z + 1),
    with the factor 2 fs split evenly between the (z + 1) and (z - 1)
    polynomials and the result normalized to a[0] = 1: the construction of
    scipy.signal.bilinear, so the coefficients agree to the last bit.
    """
    fac = math.sqrt(fs * 2)
    zp1 = np.polynomial.Polynomial((+1, 1)) / fac
    zm1 = np.polynomial.Polynomial((-1, 1)) * fac
    n = max(len(a), len(b)) - 1

    def expand(coef):
        return sum(c * zp1 ** (n - q) * zm1 ** q for q, c in enumerate(coef[::-1])).coef[::-1]

    num, den = expand(b), expand(a)
    return num / den[0], den / den[0]


# the bilinear transforms go through np.polynomial (about 2 ms each) and
# depend only on the chain, not on the frequencies a response is asked for,
# so they are derived once per chain rather than once per trace; keyed by
# the chain's value, and returned as tuples so no caller can alter them
@functools.lru_cache(maxsize=256)
def _digital_filters(chain: DetectionChain):
    """((b, a) of the AC-coupling bandpass, (b, a) of the detector pole)."""
    w_ac = 2.0 * math.pi * chain.ac_coupling_center
    w_p = 2.0 * math.pi * chain.detector_pole
    filters = (_bilinear([w_ac / chain.ac_coupling_q, 0.0],
                         [1.0, w_ac / chain.ac_coupling_q, w_ac ** 2], chain.sample_rate),
               _bilinear([1.0], [1.0 / w_p, 1.0], chain.sample_rate))
    return tuple(tuple(tuple(c) for c in ba) for ba in filters)


def _polyval(coef: np.ndarray, zm1: np.ndarray) -> np.ndarray:
    """Horner evaluation of sum_k coef[k] zm1**k, in scipy.signal.freqz's order."""
    h = np.full(zm1.shape, coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        h *= zm1
        h += c
    return h


# a 65537-point response per call (about 10 ms), asked for several times per
# trace; keyed by the chain's value
@functools.lru_cache(maxsize=256)
def _analytic_rms(chain: DetectionChain, dc: float) -> float:
    f = np.linspace(0.0, chain.sample_rate / 2.0, _RMS_GRID)
    h2 = np.abs(chain.response(f)) ** 2
    var = np.trapezoid(h2 * (dc + chain.electronic_noise_psd), f)
    var += 0.5 * chain.spur_current_amplitude(dc) ** 2
    return math.sqrt(var)


@dataclass
class TwoChannelTrace:
    """Quantized two-channel recording plus the metadata needed to undo it.

    samples are ADC codes: from synthesis, int16 arrays for ADCs of up to
    16 bits and int32 above; from traceio.read_trace, read-only int16 views
    of the file's bytes (the analyzer converts codes to currents block by
    block, so none is widened to a full-length float copy); dc_1/dc_2 are
    the mean photocurrents of this particular trace (witness arms, for
    instance, run at the average of the two configured currents).
    clipped_1/2 count full-scale violations.
    """

    samples_1: np.ndarray
    samples_2: np.ndarray
    chain: DetectionChain
    duration: float
    seed: int
    dc_1: float
    dc_2: float
    clipped_1: int = 0
    clipped_2: int = 0

    def __post_init__(self):
        if len(self.samples_1) != len(self.samples_2):
            raise ValueError("channels must have equal length")
        self.chain.check_codes(self.samples_1)
        self.chain.check_codes(self.samples_2)

    @property
    def n_samples(self) -> int:
        return len(self.samples_1)

    @property
    def blocks(self):
        """The codes as one block, in the form a TraceStream hands them over."""
        return ((self.samples_1, self.samples_2),)


@dataclass
class TraceStream:
    """A trace whose codes arrive block by block instead of in one array.

    The metadata of TwoChannelTrace, and n_samples per channel.  blocks
    yields (codes_1, codes_2) pairs of equal length in record order, once;
    a pair may reuse the previous pair's memory, so the caller is done
    with it before it takes the next.  n_samples is a contract: the
    cross-spectral estimate is planned from it before the first block and
    refuses blocks that do not add up to it.  clipped_1/2 are complete once
    the last block is taken (a stream read from a file counts none).
    """

    chain: DetectionChain
    duration: float
    seed: int
    dc_1: float
    dc_2: float
    n_samples: int
    blocks: Iterator[tuple[np.ndarray, np.ndarray]] | None = None
    clipped_1: int = 0
    clipped_2: int = 0


def _block_sizes(sample_rate: float):
    """(taps, fft, hop, blocks per draw) of synthesis at sample_rate.

    Kernels have an even number of taps, _KERNEL_SPACING apart or closer in
    frequency.  Each block of hop samples per channel goes through
    fft-point transforms (a power of two), whose first taps - 1 outputs
    wrap around and are discarded.
    """
    taps = 2 * math.ceil(sample_rate / (2.0 * _KERNEL_SPACING))
    fft = 1 << (_FFT_PER_TAP * taps - 1).bit_length()
    hop = fft - taps + 1
    return taps, fft, hop, max(1, _DRAW_SAMPLES // hop)


def _normals(rng, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill out (float32) with standard normals by the Box-Muller transform.

    Uniforms u and v from rng, in [0, 1), give r = sqrt(-2 ln(1 - u)), the
    first half of out r cos(2 pi v) and the second r sin(2 pi v).  In single
    precision throughout, through scratch (2, >= len(out) / 2), this takes
    about 6 ns per sample against 12 for NumPy's float32 ziggurat (2-vCPU
    x86).  The 24-bit uniforms cap |r| at sqrt(48 ln 2) = 5.77.  NumPy picks
    its vectorized log, cos and sin by CPU feature, so the last bit of a
    draw, and a code here and there, may differ between CPU families; on one
    machine and NumPy build a seed gives the same codes.

    The one normal source of the package: the synthesis's noise
    (_next_draw) and the Monte-Carlo oracle's increments
    (langevin_mc._normal) both draw through it.
    """
    half = (len(out) + 1) // 2
    rest = len(out) - half
    radius, angle = scratch[:, :half]
    rng.random(dtype=np.float32, out=radius)
    rng.random(dtype=np.float32, out=angle)
    np.subtract(np.float32(1.0), radius, out=radius)
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    angle *= np.float32(2.0 * math.pi)
    np.cos(angle, out=out[:half])
    out[:half] *= radius
    np.sin(angle[:rest], out=out[half:])
    out[half:] *= radius[:rest]


def _next_draw(rng, noise: np.ndarray, spectra: np.ndarray, hop: int, first: bool = False) -> None:
    """Draw the noise that follows noise's into noise, and its frames' rfft into spectra.

    Each channel carries its last taps - 1 samples to the front, then
    draws hop new ones per block; a trace's first draw carries nothing and
    draws all of noise.
    """
    carry = 0 if first else noise.shape[1] - spectra.shape[1] * hop
    noise[:, :carry] = noise[:, noise.shape[1] - carry:]
    for row in noise[:, carry:]:
        _normals(rng, row, _scratch(spectra))
    _transform(noise, spectra, hop)


def _scratch(spectra: np.ndarray) -> np.ndarray:
    """A draw's spectra as the Box-Muller scratch of its noise, until the transform.

    Each of the two rows holds fft + 2 floats per block; the scratch needs
    half a channel's draw, at most fft / 2 per block.
    """
    return spectra.view(np.float32).reshape(2, -1)


def _transform(noise: np.ndarray, spectra: np.ndarray, hop: int) -> None:
    """The rfft over fft of block j's frame, noise[:, j hop:j hop + fft], into spectra[:, j].

    One call over a read-only strided view of the frames, whose rows reach
    NumPy as each channel's blocks in a run: NumPy transforms four or more
    rows of a run together, and a 200 MS/s draw of four blocks took 1.2 ms
    against 2.7 ms in one (2, fft) call per block (2-vCPU x86).
    norm="forward" keeps NumPy's float32 loop (the default norm runs it in
    double); the kernels carry the factor fft.
    """
    fft = 2 * (spectra.shape[-1] - 1)
    frames = np.lib.stride_tricks.sliding_window_view(noise, fft, axis=1)[:, ::hop]
    np.fft.rfft(frames, axis=-1, norm="forward", out=spectra)


def _job_matrix(job, chain: DetectionChain, freqs):
    """P11 = dc1 s11 + e, P22 = dc2 s22 + e and P12 = sqrt(dc1 dc2) c12 / 2 of job at freqs."""
    (spec_freqs, s11, s22, c12), (dc1, dc2), _ = job
    return (dc1 * np.interp(freqs, spec_freqs, s11) + chain.electronic_noise_psd,
            dc2 * np.interp(freqs, spec_freqs, s22) + chain.electronic_noise_psd,
            math.sqrt(dc1 * dc2) / 2.0 * np.interp(freqs, spec_freqs, c12))


def _kernels(job, chain: DetectionChain):
    """The transforms of job's kernels k11, k21 and k22, at _block_sizes' fft points, times fft.

    Each kernel is the irfft of its Cholesky factor of _job_matrix times the chain
    response on the kernel grid (_block_sizes' taps points), scaled so that unit white noise
    filtered by it has that factor's PSD (one-sided: 2 |K|^2 / fs), and
    centred.  The factors are rounded to single precision, as PSD
    estimates live at the percent level.  k21 is None where it vanishes.
    Each kernel is divided by its channel's ADC step, so the filtered noise
    comes out in code units (a silent channel, whose step is 0, in zeros).
    Raises at the first of the spectra's points where the matrix is not
    positive semidefinite.
    """
    (spec_freqs, *_), (dc1, dc2), _ = job
    fs = chain.sample_rate
    # np.interp joins the spectra's points by straight lines and clamps
    # beyond the ends, and positive semidefinite matrices form a convex set,
    # so the matrix is PSD at every frequency up to Nyquist if it is at these
    check = np.r_[0.0, spec_freqs[(spec_freqs > 0) & (spec_freqs < fs / 2.0)], fs / 2.0]
    p11, p22, p12 = _job_matrix(job, chain, check)
    bad = (p11 < 0) | (p22 < 0)
    bad |= p11 * p22 - p12 * p12 < -1e-12 * np.maximum(p11 * p22, 1e-300)
    if np.any(bad):
        raise ValueError("spectral matrix is not positive semidefinite at %.6g Hz"
                         % check[np.argmax(bad)])

    taps, fft, _, _ = _block_sizes(fs)
    freqs = np.fft.rfftfreq(taps, 1.0 / fs)
    p11, p22, p12 = _job_matrix(job, chain, freqs)
    l11 = np.sqrt(p11)
    with np.errstate(invalid="ignore", divide="ignore"):
        l21 = np.where(l11 > 0, p12 / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(p22 - l21 * l21, 0.0))
    h = math.sqrt(fs / 2.0) * chain.response(freqs)
    # zero-phase factors times the causal chain: taps on both sides of 0
    kernels = np.roll(np.fft.irfft(np.array([l11, l21, l22]) * h, n=taps), taps // 2, axis=1)
    kernels *= fft * _code_scale(chain, (dc1, dc2, dc2))[:, None]  # fft = 2^k: exact
    k11, k21, k22 = np.fft.rfft(kernels, n=fft).astype(np.complex64)
    return k11, (k21 if np.any(l21) else None), k22


def _check(job) -> None:
    """Validate a job (matrix, dc_pair, seed) before anything is drawn for it."""
    (spec_freqs, *_), dc_pair, _ = job
    low, high = ANALYSIS_BAND
    if np.min(spec_freqs) > low + 1.0 or np.max(spec_freqs) < high - 1.0:
        raise ValueError("input spectra must cover %g to %g MHz" % (low / 1e6, high / 1e6))
    if not all(0 <= dc < math.inf for dc in dc_pair):  # NaN included
        raise ValueError("dc currents must be finite and >= 0")


def _code_dtype(chain: DetectionChain):
    return np.int16 if chain.adc_bits <= 16 else np.int32


def _code_scale(chain: DetectionChain, dcs) -> np.ndarray:
    """Codes per current unit at each DC current: 1/lsb, or 0 for a silent channel."""
    lsb = np.array([chain.lsb(dc) for dc in dcs])
    return np.divide(1.0, lsb, out=np.zeros_like(lsb), where=lsb > 0)


def _quantize(y: np.ndarray, chain: DetectionChain, codes: np.ndarray):
    """Round the signal y, in code units, into codes; the clip count of each row.

    y is rounded in place.  Clipped samples are counted only when the codes
    leave the range, so an unclipped signal makes no boolean temporaries.
    """
    top = 2 ** (chain.adc_bits - 1)
    np.rint(y, out=y)
    clipped = [0] * len(y)
    if y.min() < -top or y.max() > top - 1:
        clipped = [int(np.count_nonzero(row < -top) + np.count_nonzero(row > top - 1)) for row in y]
        np.clip(y, -top, top - 1, out=y)
    np.copyto(codes, y, casting="unsafe")
    return clipped


class _Run:
    """The block buffers of one synthesis run.

    A job is (matrix, dc_pair, seed): matrix = (spec_freqs, s11, s22, c12)
    holds normalized spectra on spec_freqs; the run realizes their
    _job_matrix on the kernel grid.  A run made with draw_ahead gives each
    trace one worker thread: while the caller filters the trace's blocks,
    the worker draws and transforms the noise of its next draw's blocks.
    Either thread draws from the trace's own generator in turn, so the
    worker changes the speed, never the codes.
    The worker lives as long as the trace's blocks: taking them to the end,
    or closing them, joins it, and a trace of one draw starts none.  A run
    without draw_ahead starts no thread: it draws each next draw on the
    calling thread, into the spectra of the draw whose blocks it has filtered.
    """

    def __init__(self, chain: DetectionChain, duration: float, *, draw_ahead: bool = False):
        if not 10e-3 <= duration < math.inf:  # NaN included
            raise ValueError("duration must be finite and >= 10 ms")
        self.chain, self.duration, self.draw_ahead = chain, duration, draw_ahead
        self.n = int(round(duration * chain.sample_rate))
        self.taps, fft, self.hop, per_draw = _block_sizes(chain.sample_rate)
        # allocated here, on the calling thread: the worker's own allocations
        # would come from its own malloc arena and add to the peak.  One
        # draw of noise, which only the draws touch; one draw's spectra (two
        # for a run that draws ahead), each channel's blocks in a row; and
        # the filtered signal of one draw's blocks
        self._noise = np.empty((2, self.taps - 1 + per_draw * self.hop), dtype=np.float32)
        self._spectra = np.empty((1 + draw_ahead, 2, per_draw, fft // 2 + 1), dtype=np.complex64)
        self._signal = np.empty((2, per_draw, fft), dtype=np.float32)
        self._codes = np.empty((2, self.hop), dtype=_code_dtype(chain))
        # the spur's cosine and sine over one block from phase 0, which each
        # block turns to its phase
        self._omega = 2.0 * math.pi * chain.spur_freq / chain.sample_rate
        self._spur = np.array([f(self._omega * np.arange(self.hop)) for f in (np.cos, np.sin)],
                              dtype=np.float32)

    def stream(self, job, codes: np.ndarray | None = None) -> TraceStream:
        """The trace of one job, its blocks quantized into codes (2, n) if given.

        The job is checked and its kernels made here, so a bad job raises
        before anything is drawn for it.  Take a stream's blocks to the end,
        or close them, before the run's next stream.
        """
        _check(job)
        kernels = _kernels(job, self.chain)
        _, (dc1, dc2), seed = job
        stream = TraceStream(self.chain, self.duration, int(seed), float(dc1), float(dc2), self.n)
        stream.blocks = self._blocks(stream, kernels, codes)
        return stream

    def _blocks(self, stream: TraceStream, kernels, codes):
        hop = self.hop
        rng = np.random.default_rng(np.random.SeedSequence(stream.seed))
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        _next_draw(rng, self._noise, self._spectra[0], hop, first=True)
        dcs = (stream.dc_1, stream.dc_2)
        # each channel's spur amplitude in code units, with its phase
        amplitudes = _code_scale(self.chain, dcs) * [self.chain.spur_current_amplitude(dc) for dc in dcs]
        spur = list(zip(amplitudes, phases))
        n_blocks = -(-self.n // hop)
        per_draw = self._spectra.shape[2]
        # the trace's own worker, whose thread starts at the first submit; leaving
        # the executor waits for a draw under way, so closing the blocks joins it
        with ThreadPoolExecutor(max_workers=1) if self.draw_ahead else contextlib.nullcontext() as worker:
            for turn, first in enumerate(range(0, n_blocks, per_draw)):
                spectra = self._spectra[turn % len(self._spectra)]
                following = rng, self._noise, self._spectra[(turn + 1) % len(self._spectra)], hop
                more = first + per_draw < n_blocks
                pending = worker.submit(_next_draw, *following) if more and worker is not None else None
                count = min(per_draw, n_blocks - first)
                signal = self._filter(spectra[:, :count], kernels)
                if more and worker is None:
                    # the draw's blocks are filtered: the next draw takes its spectra
                    _next_draw(*following)
                for b in range(count):
                    lo = (first + b) * hop
                    out = (self._codes if codes is None else codes[:, lo:])[:, :min(hop, self.n - lo)]
                    clipped_1, clipped_2 = self._finish(signal[:, b], lo, spur, out)
                    stream.clipped_1 += clipped_1
                    stream.clipped_2 += clipped_2
                    yield out[0], out[1]
                if pending:
                    pending.result()  # the next draw is ready

    def _filter(self, spectra, kernels):
        """The filtered noise of a draw's blocks, in code units, from their
        frames' spectra (2, blocks, fft // 2 + 1), filtered in place: a view
        of the signal buffer, (2, blocks, fft).

        One inverse call for all the blocks: each channel's spectra are a
        run of rows, which NumPy transforms together if there are four or
        more.  k21 x1 is formed in the signal buffer, which holds 2 fft
        floats per block against its fft + 2 and is free until that call.
        """
        k11, k21, k22 = kernels
        x1, x2 = spectra
        x2 *= k22
        if k21 is not None:
            cross = self._signal.reshape(-1)[:2 * x1.size].view(np.complex64).reshape(x1.shape)
            x2 += np.multiply(k21, x1, out=cross)
        x1 *= k11
        signal = self._signal[:, :spectra.shape[1]]
        np.fft.irfft(spectra, n=signal.shape[-1], out=signal)
        return signal

    def _finish(self, signal, lo: int, spur, out):
        """The codes of the block from sample lo on, from its filtered
        signal (2, fft), into out (2, m); the clip counts.

        spur holds each channel's spur amplitude, in code units, and phase.
        """
        m = out.shape[1]
        y = signal[:, self.taps - 1:self.taps - 1 + m]  # the outputs that did not wrap around
        cos, sin = self._spur[:, :m]
        for row, (amplitude, phase) in zip(y, spur):
            if amplitude > 0:
                # a cos(omega (lo + j) + phase), from theta = omega lo + phase
                theta = self._omega * lo + phase
                row += np.float32(amplitude * math.cos(theta)) * cos
                row -= np.float32(amplitude * math.sin(theta)) * sin
        return _quantize(y, self.chain, out)


def _trace(job, chain: DetectionChain, duration: float, run: _Run | None):
    """The trace of job, from a run of its own, or as a TraceStream through run."""
    if run is not None:
        if (run.chain, run.duration) != (chain, duration):
            raise ValueError("a trace must have its run's chain and duration")
        return run.stream(job)
    own = _Run(chain, duration)
    codes = np.empty((2, own.n), dtype=_code_dtype(chain))
    stream = own.stream(job, codes)
    for _ in stream.blocks:
        pass
    return TwoChannelTrace(codes[0], codes[1], chain, duration, stream.seed,
                           stream.dc_1, stream.dc_2, stream.clipped_1, stream.clipped_2)


def _synthesis_job(spec: QuadSpectra, chain: DetectionChain, seed: int):
    return ((spec.frequencies, spec.s_x1, spec.s_x2, spec.c_x),
            (chain.dc_current_1, chain.dc_current_2), seed)


def _arm_job(spec: QuadSpectra, chain: DetectionChain, seed: int):
    vp, vm = witness_pair(spec)
    s_arm = (vp + vm) / 4.0
    dc_arm = 0.5 * (chain.dc_current_1 + chain.dc_current_2)
    return (spec.frequencies, s_arm, s_arm, (vp - vm) / 2.0), (dc_arm, dc_arm), seed


def _pair_job(dc_1: float, dc_2: float, chain: DetectionChain, seed: int):
    # flat unit auto-spectra and no cross term; interpolating constants is exact
    flat = (np.array([0.0, chain.sample_rate / 2.0]), np.ones(2), np.ones(2), np.zeros(2))
    return flat, (dc_1, dc_2), seed


def synthesize(spec: QuadSpectra, chain: DetectionChain, duration: float, seed: int,
               *, _run: _Run | None = None) -> TwoChannelTrace:
    """Direct-detection trace pair realizing the amplitude-sector spectra.

    duration >= 10 ms; the spectra grid must cover noise.ANALYSIS_BAND (values
    are interpolated onto the kernel grid and clamped beyond the ends).
    _run, here and below, is the run of witness_streams or synthesis_stream:
    given one, the call returns its trace as a TraceStream through that
    run's buffers, so that a wrapper of these functions (perfbench's tracer)
    sees the streaming paths too.
    """
    return _trace(_synthesis_job(spec, chain, seed), chain, duration, _run)


def witness_arm_traces(spec: QuadSpectra, chain: DetectionChain, duration: float, seed: int,
                       *, _run: _Run | None = None) -> TwoChannelTrace:
    """Post-beamsplitter detector pair for the witness measurement.

    Combining symmetric beams with a pi/2 phase puts each arm at the average
    DC current; the arm sum carries 2 S_X + C_X and the arm difference
    2 S_Y - C_Y, which fixes the arm auto- and cross-spectra to
    (vp + vm)/4 and (vp - vm)/2 in normalized units.
    """
    return _trace(_arm_job(spec, chain, seed), chain, duration, _run)


def shot_noise_pair(dc_1: float, dc_2: float, chain: DetectionChain, duration: float, seed: int,
                    *, _run: _Run | None = None) -> TwoChannelTrace:
    """Two independent shot-noise-limited channels at the given DC currents.

    The electronic noise floor stays at the chain's configured level, so a
    channel at zero current records electronic noise only; dc_1 = dc_2 = 0
    yields a dark trace.
    """
    return _trace(_pair_job(dc_1, dc_2, chain, seed), chain, duration, _run)


def dark_trace(chain: DetectionChain, duration: float, seed: int,
               *, _run: _Run | None = None) -> TwoChannelTrace:
    """Electronic-noise-only recording (both channels unilluminated)."""
    return shot_noise_pair(0.0, 0.0, chain, duration, seed, _run=_run)


def witness_streams(spec: QuadSpectra, chain: DetectionChain, duration: float, seeds):
    """Yield the three traces of the witness as TraceStreams, from one run.

    The witness arms (witness_arm_traces), the shot-noise reference at the
    chain's DC currents (shot_noise_pair) and the dark trace (dark_trace),
    with seeds[0], seeds[1] and seeds[2]: each stream's blocks hold the
    codes of that call on its own.  Take each stream's blocks to the end
    before asking for the next stream.  The run draws on the calling
    thread: the consumer's estimate has a worker of its own.
    """
    s_arm, s_ref, s_dark = (int(s) for s in seeds)
    run = _Run(chain, duration)
    yield witness_arm_traces(spec, chain, duration, s_arm, _run=run)
    yield shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, duration, s_ref, _run=run)
    yield dark_trace(chain, duration, s_dark, _run=run)


@contextlib.contextmanager
def synthesis_stream(spec: QuadSpectra, chain: DetectionChain, duration: float, seed: int):
    """synthesize's trace as a TraceStream, with a worker that draws ahead.

    Its blocks hold the codes of synthesize's trace; leaving the context
    closes them, which joins the worker.  The worker is for a consumer that
    has no thread of its own, such as a file writer.
    """
    stream = synthesize(spec, chain, duration, seed, _run=_Run(chain, duration, draw_ahead=True))
    with contextlib.closing(stream.blocks):
        yield stream
