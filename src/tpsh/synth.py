"""Synthetic two-channel photocurrent traces from target quadrature spectra.

Current-unit convention: a channel with mean photocurrent dc has a flat
one-sided shot-noise PSD equal to dc (current^2/Hz).  Normalized spectra map
to PSDs as

    P_11 = dc_1 * s_x1,   P_22 = dc_2 * s_x2,   P_12 = sqrt(dc_1 dc_2) * c_x / 2

(the 1/2 undoes the symmetrized-cross-spectrum convention).  Every trace is
a job, such a normalized matrix (s_11, s_22, c_12 on a frequency grid), the
DC pair and a seed, realized by a synthesis run (_Run).
Traces are synthesized in the frequency domain: per-bin Cholesky
factorization of the 2x2 spectral matrix drives independent complex
Gaussian draws (circulant embedding), then the chain applies, in order,
electronic noise, AC-coupling bandpass, detector pole, spur injection, and
quantization.  The sample stream is the AC-coupled fluctuation; mean
currents ride along as metadata because the bandpass would remove any
embedded DC anyway.  Codes are int16 for ADCs of up to 16 bits (int32
above).  No float64 array spans the synthesis grid: one pass over blocks of
_BIN_BLOCK bins evaluates the spectra and Cholesky factors and mixes and
filters the complex64 draws in place.  A block over which the matrix is
constant (every block of the flat reference and dark matrices, and those
beyond the end of the spectra's grid) is factored once.

A run owns two complex64 spectrum buffers, which its traces reuse.  A
trace's codes are one (2, n) array, its only grid-sized allocation:
channel 1 is transformed into that array's memory and channel 2 into
channel 1's spectrum buffer, free by then.  synthesize, witness_arm_traces,
shot_noise_pair and dark_trace each make a run of one trace, which starts
no thread.  witness_traces yields the witness's three traces through these
same functions and one run of three: after each trace, one worker thread
draws the next trace's normal deviates into the buffers while the caller
reduces the trace just yielded (the fill releases the GIL).  Every buffer
is allocated on the calling thread, and the worker is joined when the run
ends, raises or is closed.  Each trace draws from its own SeedSequence
stream, so its codes equal those of a call on its own.
"""

from __future__ import annotations

import functools
import math
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

# bins of the synthesis grid per block: the float64 spectra and Cholesky
# factors and the complex128 chain response exist one block (0.5-1 MiB per
# array) at a time, whatever the trace length
_BIN_BLOCK = 1 << 16


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
    response on the synthesis grid) are cached by the chain's value, so they
    cannot go stale.  Vary a chain with dataclasses.replace, which builds and
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
        if not 8 <= int(self.adc_bits) <= 24:
            raise ValueError("adc_bits must lie in [8, 24]")
        object.__setattr__(self, "adc_bits", int(self.adc_bits))
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
# so they are derived once per chain rather than once per block; keyed by
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


def _grid_blocks(n: int, fs: float):
    """(bins, freqs) over the grid rfftfreq(n, 1/fs) in blocks of _BIN_BLOCK.

    bins is the block's slice of the grid; freqs are formed as rfftfreq
    forms them (integer bin times 1/(n d)), so they agree to the last bit.
    """
    nfreq = n // 2 + 1
    df = 1.0 / (n * (1.0 / fs))
    for lo in range(0, nfreq, _BIN_BLOCK):
        hi = min(lo + _BIN_BLOCK, nfreq)
        yield slice(lo, hi), np.arange(lo, hi) * df


# the response on the grid rfftfreq(n, 1/fs) takes about 0.17 s for a 10 ms
# trace at 200 MS/s (1 000 001 bins, 2-vCPU x86 host), in proportion to the
# duration, and is shared by the traces of one run (signal, reference,
# dark), whose _mix multiplies it in block by block; it is evaluated block
# by block into the complex64 result (8 MB at that size, with no
# full-length complex128 transient), and only the latest grid is kept, so
# at most one such array outlives its chain
@functools.lru_cache(maxsize=1)
def _synthesis_response(chain: DetectionChain, n: int) -> np.ndarray:
    h = np.empty(n // 2 + 1, dtype=np.complex64)
    for bins, freqs in _grid_blocks(n, chain.sample_rate):
        h[bins] = chain.response(freqs)
    h.flags.writeable = False
    return h


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
        top = 2 ** (self.chain.adc_bits - 1)
        for s in (self.samples_1, self.samples_2):
            if len(s) and (s.min() < -top or s.max() > top - 1):
                raise ValueError("ADC codes exceed the declared bit depth")

    @property
    def n_samples(self) -> int:
        return len(self.samples_1)


def _draw(rng, x1: np.ndarray, x2: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill x1 and x2 with complex standard normals and draw the spur phases.

    For each channel all real parts are drawn, then all imaginary parts,
    through the contiguous float32 scratch block into place; the generator's
    stream runs on across calls, so the values equal one full-length draw.
    Returns the two phases, drawn last.
    """
    for part in (x1.real, x1.imag, x2.real, x2.imag):
        for lo in range(0, len(part), len(scratch)):
            block = scratch[:len(part) - lo]
            rng.standard_normal(dtype=np.float32, out=block)
            part[lo:lo + len(block)] = block
    return rng.uniform(0.0, 2.0 * math.pi, 2)


def _mix(x1: np.ndarray, x2: np.ndarray, matrix, dc_pair, chain: DetectionChain, n: int) -> None:
    """Turn the draws z1, z2 in x1, x2 into the filtered half spectra.

    x1 = a11 z1 and x2 = a21 z1 + a22 z2, with a11, a21 and a22 the Cholesky
    factors of the PSD matrix scaled to the n-point grid and rounded to
    single precision, as PSD estimates live at the percent level; then the
    DC bin is zeroed, the Nyquist bin of an even n set to sqrt(2) times its
    real part, and both are multiplied by the chain response.  It is done
    in place in one pass over blocks of bins.  Where the spec-grid points
    that np.interp reads for a block (its brackets, and the ends where it
    clamps) hold equal values, np.interp returns that value exactly at
    every bin, so the block is factored once, at its first bin, and the
    factors broadcast.  Raises at the first bin where the matrix is not
    positive semidefinite.
    """
    spec_freqs, s11, s22, c12 = matrix
    dc1, dc2 = dc_pair
    psd_e = chain.electronic_noise_psd
    g12 = math.sqrt(dc1 * dc2) / 2.0
    scale = math.sqrt(n * chain.sample_rate / 4.0)
    h = _synthesis_response(chain, n)
    for bins, freqs in _grid_blocks(n, chain.sample_rate):
        lo, hi = np.searchsorted(spec_freqs, freqs[[0, -1]], side="right")
        brackets = slice(max(lo - 1, 0), hi + 1)
        if all(np.all(s[brackets] == s[brackets][0]) for s in (s11, s22, c12)):
            freqs = freqs[:1]
        p11 = dc1 * np.interp(freqs, spec_freqs, s11) + psd_e
        p22 = dc2 * np.interp(freqs, spec_freqs, s22) + psd_e
        p12 = g12 * np.interp(freqs, spec_freqs, c12)

        bad = (p11 < 0) | (p22 < 0)
        det = p11 * p22 - p12 * p12
        bad |= det < -1e-12 * np.maximum(p11 * p22, 1e-300)
        if np.any(bad):
            f_bad = float(freqs[np.argmax(bad)])
            raise ValueError(
                "spectral matrix is not positive semidefinite at %.6g Hz" % f_bad
            )

        l11 = np.sqrt(p11)
        with np.errstate(invalid="ignore", divide="ignore"):
            l21 = np.where(l11 > 0, p12 / np.where(l11 > 0, l11, 1.0), 0.0)
        l22 = np.sqrt(np.maximum(p22 - l21 * l21, 0.0))

        a11, a21, a22 = ((scale * l).astype(np.float32) for l in (l11, l21, l22))
        z1, z2 = x1[bins], x2[bins]
        t = a21 * z1
        z2 *= a22
        z2 += t
        z1 *= a11
        for z in (z1, z2):
            if bins.start == 0:
                z[0] = 0.0
            if n % 2 == 0 and bins.stop == len(h):
                z[-1] = math.sqrt(2.0) * z[-1].real
            z *= h[bins]


def _check(job) -> None:
    """Validate a job (matrix, dc_pair, seed) before anything is drawn for it."""
    (spec_freqs, *_), dc_pair, _ = job
    low, high = ANALYSIS_BAND
    if np.min(spec_freqs) > low + 1.0 or np.max(spec_freqs) < high - 1.0:
        raise ValueError("input spectra must cover %g to %g MHz" % (low / 1e6, high / 1e6))
    if min(dc_pair) < 0:
        raise ValueError("dc currents must be >= 0")


class _Run:
    """The spectrum buffers and the draw-ahead worker of one synthesis run.

    A job is (matrix, dc_pair, seed): matrix = (spec_freqs, s11, s22, c12)
    holds normalized spectra on spec_freqs; each is interpolated onto the
    synthesis grid (clamped beyond the ends) and then scaled to
    P11 = dc1 s11, P22 = dc2 s22 and P12 = sqrt(dc1 dc2) c12 / 2.  seeds
    lists the seeds of the run's traces in order: once a trace is
    quantized, the worker draws the next seed's deviates into the buffers
    while the caller reduces the trace.  A trace off that schedule is drawn
    again on the calling thread, so the schedule changes the speed, never
    the codes.  Leaving the run joins the worker.
    """

    def __init__(self, chain: DetectionChain, duration: float, seeds=()):
        if duration < 10e-3:
            raise ValueError("duration must be >= 10 ms")
        self.chain, self.duration = chain, duration
        self.n = int(round(duration * chain.sample_rate))
        nfreq = self.n // 2 + 1
        # allocated here, on the calling thread: the worker's own allocations
        # would come from its own malloc arena and add to the peak
        self.spectra = (np.empty(nfreq, dtype=np.complex64), np.empty(nfreq, dtype=np.complex64))
        self._scratch = np.empty(min(_BIN_BLOCK, nfreq), dtype=np.float32)
        self._upcoming = [int(s) for s in seeds][1:]
        # the executor starts its one thread at the first submit, so a run
        # of one trace has none
        self._worker = ThreadPoolExecutor(max_workers=1)
        self._ahead = None  # (seed, future) of the draw under way

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        ahead, self._ahead = self._ahead, None
        self._worker.shutdown(wait=True)
        if ahead:
            ahead[1].result()  # a draw that failed raises here
        return False

    def _draw(self, seed: int):
        return _draw(np.random.default_rng(np.random.SeedSequence(seed)), *self.spectra, self._scratch)

    def trace(self, job) -> TwoChannelTrace:
        """The trace of one job; it shares no memory with the buffers."""
        _check(job)
        seed = int(job[2])
        ahead, self._ahead = self._ahead, None
        phases = ahead[1].result() if ahead else None  # the worker is done with the buffers
        if not ahead or ahead[0] != seed:
            phases = self._draw(seed)
        trace = _realize(job, self.spectra, phases, self.chain, self.duration, self.n)
        if self._upcoming:
            # the buffers are free again: draw the next trace's deviates
            # while the caller reduces this one
            nxt = self._upcoming.pop(0)
            self._ahead = (nxt, self._worker.submit(self._draw, nxt))
        return trace


def _trace(job, chain: DetectionChain, duration: float, run: _Run | None) -> TwoChannelTrace:
    """The trace of job, through run's buffers or, by default, a run of its own."""
    if run is None:
        with _Run(chain, duration) as own:
            return own.trace(job)
    if (run.chain, run.duration) != (chain, duration):
        raise ValueError("a trace must have its run's chain and duration")
    return run.trace(job)


def _realize(job, spectra, phases, chain: DetectionChain, duration: float, n: int) -> TwoChannelTrace:
    """The trace of one job from the draws in the two spectrum buffers.

    Mixes and filters the draws in place, adds the spur, and quantizes
    channel 1 through the memory of the trace's codes and channel 2 through
    channel 1's spectrum buffer; both buffers are free again on return.
    """
    matrix, dc_pair, seed = job
    dc1, dc2 = (float(dc) for dc in dc_pair)
    x1, x2 = spectra
    _mix(x1, x2, matrix, (dc1, dc2), chain, n)

    # spur rides in after the filters, at the nearest representable bin
    if chain.spur_amplitude > 0:
        k0 = int(round(chain.spur_freq * n / chain.sample_rate))
        if 0 < k0 < len(x1) - 1:
            for x, dc, ph in ((x1, dc1, phases[0]), (x2, dc2, phases[1])):
                x[k0] += chain.spur_current_amplitude(dc) * (n / 2.0) * np.exp(1j * ph)

    # the trace's one grid-sized allocation: both channels' codes, with room
    # for channel 1's float32 signal.  A long-lived allocation made between
    # traces (SciPy's import at the first estimate) then cannot split the
    # space that the next trace needs
    codes = np.empty((2, n), dtype=_code_dtype(chain))
    codes_1, clipped_1 = _quantize(x1, n, chain, dc1, out=codes.reshape(-1).view(np.float32)[:n],
                                   codes=codes[0])
    codes_2, clipped_2 = _quantize(x2, n, chain, dc2, out=x1.view(np.float32)[:n], codes=codes[1])
    return TwoChannelTrace(
        samples_1=codes_1,
        samples_2=codes_2,
        chain=chain,
        duration=duration,
        seed=int(seed),
        dc_1=dc1,
        dc_2=dc2,
        clipped_1=clipped_1,
        clipped_2=clipped_2,
    )


def _code_dtype(chain: DetectionChain):
    return np.int16 if chain.adc_bits <= 16 else np.int32


def _quantize(x: np.ndarray, n: int, chain: DetectionChain, dc: float, out=None, codes=None):
    """ADC codes of the n-sample signal with half spectrum x, and the clip count.

    Codes are int16 for ADCs of up to 16 bits and int32 above; they go into
    codes (n of them) or, by default, a fresh array.  The signal is
    transformed into out (n float32, not overlapping x) or, by default, into
    a fresh array; out may start where codes does.  Clipped samples are
    counted only when the codes leave the range, so an unclipped signal
    makes no boolean temporaries.
    """
    if codes is None:
        codes = np.empty(n, dtype=_code_dtype(chain))
    lsb = chain.lsb(dc)
    if lsb == 0.0:
        # silent channel: no signal, no noise, nothing to resolve
        codes[...] = 0
        return codes, 0
    y = np.fft.irfft(x, n=n, out=out)
    top = 2 ** (chain.adc_bits - 1)
    y /= np.float32(lsb)
    np.rint(y, out=y)
    clipped = 0
    if y.min() < -top or y.max() > top - 1:
        clipped = np.count_nonzero(y < -top) + np.count_nonzero(y > top - 1)
        np.clip(y, -top, top - 1, out=y)
    # front to back, one block at a time: a code is no wider than a float32,
    # so block i of codes ends where block i + 1 of y starts at the latest
    # (NumPy buffers a block that overlaps its own source)
    for first in range(0, n, _BIN_BLOCK):
        block = slice(first, first + _BIN_BLOCK)
        np.copyto(codes[block], y[block], casting="unsafe")
    return codes, int(clipped)


def synthesize(spec: QuadSpectra, chain: DetectionChain, duration: float, seed: int,
               *, _run: _Run | None = None) -> TwoChannelTrace:
    """Direct-detection trace pair realizing the amplitude-sector spectra.

    duration >= 10 ms; the spectra grid must cover noise.ANALYSIS_BAND (values
    are interpolated onto the synthesis grid and clamped beyond the ends).
    _run, here and below, is the run of witness_traces whose buffers the
    trace goes through; by default the call makes and ends a run of its own.
    """
    matrix = (spec.frequencies, spec.s_x1, spec.s_x2, spec.c_x)
    return _trace((matrix, (chain.dc_current_1, chain.dc_current_2), seed), chain, duration, _run)


def witness_arm_traces(spec: QuadSpectra, chain: DetectionChain, duration: float, seed: int,
                       *, _run: _Run | None = None) -> TwoChannelTrace:
    """Post-beamsplitter detector pair for the witness measurement.

    Combining symmetric beams with a pi/2 phase puts each arm at the average
    DC current; the arm sum carries 2 S_X + C_X and the arm difference
    2 S_Y - C_Y, which fixes the arm auto- and cross-spectra to
    (vp + vm)/4 and (vp - vm)/2 in normalized units.
    """
    vp, vm = witness_pair(spec)
    s_arm = (vp + vm) / 4.0
    dc_arm = 0.5 * (chain.dc_current_1 + chain.dc_current_2)
    matrix = (spec.frequencies, s_arm, s_arm, (vp - vm) / 2.0)
    return _trace((matrix, (dc_arm, dc_arm), seed), chain, duration, _run)


def shot_noise_pair(dc_1: float, dc_2: float, chain: DetectionChain, duration: float, seed: int,
                    *, _run: _Run | None = None) -> TwoChannelTrace:
    """Two independent shot-noise-limited channels at the given DC currents.

    The electronic noise floor stays at the chain's configured level, so a
    channel at zero current records electronic noise only; dc_1 = dc_2 = 0
    yields a dark trace.
    """
    # flat unit auto-spectra and no cross term; interpolating constants is exact
    matrix = (np.array([0.0, chain.sample_rate / 2.0]), np.ones(2), np.ones(2), np.zeros(2))
    return _trace((matrix, (dc_1, dc_2), seed), chain, duration, _run)


def dark_trace(chain: DetectionChain, duration: float, seed: int,
               *, _run: _Run | None = None) -> TwoChannelTrace:
    """Electronic-noise-only recording (both channels unilluminated)."""
    return shot_noise_pair(0.0, 0.0, chain, duration, seed, _run=_run)


def witness_traces(spec: QuadSpectra, chain: DetectionChain, duration: float, seeds):
    """Yield the three traces of the witness, in turn, from one run.

    The witness arms (witness_arm_traces), the shot-noise reference at the
    chain's DC currents (shot_noise_pair) and the dark trace (dark_trace),
    with seeds[0], seeds[1] and seeds[2]: each equals that call on its own.
    The run holds no trace once the caller asks for the next, so a caller
    that drops each trace holds one at a time while the next one's
    deviates are drawn.  Close the generator (or run it to the end) to join
    the run's worker.
    """
    s_arm, s_ref, s_dark = (int(s) for s in seeds)
    with _Run(chain, duration, (s_arm, s_ref, s_dark)) as run:
        yield witness_arm_traces(spec, chain, duration, s_arm, _run=run)
        yield shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, duration, s_ref, _run=run)
        yield dark_trace(chain, duration, s_dark, _run=run)
