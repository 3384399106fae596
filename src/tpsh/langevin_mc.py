"""Monte-Carlo cross-check of the closed-form quadrature spectra.

Integrates the same linearized stochastic model with an explicit
Euler-Maruyama stepper and estimates the output spectra by Welch/CSD
averaging over independent realizations.  Exists purely as an oracle,
sharing no code path with noise.quadrature_spectra.

Discrete model per quadrature sector (q in {x, y}, damping D_q):

    x[i+1] = (1 - D_q dt) x[i] - (sqrt(2 g_in) dW0 + sqrt(2 g_l) dWl
                                  + 2 sqrt(g_1) dW1 + 2 sqrt(g_2) dW2)[i]
    out_k[i] = dWk[i] / dt + 2 sqrt(g_k) x[i]

with dW ~ N(0, dt) and x[i] independent of the step-i increments
(non-anticipating).  The raw one-sided Welch level of a vacuum input is 2,
so estimates are halved to the shot-noise = 1 normalization.

The increments come from synth._normals, the float32 Box-Muller transform
of the synthesis (Box & Muller 1958), _CHUNK deviates at a time, each
chunk widened and scaled by sqrt(dt) in double precision (_normal).
Euler-Maruyama needs only the increments' Gaussian moments (Kloeden &
Platen 1992), and these stay far inside the percent-level standard errors
of the estimates: the float32 rounding is about 6e-8 relative, and the
24-bit uniforms cap |dW| at 5.77 sqrt(dt), beyond which the normal law
holds 8e-9 of its mass.  The transform shares no code with
noise.quadrature_spectra, and a fault in it would show in both the
oracle's and the synthesis's comparisons with the closed form.

Each sector (one realization of one quadrature) runs in two stages on two
threads.  The draw stage, on one worker thread, is the only user of the
generator and of _normal's float32 scratch: it draws dW0, dWl, dW1 and
dW2, in that order, sector x then sector y, realization after
realization, and folds dW0 and dWl into the drive.  The process stage, on
the calling thread, runs the AR(1) step and builds the two output records
chunk by chunk, then makes their Welch estimate.  The worker draws one
sector ahead, into five records allocated by the caller and reused by
every sector, so the estimates are those of drawing and processing each
sector in turn.  The worker is joined when mc_spectra returns or raises.

The AR(1) step x[i+1] = c x[i] - d[i], c = 1 - D_q dt, is solved by scaled
cumulative sums (_ar1): within a block of B samples,
x[j+1] = -c^j (sum_{k<=j} c^-k d[k] - c x[0]), so one multiply, one
np.cumsum and one multiply per block, the minus sign folded into the
second table.  B is the longest power of two up to _CHUNK over which
|c|^-j stays below 2^512, so blocks start at fixed offsets from the start
of the record and the result does not depend on the chunking.  The
rounding error of the sums, relative to the record, is of order
eps / (1 - |c|), the order of the plain recursion's own: at the default
oversample (c = 0.99 and above) the records agree with
scipy.signal.lfilter's to about 1e-15, and the spectra to about 1e-14.
oversample > 0.5 keeps |c| < 1; c <= 0 (oversample <= 1) is handled too.

The Welch estimate (root-periodic-Hann window, 50 % overlap, constant
detrend per segment, density scaling, cross density <conj(X1) X2>; Welch
1967, IEEE Trans. Audio Electroacoust. 15, 70) is written out here rather
than taken from analyzer.py: an oracle that shared the estimator under test
could not catch its faults.  Neither it nor the AR(1) step uses
scipy.signal, which the tests keep as their reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cavity import SteadyState
from .noise import QuadSpectra
from .synth import _normals

# samples per block of Welch segments: bounds the work arrays to a few 8 MiB
# float64/complex128 blocks whatever the record length
_BLOCK_SAMPLES = 1 << 20

# samples per chunk of a sector's draw and process stages: their temporaries
# are this long whatever the record length
_CHUNK = 1 << 16


@dataclass
class MCSpectra:
    """Monte-Carlo estimates and their standard errors (same field layout)."""

    spec: QuadSpectra
    se: QuadSpectra
    n_realizations: int
    dt: float


def _welch_window(nperseg: int, fs: float):
    """Root-periodic-Hann window and density scale of _welch_pair."""
    window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg))
    return window, 1.0 / (fs * np.sum(window * window))


def _welch_buffers(nperseg: int, n_samples: int):
    """_welch_pair's work arrays for records of n_samples samples.

    One block's segments, the two records' spectra and a power temporary,
    then the two per-block sums and the three results.  Reused by every
    call, they keep the estimate from allocating: freed and allocated
    again for every sector, arrays this size go back to the kernel and
    fault their pages in anew (criterion 7 at 1<<21 steps: 612,000 minor
    faults and 1.9 s of system time without them, 91,000 and 0.3 s with).
    """
    step = nperseg - nperseg // 2
    rows = min(max(1, _BLOCK_SAMPLES // nperseg), (n_samples - nperseg) // step + 1)
    bins = nperseg // 2 + 1
    return (np.empty((rows, nperseg)), np.empty((rows, bins), dtype=complex),
            np.empty((rows, bins), dtype=complex), np.empty((rows, bins)),
            np.empty(bins), np.empty(bins, dtype=complex),
            np.empty(bins), np.empty(bins), np.empty(bins, dtype=complex))


def _segment_spectra(rec: np.ndarray, window: np.ndarray, step: int, seg, out) -> np.ndarray:
    """rfft of each mean-free, windowed segment of rec into out, one row per segment.

    seg is the work array of the windowed segments.
    """
    view = sliding_window_view(rec, len(window))[::step]
    seg = np.subtract(view, view.mean(axis=1, keepdims=True), out=seg[:len(view)])
    seg *= window
    return np.fft.rfft(seg, axis=1, out=out[:len(view)])


def _power_sum(x: np.ndarray, power: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|X|^2 summed over the rows of x into out, through power and tmp."""
    power = np.multiply(x.real, x.real, out=power[:len(x)])
    power += np.multiply(x.imag, x.imag, out=tmp[:len(x)])
    return np.sum(power, axis=0, out=out)


def _welch_pair(rec1: np.ndarray, rec2: np.ndarray, window: np.ndarray, scale: float, buffers):
    """One-sided Welch densities P11, P22 and cross density <conj(X1) X2>.

    Segments of len(window) samples overlap by half and lose their mean
    before windowing; the three products are summed over blocks of segments
    in the work arrays of buffers = _welch_buffers(len(window), len(rec1)).
    The results are three of those arrays, valid until the next call.
    """
    seg, x1, x2, power, sum_f, sum_c, p11, p22, p12 = buffers
    nperseg = len(window)
    step = nperseg - nperseg // 2
    n_segments = (len(rec1) - nperseg) // step + 1
    block = len(seg)
    # the segments are done with once both spectra are made: the power
    # temporary of _power_sum
    tmp = seg[:, :len(p11)]
    for p in (p11, p22, p12):
        p.fill(0.0)
    for first in range(0, n_segments, block):
        stop = (min(first + block, n_segments) - 1) * step + nperseg
        y1 = _segment_spectra(rec1[first * step:stop], window, step, seg, x1)
        y2 = _segment_spectra(rec2[first * step:stop], window, step, seg, x2)
        p11 += _power_sum(y1, power, tmp, sum_f)
        p22 += _power_sum(y2, power, tmp, sum_f)
        # conj(X1) X2, formed over X1
        p12 += np.sum(np.multiply(np.conjugate(y1, out=y1), y2, out=y1), axis=0, out=sum_c)
    # fold in the negative frequencies: all bins but DC (and an even Nyquist)
    for p in (p11, p22, p12):
        p *= 2.0 * scale / n_segments
        p[0] /= 2.0
        if nperseg % 2 == 0:
            p[-1] /= 2.0
    return p11, p22, p12


def _normal(rng, out: np.ndarray, sd: float, normals: np.ndarray) -> np.ndarray:
    """N(0, sd^2) deviates into the float64 out, _CHUNK at a time.

    Each chunk is drawn by synth._normals into the float32 scratch normals
    (4, >= min(_CHUNK, len(out)) / 2): its first two rows hold the chunk,
    its last two the Box-Muller scratch.  The chunk is then widened and
    scaled by sd in double precision.
    """
    z, scratch = normals[:2].reshape(-1), normals[2:]
    for start in range(0, len(out), _CHUNK):
        chunk = out[start:start + _CHUNK]
        _normals(rng, z[:len(chunk)], scratch)
        np.multiply(z[:len(chunk)], sd, out=chunk, dtype=float)
    return out


def _draw_drive(rng, drive, dw1, scratch, normals, sd, glin_pair):
    """A sector's draw stage up to dW2: dW0, dWl and dW1, in that order.

    dW0 and dWl are folded into drive = sqrt(2 g_in) dW0 + sqrt(2 g_l) dWl,
    dWl chunk by chunk through scratch; dW1 goes into dw1.  normals is
    _normal's float32 scratch.
    """
    g_in, g_l = glin_pair
    _normal(rng, drive, sd, normals)
    drive *= math.sqrt(2.0 * g_in)
    for start in range(0, len(drive), len(scratch)):
        dwl = _normal(rng, scratch[:len(drive) - start], sd, normals)
        dwl *= math.sqrt(2.0 * g_l)
        drive[start:start + len(dwl)] += dwl
    _normal(rng, dw1, sd, normals)


def _ar1_step(decay: float):
    """_ar1's step for one decay c: (c, c^-j, -c^j), the tables for j < B.

    B is the longest power of two up to _CHUNK with |c|^-(B-1) <= 2^512, so
    it divides _CHUNK and neither the tables nor the scaled sums overflow.
    """
    if decay == 0.0:
        block = 1
    else:
        block = 1 << min(_CHUNK.bit_length() - 1,
                         int(math.log2(512.0 / -math.log2(abs(decay)) + 1.0)))
    j = np.arange(block, dtype=float)
    return decay, np.power(decay, -j), -np.power(decay, j)


def _ar1(d: np.ndarray, x0: float, step) -> None:
    """The AR(1) step in place: d[i] becomes x[i+1] = decay x[i] - d[i].

    step = _ar1_step(decay) and x[0] = x0, the state carried in.  Each block
    of B samples, counted from d[0], is solved by one scaled cumulative sum,
    x[j+1] = -c^j (sum_{k<=j} c^-k d[k] - c x[0]).
    """
    decay, inv, negpow = step
    if decay == 0.0:
        np.negative(d, out=d)
        return
    block = len(inv)
    for start in range(0, len(d), block):
        seg = d[start:start + block]
        seg *= inv[:len(seg)]
        seg[0] -= decay * x0
        np.cumsum(seg, out=seg)
        seg *= negpow[:len(seg)]
        x0 = seg[-1]


def _outputs(draws, scratch, burn, dt, gk, step):
    """Process stage of one sector up to the estimate: its two output records.

    draws = (drive, dw1, dw2) holds the sector's draw stage and step its
    _ar1_step.  Finishes the drive, d = sqrt(2 g_in) dW0 + sqrt(2 g_l) dWl
    + 2 sqrt(g1) dW1 + 2 sqrt(g2) dW2, runs the AR(1) step x[i+1] =
    (1 - D dt) x[i] - d[i] over it, and builds out_k = dWk / dt + 2 sqrt(g_k)
    x over dWk past the burn-in, chunk by chunk through scratch.  Returns
    views of dw1 and dw2; drive is free again on return.
    """
    drive, dw1, dw2 = draws
    c1, c2 = (2.0 * math.sqrt(g) for g in gk)
    for start in range(0, len(drive), len(scratch)):
        stop = min(start + len(scratch), len(drive))
        tmp = scratch[:stop - start]
        chunk = drive[start:stop]
        chunk += np.multiply(dw1[start:stop], c1, out=tmp)
        chunk += np.multiply(dw2[start:stop], c2, out=tmp)
        # drive[i] becomes x[i + 1], the state x[start] carried from the
        # last chunk (x[0] = 0)
        _ar1(chunk, drive[start - 1] if start else 0.0, step)
        lo = max(start, burn)
        for dw, c in ((dw1, c1), (dw2, c2)):
            out = dw[lo:stop]
            out /= dt
            out += np.multiply(drive[lo - 1:stop - 1], c, out=tmp[:len(out)])
    return dw1[burn:], dw2[burn:]


def mc_spectra(
    ss: SteadyState,
    frequencies,
    seed: int,
    n_realizations: int = 8,
    n_steps: int = 1 << 21,
    oversample: float = 100.0,
    nperseg: int = 1 << 16,
    avg_bins: int = 2,
) -> MCSpectra:
    """Estimate output quadrature spectra at the requested frequencies (Hz).

    dt is set to 1 / (oversample * D_x); a burn-in of 10 / (D_x dt) steps is
    discarded before estimation.  Each spectrum value is the Welch estimate
    band-averaged over +-avg_bins around the nearest bin; the standard error
    is the scatter over realizations divided by sqrt(n_realizations).
    """
    if n_realizations < 2:
        raise ValueError("n_realizations must be >= 2: the standard error is their scatter")
    if not 0.5 < oversample < math.inf:
        # D_x dt = 1 / oversample: from 2 on, the Euler step diverges
        raise ValueError("oversample must be finite and > 0.5: the Euler step is unstable below")
    if avg_bins < 0:
        raise ValueError("avg_bins must be >= 0")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if freqs.size == 0:
        raise ValueError("frequencies must not be empty")
    if not np.all(np.isfinite(freqs)):
        raise ValueError("frequencies must be finite")
    g1 = ss.rate_nl_port1
    g2 = ss.rate_nl_port2
    gnl = g1 + g2
    glin_pair = (ss.rate_input, ss.rate_loss)
    dx = ss.rate_input + ss.rate_loss + 3.0 * gnl
    dy = ss.rate_input + ss.rate_loss + gnl

    dt = 1.0 / (oversample * dx)
    fs = 1.0 / dt
    if np.any(freqs >= fs / 2):
        raise ValueError("requested frequency above simulation Nyquist")
    if n_steps < nperseg:
        raise ValueError("n_steps must be >= nperseg")
    burn = int(10.0 / (dx * dt)) + 1

    rng = np.random.default_rng(seed)
    f = np.fft.rfftfreq(nperseg, 1.0 / fs)
    centers = np.array([int(np.argmin(np.abs(f - ft))) for ft in freqs])
    if np.any(centers - avg_bins < 1) or np.any(centers + avg_bins >= len(f)):
        raise ValueError("frequency too close to the simulation grid edge")
    sel = centers[:, None] + np.arange(-avg_bins, avg_bins + 1)[None, :]

    n = n_steps + burn
    # _normal's float32 chunk and Box-Muller scratch, used by the worker
    # only.  Allocated before the records: after them, it came from fresh
    # pages on every call (+390 minor faults per perfbench oracle operation)
    normals = np.empty((4, (min(_CHUNK, n) + 1) // 2), dtype=np.float32)
    # five records of n_steps + burn samples hold two sectors' increments:
    # sector k's drive, dW1 and dW2 go into records 3k, 3k + 1 and 3k + 2
    # (mod 5), so its dW2 lands in sector k - 1's drive.  They are one array:
    # freed on return, the largest block glibc has unmapped sets its dynamic
    # mmap threshold, so the next call's arrays come from the heap rather
    # than from fresh pages the worker faults in (21,600 -> 5,400 minor
    # faults per perfbench oracle operation)
    records = np.empty((5, n))
    scratch = (np.empty(min(_CHUNK, n)), np.empty(min(_CHUNK, n)))
    sd = math.sqrt(dt)
    sectors = ["x", "y"] * n_realizations
    per_real = {k: [] for k in ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y")}

    def slots(k):
        return tuple(records[(3 * k + j) % 5] for j in range(3))

    # the worker is the only thread that draws, and it runs the draws in the
    # order they are submitted, the serial one: sector k + 1's dW0, dWl and
    # dW1 while sector k's outputs are built, its dW2 once sector k's drive
    # is free, while sector k is estimated
    with ThreadPoolExecutor(max_workers=1) as worker:
        drive, dw1, dw2 = slots(0)
        pending = [worker.submit(_draw_drive, rng, drive, dw1, scratch[0], normals, sd,
                                 glin_pair),
                   worker.submit(_normal, rng, dw2, sd, normals)]
        # made while the first sector is drawn
        window, scale = _welch_window(nperseg, fs)
        buffers = _welch_buffers(nperseg, n_steps)
        steps = {"x": _ar1_step(1.0 - dx * dt), "y": _ar1_step(1.0 - dy * dt)}
        for k, sector in enumerate(sectors):
            for draw in pending:
                draw.result()
            pending = []
            ahead = k + 1 < len(sectors)
            drive, dw1, dw2 = slots(k + 1)
            if ahead:
                pending.append(worker.submit(_draw_drive, rng, drive, dw1, scratch[0],
                                             normals, sd, glin_pair))
            out1, out2 = _outputs(slots(k), scratch[1], burn, dt, (g1, g2), steps[sector])
            if ahead:
                pending.append(worker.submit(_normal, rng, dw2, sd, normals))
            p1, p2, cs = _welch_pair(out1, out2, window, scale, buffers)
            # one-sided vacuum level is 2; cross convention matches noise.QuadSpectra
            per_real["s_%s1" % sector].append(np.mean(p1[sel], axis=1) / 2.0)
            per_real["s_%s2" % sector].append(np.mean(p2[sel], axis=1) / 2.0)
            per_real["c_%s" % sector].append(np.mean(np.real(cs[sel]), axis=1))

    means = {}
    ses = {}
    root_n = math.sqrt(n_realizations)
    for key, vals in per_real.items():
        stack = np.vstack(vals)
        means[key] = stack.mean(axis=0)
        ses[key] = stack.std(axis=0, ddof=1) / root_n

    return MCSpectra(
        spec=QuadSpectra(frequencies=f[centers], **means),
        se=QuadSpectra(frequencies=f[centers], **ses),
        n_realizations=n_realizations,
        dt=dt,
    )
