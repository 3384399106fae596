"""Monte-Carlo cross-check of the closed-form quadrature spectra.

Integrates the same linearized stochastic model with an explicit
Euler-Maruyama stepper and estimates the output spectra by Welch/CSD
averaging over independent realizations.  Exists purely as an oracle: slow,
simple, and sharing no code path with noise.quadrature_spectra.

Discrete model per quadrature sector (q in {x, y}, damping D_q):

    x[i+1] = (1 - D_q dt) x[i] - (sqrt(2 g_in) dW0 + sqrt(2 g_l) dWl
                                  + 2 sqrt(g_1) dW1 + 2 sqrt(g_2) dW2)[i]
    out_k[i] = dWk[i] / dt + 2 sqrt(g_k) x[i]

with dW ~ N(0, dt) and x[i] independent of the step-i increments
(non-anticipating).  The raw one-sided Welch level of a vacuum input is 2,
so estimates are halved to the shot-noise = 1 normalization.

The Welch estimate (root-periodic-Hann window, 50 % overlap, constant
detrend per segment, density scaling, cross density <conj(X1) X2>; Welch
1967, IEEE Trans. Audio Electroacoust. 15, 70) is written out here rather
than taken from analyzer.py: an oracle that shared the estimator under test
could not catch its faults.  Only the AR(1) step uses scipy.signal, imported
where it runs, so importing tpsh does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cavity import SteadyState
from .noise import QuadSpectra

# samples per block of Welch segments: bounds the transient arrays to a few
# 8 MiB float64/complex128 blocks whatever the record length
_BLOCK_SAMPLES = 1 << 20


@dataclass
class MCSpectra:
    """Monte-Carlo estimates and their standard errors (same field layout)."""

    spec: QuadSpectra
    se: QuadSpectra
    n_realizations: int
    dt: float


def _welch_setup(nperseg: int, fs: float):
    """Frequencies, root-periodic-Hann window and density scale of _welch_pair."""
    window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg))
    scale = 1.0 / (fs * np.sum(window * window))
    return np.fft.rfftfreq(nperseg, 1.0 / fs), window, scale


def _welch_pair(rec1: np.ndarray, rec2: np.ndarray, window: np.ndarray, scale: float):
    """One-sided Welch densities P11, P22 and cross density <conj(X1) X2>.

    Segments of len(window) samples overlap by half and lose their mean
    before windowing; the three products are summed over blocks of segments.
    """
    nperseg = len(window)
    step = nperseg - nperseg // 2
    n_segments = (len(rec1) - nperseg) // step + 1
    block = max(1, _BLOCK_SAMPLES // nperseg)
    bins = nperseg // 2 + 1
    p11 = np.zeros(bins)
    p22 = np.zeros(bins)
    p12 = np.zeros(bins, dtype=complex)
    for first in range(0, n_segments, block):
        stop = (min(first + block, n_segments) - 1) * step + nperseg
        spectra = []
        for rec in (rec1, rec2):
            seg = sliding_window_view(rec[first * step:stop], nperseg)[::step]
            seg = seg - seg.mean(axis=1, keepdims=True)
            seg *= window
            spectra.append(np.fft.rfft(seg, axis=1))
        x1, x2 = spectra
        p11 += np.sum(x1.real ** 2 + x1.imag ** 2, axis=0)
        p22 += np.sum(x2.real ** 2 + x2.imag ** 2, axis=0)
        p12 += np.sum(x1.conj() * x2, axis=0)
    # fold in the negative frequencies: all bins but DC (and an even Nyquist)
    fold = np.full(bins, 2.0 * scale / n_segments)
    fold[0] /= 2.0
    if nperseg % 2 == 0:
        fold[-1] /= 2.0
    return p11 * fold, p22 * fold, p12 * fold


def _ar1(drive: np.ndarray, decay: float) -> np.ndarray:
    """x[0] = 0, x[i] = decay*x[i-1] + drive[i-1], written over drive."""
    from scipy.signal import lfilter  # deferred: only the oracle needs scipy.signal

    # the filter is causal, so filtering drive[:-1] gives the first n - 1
    # outputs of filtering all of drive
    drive[1:] = lfilter([1.0], [1.0, -decay], drive[:-1])
    drive[0] = 0.0
    return drive


def _sector(rng, n_steps, dt, glin_pair, gk, damping):
    """One realization of one quadrature sector; returns the two output records."""
    g_in, g_l = glin_pair
    g1, g2 = gk
    sd = math.sqrt(dt)
    # drive = -(sqrt(2 g_in) dW0 + sqrt(2 g_l) dWl + 2 sqrt(g1) dW1
    # + 2 sqrt(g2) dW2), summed in place in that order; each increment is
    # drawn when it is needed, which keeps the generator's order
    drive = rng.normal(0.0, sd, n_steps)  # dW0
    drive *= math.sqrt(2.0 * g_in)
    dwl = rng.normal(0.0, sd, n_steps)
    dwl *= math.sqrt(2.0 * g_l)
    drive += dwl
    del dwl
    dw1 = rng.normal(0.0, sd, n_steps)
    dw2 = rng.normal(0.0, sd, n_steps)
    drive += 2.0 * math.sqrt(g1) * dw1
    drive += 2.0 * math.sqrt(g2) * dw2
    np.negative(drive, out=drive)
    x = _ar1(drive, 1.0 - damping * dt)
    # out_k = dWk / dt + 2 sqrt(g_k) x, built over dWk
    out1 = dw1
    out1 /= dt
    out1 += 2.0 * math.sqrt(g1) * x
    out2 = dw2
    out2 /= dt
    x *= 2.0 * math.sqrt(g2)
    out2 += x
    return out1, out2


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
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
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
    f, window, scale = _welch_setup(nperseg, fs)
    centers = np.array([int(np.argmin(np.abs(f - ft))) for ft in freqs])
    if np.any(centers - avg_bins < 1) or np.any(centers + avg_bins >= len(f)):
        raise ValueError("frequency too close to the simulation grid edge")
    sel = centers[:, None] + np.arange(-avg_bins, avg_bins + 1)[None, :]

    per_real = {k: [] for k in ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y")}
    for _ in range(n_realizations):
        for sector, damping in (("x", dx), ("y", dy)):
            out1, out2 = _sector(rng, n_steps + burn, dt, glin_pair, (g1, g2), damping)
            p1, p2, cs = _welch_pair(out1[burn:], out2[burn:], window, scale)
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
