"""Linearized quantum noise spectra of the two harmonic outputs.

The intracavity fundamental is linearized around a real mean field.  Each
output port contributes a conversion noise channel at rate gamma_nl,k; the
input coupler and linear loss contribute vacuum at gamma_in and gamma_l.
Amplitude (X) and phase (Y) quadratures decouple.  The amplitude damping is
enhanced threefold by the nonlinearity relative to phase, which is what
separates the sum and difference correlation linewidths.

All spectra are single-sided and normalized so a coherent beam has S = 1.
Cross spectra C are symmetrized (C = 2 Re <X1 X2*>), so the normalized
variance of (i1 + g i2) reads (s1 + g^2 s2 + g c) / (1 + g^2).

Coefficient provenance: the linear-combination coefficients linking each
output quadrature to the shared intracavity fluctuation are fixed by
photon-flux conservation and the coherent limit, then validated against a
Monte-Carlo integration of the same stochastic model and against measured
calibration points.  They are calibrated within that family, not derived
from a microscopic Hamiltonian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cavity import SteadyState

# Hz: the model grid's span, which synthesized spectra must cover
ANALYSIS_BAND = (0.5e6, 20e6)


@dataclass
class QuadSpectra:
    """Shot-noise-normalized quadrature spectra of the two output beams.

    frequencies  Hz (analysis frequency, not angular)
    s_x1, s_x2   amplitude-quadrature spectra per port, shot noise = 1
    s_y1, s_y2   phase-quadrature spectra per port
    c_x, c_y     symmetrized cross spectra, 2 Re <A1 A2*>
    """

    frequencies: np.ndarray
    s_x1: np.ndarray
    s_x2: np.ndarray
    c_x: np.ndarray
    s_y1: np.ndarray
    s_y2: np.ndarray
    c_y: np.ndarray

    def __post_init__(self):
        n = len(self.frequencies)
        for name in ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError("%s must have the same length as frequencies" % name)
            setattr(self, name, arr)
        self.frequencies = np.asarray(self.frequencies, dtype=float)

    @property
    def symmetric(self) -> bool:
        return bool(
            np.all(np.abs(self.s_x1 - self.s_x2) <= 1e-9)
            and np.all(np.abs(self.s_y1 - self.s_y2) <= 1e-9)
        )


@dataclass(frozen=True)
class WitnessReport:
    """Inseparability witness numbers at one analysis frequency.

    Stores only independent values: freq (Hz), the witness variances
    var_sum = (Delta|i+|)^2 and var_diff = (Delta|i-|)^2 (coherent baseline
    2), the gain they were taken at, and sigma, the one-sigma errors of
    (var_sum, var_diff, duan_sum) or None for a model report.  The rest is
    derived on access, so it never goes stale: duan_sum (baseline 4), v and
    db come from duan_sum(); intensity_sum_db and intensity_diff_db are the
    variances over the single-pair shot level in dB; uncertainty maps
    var_sum, var_diff, duan_sum, v and db to their sigmas, empty for a model
    report.  Negative or NaN variances are refused; vary a report with
    dataclasses.replace.
    """

    freq: float
    var_sum: float
    var_diff: float
    optimal_gain: float
    sigma: tuple | None = None

    def __post_init__(self):
        duan_sum(self.var_sum, self.var_diff)

    @property
    def duan_sum(self) -> float:
        return duan_sum(self.var_sum, self.var_diff)[0]

    @property
    def v(self) -> float:
        return duan_sum(self.var_sum, self.var_diff)[1]

    @property
    def db(self) -> float:
        return duan_sum(self.var_sum, self.var_diff)[2]

    @property
    def intensity_sum_db(self) -> float:
        return _db(self.var_sum / 2.0)

    @property
    def intensity_diff_db(self) -> float:
        return _db(self.var_diff / 2.0)

    @property
    def entangled(self) -> bool:
        return bool(self.duan_sum < 4.0)

    @property
    def uncertainty(self) -> dict:
        if self.sigma is None:
            return {}
        var_sum, var_diff, total = self.sigma
        return {"var_sum": var_sum, "var_diff": var_diff, "duan_sum": total, "v": total / 4.0,
                "db": 10.0 / math.log(10.0) * total / self.duan_sum}

    def as_dict(self) -> dict:
        out = {"freq_hz": self.freq}
        for key in ("var_sum", "var_diff", "duan_sum", "v", "db", "intensity_sum_db",
                    "intensity_diff_db", "optimal_gain", "entangled"):
            out[key] = getattr(self, key)
        for key, val in sorted(self.uncertainty.items()):
            out["sigma_" + key] = val
        return out


def default_frequency_grid(n: int = 256) -> np.ndarray:
    """n log-spaced analysis frequencies in Hz spanning ANALYSIS_BAND."""
    return np.logspace(*(math.log10(f) for f in ANALYSIS_BAND), n)


def quadrature_spectra(ss: SteadyState, frequencies) -> QuadSpectra:
    """Closed-form output spectra at the given analysis frequencies (Hz).

    With gamma_k the per-port conversion rate, gamma_nl their sum and
    gamma_lin the linear (coupler + loss) rate, the amplitude sector decays
    at D_x = gamma_lin + 3 gamma_nl and the phase sector at
    D_y = gamma_lin + gamma_nl:

        S_X,k = 1 - 8 gamma_k gamma_nl / (D_x^2 + w^2)
        C_X   = -16 sqrt(gamma_1 gamma_2) gamma_nl / (D_x^2 + w^2)
        S_Y,k = 1 + 8 gamma_k gamma_nl / (D_y^2 + w^2)
        C_Y   = +16 sqrt(gamma_1 gamma_2) gamma_nl / (D_y^2 + w^2)

    The sum photocurrent is squeezed below shot noise while the difference
    stays exactly at shot noise for equal ports.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if not np.all(freqs > 0):
        raise ValueError("frequencies must be > 0")
    w = 2.0 * math.pi * freqs

    g1 = ss.rate_nl_port1
    g2 = ss.rate_nl_port2
    if not (g1 >= 0 and g2 >= 0):
        raise ValueError("nonlinear rates must be >= 0")
    gnl = g1 + g2
    glin = ss.rate_input + ss.rate_loss

    dx2 = (glin + 3.0 * gnl) ** 2 + w * w
    dy2 = (glin + gnl) ** 2 + w * w
    root = math.sqrt(g1 * g2)

    return QuadSpectra(
        frequencies=freqs,
        s_x1=1.0 - 8.0 * g1 * gnl / dx2,
        s_x2=1.0 - 8.0 * g2 * gnl / dx2,
        c_x=-16.0 * root * gnl / dx2,
        s_y1=1.0 + 8.0 * g1 * gnl / dy2,
        s_y2=1.0 + 8.0 * g2 * gnl / dy2,
        c_y=16.0 * root * gnl / dy2,
    )


def apply_detection_loss(spec: QuadSpectra, efficiency: float) -> QuadSpectra:
    """Beamsplitter loss model: S' = eta S + (1 - eta), C' = eta C.

    efficiency is the total detection efficiency (quantum efficiency times
    path transmission), 0 < eta <= 1, applied equally to both beams.
    """
    if not 0 < efficiency <= 1:
        raise ValueError("efficiency must lie in (0, 1]")
    eta = float(efficiency)
    vac = 1.0 - eta
    return replace(
        spec,
        s_x1=eta * spec.s_x1 + vac,
        s_x2=eta * spec.s_x2 + vac,
        c_x=eta * spec.c_x,
        s_y1=eta * spec.s_y1 + vac,
        s_y2=eta * spec.s_y2 + vac,
        c_y=eta * spec.c_y,
    )


def sumdiff_variance(spec: QuadSpectra, gain: float = 1.0):
    """Normalized variances of the difference and sum photocurrents.

    Returns (var_diff, var_sum) arrays for i1 -/+ gain*i2, each normalized
    to the shot level of the same combination, so a coherent input gives 1:

        var = (s_x1 + g^2 s_x2 -/+ g c_x) / (1 + g^2)

    At the operating point c_x < 0, so the sum is the suppressed one.
    """
    if gain <= 0:
        raise ValueError("gain must be > 0")
    g = float(gain)
    norm = 1.0 + g * g
    base = spec.s_x1 + g * g * spec.s_x2
    var_diff = (base - g * spec.c_x) / norm
    var_sum = (base + g * spec.c_x) / norm
    return var_diff, var_sum


def optimal_gain(spec: QuadSpectra, freq: float) -> float:
    """Gain minimizing the normalized sum variance at one frequency (Hz).

    Minimizes (s1 + g^2 s2 + g c) / (1 + g^2); the stationary condition is
    c g^2 - 2 (s2 - s1) g - c = 0 and the minimizing root is

        g* = ((s2 - s1) - sqrt((s2 - s1)^2 + c^2)) / c

    which is 1 for symmetric spectra with c < 0.  For c = 0 the optimum sits
    on the boundary (all weight on the quieter channel); that degenerate
    case returns 0 with a warning.
    """
    idx = int(np.argmin(np.abs(spec.frequencies - freq)))
    if abs(spec.frequencies[idx] - freq) > max(1.0, 0.05 * freq):
        raise ValueError("frequency %g Hz not covered by the spectra grid" % freq)
    s1 = float(spec.s_x1[idx])
    s2 = float(spec.s_x2[idx])
    c = float(spec.c_x[idx])
    if c == 0.0:
        if abs(s2 - s1) <= 1e-12:
            return 1.0
        warnings.warn("uncorrelated asymmetric channels: optimal gain is degenerate, returning 0")
        return 0.0
    return minimizing_gain(s1, s2, c)


def minimizing_gain(s1: float, s2: float, c: float) -> float:
    """The optimal_gain root g* for c != 0; callers handle c = 0 and range."""
    d = s2 - s1
    return (d - math.sqrt(d * d + c * c)) / c


def witness_pair(spec: QuadSpectra):
    """Witness variances (var_plus, var_minus) arrays, coherent baseline 2.

    var_plus follows the summed amplitude quadratures, 2 S_X + C_X;
    var_minus follows the phase difference, 2 S_Y - C_Y.  Valid only for
    symmetric ports (the beamsplitter relations assume identical beams).
    """
    if not spec.symmetric:
        raise ValueError("witness_pair requires symmetric per-port spectra")
    var_plus = spec.s_x1 + spec.s_x2 + spec.c_x
    var_minus = spec.s_y1 + spec.s_y2 - spec.c_y
    return var_plus, var_minus


def _db(ratio: float) -> float:
    """10 log10(ratio) of a scalar ratio >= 0, -inf at 0."""
    return 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def duan_sum(var_plus, var_minus):
    """Inseparability sum: returns (duan_sum, v, db).

    duan_sum = var_plus + var_minus with separability bound 4; v is the
    same number normalized to 1; db = 10 log10(duan_sum / 4).  The beams
    are inseparable when duan_sum < 4.  Scalars give floats, with db from
    math.log10; arrays give arrays, with db from np.log10.  Negative or NaN
    variances raise ValueError.
    """
    vp = np.asarray(var_plus, dtype=float)
    vm = np.asarray(var_minus, dtype=float)
    if not (np.all(vp >= 0) and np.all(vm >= 0)):
        raise ValueError("witness variances must be >= 0")
    total = vp + vm
    v = total / 4.0
    if total.ndim == 0:
        return float(total), float(v), _db(float(v))
    with np.errstate(divide="ignore"):
        return total, v, 10.0 * np.log10(v)


def witness_report(spec: QuadSpectra, freq: float) -> WitnessReport:
    """Model-derived WitnessReport at one analysis frequency (Hz)."""
    idx = int(np.argmin(np.abs(spec.frequencies - freq)))
    vp, vm = witness_pair(spec)
    return WitnessReport(float(spec.frequencies[idx]), float(vp[idx]), float(vm[idx]),
                         optimal_gain(spec, freq))
