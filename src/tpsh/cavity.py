"""Mean-field model of a frequency-doubling cavity with two harmonic output ports.

The fundamental field is resonant; harmonic light leaves in a single pass
through each of the two ports (one per propagation direction through the
crystal).  Cavity quantities are dimensionless fractions per roundtrip,
decay rates are angular rates in rad/s, powers are in watts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Temperature offset that shifts the phase mismatch by pi, in kelvin.
MISMATCH_PI_TEMPERATURE = 0.25


def refuse_infinite(params) -> None:
    """Raise ValueError("<field> must be finite") for the first infinite
    number among the fields of dataclass instance params."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and math.isinf(value):
            raise ValueError("%s must be finite" % f.name)


@dataclass
class CavityParams:
    """Static cavity and detection-path parameters.

    pump_power              W, incident on the input coupler
    input_transmission      power fraction per roundtrip (input coupler)
    roundtrip_loss          residual linear power loss per roundtrip
    conversion_efficiency   1/W, single-pass harmonic conversion, per port
    mismatch                phase-mismatch parameter Delta-k * L (rad)
    mirror_separation       m, physical mirror spacing
    crystal_length          m
    crystal_index           refractive index of the crystal
    fundamental_wavelength  m
    harmonic_wavelength     m, must equal fundamental / 2
    detector_efficiency     quantum efficiency of the photodiodes
    path_efficiency         transmission of the optical path to the detectors
    """

    pump_power: float = 0.034
    input_transmission: float = 0.04
    roundtrip_loss: float = 0.011
    conversion_efficiency: float = 0.0059
    mismatch: float = 0.0
    mirror_separation: float = 0.0156
    crystal_length: float = 0.010
    crystal_index: float = 2.28
    fundamental_wavelength: float = 857e-9
    harmonic_wavelength: float = 428.5e-9
    detector_efficiency: float = 0.96
    path_efficiency: float = 0.95

    def __post_init__(self):
        # every parameter is a finite physical quantity; NaN fails the checks below
        refuse_infinite(self)
        if not self.pump_power >= 0:
            raise ValueError("pump_power must be >= 0")
        if not 0 < self.input_transmission < 1:
            raise ValueError("input_transmission must lie in (0, 1)")
        if not 0 <= self.roundtrip_loss < 1:
            raise ValueError("roundtrip_loss must lie in [0, 1)")
        if not self.conversion_efficiency >= 0:
            raise ValueError("conversion_efficiency must be >= 0")
        if not math.isfinite(self.mismatch):
            raise ValueError("mismatch must be finite")
        if not self.mirror_separation > 0:
            raise ValueError("mirror_separation must be > 0")
        if not self.crystal_length >= 0:
            raise ValueError("crystal_length must be >= 0")
        if self.crystal_length >= self.mirror_separation:
            raise ValueError("crystal_length must be smaller than mirror_separation")
        if not self.crystal_index >= 1:
            raise ValueError("crystal_index must be >= 1")
        if not self.fundamental_wavelength > 0:
            raise ValueError("fundamental_wavelength must be > 0")
        rel = abs(self.harmonic_wavelength - self.fundamental_wavelength / 2.0)
        if not rel <= 1e-6 * self.fundamental_wavelength / 2.0:
            raise ValueError("harmonic_wavelength must equal fundamental_wavelength / 2")
        if not 0 < self.detector_efficiency <= 1:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0 < self.path_efficiency <= 1:
            raise ValueError("path_efficiency must lie in (0, 1]")

    @property
    def total_detection_efficiency(self) -> float:
        """Combined detector quantum efficiency and optical path transmission."""
        return self.detector_efficiency * self.path_efficiency

    @property
    def effective_conversion(self) -> float:
        """Single-pass conversion efficiency reduced by the phase-matching factor, 1/W."""
        return self.conversion_efficiency * phase_match_efficiency(self.mismatch)


@dataclass
class SteadyState:
    """Operating point of the cavity at a fixed pump power.

    Decay rates are amplitude rates in rad/s (fraction-per-roundtrip * FSR / 2);
    linewidth_fwhm is the low-power cold-cavity linewidth in Hz.
    """

    circulating_power: float
    harmonic_power_port1: float
    harmonic_power_port2: float
    rate_input: float
    rate_loss: float
    rate_nl_port1: float
    rate_nl_port2: float
    linewidth_fwhm: float


def phase_match_efficiency(mismatch):
    """Conversion reduction factor sinc^2(mismatch / 2).

    Equals 1 at perfect matching, (2/pi)^2 at mismatch = pi, and 0 at 2*pi.
    Accepts scalars or arrays.
    """
    # np.sinc(x) = sin(pi x)/(pi x), so sinc(m/2pi) = sin(m/2)/(m/2)
    return np.sinc(np.asarray(mismatch) / (2.0 * np.pi)) ** 2


def temperature_to_mismatch(delta_t):
    """Map crystal temperature offset (K) to the phase-mismatch parameter (rad)."""
    return math.pi * delta_t / MISMATCH_PI_TEMPERATURE


def roundtrip_loss_from_finesse(finesse: float, input_transmission: float) -> float:
    """Residual roundtrip loss implied by a measured finesse and known coupler.

    Uses finesse = 2*pi / (T + L).  Raises if the finesse is too high to be
    consistent with the coupler transmission alone.
    """
    if finesse <= 0:
        raise ValueError("finesse must be > 0")
    total = 2.0 * math.pi / finesse
    if total <= input_transmission:
        raise ValueError(
            "finesse %.6g implies total loss %.6g <= input_transmission %.6g"
            % (finesse, total, input_transmission)
        )
    return total - input_transmission


def finesse_from_losses(input_transmission: float, roundtrip_loss: float) -> float:
    """Low-power finesse 2*pi / (T + L)."""
    total = input_transmission + roundtrip_loss
    if total <= 0:
        raise ValueError("total loss must be > 0")
    return 2.0 * math.pi / total


def free_spectral_range(params: CavityParams) -> float:
    """FSR in Hz for the standing-wave cavity with the crystal inside."""
    path = (
        params.mirror_separation
        - params.crystal_length
        + params.crystal_index * params.crystal_length
    )
    return SPEED_OF_LIGHT / (2.0 * path)


def cavity_linewidth(params: CavityParams) -> float:
    """Low-power cavity linewidth (FWHM) in Hz: FSR / finesse."""
    finesse = finesse_from_losses(params.input_transmission, params.roundtrip_loss)
    return free_spectral_range(params) / finesse


def _buildup_residual(pc, t, ell_lin, e_eff, p_in):
    return pc * ((t + ell_lin + 2.0 * e_eff * pc) / 2.0) ** 2 - t * p_in


def steady_state(params: CavityParams) -> SteadyState:
    """Solve the mean-field operating point for the given pump power.

    The circulating power satisfies

        P_c * ((T + L + 2*E_eff*P_c) / 2)^2 = T * P_pump

    with E_eff the phase-matched single-pass conversion efficiency; each
    port emits E_eff * P_c^2 of harmonic light.  Solved by damped
    fixed-point iteration (relative tolerance 1e-12) with a bisection
    fallback on [0, 4*T*P_pump/(T+L)^2].
    """
    t = params.input_transmission
    ell = params.roundtrip_loss
    e_eff = params.effective_conversion
    p_in = params.pump_power
    fsr = free_spectral_range(params)

    lin_buildup = 4.0 * t * p_in / (t + ell) ** 2
    if p_in == 0.0 or e_eff == 0.0:
        pc = lin_buildup
    else:
        pc = lin_buildup
        converged = False
        for _ in range(1000):
            nxt = 0.5 * pc + 0.5 * 4.0 * t * p_in / (t + ell + 2.0 * e_eff * pc) ** 2
            if abs(nxt - pc) <= 1e-13 * max(nxt, 1e-300):
                pc = nxt
                converged = True
                break
            pc = nxt
        if not converged or abs(_buildup_residual(pc, t, ell, e_eff, p_in)) > 1e-12 * t * p_in:
            lo, hi = 0.0, lin_buildup
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if _buildup_residual(mid, t, ell, e_eff, p_in) > 0.0:
                    hi = mid
                else:
                    lo = mid
            pc = 0.5 * (lo + hi)
            resid = abs(_buildup_residual(pc, t, ell, e_eff, p_in))
            if resid > 1e-9 * t * p_in:
                raise RuntimeError(
                    "steady-state solver did not converge: residual %.3e W" % resid
                )

    p_port = e_eff * pc * pc
    return SteadyState(
        circulating_power=pc,
        harmonic_power_port1=p_port,
        harmonic_power_port2=p_port,
        rate_input=t * fsr / 2.0,
        rate_loss=ell * fsr / 2.0,
        rate_nl_port1=e_eff * pc * fsr / 2.0,
        rate_nl_port2=e_eff * pc * fsr / 2.0,
        linewidth_fwhm=fsr * (t + ell) / (2.0 * math.pi),
    )


def reflected_power(params: CavityParams, ss: SteadyState) -> float:
    """Pump power reflected off the input coupler at the operating point.

    Defined by the mean-field input-coupler relation; together with the
    linear dissipation P_c*L and the two harmonic outputs it accounts for
    the full incident power.
    """
    t = params.input_transmission
    ell = params.roundtrip_loss + 2.0 * params.effective_conversion * ss.circulating_power
    if t + ell == 0:
        return params.pump_power
    return params.pump_power * ((t - ell) / (t + ell)) ** 2
