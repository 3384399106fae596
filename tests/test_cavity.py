import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tpsh.cavity import (
    CavityParams,
    cavity_linewidth,
    finesse_from_losses,
    free_spectral_range,
    phase_match_efficiency,
    reflected_power,
    roundtrip_loss_from_finesse,
    steady_state,
    temperature_to_mismatch,
)


def default_params(**overrides):
    return CavityParams(**overrides)


class TestGeometry:
    def test_free_spectral_range_default(self):
        # oracle: c / (2 * (0.0156 - 0.010 + 2.28 * 0.010)) = 5.27804 GHz
        fsr = free_spectral_range(default_params())
        assert fsr == pytest.approx(5.27804e9, rel=1e-5)

    def test_linewidth_default(self):
        # oracle: FSR * (T + L) / (2 pi) = 42.84 MHz at T=0.04, L=0.011
        lw = cavity_linewidth(default_params())
        assert lw == pytest.approx(42.84e6, rel=1e-3)

    def test_linewidth_equals_fsr_over_finesse(self):
        p = default_params()
        fin = finesse_from_losses(p.input_transmission, p.roundtrip_loss)
        assert cavity_linewidth(p) == pytest.approx(free_spectral_range(p) / fin, rel=1e-12)


class TestFinesse:
    def test_loss_from_finesse_example(self):
        # 2 pi / 120 - 0.04 = 0.0123599...
        loss = roundtrip_loss_from_finesse(120.0, 0.04)
        assert loss == pytest.approx(2.0 * math.pi / 120.0 - 0.04, rel=1e-12)
        assert loss == pytest.approx(0.012360, abs=5e-7)

    def test_roundtrip_finesse_loss(self):
        fin = finesse_from_losses(0.04, 0.011)
        assert roundtrip_loss_from_finesse(fin, 0.04) == pytest.approx(0.011, rel=1e-12)

    def test_loss_from_finesse_too_high(self):
        with pytest.raises(ValueError):
            roundtrip_loss_from_finesse(200.0, 0.04)

    def test_loss_from_finesse_nonpositive(self):
        with pytest.raises(ValueError):
            roundtrip_loss_from_finesse(0.0, 0.04)


class TestPhaseMatching:
    def test_perfect_matching(self):
        assert phase_match_efficiency(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_pi_mismatch(self):
        assert phase_match_efficiency(math.pi) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-12)

    def test_first_zero(self):
        assert phase_match_efficiency(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_bounded_and_even(self, m):
        v = float(phase_match_efficiency(m))
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(float(phase_match_efficiency(-m)), rel=1e-12, abs=1e-15)

    def test_temperature_map(self):
        assert temperature_to_mismatch(0.25) == pytest.approx(math.pi, rel=1e-12)
        assert temperature_to_mismatch(0.0) == 0.0
        assert temperature_to_mismatch(-0.5) == pytest.approx(-2.0 * math.pi, rel=1e-12)

    def test_array_input(self):
        m = np.array([0.0, math.pi, 2.0 * math.pi])
        v = phase_match_efficiency(m)
        assert v.shape == (3,)
        assert v[0] == pytest.approx(1.0)
        assert v[2] == pytest.approx(0.0, abs=1e-15)


def _oracle_circulating(p_in, t, ell, e_eff):
    """Independent bisection on the buildup relation, for cross-checking."""

    def f(pc):
        return pc * ((t + ell + 2.0 * e_eff * pc) / 2.0) ** 2 - t * p_in

    lo, hi = 0.0, 4.0 * t * p_in / (t + ell) ** 2 + 1.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSteadyState:
    def test_oracle_default_pump(self):
        # frozen oracle at the default operating point (34 mW pump)
        ss = steady_state(default_params())
        assert ss.circulating_power == pytest.approx(1.25582, rel=1e-4)
        assert ss.harmonic_power_port1 == pytest.approx(9.305e-3, rel=1e-3)
        assert ss.harmonic_power_port2 == ss.harmonic_power_port1

    def test_matches_independent_bisection(self):
        for p_in in (1e-3, 0.01, 0.034, 0.1, 0.5, 2.0):
            p = default_params(pump_power=p_in)
            ss = steady_state(p)
            ref = _oracle_circulating(p_in, p.input_transmission, p.roundtrip_loss, p.effective_conversion)
            assert ss.circulating_power == pytest.approx(ref, rel=1e-8)

    def test_zero_conversion_closed_form(self):
        p = default_params(conversion_efficiency=0.0)
        ss = steady_state(p)
        expect = 4.0 * p.input_transmission * p.pump_power / (p.input_transmission + p.roundtrip_loss) ** 2
        assert ss.circulating_power == pytest.approx(expect, rel=1e-12)
        assert ss.harmonic_power_port1 == 0.0

    def test_zero_pump(self):
        ss = steady_state(default_params(pump_power=0.0))
        assert ss.circulating_power == 0.0
        assert ss.harmonic_power_port1 == 0.0

    def test_monotone_in_pump(self):
        pumps = np.linspace(1e-4, 1.0, 50)
        pcs = [steady_state(default_params(pump_power=float(x))).circulating_power for x in pumps]
        harms = [
            steady_state(default_params(pump_power=float(x))).harmonic_power_port1 for x in pumps
        ]
        assert all(b > a for a, b in zip(pcs, pcs[1:]))
        assert all(b > a for a, b in zip(harms, harms[1:]))

    def test_energy_balance(self):
        for p_in in (0.005, 0.034, 0.2, 1.0):
            p = default_params(pump_power=p_in)
            ss = steady_state(p)
            refl = reflected_power(p, ss)
            total = (
                refl
                + ss.circulating_power * p.roundtrip_loss
                + ss.harmonic_power_port1
                + ss.harmonic_power_port2
            )
            assert total == pytest.approx(p_in, rel=1e-9)

    def test_mismatch_reduces_conversion(self):
        ss0 = steady_state(default_params())
        ss1 = steady_state(default_params(mismatch=math.pi))
        assert ss1.harmonic_power_port1 < ss0.harmonic_power_port1
        assert ss1.circulating_power > ss0.circulating_power

    def test_rates_scale(self):
        p = default_params()
        ss = steady_state(p)
        fsr = free_spectral_range(p)
        assert ss.rate_input == pytest.approx(p.input_transmission * fsr / 2.0, rel=1e-12)
        assert ss.rate_loss == pytest.approx(p.roundtrip_loss * fsr / 2.0, rel=1e-12)
        expect_nl = p.effective_conversion * ss.circulating_power * fsr / 2.0
        assert ss.rate_nl_port1 == pytest.approx(expect_nl, rel=1e-12)
        assert ss.rate_nl_port1 == ss.rate_nl_port2

    @given(st.floats(min_value=1e-6, max_value=5.0))
    def test_residual_small_everywhere(self, p_in):
        p = default_params(pump_power=p_in)
        ss = steady_state(p)
        t, ell, e = p.input_transmission, p.roundtrip_loss, p.effective_conversion
        pc = ss.circulating_power
        resid = pc * ((t + ell + 2.0 * e * pc) / 2.0) ** 2 - t * p_in
        assert abs(resid) <= 1e-9 * t * p_in


class TestValidation:
    def test_bad_transmission(self):
        with pytest.raises(ValueError):
            default_params(input_transmission=0.0)
        with pytest.raises(ValueError):
            default_params(input_transmission=1.5)

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            default_params(roundtrip_loss=-0.01)

    def test_negative_pump(self):
        with pytest.raises(ValueError):
            default_params(pump_power=-1.0)

    def test_crystal_longer_than_cavity(self):
        with pytest.raises(ValueError):
            default_params(crystal_length=0.02)

    def test_wavelength_mismatch(self):
        with pytest.raises(ValueError):
            default_params(harmonic_wavelength=430e-9)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            default_params(detector_efficiency=0.0)
        with pytest.raises(ValueError):
            default_params(path_efficiency=1.2)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CavityParams)])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            default_params(**{name: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CavityParams)])
    def test_infinite_rejected(self, name, value):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            default_params(**{name: value})

    def test_infinite_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch must be finite"):
            default_params(mismatch=math.inf)
