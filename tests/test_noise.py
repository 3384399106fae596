import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpsh.cavity import CavityParams, cavity_linewidth, steady_state
from tpsh.noise import (
    QuadSpectra,
    WitnessReport,
    apply_detection_loss,
    default_frequency_grid,
    duan_sum,
    optimal_gain,
    quadrature_spectra,
    sumdiff_variance,
    witness_pair,
    witness_report,
)


def spectra_at(pump_w, freqs=None, enl=0.0059):
    p = CavityParams(pump_power=pump_w, conversion_efficiency=enl)
    ss = steady_state(p)
    if freqs is None:
        freqs = default_frequency_grid()
    return quadrature_spectra(ss, freqs)


def manual_spectra(s_x, c_x, s_y, c_y, n=1):
    f = np.full(n, 6e6)
    mk = lambda v: np.full(n, float(v))
    return QuadSpectra(f, mk(s_x), mk(s_x), mk(c_x), mk(s_y), mk(s_y), mk(c_y))


class TestQuadratureSpectra:
    def test_coherent_limit(self):
        spec = spectra_at(0.034, enl=0.0)
        assert np.allclose(spec.s_x1, 1.0, atol=1e-15)
        assert np.allclose(spec.s_y2, 1.0, atol=1e-15)
        assert np.allclose(spec.c_x, 0.0, atol=1e-15)
        assert np.allclose(spec.c_y, 0.0, atol=1e-15)

    def test_high_frequency_limit(self):
        p = CavityParams()
        lw = cavity_linewidth(p)
        spec = quadrature_spectra(steady_state(p), np.array([100.0 * lw]))
        for name in ("s_x1", "s_x2", "s_y1", "s_y2"):
            assert abs(float(getattr(spec, name)[0]) - 1.0) < 1e-3
        assert abs(float(spec.c_x[0])) < 1e-3
        assert abs(float(spec.c_y[0])) < 1e-3

    def test_beyond_ten_linewidths(self):
        # a Lorentzian keeps ~1% of its peak at ten half-widths, so the
        # residual correlation here is ~2e-3, not arbitrarily small
        p = CavityParams()
        lw = cavity_linewidth(p)
        spec = quadrature_spectra(steady_state(p), np.array([10.0 * lw]))
        assert abs(float(spec.s_x1[0]) - 1.0) < 1e-3
        assert abs(float(spec.c_x[0])) < 2e-3

    def test_paper_operating_point(self):
        # sum variance at 6 MHz lands on the measured -0.90 dB within +-0.4 dB
        spec = spectra_at(0.034, freqs=np.array([6e6]))
        _, var_sum = sumdiff_variance(spec, gain=1.0)
        db = 10.0 * math.log10(float(var_sum[0]))
        assert abs(db - (-0.90)) < 0.4

    def test_symmetric_ports(self):
        spec = spectra_at(0.034)
        assert spec.symmetric
        assert np.array_equal(spec.s_x1, spec.s_x2)

    def test_squeezing_sign_convention(self):
        # sum squeezed via c_x < 0, phase anti-squeezed with c_y > 0
        spec = spectra_at(0.034)
        assert np.all(spec.c_x < 0)
        assert np.all(spec.c_y > 0)
        assert np.all(spec.s_x1 < 1)
        assert np.all(spec.s_y1 > 1)

    def test_rejects_nonpositive_frequency(self):
        ss = steady_state(CavityParams())
        with pytest.raises(ValueError):
            quadrature_spectra(ss, np.array([0.0, 1e6]))
        with pytest.raises(ValueError, match="frequencies must be > 0"):
            quadrature_spectra(ss, np.array([math.nan, 1e6]))

    def test_uncertainty_product(self):
        for pump in (0.005, 0.023, 0.034, 0.2, 0.5):
            spec = spectra_at(pump)
            assert np.all(spec.s_x1 * spec.s_y1 >= 1.0 - 1e-12)
            assert np.all(spec.s_x2 * spec.s_y2 >= 1.0 - 1e-12)

    def test_cauchy_schwarz(self):
        for pump in (0.005, 0.034, 0.5):
            spec = spectra_at(pump)
            assert np.all(np.abs(spec.c_x) <= 2.0 * np.sqrt(spec.s_x1 * spec.s_x2) + 1e-12)
            assert np.all(np.abs(spec.c_y) <= 2.0 * np.sqrt(spec.s_y1 * spec.s_y2) + 1e-12)


class TestSumDiff:
    def test_shot_limit(self):
        spec = manual_spectra(1.0, 0.0, 1.0, 0.0)
        vd, vs = sumdiff_variance(spec, gain=1.0)
        assert vd[0] == pytest.approx(1.0, abs=1e-15)
        assert vs[0] == pytest.approx(1.0, abs=1e-15)

    def test_paper_arithmetic(self):
        # (0.93 + 0.93 - 0.234)/2 = 0.813 (-0.90 dB), difference 1.047
        spec = manual_spectra(0.93, -0.234, 1.08, 0.0)
        vd, vs = sumdiff_variance(spec, gain=1.0)
        assert vs[0] == pytest.approx(0.813, abs=1e-12)
        assert vd[0] == pytest.approx(1.047, abs=1e-12)
        assert 10.0 * math.log10(vs[0]) == pytest.approx(-0.8985, abs=1e-3)

    def test_sum_plus_diff_identity(self):
        spec = spectra_at(0.034)
        vd, vs = sumdiff_variance(spec, gain=1.0)
        assert np.allclose(vs + vd, 2.0 * spec.s_x1, atol=1e-14)

    def test_difference_at_shot_noise(self):
        # symmetric ports: difference photocurrent sits exactly at shot noise
        spec = spectra_at(0.034)
        vd, _ = sumdiff_variance(spec, gain=1.0)
        assert np.allclose(vd, 1.0, atol=1e-12)

    def test_gain_validation(self):
        spec = spectra_at(0.034)
        with pytest.raises(ValueError):
            sumdiff_variance(spec, gain=0.0)

    @given(st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_coherent_any_gain(self, g):
        spec = manual_spectra(1.0, 0.0, 1.0, 0.0)
        vd, vs = sumdiff_variance(spec, gain=g)
        assert vd[0] == pytest.approx(1.0, rel=1e-12)
        assert vs[0] == pytest.approx(1.0, rel=1e-12)


class TestOptimalGain:
    def test_symmetric_returns_one(self):
        spec = spectra_at(0.034)
        assert optimal_gain(spec, 6e6) == pytest.approx(1.0, abs=1e-12)

    def test_strong_correlation_example(self):
        spec = manual_spectra(1.0, -1.9, 1.0, 0.0)
        assert optimal_gain(spec, 6e6) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_asymmetric_degenerate(self):
        spec = QuadSpectra(
            np.array([6e6]),
            np.array([1.0]), np.array([4.0]), np.array([0.0]),
            np.array([1.0]), np.array([4.0]), np.array([0.0]),
        )
        with pytest.warns(UserWarning):
            assert optimal_gain(spec, 6e6) == 0.0

    def test_coherent_symmetric_returns_one(self):
        spec = manual_spectra(1.0, 0.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimal_gain(spec, 6e6) == 1.0

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.02, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_grid_search(self, s1, s2, cfrac):
        # numeric oracle: dense scan over g in (0, 10]
        c = -cfrac * 2.0 * math.sqrt(s1 * s2)
        spec = QuadSpectra(
            np.array([6e6]),
            np.array([s1]), np.array([s2]), np.array([c]),
            np.array([2.0]), np.array([2.0]), np.array([0.0]),
        )
        g_star = optimal_gain(spec, 6e6)
        assert g_star > 0.0

        def var_sum(g):
            return (s1 + g * g * s2 + g * c) / (1.0 + g * g)

        # the closed form may land beyond the scan range; it must still beat it
        grid = np.linspace(1e-3, 10.0, 20001)
        best = float(np.min((s1 + grid * grid * s2 + grid * c) / (1.0 + grid * grid)))
        assert var_sum(g_star) <= best + 1e-9

    def test_out_of_range_frequency(self):
        spec = spectra_at(0.034, freqs=np.array([5e6, 6e6]))
        with pytest.raises(ValueError):
            optimal_gain(spec, 50e6)


class TestWitness:
    def test_coherent_baseline(self):
        spec = manual_spectra(1.0, 0.0, 1.0, 0.0)
        vp, vm = witness_pair(spec)
        assert vp[0] == pytest.approx(2.0, abs=1e-15)
        assert vm[0] == pytest.approx(2.0, abs=1e-15)

    def test_paper_point_values(self):
        # 23 mW pump at 5 MHz: var_plus near 1.78, var_minus near 1.95
        spec = spectra_at(0.023, freqs=np.array([5e6]))
        spec = apply_detection_loss(spec, 0.96 * 0.95)
        vp, vm = witness_pair(spec)
        assert abs(float(vp[0]) - 1.78) < 0.15
        assert abs(float(vm[0]) - 1.95) < 0.15

    def test_var_plus_is_twice_var_sum(self):
        spec = spectra_at(0.034)
        vp, _ = witness_pair(spec)
        _, vs = sumdiff_variance(spec, gain=1.0)
        assert np.max(np.abs(vp - 2.0 * vs)) < 1e-12

    def test_var_minus_exactly_two(self):
        # phase anti-squeezing and positive c_y cancel exactly for equal ports
        spec = spectra_at(0.034)
        _, vm = witness_pair(spec)
        assert np.allclose(vm, 2.0, atol=1e-12)

    def test_asymmetric_rejected(self):
        spec = QuadSpectra(
            np.array([6e6]),
            np.array([0.9]), np.array([0.95]), np.array([-0.2]),
            np.array([1.1]), np.array([1.1]), np.array([0.2]),
        )
        with pytest.raises(ValueError):
            witness_pair(spec)

    def test_duan_paper_numbers(self):
        total, v, db = duan_sum(1.78, 1.95)
        assert total == pytest.approx(3.73, abs=1e-12)
        assert v == pytest.approx(0.9325, abs=1e-12)
        assert db == pytest.approx(10.0 * math.log10(0.9325), abs=1e-12)
        assert abs(db - (-0.30)) < 0.01

    def test_duan_boundary_and_projection(self):
        total, v, _ = duan_sum(2.0, 2.0)
        assert total == 4.0 and v == 1.0
        total, _, _ = duan_sum(1.2, 1.2)
        assert total == pytest.approx(2.4, abs=1e-12)
        assert total < 4.0

    def test_duan_rejects_negative(self):
        with pytest.raises(ValueError):
            duan_sum(-0.1, 2.0)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_identity_4v(self, vp, vm):
        total, v, _ = duan_sum(vp, vm)
        assert abs(4.0 * v - (vp + vm)) < 1e-12
        assert abs(total - (vp + vm)) < 1e-12

    def test_report_fields(self):
        spec = spectra_at(0.023, freqs=np.array([4.9e6, 5e6, 5.1e6]))
        rep = witness_report(spec, 5e6)
        assert rep.freq == pytest.approx(5e6)
        assert rep.duan_sum == pytest.approx(rep.var_sum + rep.var_diff, abs=1e-12)
        assert rep.v == pytest.approx(rep.duan_sum / 4.0, abs=1e-12)
        assert rep.intensity_sum_db == pytest.approx(
            10.0 * math.log10(rep.var_sum / 2.0), abs=1e-12
        )
        assert rep.entangled == (rep.duan_sum < 4.0)
        assert rep.optimal_gain == pytest.approx(1.0, abs=1e-12)
        assert rep.uncertainty == {}

    def test_report_is_frozen_and_derives_from_its_variances(self):
        rep = witness_report(spectra_at(0.023, freqs=np.array([5e6])), 5e6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.var_sum = 1.0
        moved = dataclasses.replace(rep, var_sum=1.5)
        assert moved.duan_sum == 1.5 + rep.var_diff
        assert moved.v == moved.duan_sum / 4.0
        assert moved.entangled

    def test_report_uncertainty_from_sigma(self):
        rep = WitnessReport(5e6, 1.78, 1.95, 1.0, sigma=(0.01, 0.02, 0.03))
        assert rep.uncertainty == pytest.approx({
            "var_sum": 0.01, "var_diff": 0.02, "duan_sum": 0.03, "v": 0.0075,
            "db": 10.0 / math.log(10.0) * 0.03 / 3.73,
        }, rel=1e-12)
        assert [k for k in rep.as_dict() if k.startswith("sigma_")] == [
            "sigma_db", "sigma_duan_sum", "sigma_v", "sigma_var_diff", "sigma_var_sum"]

    @pytest.mark.parametrize("bad", (-0.1, math.nan))
    def test_report_refuses_bad_variance(self, bad):
        with pytest.raises(ValueError, match="witness variances"):
            WitnessReport(5e6, bad, 2.0, 1.0)
        with pytest.raises(ValueError, match="witness variances"):
            WitnessReport(5e6, 2.0, bad, 1.0)
        with pytest.raises(ValueError, match="witness variances"):
            duan_sum(np.array([2.0, bad]), 2.0)

    def test_entanglement_at_operating_point(self):
        spec = spectra_at(0.023, freqs=np.array([5e6]))
        rep = witness_report(apply_detection_loss(spec, 0.912), 5e6)
        assert rep.entangled
        assert rep.duan_sum < 4.0
        # entanglement here is carried by negative c_x
        assert float(spec.c_x[0]) < 0.0


class TestDetectionLoss:
    def test_identity_at_unit_efficiency(self):
        spec = spectra_at(0.034)
        lossy = apply_detection_loss(spec, 1.0)
        assert np.array_equal(lossy.s_x1, spec.s_x1)
        assert np.array_equal(lossy.c_y, spec.c_y)

    def test_linear_map_examples(self):
        spec = manual_spectra(3.0, -0.4, 3.0, 0.0)
        lossy = apply_detection_loss(spec, 0.5)
        assert lossy.s_x1[0] == pytest.approx(2.0, abs=1e-15)
        assert lossy.c_x[0] == pytest.approx(-0.2, abs=1e-15)

    def test_full_loss_gives_vacuum(self):
        spec = spectra_at(0.034)
        lossy = apply_detection_loss(spec, 1e-9)
        assert np.allclose(lossy.s_x1, 1.0, atol=1e-8)
        assert np.allclose(lossy.c_x, 0.0, atol=1e-8)

    def test_invalid_efficiency(self):
        spec = spectra_at(0.034)
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                apply_detection_loss(spec, eta)

    def test_preserves_invariants(self):
        for eta in (0.3, 0.7, 0.912):
            spec = apply_detection_loss(spectra_at(0.5), eta)
            assert np.all(spec.s_x1 * spec.s_y1 >= 1.0 - 1e-12)
            assert np.all(np.abs(spec.c_x) <= 2.0 * np.sqrt(spec.s_x1 * spec.s_x2) + 1e-12)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_loss_never_creates_entanglement(self, eta, a, b):
        # duan' = 4 + eta*(duan - 4): separable stays separable
        vp = 2.0 + a
        vm = 2.0 + b
        before, _, _ = duan_sum(vp, vm)
        after, _, _ = duan_sum(eta * vp + 2.0 * (1.0 - eta), eta * vm + 2.0 * (1.0 - eta))
        assert before >= 4.0
        assert after >= 4.0 - 1e-12
        assert after == pytest.approx(4.0 + eta * (before - 4.0), abs=1e-12)
