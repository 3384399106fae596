"""End-to-end acceptance checks, one test per numbered criterion.

Each test asserts its criterion at the stated tolerance and then records a
PASS line with the measured figures; the lines are echoed in the terminal
summary so a full run reads as one verdict per criterion.  Everything runs
on fixed seeds, so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from tpsh.analyzer import (
    analytic_dark_matrix,
    analytic_qnl_matrix,
    correct_electronic_noise,
    cross_spectral_matrix,
    welch_psd,
    witness_from_traces,
)
from tpsh.cavity import (
    CavityParams,
    phase_match_efficiency,
    roundtrip_loss_from_finesse,
    steady_state,
)
from tpsh.langevin_mc import mc_spectra
from tpsh.noise import (
    QuadSpectra,
    apply_detection_loss,
    default_frequency_grid,
    duan_sum,
    quadrature_spectra,
    sumdiff_variance,
    witness_pair,
    witness_report,
)
from tpsh.synth import DetectionChain, dark_trace, shot_noise_pair, synthesize, witness_arm_traces

CRITERION_LINES = []

RBW = 100e3


def _record(line):
    CRITERION_LINES.append(line)
    print(line)


def lossy_spectra(params, frequencies):
    spec = quadrature_spectra(steady_state(params), frequencies)
    return apply_detection_loss(spec, params.total_detection_efficiency)


@pytest.fixture(scope="module")
def chain():
    # sample rate is a free chain parameter; 50 MS/s keeps the Nyquist span
    # comfortably above the 4-8 MHz analysis band at a quarter the samples
    return DetectionChain(sample_rate=50e6)


def test_criterion_1_coherent_baseline(chain):
    t0 = time.perf_counter()
    params = CavityParams(conversion_efficiency=0.0)
    spec = lossy_spectra(params, default_frequency_grid())
    worst = 0.0
    for seed in range(100, 120):
        ab = witness_arm_traces(spec, chain, 0.080, seed)
        rep = witness_from_traces(ab, None, RBW, (4e6, 8e6))
        worst = max(worst, abs(rep.intensity_sum_db), abs(rep.intensity_diff_db))
        assert abs(rep.intensity_sum_db) < 0.05
        assert abs(rep.intensity_diff_db) < 0.05
        assert abs(10.0 * math.log10(rep.var_sum / 2.0)) < 0.05
        assert abs(10.0 * math.log10(rep.var_diff / 2.0)) < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _record("PASS criterion 1: coherent pipeline at the 1.00/2.00 baselines, "
            "worst offset %.3f dB over 20 seeds (limit 0.05), %.1f s" % (worst, elapsed))


def test_criterion_2_intensity_correlations(chain):
    params = CavityParams()
    eta = params.total_detection_efficiency

    # model values at the 6 MHz operating point
    var_diff6, var_sum6 = sumdiff_variance(lossy_spectra(params, np.array([6e6])), gain=1.0)
    sum_db = 10.0 * math.log10(float(var_sum6[0]))
    diff_db = 10.0 * math.log10(float(var_diff6[0]))
    assert abs(sum_db - (-0.90)) <= 0.4
    assert abs(diff_db) <= 0.2

    # end-to-end: synthesize the direct-detection pair and read it back
    spec = lossy_spectra(params, default_frequency_grid())
    trace = synthesize(spec, chain, 0.080, seed=202)
    band = (5.5e6, 6.5e6)
    pulls = {}
    matrix = cross_spectral_matrix(trace, RBW)
    corrected = correct_electronic_noise(matrix, analytic_dark_matrix(chain, matrix))
    for mode in ("sum", "difference"):
        corr = corrected.combination(1.0, mode)
        qnl = analytic_qnl_matrix(chain, matrix).combination(1.0, mode)
        mask = (corr.frequencies >= band[0]) & (corr.frequencies <= band[1])
        measured = np.mean(corr.power[mask]) / np.mean(qnl.power[mask])
        sigma = np.sqrt(np.sum(corr.sigma[mask] ** 2)) / mask.sum() / np.mean(qnl.power[mask])
        model = lossy_spectra(params, corr.frequencies[mask])
        vd, vs = sumdiff_variance(model, gain=1.0)
        weights = qnl.power[mask]
        predicted = np.sum((vs if mode == "sum" else vd) * weights) / np.sum(weights)
        pulls[mode] = (measured - predicted) / sigma
        assert abs(pulls[mode]) < 3.0
    _record("PASS criterion 2: model var_sum %.3f dB (target -0.90 +-0.4) and "
            "var_diff %.3f dB (0 +-0.2); pipeline pulls %+.2f/%+.2f sigma"
            % (sum_db, diff_db, pulls["sum"], pulls["difference"]))


def test_criterion_3_entanglement_witness(chain):
    params = CavityParams(pump_power=0.023)
    spec = lossy_spectra(params, default_frequency_grid())
    reports = {"model": witness_report(spec, 5.0e6)}

    seeds = np.random.SeedSequence(7).generate_state(3, dtype=np.uint64)
    ab = witness_arm_traces(spec, chain, 0.080, int(seeds[0]))
    reference = shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain,
                                0.080, int(seeds[1]))
    dark = dark_trace(chain, 0.080, int(seeds[2]))
    reports["measured"] = witness_from_traces(ab, reference, RBW, (4.5e6, 5.5e6), dark=dark)

    for rep in reports.values():
        assert rep.var_sum == pytest.approx(1.78, abs=0.15)
        assert rep.var_diff == pytest.approx(1.95, abs=0.15)
        assert rep.duan_sum == pytest.approx(3.73, abs=0.25)
        assert rep.db == pytest.approx(-0.3, abs=0.2)
        assert rep.entangled is True
    _record("PASS criterion 3: 23 mW witness duan_sum %.3f model / %.3f measured "
            "(target 3.73 +-0.25), both entangled"
            % (reports["model"].duan_sum, reports["measured"].duan_sum))


def test_criterion_4_pump_power_projection():
    freq = np.array([5.0e6])
    duans = []
    for pump in np.linspace(0.0, 0.5, 26):
        params = CavityParams(pump_power=pump, conversion_efficiency=0.059)
        vp, vm = witness_pair(lossy_spectra(params, freq))
        duans.append(float(vp[0] + vm[0]))
    duans = np.array(duans)
    assert np.all(np.diff(duans) < 0.0)
    assert 2.0 <= duans[-1] <= 2.8
    _record("PASS criterion 4: duan_sum falls monotonically from %.3f to %.3f "
            "at 0.5 W (window [2.0, 2.8])" % (duans[0], duans[-1]))


def test_criterion_5_algebraic_identities():
    worst_duan = 0.0
    worst_pair = 0.0
    grid = default_frequency_grid(64)
    for pump in (0.005, 0.023, 0.034, 0.2):
        spec = lossy_spectra(CavityParams(pump_power=pump), grid)
        vp, vm = witness_pair(spec)
        total, v, _ = duan_sum(vp, vm)
        worst_duan = max(worst_duan, float(np.max(np.abs(4.0 * v - (vp + vm)))))
        _, var_sum = sumdiff_variance(spec, gain=1.0)
        worst_pair = max(worst_pair, float(np.max(np.abs(vp - 2.0 * var_sum))))
    assert worst_duan <= 1e-12
    assert worst_pair <= 1e-12
    pm_err = abs(phase_match_efficiency(math.pi) - (2.0 / math.pi) ** 2)
    assert pm_err <= 1e-12
    _record("PASS criterion 5: 4V identity %.1e, pair identity %.1e, "
            "phase-match point %.1e (all <= 1e-12)" % (worst_duan, worst_pair, pm_err))


def test_criterion_6_physics_invariants():
    # uncertainty products per port, with and without detection loss
    grid = default_frequency_grid()
    worst = np.inf
    for pump, enl in ((0.001, 0.0059), (0.023, 0.0059), (0.034, 0.0059),
                      (0.1, 0.059), (0.3, 0.059), (0.5, 0.059)):
        params = CavityParams(pump_power=pump, conversion_efficiency=enl)
        for spec in (quadrature_spectra(steady_state(params), grid),
                     lossy_spectra(params, grid)):
            for port in ("1", "2"):
                prod = getattr(spec, "s_x" + port) * getattr(spec, "s_y" + port)
                worst = min(worst, float(np.min(prod)))
                assert np.all(prod >= 1.0 - 1e-12)

    # loss cannot push a separable pair below the bound
    rng = np.random.default_rng(2024)
    n = 1000
    freqs = np.linspace(1e6, 2e6, n)
    created = 0
    for eta in rng.uniform(0.05, 0.999, 10):
        s_x = rng.uniform(0.2, 5.0, n)
        s_y = rng.uniform(0.2, 5.0, n)
        spec = QuadSpectra(
            frequencies=freqs,
            s_x1=s_x, s_x2=s_x.copy(),
            c_x=rng.uniform(-0.999, 0.999, n) * 2.0 * s_x,
            s_y1=s_y, s_y2=s_y.copy(),
            c_y=rng.uniform(-0.999, 0.999, n) * 2.0 * s_y,
        )
        vp0, vm0 = witness_pair(spec)
        vp1, vm1 = witness_pair(apply_detection_loss(spec, float(eta)))
        separable = vp0 + vm0 >= 4.0
        created += int(np.sum(separable & (vp1 + vm1 < 4.0 - 1e-12)))
    assert created == 0
    _record("PASS criterion 6: min S_X*S_Y = %.6f (bound 1); loss created "
            "entanglement in 0 of 10000 random spectra" % worst)


def test_criterion_7_stochastic_oracle():
    # the z statistic uses a standard error estimated from 8 realizations,
    # so it follows a Student-t law; allow the matching tail fraction
    t0 = time.perf_counter()
    fields = ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y")
    zs = []
    for params in (CavityParams(),
                   CavityParams(pump_power=0.023),
                   CavityParams(pump_power=0.5, conversion_efficiency=0.059)):
        ss = steady_state(params)
        fx = (ss.rate_input + ss.rate_loss
              + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (2.0 * np.pi)
        freqs = np.logspace(np.log10(0.04 * fx), np.log10(0.6 * fx), 10)
        mc = mc_spectra(ss, freqs, seed=11, n_realizations=8, n_steps=1 << 21)
        model = quadrature_spectra(ss, mc.spec.frequencies)
        for name in fields:
            se = np.maximum(getattr(mc.se, name), 1e-12)
            zs.append(np.abs(getattr(mc.spec, name) - getattr(model, name)) / se)
    z = np.concatenate(zs)
    elapsed = time.perf_counter() - t0
    assert np.mean(z <= 3.0) >= 0.95
    assert np.max(z) <= 6.0
    assert elapsed < 300.0
    _record("PASS criterion 7: stochastic integration matches the closed form, "
            "%.1f%% of %d points within 3 SE (max %.2f), %.0f s"
            % (100.0 * np.mean(z <= 3.0), z.size, np.max(z), elapsed))


def test_criterion_8_cavity_arithmetic():
    loss = roundtrip_loss_from_finesse(120, 0.04)
    assert 0.010 <= loss <= 0.014
    harmonic = steady_state(CavityParams()).harmonic_power_port1
    assert 6e-3 <= harmonic <= 11.5e-3
    _record("PASS criterion 8: finesse 120 implies %.4f roundtrip loss "
            "(window [0.010, 0.014]); 34 mW pump yields %.2f mW harmonic "
            "per port (window [6, 11.5])" % (loss, 1e3 * harmonic))


def test_criterion_9_estimator_quality():
    rng = np.random.default_rng(31)

    # Parseval: the one-sided density integrates back to the variance
    x = rng.standard_normal(4_000_000)
    psd = welch_psd(x, 200e6, RBW)
    df = psd.frequencies[1] - psd.frequencies[0]
    integral = float(np.sum(psd.power) * df)
    parseval_err = abs(integral - float(np.var(x))) / float(np.var(x))
    assert parseval_err < 1e-3

    # quoted sigma follows 1/sqrt(duration)
    fs = 50e6
    sigmas = []
    for duration in (0.020, 0.080, 0.320):
        y = rng.standard_normal(int(fs * duration))
        spec = welch_psd(y, fs, RBW)
        band = (spec.frequencies >= 4e6) & (spec.frequencies <= 8e6)
        sigmas.append(float(np.mean(spec.sigma[band])))
    ratios = [sigmas[0] / sigmas[1], sigmas[1] / sigmas[2]]
    for ratio in ratios:
        assert ratio == pytest.approx(2.0, rel=0.10)
    _record("PASS criterion 9: Parseval error %.4f%% (limit 0.1%%); sigma "
            "ratios %.3f/%.3f across 20/80/320 ms (target 2.0 +-10%%)"
            % (100.0 * parseval_err, ratios[0], ratios[1]))
