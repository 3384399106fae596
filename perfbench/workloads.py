"""The benchmark's workloads: sizes, seeded inputs, operations and output checks.

Module-level code needs only the standard library and numpy, so the runner
can use the sizes and names without importing tpsh.  Functions that call
the program import it when they run, through the package namespace, so a
tracer that rebinds the public functions sees every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from spans import euler_steps

NAMES = ("witness-200", "analyze-optimal", "oracle")
CLI_WORKLOADS = ("witness-200", "analyze-optimal")

PUMP_MW = 23.0
RBW = 100e3
BAND = (4.5e6, 5.5e6)  # AnalysisConfig default; the check compares at its centre
CHECK_FREQ = 5e6
MC_OVERSAMPLE = 100.0  # mc_spectra default

# Criterion-7 cavities of the acceptance suite, as CavityParams overrides.
ORACLE_CAVITIES = (
    {},
    {"pump_power": 0.023},
    {"pump_power": 0.5, "conversion_efficiency": 0.059},
)
# Share of the pooled z values that must lie within 3 standard errors.
# Criterion 7 asks for 0.95 at its own Monte-Carlo size.  The benchmark's
# operation is smaller (FULL below): each standard error comes from 8
# realizations, so the z values have wider tails.  Over 80 seeds
# (calibrate.py oracle --seeds 80) the share had mean 0.965, standard
# deviation 0.022 and minimum 0.894; the threshold is the mean less 6
# standard deviations, as for duan_sum.  A model or oracle that is actually
# wrong misses by far more.
ORACLE_Z_OK = 0.83

# duan_sum per analysis path at the CLI workloads' 200 MS/s and 10 ms, over
# 60 seeds (calibrate.py duan --seeds 60): the mean offset from the
# closed-form 5 MHz value and the standard deviation.  The optimal path is
# wide (values from 1.9 to 5.4) because its reference gain is ill-posed
# (ROADMAP item 3); tighten it once that is fixed.
DUAN_SCATTER = {  # path: (offset, standard deviation, trace length in s)
    "dc_balance": (0.0099, 0.0443, 0.010),
    "optimal": (0.0033, 0.572, 0.010),
}
DUAN_TOL_SIGMAS = 6.0


@dataclass(frozen=True)
class Size:
    """Input size of every workload; FULL is the benchmark, SMOKE its self-test."""

    cli_rate: float  # witness-200 and analyze-optimal sample rate, Hz
    cli_duration: float  # their traces, s
    mc_realizations: int
    mc_steps: int


# Operations of one to three seconds, so that a run holds many of them
# (README.md, "Steadiness").  10 ms is the shortest trace the program
# synthesizes; n_steps is mc_spectra's segment length.
FULL = Size(200e6, 0.010, 8, 1 << 16)
SMOKE = Size(50e6, 0.010, 8, 1 << 16)


def derive_seeds(seed: int, count: int) -> list[int]:
    """The program's seeds for one workload seed: same seed, same inputs."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def duan_tolerance(path: str, duration: float) -> tuple[float, float]:
    """(offset, half-width) of the accepted duan_sum window around the model."""
    offset, scatter, calibrated = DUAN_SCATTER[path]
    return offset, DUAN_TOL_SIGMAS * scatter * math.sqrt(calibrated / duration)


def check_report(report: dict, model_duan: float, path: str, duration: float,
                 need_entangled: bool, broken: bool = False) -> str | None:
    """Reason the witness report is wrong, or None when it passes.

    broken shifts the expected value by one, so the check fails on purpose.
    """
    bad = [k for k, v in report.items() if k != "entangled" and not math.isfinite(v)]
    if bad:
        return "non-finite report fields: %s" % ", ".join(bad)
    offset, tol = duan_tolerance(path, duration)
    expected = model_duan + offset + (1.0 if broken else 0.0)
    if abs(report["duan_sum"] - expected) > tol:
        return "duan_sum %.4f outside %.4f +- %.4f" % (report["duan_sum"], expected, tol)
    if need_entangled and report["entangled"] is not True:
        return "witness not entangled"
    return None


def check_oracle(z_ok_frac: float, broken: bool = False) -> str | None:
    need = 1.01 if broken else ORACLE_Z_OK
    if not z_ok_frac >= need:
        return "only %.3f of z values within 3 SE (need %.2f)" % (z_ok_frac, need)
    return None


def detected_spectra(pump_w: float):
    """Closed-form detected spectra on the default grid (cavity, then noise)."""
    import tpsh

    params = tpsh.CavityParams(pump_power=pump_w)
    spec = tpsh.quadrature_spectra(tpsh.steady_state(params), tpsh.default_frequency_grid())
    return tpsh.apply_detection_loss(spec, params.total_detection_efficiency)


def model_duan() -> float:
    """Closed-form duan_sum at CHECK_FREQ for the workloads' operating point."""
    import tpsh

    params = tpsh.CavityParams(pump_power=PUMP_MW * 1e-3)
    spec = tpsh.quadrature_spectra(tpsh.steady_state(params), np.array([CHECK_FREQ]))
    spec = tpsh.apply_detection_loss(spec, params.total_detection_efficiency)
    return float(tpsh.witness_report(spec, CHECK_FREQ).duan_sum)


def chain_for(size: Size):
    """The CLI workloads' DetectionChain with its lazy ADC scaling filled."""
    import tpsh

    chain = tpsh.DetectionChain(sample_rate=size.cli_rate)
    for dc in (chain.dc_current_1, chain.dc_current_2, 0.0):
        chain.lsb(dc)
    return chain


def analyze_paths(directory: str) -> dict:
    """Where the input files and the CLI config live in the run's scratch directory."""
    paths = {name: os.path.join(directory, name + ".bin") for name in ("trace", "ref", "dark")}
    paths["config"] = os.path.join(directory, "cli.cfg")
    return paths


def write_cli_config(size: Size, directory: str, optimal: bool) -> None:
    """The config file that puts a CLI operation at the benchmark's sample rate."""
    with open(analyze_paths(directory)["config"], "w") as fh:
        fh.write("chain.sample_rate = %r\n" % size.cli_rate)
        if optimal:
            fh.write("analysis.gain_mode = optimal\n")


def write_analyze_inputs(size: Size, seed: int, directory: str) -> None:
    """Trace, reference and dark files for analyze-optimal, plus its config."""
    import tpsh

    chain = tpsh.DetectionChain(sample_rate=size.cli_rate)
    s_ab, s_ref, s_dark = derive_seeds(seed, 3)
    paths = analyze_paths(directory)
    spec = detected_spectra(PUMP_MW * 1e-3)
    d = size.cli_duration
    tpsh.write_trace(tpsh.witness_arm_traces(spec, chain, d, s_ab), paths["trace"])
    tpsh.write_trace(tpsh.shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain,
                                          d, s_ref), paths["ref"])
    tpsh.write_trace(tpsh.dark_trace(chain, d, s_dark), paths["dark"])
    write_cli_config(size, directory, optimal=True)


def cli_argv(workload: str, size: Size, seed: int, directory: str) -> list[str]:
    """Arguments of one CLI operation; outputs go to the scratch directory."""
    paths = analyze_paths(directory)
    common = ["--config", paths["config"], "--out", directory]
    if workload == "witness-200":
        return ["witness", "--pump-mw", repr(PUMP_MW), "--seed", str(seed),
                "--duration-ms", repr(1e3 * size.cli_duration)] + common
    return ["analyze", paths["trace"], "--reference", paths["ref"],
            "--dark", paths["dark"]] + common


def cli_op(argv: list[str]) -> dict:
    """One CLI command in this process: tpsh.cli.main, stdout captured.

    Returns the JSON report it prints; a nonzero exit status raises.
    """
    import contextlib
    import io
    import json

    import tpsh.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = tpsh.cli.main(argv)
    if status != 0:
        raise RuntimeError("exit status %d: %s" % (status, out.getvalue().strip()))
    return json.loads(out.getvalue().strip().splitlines()[-1])


def op_work(workload: str, size: Size) -> float:
    """Work of one operation in the unit of throughput.

    CLI workloads: M ADC samples, both channels, of the three traces
    synthesized or read.  oracle: M Euler steps, both sectors and burn-in
    included.
    """
    if workload in CLI_WORKLOADS:
        return 3 * 2 * int(round(size.cli_duration * size.cli_rate)) / 1e6
    steps = euler_steps(size.mc_realizations, size.mc_steps, MC_OVERSAMPLE)
    return len(ORACLE_CAVITIES) * steps / 1e6


def oracle_op(size: Size, seed: int) -> float:
    """Criterion 7 at the benchmark's Monte-Carlo size: every cavity's MC spectra
    against the closed form.  Returns the share of z values within 3 standard
    errors, pooled over the cavities as the criterion pools them.
    """
    import tpsh

    z = []
    for overrides in ORACLE_CAVITIES:
        ss = tpsh.steady_state(tpsh.CavityParams(**overrides))
        fx = (ss.rate_input + ss.rate_loss
              + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (2.0 * np.pi)
        freqs = np.logspace(np.log10(0.04 * fx), np.log10(0.6 * fx), 10)
        mc = tpsh.mc_spectra(ss, freqs, seed=seed, n_realizations=size.mc_realizations,
                             n_steps=size.mc_steps)
        model = tpsh.quadrature_spectra(ss, mc.spec.frequencies)
        for name in ("s_x1", "s_x2", "c_x", "s_y1", "s_y2", "c_y"):
            se = np.maximum(getattr(mc.se, name), 1e-12)
            z.append(np.abs(getattr(mc.spec, name) - getattr(model, name)) / se)
    return float(np.mean(np.concatenate(z) <= 3.0))
