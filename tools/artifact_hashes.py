"""sha256 of every artifact of a fixed set of tpsh runs: the byte comparison.

    python3 tools/artifact_hashes.py > hashes.txt

Runs the CLI of the checkout this file lives in (its src/ goes first on
sys.path) in a temporary directory, which is removed afterwards, and prints
one sorted "sha256  path" line per artifact, the path relative to that
directory.  Two checkouts produce the same bytes when a diff of their
outputs is empty.

The recipe, at 50 and 200 MS/s with 10 ms traces, seed 11 and 23 mW pump:
  - synth: trace.bin;
  - witness in dc_balance and in optimal gain mode: witness.json;
  - ref.bin and dark.bin from shot_noise_pair and dark_trace, on the seeds
    witness gives its reference and dark traces;
  - analyze of trace.bin in fixed, optimal and dc_balance gain mode, each
    with no record, --reference, --dark and both: report.json and the sum
    and difference spectrum CSVs;
  - spectra: spectra.csv; sweep: sweep.csv.
At 100 and 400 MS/s, whose synthesis draws hold 9 and 2 blocks (50 MS/s:
18, 200 MS/s: 4), only synth's trace.bin.  run.log holds timestamps and is not hashed.  The Monte-Carlo oracle follows
as oracle/cavity<i>/spec and oracle/cavity<i>/se: the bytes of mc_spectra's
spectra and standard errors (every QuadSpectra field in order) on the three
criterion-7 cavities, seed 11, 8 realizations of 65 536 steps.  Needs tpsh
and its NumPy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from tpsh import cli  # noqa: E402
from tpsh.cavity import CavityParams, steady_state  # noqa: E402
from tpsh.config import load_config  # noqa: E402
from tpsh.langevin_mc import mc_spectra  # noqa: E402
from tpsh.synth import dark_trace, shot_noise_pair  # noqa: E402
from tpsh.traceio import write_trace  # noqa: E402

SAMPLE_RATES_MHZ = (50, 200)
SYNTH_ONLY_RATES_MHZ = (100, 400)
GAIN_MODES = ("fixed", "optimal", "dc_balance")
CONFIG = """\
cavity.pump_power = 23 mW
chain.sample_rate = {rate} MHz
run.duration = 10 ms
run.seed = 11
analysis.gain_mode = {mode}
"""
# the criterion-7 cavities of the acceptance suite, as CavityParams overrides
ORACLE_CAVITIES = ({}, {"pump_power": 0.023}, {"pump_power": 0.5, "conversion_efficiency": 0.059})


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit("tpsh %s exited with status %d" % (" ".join(argv), status))


def _write_records(config: str, out: str) -> None:
    """ref.bin and dark.bin, synthesized as witness synthesizes its own."""
    cfg = load_config(config)
    chain = cfg.chain
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
    write_trace(shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain,
                                cfg.duration, int(seeds[1])), os.path.join(out, "ref.bin"))
    write_trace(dark_trace(chain, cfg.duration, int(seeds[2])), os.path.join(out, "dark.bin"))


def produce(root: str) -> None:
    """Write every artifact of the recipe under root."""
    for rate in SYNTH_ONLY_RATES_MHZ:
        base = os.path.join(root, "%dMSps" % rate)
        os.makedirs(base)
        config = os.path.join(base, "synth.conf")
        with open(config, "w") as fh:
            fh.write(CONFIG.format(rate=rate, mode="dc_balance"))
        _run(["synth", "--config", config, "--out", os.path.join(base, "records")])
    for rate in SAMPLE_RATES_MHZ:
        base = os.path.join(root, "%dMSps" % rate)
        os.makedirs(base)
        config = {}
        for mode in GAIN_MODES:
            config[mode] = os.path.join(base, "%s.conf" % mode)
            with open(config[mode], "w") as fh:
                fh.write(CONFIG.format(rate=rate, mode=mode))
        records = os.path.join(base, "records")
        default = config["dc_balance"]
        _run(["synth", "--config", default, "--out", records])
        _write_records(default, records)
        for command in ("spectra", "sweep"):
            _run([command, "--config", default, "--out", os.path.join(base, command)])
        for mode in ("dc_balance", "optimal"):
            _run(["witness", "--config", config[mode], "--out", os.path.join(base, "witness-" + mode)])
        trace = os.path.join(records, "trace.bin")
        for mode in GAIN_MODES:
            for name, extra in (("none", []),
                                ("ref", ["--reference", os.path.join(records, "ref.bin")]),
                                ("dark", ["--dark", os.path.join(records, "dark.bin")]),
                                ("both", ["--reference", os.path.join(records, "ref.bin"),
                                          "--dark", os.path.join(records, "dark.bin")])):
                out = os.path.join(base, "analyze-%s-%s" % (mode, name))
                _run(["analyze", trace, "--config", config[mode], "--out", out] + extra)


def hashes(root: str):
    """Sorted "sha256  path" lines for every artifact under root."""
    lines = []
    for folder, _, files in os.walk(root):
        for name in files:
            if name == "run.log" or name.endswith(".conf"):
                continue
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append("%s  %s" % (digest, os.path.relpath(path, root)))
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def oracle_hashes():
    """The oracle's lines: sha256 of mc_spectra's spec and se per cavity."""
    lines = []
    for i, overrides in enumerate(ORACLE_CAVITIES):
        ss = steady_state(CavityParams(**overrides))
        fx = (ss.rate_input + ss.rate_loss
              + 3.0 * (ss.rate_nl_port1 + ss.rate_nl_port2)) / (2.0 * np.pi)
        freqs = np.logspace(np.log10(0.04 * fx), np.log10(0.6 * fx), 10)
        mc = mc_spectra(ss, freqs, seed=11, n_realizations=8, n_steps=1 << 16)
        for name, spectra in (("spec", mc.spec), ("se", mc.se)):
            digest = hashlib.sha256()
            for field in dataclasses.fields(spectra):
                digest.update(np.ascontiguousarray(getattr(spectra, field.name)).tobytes())
            lines.append("%s  oracle/cavity%d/%s" % (digest.hexdigest(), i, name))
    return lines


def main() -> int:
    os.environ.pop("TPSH_DEFAULTS", None)
    with tempfile.TemporaryDirectory(prefix="tpsh-hashes-") as root:
        produce(root)
        print("\n".join(hashes(root) + oracle_hashes()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
