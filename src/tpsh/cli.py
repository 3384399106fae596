"""Command-line surface: model, synthesis, analysis, and sweeps.

Every command is deterministic for a fixed config and seed; output bytes
do not embed timestamps or the peak memory of the run (those go to the
sidecar run.log).  Files are written atomically.  Errors leave one
machine-readable JSON line on stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import itertools
import json
import os
import resource
import sys
import time

import numpy as np

from .analyzer import cross_spectral_matrix, witness_from_matrices
from .cavity import steady_state
from .config import RunConfig, load_config
from .noise import (
    apply_detection_loss,
    default_frequency_grid,
    quadrature_spectra,
    witness_report,
)
from .synth import synthesis_stream, witness_streams
from .traceio import atomic_write, check_adc_bits, stream_trace, write_trace


# glibc's mallopt parameters, and the size below which freed blocks stay in
# the heap: above every array of a run, whatever its length
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 1 << 30


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks in the heap for reuse.

    By default glibc serves blocks above its dynamic threshold by mmap and
    trims the heap's top on free, so every run faults its arrays in again:
    at 200 MS/s a warm witness or analyze of 10 ms traces faulted 3,000 to
    4,300 pages per run without this (the estimator's 2 MB block arrays
    among them) and about ten with it.  Set once at CLI entry, never
    by the library; without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        if not mallopt(param, _KEEP_FREED_BYTES):
            return


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _log(cfg: RunConfig, message: str) -> None:
    # the one place a timestamp, or a measurement of this run such as the
    # process's peak RSS (ru_maxrss is in KiB on Linux) and its minor page
    # faults so far, may appear
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(_out_path(cfg, "run.log"), "a") as fh:
        fh.write("%s %s peak_rss_mib=%.1f minor_faults=%d\n" % (
            time.strftime("%Y-%m-%dT%H:%M:%S"), message, usage.ru_maxrss / 1024.0, usage.ru_minflt,
        ))


def _write_csv(path: str, header: str, rows) -> None:
    # one % over the whole file gives the bytes of formatting each value alone
    values = tuple(itertools.chain.from_iterable(rows))
    n_cols = header.count(",") + 1
    line = ",".join(["%.17g"] * n_cols) + "\n"
    atomic_write(path, [(header + "\n" + line * (len(values) // n_cols) % values).encode()])


# a non-finite value is an error, never an Infinity or NaN token in the output
def _write_json(path: str, payload: dict) -> None:
    atomic_write(path, [(json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()])


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, allow_nan=False))


def _detected_spectra(cfg: RunConfig):
    spec = quadrature_spectra(steady_state(cfg.cavity), default_frequency_grid())
    return apply_detection_loss(spec, cfg.cavity.total_detection_efficiency)


def cmd_steady_state(cfg: RunConfig, args) -> int:
    ss = steady_state(cfg.cavity)
    _print_json(dataclasses.asdict(ss))
    return 0


def cmd_spectra(cfg: RunConfig, args) -> int:
    spec = _detected_spectra(cfg)
    path = _out_path(cfg, "spectra.csv")
    _write_csv(path, "freq_hz,s_x1,s_x2,s_y1,s_y2,c_x,c_y", zip(
        spec.frequencies, spec.s_x1, spec.s_x2, spec.s_y1, spec.s_y2, spec.c_x, spec.c_y,
    ))
    _log(cfg, "spectra")
    _print_json({"written": path, "rows": len(spec.frequencies)})
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    check_adc_bits(cfg.chain.adc_bits)  # a trace no file can hold is never synthesized
    spec = _detected_spectra(cfg)
    path = _out_path(cfg, "trace.bin")
    # each block goes to the file as it is synthesized
    with synthesis_stream(spec, cfg.chain, cfg.duration, cfg.seed) as stream:
        write_trace(stream, path)
    _log(cfg, "synth seed=%d" % cfg.seed)
    _print_json({
        "written": path,
        "samples_per_channel": stream.n_samples,
        "clipped": [stream.clipped_1, stream.clipped_2],
    })
    return 0


def _witness(cfg: RunConfig, records):
    """witness_from_matrices of the signal, reference and dark records, or None.

    Each record, a trace or a stream, is reduced to its matrix and dropped
    before the next is pulled.
    """
    a = cfg.analysis
    matrices = []
    for record in records:
        matrices.append(None if record is None else cross_spectral_matrix(record, a.rbw))
        del record
    return witness_from_matrices(
        *matrices, cfg.chain, (a.band_low, a.band_high), a.gain_mode, a.fixed_gain,
    )


def cmd_analyze(cfg: RunConfig, args) -> int:
    report, psd_sum, psd_diff = _witness(cfg, (
        stream_trace(path, chain=cfg.chain) if path else None
        for path in (args.trace, args.reference, args.dark)
    ))
    for ns, name in ((psd_sum, "sum_spectrum.csv"), (psd_diff, "difference_spectrum.csv")):
        _write_csv(_out_path(cfg, name), "freq_hz,power,sigma",
                   zip(ns.frequencies, ns.power, ns.sigma))
    _write_json(_out_path(cfg, "report.json"), report.as_dict())
    _log(cfg, "analyze %s" % args.trace)
    _print_json(report.as_dict())
    return 0


def cmd_witness(cfg: RunConfig, args) -> int:
    spec = _detected_spectra(cfg)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3, dtype=np.uint64)
    # each block goes to the estimator as it is synthesized: no trace is held
    with contextlib.closing(witness_streams(spec, cfg.chain, cfg.duration, seeds)) as streams:
        report = _witness(cfg, streams)[0]
    _write_json(_out_path(cfg, "witness.json"), report.as_dict())
    _log(cfg, "witness seed=%d" % cfg.seed)
    _print_json(report.as_dict())
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    pumps = np.linspace(0.0, args.pump_max_w, args.points)
    freq = 0.5 * (cfg.analysis.band_low + cfg.analysis.band_high)
    grid = np.array([freq])
    eta = cfg.cavity.total_detection_efficiency
    rows = []
    for pump in pumps:
        params = dataclasses.replace(
            cfg.cavity,
            pump_power=float(pump),
            conversion_efficiency=cfg.cavity.conversion_efficiency * args.enl_scale,
        )
        spec = apply_detection_loss(quadrature_spectra(steady_state(params), grid), eta)
        rep = witness_report(spec, freq)
        rows.append((pump, rep.var_sum, rep.var_diff, rep.duan_sum, rep.v, rep.db))
    path = _out_path(cfg, "sweep.csv")
    _write_csv(path, "pump_w,var_plus,var_minus,duan_sum,v,db", rows)
    _log(cfg, "sweep enl_scale=%g" % args.enl_scale)
    _print_json({
        "written": path,
        "points": len(rows),
        "duan_first": rows[0][3],
        "duan_last": rows[-1][3],
    })
    return 0


_COMMANDS = {
    "steady-state": cmd_steady_state,
    "spectra": cmd_spectra,
    "synth": cmd_synth,
    "analyze": cmd_analyze,
    "witness": cmd_witness,
    "sweep": cmd_sweep,
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.pump_mw is not None:
        cfg = dataclasses.replace(
            cfg, cavity=dataclasses.replace(cfg.cavity, pump_power=args.pump_mw * 1e-3)
        )
    if args.rbw_khz is not None:
        cfg = dataclasses.replace(
            cfg, analysis=dataclasses.replace(cfg.analysis, rbw=args.rbw_khz * 1e3)
        )
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.duration_ms is not None:
        cfg = dataclasses.replace(cfg, duration=args.duration_ms * 1e-3)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (flat key = value)")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--pump-mw", type=float, help="override cavity.pump_power, in mW")
    common.add_argument("--rbw-khz", type=float, help="override analysis.rbw, in kHz")
    common.add_argument("--out", metavar="DIR", help="override run.output_dir")
    common.add_argument("--duration-ms", type=float, help="override run.duration, in ms")

    parser = argparse.ArgumentParser(
        prog="tpsh",
        description="Twin-beam intensity correlations and quadrature "
                    "entanglement from an intracavity frequency doubler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady-state", parents=[common],
                   help="print the cavity operating point")
    sub.add_parser("spectra", parents=[common],
                   help="write the detected quadrature spectra as CSV")
    sub.add_parser("synth", parents=[common],
                   help="synthesize a two-channel trace file")
    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="spectra and witness report from a trace file")
    p_analyze.add_argument("trace", help="trace file to analyze")
    p_analyze.add_argument("--reference", metavar="PATH",
                           help="shot-noise reference trace (analytic QNL if absent)")
    p_analyze.add_argument("--dark", metavar="PATH",
                           help="dark trace (analytic electronic floor if absent)")
    sub.add_parser("witness", parents=[common],
                   help="end-to-end model, synthesis, analysis, witness report")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="witness numbers vs pump power (model)")
    p_sweep.add_argument("--enl-scale", type=float, default=10.0,
                         help="conversion-efficiency multiplier (default 10)")
    p_sweep.add_argument("--pump-max-w", type=float, default=0.5,
                         help="sweep endpoint in W (default 0.5)")
    p_sweep.add_argument("--points", type=int, default=26,
                         help="number of sweep points (default 26)")
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, RuntimeError, OSError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
