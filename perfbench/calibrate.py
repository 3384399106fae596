"""Measure the seed-to-seed scatter that the benchmark's output checks allow.

    python3 perfbench/calibrate.py duan --seeds 40
    python3 perfbench/calibrate.py oracle --seeds 60

`duan` runs both analysis paths of the CLI workloads (dc_balance and
optimal gain, with reference and dark traces) on synthesized traces of the
workloads' length and sample rate, and prints the mean offset of duan_sum from
the closed-form value and its standard deviation; these are the
DUAN_SCATTER entries in workloads.py.  `oracle` prints the distribution of
the pooled criterion-7 z fraction at the benchmark's Monte-Carlo size.
Run from the repository root; the seeds are 1000, 1001, ...
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402


def duan(seeds):
    import tpsh

    chain = wl.chain_for(wl.FULL)
    model = wl.model_duan()
    spec = wl.detected_spectra(wl.PUMP_MW * 1e-3)
    values = {"dc_balance": [], "optimal": []}
    for seed in seeds:
        s_ab, s_ref, s_dark = wl.derive_seeds(seed, 3)
        d = wl.FULL.cli_duration
        ab = tpsh.witness_arm_traces(spec, chain, d, s_ab)
        ref = tpsh.shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, d, s_ref)
        dark = tpsh.dark_trace(chain, d, s_dark)
        for mode in ("dc_balance", "optimal"):
            rep = tpsh.witness_from_traces(ab, ref, wl.RBW, wl.BAND, dark=dark, gain_mode=mode)
            values[mode].append(rep.duan_sum)
        print(json.dumps({"seed": seed, **{k: v[-1] for k, v in values.items()}}), flush=True)
    return {
        path: {
            "offset": statistics.fmean(v) - model,
            "std": statistics.stdev(v),
            "max_abs_dev": max(abs(x - model) for x in v),
            "n": len(v),
        }
        for path, v in values.items()
    }


def oracle(seeds):
    fracs = []
    for seed in seeds:
        fracs.append(wl.oracle_op(wl.FULL, seed))
        print(json.dumps({"seed": seed, "z_ok_frac": fracs[-1]}), flush=True)
    return {"min": min(fracs), "mean": statistics.fmean(fracs),
            "below_threshold": sum(f < wl.ORACLE_Z_OK for f in fracs), "n": len(fracs)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("part", choices=("duan", "oracle"))
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    seeds = range(1000, 1000 + args.seeds)
    summary = duan(seeds) if args.part == "duan" else oracle(seeds)
    print(json.dumps({"summary": summary}, indent=2))


if __name__ == "__main__":
    main()
