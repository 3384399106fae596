"""Child processes of the benchmark runner; each prints one JSON line last.

    probe     --workload W            time to import tpsh and fill the chain
    prepare   --seed N --dir D        write analyze-optimal's input files
                                      (--trace 1: with a memory tracer)
    loop      --workload W --seed N --dir D --seconds T --trace 0|1
                                      closed loop of operations in this process

Every subcommand takes --smoke for the tiny self-test size.  The runner sets
PYTHONPATH to the checkout's src directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time

import workloads as wl
from spans import Tracer


def probe(args, size):
    """The runner takes set-up time from its spawn to the "ready" wall clock."""
    import tpsh  # noqa: F401  (the import is what is being timed)

    if args.workload != "oracle":
        wl.chain_for(size)
    return {"ready": time.time()}


def prepare(args, size):
    tracer = Tracer(memory=True)
    with tracer if args.trace else contextlib.nullcontext():
        wl.write_analyze_inputs(size, args.seed, args.dir)
    return {"spans": tracer.spans}


def _timed(fn):
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = fn(), None
    except Exception as err:  # an operation's failure is counted, not fatal
        result, error = None, "%s: %s" % (type(err).__name__, err)
    return result, error, time.perf_counter() - wall, time.process_time() - cpu


def operation(args, size):
    """The workload's operation on one derived seed, its output check, and the
    name and layer of the span the traced run puts around it."""
    if args.workload in wl.CLI_WORKLOADS:
        witness = args.workload == "witness-200"
        if witness:
            wl.write_cli_config(size, args.dir, optimal=False)
        model = wl.model_duan()

        def op(seed):
            return wl.cli_op(wl.cli_argv(args.workload, size, seed, args.dir))

        def check(report):
            return wl.check_report(report, model, "dc_balance" if witness else "optimal",
                                   size.cli_duration, witness, args.break_check)

        return op, check, ("cli.main", "cli")

    def op(seed):
        return wl.oracle_op(size, seed)

    def check(z_ok_frac):
        return wl.check_oracle(z_ok_frac, args.break_check)

    return op, check, ("op", "op")


def loop(args, size):
    """Warm up once, then run operations until --seconds have passed.

    With --trace 1 the operations run under a tracer without memory; one more
    operation with a memory tracer then gives the allocation peaks of the
    layers that report them (the oracle reaches none).
    """
    ready = probe(args, size)["ready"]  # this fresh child's own set-up
    seeds = wl.derive_seeds(args.seed, 65)
    op, check, (span_name, span_layer) = operation(args, size)
    op(seeds[0])

    tracer = Tracer()
    ops = []
    start = time.perf_counter()
    # start another operation while it is expected to end within --seconds
    while not ops or (time.perf_counter() - start
                      + statistics.fmean(o["wall_s"] for o in ops) <= args.seconds):
        seed = seeds[1 + len(ops) % 64]
        if args.trace:
            tracer.run_id = len(ops)
            with tracer, tracer.span(span_name, span_layer):
                result, error, wall, cpu = _timed(lambda: op(seed))
        else:
            result, error, wall, cpu = _timed(lambda: op(seed))
        error = error or check(result)
        if error:
            print("operation failed (seed %d): %s" % (seed, error), file=sys.stderr)
        ops.append({"seed": seed, "wall_s": wall, "cpu_s": cpu, "ok": error is None,
                    "z_ok_frac": result if args.workload == "oracle" else None})
    mem = Tracer(memory=True)
    if args.trace and args.workload != "oracle":
        with mem, mem.span(span_name, span_layer):
            op(seeds[1])
    return {"ready": ready, "ops": ops, "spans": tracer.spans, "mem_spans": mem.spans,
            "overhead_s": tracer.overhead_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("probe", "prepare", "loop"))
    parser.add_argument("--workload", choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-check", action="store_true")
    args = parser.parse_args()
    size = wl.SMOKE if args.smoke else wl.FULL
    handler = {"probe": probe, "prepare": prepare, "loop": loop}[args.command]
    print(json.dumps(handler(args, size)))


if __name__ == "__main__":
    main()
