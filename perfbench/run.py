"""tpsh benchmark runner: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload witness-200 --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
Each workload is a closed loop with one client: a fresh worker child warms
up with one operation and then runs operations back to back for --seconds.
wall_s and cpu_s are the means over the run's operations, peak_rss_mb the
child's ru_maxrss from wait4.  Set-up time is the median of three fresh
interpreters importing tpsh and filling the workload's DetectionChain.  --trace 0 prints the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics of a traced run and writes its spans to
.perfbench-out/.  Scratch files live in .perfbench-work/ inside the checkout
and are removed on exit.  The last stdout line is the result; the line
before it records the seed, every operation's figures and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: str) -> dict:
    """Run a child to completion; its wall time, rusage, exit code and stdout."""
    import subprocess

    start = time.perf_counter()
    spawned = time.time()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": time.perf_counter() - start,
        "spawned": spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sys_s": usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "stdout": out.decode(),
    }


def worker(args, command: str, *extra: str, cwd: str) -> tuple[dict, dict]:
    """Run a worker subcommand; its child figures and its parsed last line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), command,
            "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--smoke"] if args.smoke else []
    argv += ["--break-check"] if args.break_check else []
    argv += list(extra)
    child = run_child(argv, cwd)
    lines = child["stdout"].strip().splitlines()
    if child["exit"] != 0 or not lines:
        raise ChildFailed("worker %s exited with %d" % (command, child["exit"]))
    return child, json.loads(lines[-1])


def setup_probe(args, work: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to work."""
    child, out = worker(args, "probe", cwd=work)
    return out["ready"] - child["spawned"]


def run_workload(args, work: str) -> dict:
    """Untimed input set-up, set-up probes, then the loop in a fresh child."""
    write_spans = []
    if args.workload == "analyze-optimal":
        _, out = worker(args, "prepare", "--dir", work, "--trace", str(args.trace), cwd=work)
        write_spans = out["spans"]
    child, out = worker(args, "loop", "--dir", work, "--seconds", repr(args.seconds),
                        "--trace", str(args.trace), cwd=work)
    ops = out["ops"]
    result = {"attempted": len(ops), "failed": sum(not op["ok"] for op in ops)}
    info = {"child_rss_mb": child["rss_mb"], "ops": ops}
    if not args.trace:
        # the loop child's own set-up and fresh probes after the loop, so
        # that set-up is sampled at both ends of the run
        probes = [out["ready"] - child["spawned"]]
        probes += [setup_probe(args, work) for _ in range(SETUP_PROBES - 1)]
        info["setup_probes_s"] = probes
        # means over the run, not medians: the host's slow spells last tens
        # of seconds, and a median follows whichever state held most of a run
        wall = statistics.fmean(op["wall_s"] for op in ops)
        result["metrics"] = end_to_end(
            statistics.median(probes), wall, statistics.fmean(op["cpu_s"] for op in ops),
            wl.op_work(args.workload, args.size) / wall, child["rss_mb"], result)
    else:
        z = [op["z_ok_frac"] for op in ops if op["z_ok_frac"] is not None]
        result["metrics"] = spans.per_layer_metrics(
            out["spans"], len(ops), out["mem_spans"], write_spans,
            z_ok_frac=statistics.fmean(z) if z else 0.0,
            overhead_s=out["overhead_s"] / len(ops))
        result["spans"] = {"setup": write_spans, "time": out["spans"],
                           "memory": out["mem_spans"]}
    result["info"] = info
    return result


def end_to_end(setup_s, wall_s, cpu_s, throughput, rss_mb, counts) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "throughput": throughput,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - counts["failed"] / counts["attempted"],
    }


def benchmark_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="tpsh benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--break-check", action="store_true",
                        help="make every output check fail, for the benchmark's own test")
    args = parser.parse_args()
    args.size = wl.SMOKE if args.smoke else wl.FULL

    if not os.path.isfile(os.path.join(ROOT, "src", "tpsh", "__init__.py")):
        print("no tpsh sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    units = benchmark_units()
    work = os.path.join(ROOT, ".perfbench-work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        result = run_workload(args, work)
    except ChildFailed as err:
        print("benchmark aborted: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    if "spans" in result:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": result.pop("spans")}, fh)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), **result.pop("info")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
