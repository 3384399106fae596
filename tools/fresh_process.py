"""Fresh-process cost of tpsh CLI commands, two checkouts side by side.

    python3 tools/fresh_process.py PARENT CHANGE --runs 4 --duration-ms 10 \\
        steady-state spectra sweep synth witness analyze > runs.jsonl
    python3 tools/fresh_process.py PARENT CHANGE --runs 4 witness

PARENT and CHANGE are source checkouts; each command runs as the `tpsh`
console script would, in a fresh interpreter with that checkout's src/
first on PYTHONPATH and TPSH_DEFAULTS unset, in a new output directory.
For each command the runs come in pairs, one per checkout, and the
checkout that runs first alternates: PARENT on even-numbered pairs.  Every
run is timed with os.wait4 and prints one JSON line: wall, user and system
time in s, ru_maxrss in MiB, minor page faults, voluntary context switches
(ru_nvcsw: a thread that waits for another, or for the interpreter lock,
switches out voluntarily, so the count shows how often the command's
worker threads hand work over), and the first 16 hex digits of the sha256
of the command's main artifact (stdout for steady-state), so a pair that
produced different bytes shows.

Every command gets --seed 11 --pump-mw 23, and --duration-ms when given
(without it the config default, 80 ms).  analyze reads a trace.bin made
once beforehand, untimed, by PARENT's synth with the same flags.  Nothing
else should run on the host meanwhile; the scratch directory is removed
on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

# the main artifact of each command; None is its stdout
ARTIFACTS = {
    "steady-state": None,
    "spectra": "spectra.csv",
    "sweep": "sweep.csv",
    "synth": "trace.bin",
    "witness": "witness.json",
    "analyze": "report.json",
}
# what the console script runs
ENTRY = "import sys; from tpsh.cli import main; sys.exit(main(sys.argv[1:]))"


def _file_sha256(path: str):
    """The sha256 of a file, read 1 MiB at a time.

    A child that vfork and exec start reports at least this process's peak
    RSS as its ru_maxrss, so this process never holds a whole trace file.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest


def run(checkout: str, argv, cwd: str) -> dict:
    """One fresh-interpreter run of tpsh argv from checkout's src/."""
    env = dict(os.environ)
    env.pop("TPSH_DEFAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.abspath(checkout), "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit("tpsh %s in %s exited with %d: %s"
                             % (" ".join(argv), checkout, proc.returncode, err.read().decode().strip()))
    return {
        "wall_s": round(wall, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "maxrss_mib": round(usage.ru_maxrss / 1024.0, 1),  # KiB on Linux
        "minor_faults": usage.ru_minflt,
        "voluntary_switches": usage.ru_nvcsw,
        "stdout": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout that runs first on even-numbered pairs")
    parser.add_argument("change", help="the other checkout")
    parser.add_argument("commands", nargs="+", choices=sorted(ARTIFACTS), metavar="COMMAND",
                        help="one or more of: %s" % ", ".join(ARTIFACTS))
    parser.add_argument("--runs", type=int, default=4, help="pairs per command (default 4)")
    parser.add_argument("--duration-ms", type=float,
                        help="trace length for synth, witness and analyze (default: config's)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    flags = ["--seed", "11", "--pump-mw", "23"]
    if args.duration_ms is not None:
        flags += ["--duration-ms", "%g" % args.duration_ms]
    sides = (("parent", args.parent), ("change", args.change))

    with tempfile.TemporaryDirectory(prefix="tpsh-fresh-") as root:
        trace = os.path.join(root, "input", "trace.bin")
        if "analyze" in args.commands:
            run(args.parent, ["synth", "--out", os.path.dirname(trace)] + flags, root)
        for command in args.commands:
            for pair in range(args.runs):
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    out = os.path.join(root, "%s-%d-%s" % (command, pair, side))
                    argv = [command] + ([trace] if command == "analyze" else [])
                    result = run(checkout, argv + flags + ["--out", out], root)
                    digest = hashlib.sha256(result.pop("stdout"))
                    artifact = ARTIFACTS[command]
                    if artifact is not None:
                        digest = _file_sha256(os.path.join(out, artifact))
                    print(json.dumps({
                        "command": command,
                        "duration_ms": args.duration_ms,
                        "pair": pair,
                        "side": side,
                        **result,
                        "artifact": artifact or "stdout",
                        "sha256": digest.hexdigest()[:16],
                    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
