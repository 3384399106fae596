"""The benchmark's own test, at the tiny --smoke input size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced and checks the result line against
BENCHMARK.json, that a failing output check is counted rather than fatal,
that nothing in the checkout changes except the ignored span output, and
that the runner refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# layers whose spans each workload's traced run must contain
LAYERS = {
    "witness-200": {"cli", "config", "cavity", "noise", "synth", "analyzer"},
    "analyze-optimal": {"cli", "config", "traceio", "analyzer"},
    "oracle": {"cavity", "noise", "langevin_mc"},
}
IGNORED = {".git", "__pycache__", ".perfbench-out", ".pytest_cache"}


def tree(root):
    """Every file under root with its size and mtime, ignored directories aside."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in IGNORED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            found[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return found


def run(root, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def runs():
    before = tree(ROOT)
    done = {(w, t): run(ROOT, w, t) for w in wl.NAMES for t in (0, 1)}
    return done, before, tree(ROOT)


@pytest.mark.parametrize("workload", wl.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(runs, workload, trace):
    result = result_line(runs[0][(workload, trace)])
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", wl.NAMES)
def test_traced_run_writes_spans_for_every_layer(runs, workload):
    result_line(runs[0][(workload, 1)])
    with open(os.path.join(ROOT, ".perfbench-out", "spans-%s-seed7.json" % workload)) as fh:
        recorded = json.load(fh)
    assert recorded["seed"] == 7
    timed = recorded["spans"]["time"]
    assert LAYERS[workload] <= {s["layer"] for s in timed}
    for s in timed:
        assert {"name", "start", "end", "parent", "run"} <= set(s) and s["end"] >= s["start"]
    if workload == "analyze-optimal":
        assert "traceio.write_trace" in {s["name"] for s in recorded["spans"]["setup"]}


def test_runs_leave_the_checkout_unchanged(runs):
    _, before, after = runs
    assert after == before


@pytest.mark.parametrize("workload", ("witness-200", "oracle"))
def test_failing_check_is_counted_not_fatal(workload):
    result = result_line(run(ROOT, workload, 0, "--break-check"))
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
