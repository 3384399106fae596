"""Spans around calls into tpsh's public functions, and the per-layer metrics.

A Tracer rebinds each function of LAYER_FUNCTIONS, in every loaded tpsh
module that refers to it, to a wrapper that records a span: name, start,
end, parent and run id, and the work it did (samples, bytes, Euler steps).
A memory tracer also records the tracemalloc peak reached inside each span.
tracemalloc hooks every Python allocation, and scipy's Welch estimator makes
Python calls per segment, so a memory tracer slows the analyzer several
times over: timings come from a tracer without memory, peaks from a
separate pass with it.  Spans stay in memory; the runner writes them out
when the run ends.  The tracer also adds up the time its wrappers spend
outside the calls they trace: the tracing overhead.  Nothing in the program
changes, and leaving the tracer puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc

LAYER_FUNCTIONS = {
    "cavity": ("steady_state",),
    "noise": ("quadrature_spectra", "apply_detection_loss", "witness_report"),
    "synth": ("synthesize", "witness_arm_traces", "shot_noise_pair", "dark_trace"),
    "traceio": ("write_trace", "read_trace"),
    "analyzer": ("witness_from_traces", "combined_spectrum",
                 "correct_electronic_noise", "analytic_dark_spectrum"),
    "langevin_mc": ("mc_spectra",),
    "config": ("load_config",),
}

MB = 1024.0 * 1024.0


def euler_steps(n_realizations: int, n_steps: int, oversample: float) -> int:
    """Euler steps of one mc_spectra call: both sectors, burn-in included."""
    return n_realizations * 2 * (n_steps + int(10.0 * oversample) + 1)


def _trace_samples(values) -> int:
    return sum(2 * v.n_samples for v in values if hasattr(v, "samples_1"))


def _work(layer: str, bound: inspect.BoundArguments, result) -> dict:
    """Counts of the work one call did, by layer."""
    if layer == "synth":
        return {"samples": 2 * result.n_samples, "clipped": result.clipped_1 + result.clipped_2}
    if layer == "analyzer":
        return {"samples": _trace_samples(bound.arguments.values())}
    if layer == "traceio":
        trace = result if result is not None else bound.arguments["trace"]
        return {"bytes": 64 + 4 * trace.n_samples}  # header plus two int16 channels
    if layer == "langevin_mc":
        bound.apply_defaults()
        args = bound.arguments
        return {"steps": euler_steps(args["n_realizations"], args["n_steps"], args["oversample"])}
    return {}


class Tracer:
    """Records spans for the public calls made while it is active."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self.run_id = 0
        self.overhead_s = 0.0  # time spent in the wrappers outside the traced calls

    def __enter__(self):
        import tpsh

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tpsh" or name.startswith("tpsh."))]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules["tpsh." + layer]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        del tpsh
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span the benchmark itself opens, around an operation."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str, layer: str) -> dict:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                # fold the peak so far into the enclosing span before resetting it
                outer = self._stack[-1]
                outer["peak"] = max(outer["peak"], peak)
            tracemalloc.reset_peak()
        span = {
            "id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id, "name": name, "layer": layer,
            "mem0": current, "peak": current, "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if not self.memory:
            return
        span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1]["peak"] = max(self._stack[-1]["peak"], span["peak"])

    def _wrap(self, layer: str, fname: str, fn):
        signature = inspect.signature(fn)
        name = "%s.%s" % (layer, fname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.update(_work(layer, signature.bind(*args, **kwargs), result))
            self.overhead_s += time.perf_counter() - entered - (span["end"] - span["start"])
            return result

        return wrapper


# config is part of the command surface
_METRIC_LAYER = {"config": "cli"}
_ZERO = {"calls": 0, "self_s": 0.0, "time_s": 0.0, "peak_alloc": 0, "samples": 0,
         "clipped": 0, "bytes": 0, "steps": 0, "read_s": 0.0, "write_s": 0.0}


def layer_totals(spans: list[dict]) -> dict:
    """Per-layer calls, self time, work and allocation peak over all spans.

    Self time is a span's duration minus its children's.  Work counts only
    the outermost span of a layer, so nested calls (dark_trace calling
    shot_noise_pair) are not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    totals: dict[str, dict] = {}
    for s in spans:
        layer = _METRIC_LAYER.get(s["layer"], s["layer"])
        t = totals.setdefault(layer, dict(_ZERO))
        duration = s["end"] - s["start"]
        children = sum(c["end"] - c["start"] for c in spans if c["parent"] == s["id"])
        t["calls"] += 1
        t["self_s"] += duration - children
        t["peak_alloc"] = max(t["peak_alloc"], s["peak"] - s["mem0"])
        parent = by_id.get(s["parent"])
        if parent is None or parent["layer"] != s["layer"]:
            t["time_s"] += duration
            for key in ("samples", "clipped", "bytes", "steps"):
                t[key] += s.get(key, 0)
            if s["name"] == "traceio.read_trace":
                t["read_s"] += duration
            elif s["name"] == "traceio.write_trace":
                t["write_s"] += duration
    return totals


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(time_spans: list[dict], n_ops: int, mem_spans: list[dict],
                      write_spans: list[dict], z_ok_frac: float, overhead_s: float) -> dict:
    """The per-layer metrics of one traced run, per operation.

    time_spans cover n_ops operations traced without memory, mem_spans one
    operation traced with it, and write_spans the memory-traced set-up that
    writes input files (the only place trace files are written).
    """
    totals = layer_totals(time_spans)
    peaks = layer_totals(mem_spans)

    def get(layer):
        # layers a workload does not reach read zero
        return totals.get(layer, _ZERO)

    synth, analyzer, mc = get("synth"), get("analyzer"), get("langevin_mc")
    io_read = get("traceio")
    io_write = layer_totals(write_spans).get("traceio", _ZERO)

    def peak_mb(layer):
        return peaks.get(layer, _ZERO)["peak_alloc"] / MB

    io_s = io_read["read_s"] + io_write["write_s"]
    return {
        "synth.calls": synth["calls"] / n_ops,
        "synth.self_s": synth["self_s"] / n_ops,
        "synth.msamples_per_s": _rate(synth["samples"] / 1e6, synth["time_s"]),
        "synth.peak_alloc_mb": peak_mb("synth"),
        "synth.clipped": synth["clipped"] / n_ops,
        "analyzer.calls": analyzer["calls"] / n_ops,
        "analyzer.self_s": analyzer["self_s"] / n_ops,
        "analyzer.msamples_per_s": _rate(analyzer["samples"] / 1e6, analyzer["time_s"]),
        "analyzer.peak_alloc_mb": peak_mb("analyzer"),
        "traceio.read_s": io_read["read_s"] / n_ops,
        "traceio.write_s": io_write["write_s"],
        "traceio.mb_per_s": _rate((io_read["bytes"] + io_write["bytes"]) / MB, io_s),
        "traceio.peak_alloc_mb": max(peak_mb("traceio"), io_write["peak_alloc"] / MB),
        "langevin_mc.self_s": mc["self_s"] / n_ops,
        "langevin_mc.msteps_per_s": _rate(mc["steps"] / 1e6, mc["time_s"]),
        "langevin_mc.z_ok_frac": z_ok_frac,
        "cli.self_s": get("cli")["self_s"] / n_ops,
        "cavity.calls": get("cavity")["calls"] / n_ops,
        "cavity.self_s": get("cavity")["self_s"] / n_ops,
        "noise.calls": get("noise")["calls"] / n_ops,
        "noise.self_s": get("noise")["self_s"] / n_ops,
        "trace_overhead_s": overhead_s,
    }
