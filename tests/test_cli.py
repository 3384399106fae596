"""Command-line behavior: artifacts, determinism, errors."""

import json
import os
import re
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from tpsh.analyzer import correct_electronic_noise, cross_spectral_matrix
from tpsh.cavity import CavityParams, steady_state
from tpsh import cli, synth
from tpsh.cli import main
from tpsh.synth import DetectionChain, dark_trace, shot_noise_pair
from tpsh.traceio import read_trace, write_trace


@pytest.fixture
def fast_conf(tmp_path):
    path = tmp_path / "fast.conf"
    path.write_text(
        "chain.sample_rate = 50 MHz\n"
        "run.duration = 10 ms\n"
        "run.output_dir = %s\n" % (tmp_path / "out")
    )
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCommands:
    def test_steady_state_prints_operating_point(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "steady-state", "--config", fast_conf)
        assert rc == 0
        payload = json.loads(out)
        assert payload["harmonic_power_port1"] == pytest.approx(9.3e-3, rel=0.05)
        assert payload["circulating_power"] == pytest.approx(1.256, rel=0.01)

    def test_pump_flag_overrides_config(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "steady-state", "--config", fast_conf,
                             "--pump-mw", "23")
        want = steady_state(CavityParams(pump_power=0.023)).circulating_power
        assert json.loads(out)["circulating_power"] == pytest.approx(want, rel=1e-12)

    def test_spectra_csv_shape(self, capsys, fast_conf, tmp_path):
        rc, out, _ = run_cli(capsys, "spectra", "--config", fast_conf)
        assert rc == 0
        path = json.loads(out)["written"]
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "freq_hz,s_x1,s_x2,s_y1,s_y2,c_x,c_y"
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == 256
        assert np.all(np.diff(data["freq_hz"]) > 0)
        assert np.all(data["s_x1"] < 1.0)  # squeezed amplitude sector
        assert np.all(data["s_y1"] >= 1.0)

    def test_synth_then_analyze(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf, "--seed", "5")
        assert rc == 0
        info = json.loads(out)
        assert info["samples_per_channel"] == 500_000
        assert info["clipped"] == [0, 0]
        rc, out, _ = run_cli(capsys, "analyze", info["written"],
                             "--config", fast_conf)
        assert rc == 0
        report = json.loads(out)
        assert report["entangled"] in (True, False)
        outdir = os.path.dirname(info["written"])
        for name in ("sum_spectrum.csv", "difference_spectrum.csv", "report.json"):
            assert os.path.exists(os.path.join(outdir, name))
        with open(os.path.join(outdir, "sum_spectrum.csv")) as fh:
            assert fh.readline().strip() == "freq_hz,power,sigma"

    def test_analyze_with_reference_and_dark_files(self, capsys, fast_conf, tmp_path):
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf, "--seed", "5")
        trace_path = json.loads(out)["written"]
        chain = DetectionChain(sample_rate=50e6)
        ref = shot_noise_pair(1.0, 1.0, chain, 0.010, seed=6)
        dark = dark_trace(chain, 0.010, seed=7)
        ref_path = str(tmp_path / "ref.bin")
        dark_path = str(tmp_path / "dark.bin")
        write_trace(ref, ref_path)
        write_trace(dark, dark_path)
        rc, out, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                             "--reference", ref_path, "--dark", dark_path)
        assert rc == 0
        report = json.loads(out)
        assert report["var_sum"] == pytest.approx(1.654, abs=0.15)

    def test_optimal_mode_spectra_match_report_gain(self, capsys, fast_conf, tmp_path):
        with open(fast_conf, "a") as fh:
            fh.write("analysis.gain_mode = optimal\n")
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf, "--seed", "5")
        trace_path = json.loads(out)["written"]
        chain = DetectionChain(sample_rate=50e6)
        dark_path = str(tmp_path / "dark.bin")
        write_trace(dark_trace(chain, 0.010, seed=7), dark_path)
        rc, out, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                             "--dark", dark_path)
        assert rc == 0
        gain = json.loads(out)["optimal_gain"]
        matrix = cross_spectral_matrix(read_trace(trace_path, chain), 100e3)
        dark = cross_spectral_matrix(read_trace(dark_path, chain), 100e3)
        outdir = os.path.dirname(trace_path)
        for mode, name in (("sum", "sum_spectrum.csv"),
                           ("difference", "difference_spectrum.csv")):
            want = correct_electronic_noise(matrix, dark).combination(gain, mode)
            data = np.genfromtxt(os.path.join(outdir, name), delimiter=",", names=True)
            np.testing.assert_allclose(data["freq_hz"], want.frequencies, rtol=1e-12)
            np.testing.assert_allclose(data["power"], want.power, rtol=1e-12)
            np.testing.assert_allclose(data["sigma"], want.sigma, rtol=1e-12)

    def test_artifacts_get_the_mode_of_a_plain_open(self, capsys, fast_conf, tmp_path):
        outdir = tmp_path / "out"
        old = os.umask(0o022)
        try:
            for argv in (["witness"], ["synth"], ["spectra"], ["sweep", "--points", "3"],
                         ["analyze", str(outdir / "trace.bin")]):
                rc, _, _ = run_cli(capsys, *argv, "--config", fast_conf)
                assert rc == 0
        finally:
            os.umask(old)
        names = sorted(os.listdir(outdir))
        assert names == ["difference_spectrum.csv", "report.json", "run.log", "spectra.csv",
                         "sum_spectrum.csv", "sweep.csv", "trace.bin", "witness.json"]
        want = oct(os.stat(outdir / "run.log").st_mode)
        modes = {name: oct(os.stat(outdir / name).st_mode) for name in names}
        assert modes == dict.fromkeys(names, want)

    def test_rbw_flag_changes_grid(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf, "--seed", "5")
        trace_path = json.loads(out)["written"]
        outdir = os.path.dirname(trace_path)

        def rows(rbw_khz):
            rc, _, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                               "--rbw-khz", rbw_khz)
            assert rc == 0
            with open(os.path.join(outdir, "sum_spectrum.csv")) as fh:
                return len(fh.readlines())

        assert abs(rows("100") - 2 * rows("200")) <= 3

    def test_witness_reproduces_entangled_point(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "witness", "--config", fast_conf,
                             "--pump-mw", "23", "--seed", "11")
        assert rc == 0
        report = json.loads(out)
        assert report["duan_sum"] == pytest.approx(3.73, abs=0.25)
        assert report["entangled"] is True
        with open(os.path.join(os.path.dirname(fast_conf), "out", "witness.json")) as fh:
            written = json.load(fh)
        assert written == report

    def test_sweep_monotone_to_projection(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "sweep", "--config", fast_conf)
        assert rc == 0
        path = json.loads(out)["written"]
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data["pump_w"][0] == 0.0 and data["pump_w"][-1] == 0.5
        assert data["duan_sum"][0] == pytest.approx(4.0, abs=1e-9)
        assert np.all(np.diff(data["duan_sum"]) < 0)
        assert 2.0 <= data["duan_sum"][-1] <= 2.8


class TestWriteCsv:
    def test_same_bytes_as_formatting_each_value(self, tmp_path):
        # rows as the commands build them: NumPy and Python floats mixed
        f = np.linspace(0.0, 2e7, 7)
        rows = [(fi, float(fi) / 3.0, np.float64(1.0) / (i + 3), 1e-300 * i, -0.1)
                for i, fi in enumerate(f)]
        header = "a,b,c,d,e"
        lines = [header] + [",".join("%.17g" % v for v in row) for row in rows]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), header, iter(rows))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        cli._write_csv(str(path), header, [])
        assert path.read_bytes() == b"a,b,c,d,e\n"


class TestDeterminism:
    def test_witness_bytes_stable(self, capsys, tmp_path):
        reports = []
        for sub in ("a", "b"):
            conf = tmp_path / ("%s.conf" % sub)
            conf.write_text(
                "chain.sample_rate = 50 MHz\nrun.duration = 10 ms\n"
                "run.output_dir = %s\n" % (tmp_path / sub)
            )
            rc, _, _ = run_cli(capsys, "witness", "--config", str(conf), "--seed", "3")
            assert rc == 0
            reports.append((tmp_path / sub / "witness.json").read_bytes())
        assert reports[0] == reports[1]

    def test_synth_bytes_follow_seed(self, capsys, tmp_path):
        blobs = {}
        for sub, seed in (("a", "9"), ("b", "9"), ("c", "10")):
            conf = tmp_path / ("%s.conf" % sub)
            conf.write_text(
                "chain.sample_rate = 50 MHz\nrun.duration = 10 ms\n"
                "run.output_dir = %s\n" % (tmp_path / sub)
            )
            rc, _, _ = run_cli(capsys, "synth", "--config", str(conf), "--seed", seed)
            assert rc == 0
            blobs[sub] = (tmp_path / sub / "trace.bin").read_bytes()
        assert blobs["a"] == blobs["b"]
        assert blobs["a"] != blobs["c"]

    def test_timestamps_only_in_sidecar_log(self, capsys, fast_conf, tmp_path):
        rc, _, _ = run_cli(capsys, "spectra", "--config", fast_conf)
        assert rc == 0
        log = (tmp_path / "out" / "run.log").read_text()
        assert "spectra" in log and "T" in log  # ISO stamp lives here only


    def test_run_log_records_peak_rss(self, capsys, fast_conf, tmp_path):
        for argv in (["spectra"], ["synth", "--seed", "3"], ["witness", "--seed", "3"]):
            rc, _, _ = run_cli(capsys, *argv, "--config", fast_conf)
            assert rc == 0
        lines = (tmp_path / "out" / "run.log").read_text().splitlines()
        assert len(lines) == 3
        for line, command in zip(lines, ("spectra", "synth", "witness")):
            assert command in line
            m = re.search(r" peak_rss_mib=(\d+\.\d) minor_faults=(\d+)$", line)
            assert 10.0 < float(m.group(1)) < 4096.0
            assert int(m.group(2)) > 0


class TestOneTraceAtATime:
    """Each record is reduced to its matrix before the next one exists."""

    @staticmethod
    def record_traces(monkeypatch, module, names):
        alive = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                assert [ref for ref in alive if ref() is not None] == []
                trace = fn(*args, **kwargs)
                alive.append(weakref.ref(trace))
                return trace
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        return alive

    def test_witness(self, capsys, fast_conf, monkeypatch):
        # witness's three records come from synth.witness_streams, each made
        # in synth._Run.stream: its blocks go to the estimator as they are
        # synthesized, the last of them before the next stream exists, and
        # no trace is ever assembled
        streams, traces = [], []
        stream = synth._Run.stream

        def recording(run, job, codes=None):
            assert all(done for done in streams)
            record = stream(run, job, codes)
            streams.append(False)
            blocks, index = record.blocks, len(streams) - 1

            def watched():
                yield from blocks
                streams[index] = True

            record.blocks = watched()
            return record

        monkeypatch.setattr(synth._Run, "stream", recording)
        monkeypatch.setattr(synth.TwoChannelTrace, "__post_init__", lambda trace: traces.append(trace))
        rc, _, _ = run_cli(capsys, "witness", "--config", fast_conf)
        assert rc == 0
        assert streams == [True, True, True]
        assert traces == []

    def test_witness_joins_its_one_worker(self, capsys, fast_conf, thread_starts):
        before = threading.active_count()
        rc, _, _ = run_cli(capsys, "witness", "--config", fast_conf)
        assert rc == 0
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.active_count() == before

    def test_analyze(self, capsys, fast_conf, tmp_path, monkeypatch):
        # each file is read block by block into the estimator, to its end,
        # before the next one is opened; none is read whole
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf)
        trace_path = json.loads(out)["written"]
        chain = DetectionChain(sample_rate=50e6)
        ref_path, dark_path = str(tmp_path / "ref.bin"), str(tmp_path / "dark.bin")
        write_trace(shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, 0.010, seed=6),
                    ref_path)
        write_trace(dark_trace(chain, 0.010, seed=7), dark_path)
        streams = []
        stream_trace = cli.stream_trace

        def recording(path, chain=None):
            assert all(done for done in streams)
            record = stream_trace(path, chain=chain)
            streams.append(False)
            blocks, index = record.blocks, len(streams) - 1

            def watched():
                yield from blocks
                streams[index] = True

            record.blocks = watched()
            return record

        monkeypatch.setattr(cli, "stream_trace", recording)
        monkeypatch.setattr(cli, "read_trace", None, raising=False)
        rc, _, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                           "--reference", ref_path, "--dark", dark_path)
        assert rc == 0
        assert streams == [True, True, True]

    def test_analyze_starts_no_thread(self, capsys, fast_conf, tmp_path, thread_starts):
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf)
        trace_path = json.loads(out)["written"]
        chain = DetectionChain(sample_rate=50e6)
        ref_path, dark_path = str(tmp_path / "ref.bin"), str(tmp_path / "dark.bin")
        write_trace(shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, 0.010, seed=6),
                    ref_path)
        write_trace(dark_trace(chain, 0.010, seed=7), dark_path)
        thread_starts.clear()  # synth's draw-ahead worker
        rc, _, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                           "--reference", ref_path, "--dark", dark_path)
        assert rc == 0
        assert thread_starts == []


def _python(code):
    """Run code in a fresh interpreter on this checkout; its last stdout line as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestAllocatorPolicy:
    """cli.main, and only cli.main, keeps freed grid-sized blocks in the heap."""

    @staticmethod
    def fake_libc(monkeypatch, mallopt=None, error=None):
        calls = []

        def lookup(name):
            if error is not None:
                raise error

            class Lib:
                pass

            lib = Lib()
            lib.mallopt = mallopt or (lambda param, value: calls.append((param, value)) or 1)
            return lib

        monkeypatch.setattr(cli.ctypes, "CDLL", lookup)
        return calls

    def test_main_sets_both_thresholds_to_1_gib(self, capsys, fast_conf, monkeypatch):
        calls = self.fake_libc(monkeypatch)
        rc, _, _ = run_cli(capsys, "steady-state", "--config", fast_conf)
        assert rc == 0
        assert sorted(calls) == [(-3, 1 << 30), (-1, 1 << 30)]

    @pytest.mark.parametrize("failure", ["no_library", "no_mallopt", "refused"])
    def test_failed_policy_changes_nothing(self, capsys, tmp_path, monkeypatch, failure):
        reports = []
        for sub in ("real", failure):
            if sub == "no_library":
                self.fake_libc(monkeypatch, error=OSError("no libc"))
            elif sub == "no_mallopt":
                self.fake_libc(monkeypatch, error=AttributeError("mallopt"))
            elif sub == "refused":
                self.fake_libc(monkeypatch, mallopt=lambda param, value: 0)
            conf = tmp_path / ("%s.conf" % sub)
            conf.write_text(
                "chain.sample_rate = 50 MHz\nrun.duration = 10 ms\n"
                "run.output_dir = %s\n" % (tmp_path / sub)
            )
            rc, _, _ = run_cli(capsys, "witness", "--config", str(conf), "--seed", "3")
            assert rc == 0
            reports.append((tmp_path / sub / "witness.json").read_bytes())
        assert reports[0] == reports[1]

    def test_library_never_sets_it(self, tmp_path):
        # ctypes.CDLL records any mallopt lookup from before `import tpsh`;
        # the CLI call at the end shows that the recording sees one
        calls = _python(
            "import ctypes, json\n"
            "calls = []\n"
            "class Recording(ctypes.CDLL):\n"
            "    def __getattr__(self, name):\n"
            "        if name == 'mallopt':\n"
            "            return lambda param, value: calls.append(param) or 1\n"
            "        return super().__getattr__(name)\n"
            "ctypes.CDLL = Recording\n"
            "import tpsh\n"
            "from tpsh import cli\n"
            "seen = {'import': list(calls)}\n"
            "spec = tpsh.apply_detection_loss(tpsh.quadrature_spectra(\n"
            "    tpsh.steady_state(tpsh.CavityParams()), tpsh.default_frequency_grid()), 0.9)\n"
            "trace = tpsh.synthesize(spec, tpsh.DetectionChain(sample_rate=50e6), 0.010, 1)\n"
            "seen['synthesize'] = list(calls)\n"
            "tpsh.cross_spectral_matrix(trace, 100e3)\n"
            "seen['cross_spectral_matrix'] = list(calls)\n"
            "tpsh.mc_spectra(tpsh.steady_state(tpsh.CavityParams()), [6e6], seed=1,\n"
            "                n_realizations=2, n_steps=1 << 16)\n"
            "seen['mc_spectra'] = list(calls)\n"
            "cli.main(['steady-state', '--out', %r])\n"
            "seen['cli.main'] = list(calls)\n"
            "print(json.dumps(seen))\n" % str(tmp_path)
        )
        assert calls == {
            "import": [], "synthesize": [], "cross_spectral_matrix": [], "mc_spectra": [],
            "cli.main": [-3, -1],
        }

    def test_repeated_witness_faults_no_pages_in_again(self, fast_conf):
        # a repeat reuses the heap's blocks and faults 15-40 pages in; with
        # glibc's default a 50 MS/s, 10 ms witness faults 800-1,100 (the
        # circulant synthesis about 8,000), and at 200 MS/s 3,000-4,300
        faults = _python(
            "import json, resource\n"
            "from tpsh import cli\n"
            "faults = []\n"
            "for seed in (3, 4, 5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert cli.main(['witness', '--seed', str(seed), '--config', %r]) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(json.dumps(faults))\n" % fast_conf
        )
        assert faults[1] < 1000 and faults[2] < 1000, faults


class TestFreshProcessMemory:
    # a child reports at least its parent's peak RSS as ru_maxrss (fork and
    # vfork both carry it through exec), so each witness is started by a
    # small launcher interpreter, not by this large test process
    LAUNCHER = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )

    def test_witness_peak_does_not_grow_with_the_trace(self, fast_conf, tmp_path):
        # no array spans the record: a fresh witness peaks within 3 MiB at
        # 10 and 40 ms (the circulant synthesis rose 33 MiB between them)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("TPSH_DEFAULTS", None)
        peaks = []
        for duration in ("10", "40"):
            out = subprocess.run(
                [sys.executable, "-c", self.LAUNCHER, sys.executable, "-c",
                 "import sys; from tpsh.cli import main; sys.exit(main(sys.argv[1:]))",
                 "witness", "--config", fast_conf, "--duration-ms", duration,
                 "--out", str(tmp_path / duration)],
                env=env, capture_output=True, text=True, check=True)
            status, maxrss = (int(v) for v in out.stdout.split())
            assert status == 0
            peaks.append(maxrss / 1024.0)  # KiB on Linux
        assert abs(peaks[1] - peaks[0]) <= 3.0, peaks


class TestErrors:
    def test_missing_trace_file(self, capsys, fast_conf):
        rc, out, err = run_cli(capsys, "analyze", "missing.bin", "--config", fast_conf)
        assert rc == 1
        assert out == ""
        payload = json.loads(err)
        assert "missing.bin" in payload["error"]

    def test_non_finite_trace_header(self, capsys, fast_conf):
        _, out, _ = run_cli(capsys, "synth", "--config", fast_conf)
        path = json.loads(out)["written"]
        with open(path, "r+b") as fh:
            fh.seek(16)  # the header's duration
            fh.write(struct.pack("<d", float("inf")))
        rc, out, err = run_cli(capsys, "analyze", path, "--config", fast_conf)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "trace header duration must be finite, found inf"}

    def test_dark_record_that_cancels_the_signal(self, capsys, fast_conf):
        _, out, _ = run_cli(capsys, "synth", "--config", fast_conf)
        path = json.loads(out)["written"]
        rc, out, err = run_cli(capsys, "analyze", path, "--dark", path, "--config", fast_conf)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "vanishes across the band" in json.loads(err)["error"]

    def test_synth_refuses_wide_adc_before_synthesizing(self, capsys, fast_conf, monkeypatch):
        # a 20-bit chain cannot be written to a trace file, so no trace is made
        with open(fast_conf, "a") as fh:
            fh.write("chain.adc_bits = 20\n")
        calls = []
        monkeypatch.setattr(cli, "synthesis_stream", lambda *args: calls.append(args))
        rc, out, err = run_cli(capsys, "synth", "--config", fast_conf)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "trace files hold 16-bit samples" in json.loads(err)["error"]
        assert calls == []

    def test_bad_config_key(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("cavity.finesse = 120\n")
        rc, _, err = run_cli(capsys, "steady-state", "--config", str(conf))
        assert rc == 1
        assert "unknown key" in json.loads(err)["error"]

    @pytest.mark.parametrize("line, field", [
        ("analysis.band_high = 1e999", "band_high"),
        ("run.duration = 1e999", "duration"),
    ])
    def test_infinite_config_value(self, capsys, tmp_path, line, field):
        conf = tmp_path / "bad.conf"
        conf.write_text("%s\nrun.output_dir = %s\n" % (line, tmp_path / "out"))
        rc, out, err = run_cli(capsys, "witness", "--config", str(conf))
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {"error": "%s must be finite" % field}
        assert not (tmp_path / "out" / "witness.json").exists()

    def test_non_finite_value_never_reaches_an_artifact(self, tmp_path):
        path = tmp_path / "report.json"
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                cli._write_json(str(path), {"freq_hz": value})
            with pytest.raises(ValueError):
                cli._print_json({"freq_hz": value})
        assert not path.exists()

    def test_invalid_field_value(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("cavity.input_transmission = 1.5\n")
        rc, _, err = run_cli(capsys, "steady-state", "--config", str(conf))
        assert rc == 1
        assert "input_transmission" in json.loads(err)["error"]
