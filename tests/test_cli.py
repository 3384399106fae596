"""Command-line behavior: artifacts, determinism, errors."""

import json
import os
import re
import weakref

import numpy as np
import pytest

from tpsh.analyzer import correct_electronic_noise, cross_spectral_matrix
from tpsh.cavity import CavityParams, steady_state
from tpsh import cli
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
            want = correct_electronic_noise(matrix.combination(gain, mode),
                                            dark.combination(gain, mode))
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
            return len(open(os.path.join(outdir, "sum_spectrum.csv")).readlines())

        assert abs(rows("100") - 2 * rows("200")) <= 3

    def test_witness_reproduces_entangled_point(self, capsys, fast_conf):
        rc, out, _ = run_cli(capsys, "witness", "--config", fast_conf,
                             "--pump-mw", "23", "--seed", "11")
        assert rc == 0
        report = json.loads(out)
        assert report["duan_sum"] == pytest.approx(3.73, abs=0.25)
        assert report["entangled"] is True
        written = json.load(open(os.path.join(
            os.path.dirname(fast_conf), "out", "witness.json")))
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
            reports.append(open(tmp_path / sub / "witness.json", "rb").read())
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
            blobs[sub] = open(tmp_path / sub / "trace.bin", "rb").read()
        assert blobs["a"] == blobs["b"]
        assert blobs["a"] != blobs["c"]

    def test_timestamps_only_in_sidecar_log(self, capsys, fast_conf, tmp_path):
        rc, _, _ = run_cli(capsys, "spectra", "--config", fast_conf)
        assert rc == 0
        log = open(tmp_path / "out" / "run.log").read()
        assert "spectra" in log and "T" in log  # ISO stamp lives here only


    def test_run_log_records_peak_rss(self, capsys, fast_conf, tmp_path):
        for argv in (["spectra"], ["synth", "--seed", "3"], ["witness", "--seed", "3"]):
            rc, _, _ = run_cli(capsys, *argv, "--config", fast_conf)
            assert rc == 0
        lines = open(tmp_path / "out" / "run.log").read().splitlines()
        assert len(lines) == 3
        for line, command in zip(lines, ("spectra", "synth", "witness")):
            assert command in line
            peak = float(re.search(r" peak_rss_mib=(\d+\.\d)$", line).group(1))
            assert 10.0 < peak < 4096.0


class TestOneTraceAtATime:
    """Each trace is reduced to its matrix before the next one exists."""

    @staticmethod
    def record_traces(monkeypatch, names):
        alive = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                assert [ref for ref in alive if ref() is not None] == []
                trace = fn(*args, **kwargs)
                alive.append(weakref.ref(trace))
                return trace
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        return alive

    def test_witness(self, capsys, fast_conf, monkeypatch):
        alive = self.record_traces(
            monkeypatch, ("witness_arm_traces", "shot_noise_pair", "dark_trace"))
        rc, _, _ = run_cli(capsys, "witness", "--config", fast_conf)
        assert rc == 0
        assert len(alive) == 3

    def test_analyze(self, capsys, fast_conf, tmp_path, monkeypatch):
        rc, out, _ = run_cli(capsys, "synth", "--config", fast_conf)
        trace_path = json.loads(out)["written"]
        chain = DetectionChain(sample_rate=50e6)
        ref_path, dark_path = str(tmp_path / "ref.bin"), str(tmp_path / "dark.bin")
        write_trace(shot_noise_pair(chain.dc_current_1, chain.dc_current_2, chain, 0.010, seed=6),
                    ref_path)
        write_trace(dark_trace(chain, 0.010, seed=7), dark_path)
        alive = self.record_traces(monkeypatch, ("read_trace",))
        rc, _, _ = run_cli(capsys, "analyze", trace_path, "--config", fast_conf,
                           "--reference", ref_path, "--dark", dark_path)
        assert rc == 0
        assert len(alive) == 3


class TestErrors:
    def test_missing_trace_file(self, capsys, fast_conf):
        rc, out, err = run_cli(capsys, "analyze", "missing.bin", "--config", fast_conf)
        assert rc == 1
        assert out == ""
        payload = json.loads(err)
        assert "missing.bin" in payload["error"]

    def test_bad_config_key(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("cavity.finesse = 120\n")
        rc, _, err = run_cli(capsys, "steady-state", "--config", str(conf))
        assert rc == 1
        assert "unknown key" in json.loads(err)["error"]

    def test_invalid_field_value(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("cavity.input_transmission = 1.5\n")
        rc, _, err = run_cli(capsys, "steady-state", "--config", str(conf))
        assert rc == 1
        assert "input_transmission" in json.loads(err)["error"]
