"""Config parsing: defaults, SI suffixes, layering, and rejection."""

import dataclasses

import pytest

from tpsh.cavity import CavityParams
from tpsh.config import AnalysisConfig, RunConfig, load_config, parse_scalar


def write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestScalars:
    def test_plain_numbers(self):
        assert parse_scalar("0.0059") == 0.0059
        assert parse_scalar("-3") == -3.0
        assert parse_scalar("1e-3") == 1e-3

    def test_si_suffixes(self):
        assert parse_scalar("34 mW") == pytest.approx(0.034)
        assert parse_scalar("5 MHz") == 5e6
        assert parse_scalar("857 nm") == pytest.approx(857e-9)
        assert parse_scalar("80 ms") == pytest.approx(0.080)
        assert parse_scalar("1.1 %") == pytest.approx(0.011)
        assert parse_scalar("15.6mm") == pytest.approx(0.0156)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_scalar("fast")
        with pytest.raises(ValueError, match="unknown unit"):
            parse_scalar("3 parsecs")


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.cavity.pump_power == pytest.approx(0.034)
        assert cfg.cavity.input_transmission == pytest.approx(0.04)
        assert cfg.cavity.roundtrip_loss == pytest.approx(0.011)
        assert cfg.cavity.conversion_efficiency == pytest.approx(0.0059)
        assert cfg.cavity.detector_efficiency == pytest.approx(0.96)
        assert cfg.chain.sample_rate == 200e6
        assert cfg.chain.adc_bits == 14
        assert cfg.analysis.rbw == 100e3
        assert cfg.seed == 12345
        assert cfg.duration == pytest.approx(0.080)

    def test_no_file_same_as_empty(self, tmp_path):
        empty = load_config(write(tmp_path, "# nothing here"))
        assert load_config(None) == empty

    def test_single_override(self, tmp_path):
        cfg = load_config(write(tmp_path, "cavity.pump_power = 23 mW"))
        assert cfg.cavity.pump_power == pytest.approx(0.023)
        assert cfg.cavity.input_transmission == pytest.approx(0.04)

    def test_each_section_reachable(self, tmp_path):
        cfg = load_config(write(tmp_path, """
            cavity.mismatch = 0.5
            chain.adc_bits = 12
            chain.sample_rate = 50 MHz
            analysis.rbw = 200 kHz
            analysis.gain_mode = fixed
            run.seed = 7
            run.duration = 20 ms
            run.output_dir = out
        """))
        assert cfg.cavity.mismatch == 0.5
        assert cfg.chain.adc_bits == 12
        assert cfg.chain.sample_rate == 50e6
        assert cfg.analysis.rbw == 200e3
        assert cfg.analysis.gain_mode == "fixed"
        assert cfg.seed == 7
        assert cfg.duration == pytest.approx(0.020)
        assert cfg.output_dir == "out"

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = load_config(write(tmp_path, """
            # full-line comment

            cavity.pump_power = 23 mW  # trailing comment
        """))
        assert cfg.cavity.pump_power == pytest.approx(0.023)

    def test_unknown_key_names_line(self, tmp_path):
        # the apparatus wavelengths are prose, not keys: no output depends on them
        for key in ("cavity.finesse", "cavity.fundamental_wavelength", "cavity.harmonic_wavelength"):
            path = write(tmp_path, "\n%s = 120\n" % key)
            with pytest.raises(ValueError, match=r":2: unknown key '%s'" % key):
                load_config(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = write(tmp_path, "cavity.pump_power 34 mW")
        with pytest.raises(ValueError, match=r":1: expected"):
            load_config(path)

    def test_invariant_violation_names_field(self, tmp_path):
        path = write(tmp_path, "cavity.input_transmission = 1.5")
        with pytest.raises(ValueError, match="input_transmission"):
            load_config(path)

    def test_non_integer_seed_rejected(self, tmp_path):
        path = write(tmp_path, "run.seed = 1.5")
        with pytest.raises(ValueError, match="integer"):
            load_config(path)

    def test_bad_gain_mode_rejected(self, tmp_path):
        path = write(tmp_path, "analysis.gain_mode = vibes")
        with pytest.raises(ValueError, match="gain_mode"):
            load_config(path)

    @pytest.mark.parametrize("line, field", [
        ("analysis.band_high = 1e999", "band_high"),  # 1e999 parses as inf
        ("run.duration = 1e999", "duration"),
        ("analysis.rbw = -1e999", "rbw"),
    ])
    def test_infinite_value_rejected(self, tmp_path, line, field):
        path = write(tmp_path, line)
        with pytest.raises(ValueError, match="^%s must be finite$" % field):
            load_config(path)

    @pytest.mark.parametrize("line", ["run.seed = 1e999", "chain.adc_bits = -1e999"])
    def test_infinite_integer_rejected(self, tmp_path, line):
        path = write(tmp_path, line)
        with pytest.raises(ValueError, match=":1: %s must be finite" % line.split(" ")[0]):
            load_config(path)

    @pytest.mark.parametrize("cls", [AnalysisConfig, RunConfig])
    def test_every_float_field_must_be_finite(self, cls):
        for f in dataclasses.fields(cls):
            if f.type != "float":
                continue
            for value in (float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="^%s must be finite$" % f.name):
                    cls(**{f.name: value})

    @pytest.mark.parametrize("cls, name, value", [
        (CavityParams, "input_transmission", float("nan")),
        (AnalysisConfig, "gain_mode", "vibes"),
        (RunConfig, "seed", -1),
    ])
    def test_assignment_refused(self, cls, name, value):
        # an assignment would skip the validation of __post_init__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cls(), name, value)

    def test_env_defaults_layer_under_explicit_file(self, tmp_path, monkeypatch):
        base = write(tmp_path, "cavity.pump_power = 23 mW\nrun.seed = 2", name="site.conf")
        monkeypatch.setenv("TPSH_DEFAULTS", base)
        cfg = load_config(None)
        assert cfg.cavity.pump_power == pytest.approx(0.023)
        assert cfg.seed == 2
        over = write(tmp_path, "run.seed = 9")
        cfg = load_config(over)
        assert cfg.cavity.pump_power == pytest.approx(0.023)  # env survives
        assert cfg.seed == 9  # explicit file wins
