"""Run configuration from flat key-value files.

Format: one "section.key = value" per line, '#' starts a comment, blank
lines ignored.  Values accept SI suffixes (34 mW, 5 MHz, 857 nm, 80 ms,
1.1 %).  Unknown keys are errors; anything omitted takes the documented
default, which reproduces the reference operating point.  The environment
variable TPSH_DEFAULTS may name a file applied between the built-in
defaults and an explicit config file.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field

from .analyzer import GAIN_MODES
from .cavity import CavityParams, refuse_infinite
from .synth import DetectionChain

# longest suffixes first so "mW" wins over "W"
_SUFFIXES = (
    ("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3), ("Hz", 1.0),
    ("mW", 1e-3), ("uW", 1e-6), ("nW", 1e-9), ("W", 1.0),
    ("nm", 1e-9), ("um", 1e-6), ("mm", 1e-3),
    ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9), ("s", 1.0),
    ("mA", 1e-3), ("uA", 1e-6), ("A", 1.0),
    ("%", 1e-2),
)

_NUMBER = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z%]*)$")


@dataclass
class AnalysisConfig:
    """Spectral-analysis settings shared by the analyze/witness commands."""

    rbw: float = 100e3
    band_low: float = 4.5e6
    band_high: float = 5.5e6
    gain_mode: str = "dc_balance"
    fixed_gain: float = 0.95

    def __post_init__(self):
        # NaN fails the checks below
        refuse_infinite(self)
        if not self.rbw > 0:
            raise ValueError("rbw must be > 0")
        if not self.band_low < self.band_high:
            raise ValueError("band_low must be below band_high")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError("gain_mode must be one of %s" % (GAIN_MODES,))
        if not self.fixed_gain > 0:
            raise ValueError("fixed_gain must be > 0")


@dataclass
class RunConfig:
    cavity: CavityParams = field(default_factory=CavityParams)
    chain: DetectionChain = field(default_factory=DetectionChain)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    seed: int = 12345
    duration: float = 0.080
    output_dir: str = "."

    def __post_init__(self):
        refuse_infinite(self)
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        if not self.duration > 0:
            raise ValueError("duration must be > 0")


def parse_scalar(text: str) -> float:
    """Number with an optional SI suffix."""
    m = _NUMBER.match(text.strip())
    if not m:
        raise ValueError("not a number: %r" % text)
    value = float(m.group(1))
    unit = m.group(2)
    if not unit:
        return value
    for suffix, mult in _SUFFIXES:
        if unit == suffix:
            return value * mult
    raise ValueError("unknown unit %r" % unit)


# under postponed annotations each field's type is the string of its name
_KINDS = {"float": float, "int": int, "str": str}


def _scalar_fields(cls) -> dict:
    """Name -> type of the float, int and str fields of dataclass cls."""
    return {f.name: _KINDS[f.type] for f in dataclasses.fields(cls) if f.type in _KINDS}


_SECTIONS = {
    "cavity": _scalar_fields(CavityParams),
    "chain": _scalar_fields(DetectionChain),
    "analysis": _scalar_fields(AnalysisConfig),
    "run": _scalar_fields(RunConfig),
}


def _coerce(section: str, key: str, raw: str):
    kind = _SECTIONS[section][key]
    if kind is str:
        return raw.strip()
    value = parse_scalar(raw)
    if kind is int:
        if not math.isfinite(value):
            raise ValueError("%s.%s must be finite" % (section, key))
        if value != int(value):
            raise ValueError("%s.%s must be an integer" % (section, key))
        return int(value)
    return value


def _parse_file(path: str, sections: dict) -> None:
    """Set each key path names in sections, a dict of per-section dicts."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError("%s:%d: expected 'section.key = value'" % (path, lineno))
            name, raw = (part.strip() for part in stripped.split("=", 1))
            if name.count(".") != 1:
                raise ValueError("%s:%d: key %r is not section.key" % (path, lineno, name))
            section, key = name.split(".")
            if key not in _SECTIONS.get(section, {}):
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, name))
            try:
                sections[section][key] = _coerce(section, key, raw)
            except ValueError as err:
                raise ValueError("%s:%d: %s" % (path, lineno, err)) from None


def load_config(path: str | None = None) -> RunConfig:
    """Built-in defaults, then TPSH_DEFAULTS (if set), then the given file."""
    sections = {name: {} for name in _SECTIONS}
    env_path = os.environ.get("TPSH_DEFAULTS")
    if env_path:
        _parse_file(env_path, sections)
    if path is not None:
        _parse_file(path, sections)
    return RunConfig(
        cavity=CavityParams(**sections["cavity"]),
        chain=DetectionChain(**sections["chain"]),
        analysis=AnalysisConfig(**sections["analysis"]),
        **sections["run"],
    )
