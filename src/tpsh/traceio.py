"""Binary trace files: 64-byte header plus interleaved 16-bit samples.

Layout (little-endian):

    offset  size  field
    0       4     magic "TPSH"
    4       2     format version (u16, currently 1)
    6       8     sample_rate (f64, Hz)
    14      1     channel count (u8, always 2)
    15      1     adc_bits (u8)
    16      8     duration (f64, s)
    24      8     seed (u64)
    32      16    DC currents, channel 1 then 2 (2 x f64)
    48      16    reserved, zero
    64      ...   samples, ch1[0] ch2[0] ch1[1] ch2[1] ... (signed 16-bit)

Writes go to a temporary file in the destination directory and are renamed
into place, so readers never observe a partial file.
"""

from __future__ import annotations

import math
import os
import struct
import warnings

import numpy as np

from .synth import DetectionChain, TwoChannelTrace

TRACE_MAGIC = b"TPSH"
TRACE_VERSION = 1
HEADER_SIZE = 64

_HEADER = struct.Struct("<4sHdBBdQdd")
_SAMPLE_DTYPE = np.dtype("<i2")
_SAMPLE_BITS = 8 * _SAMPLE_DTYPE.itemsize
_FRAME_BYTES = 2 * _SAMPLE_DTYPE.itemsize


def atomic_write(path: str, *chunks) -> None:
    """Write byte chunks to path through a temporary file in its directory.

    The temporary file is renamed into place, so readers never observe a
    partial file; it is created like a plain open() would create it (mode
    0o666 less the umask).
    """
    tmp = "%s.%s.tmp" % (os.path.abspath(path), os.urandom(6).hex())
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_adc_bits(adc_bits: int) -> None:
    """Raise unless codes of adc_bits bits fit the file's 16-bit sample slots."""
    if adc_bits > _SAMPLE_BITS:
        raise ValueError("trace files hold %d-bit samples; adc_bits %d does not fit"
                         % (_SAMPLE_BITS, adc_bits))


def write_trace(trace: TwoChannelTrace, path: str) -> None:
    """Write a trace; adc_bits must fit the 16-bit sample slots."""
    check_adc_bits(trace.chain.adc_bits)
    if not 0 <= trace.seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit field")
    header = _HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        float(trace.chain.sample_rate),
        2,
        trace.chain.adc_bits,
        float(trace.duration),
        trace.seed,
        float(trace.dc_1),
        float(trace.dc_2),
    )
    header += b"\x00" * (HEADER_SIZE - len(header))

    frames = np.empty((trace.n_samples, 2), dtype=_SAMPLE_DTYPE)
    frames[:, 0] = trace.samples_1
    frames[:, 1] = trace.samples_2

    atomic_write(path, header, frames)


def read_trace(path: str, chain: DetectionChain | None = None) -> TwoChannelTrace:
    """Read a trace file back into memory.

    The channels are read-only int16 views of the file's bytes, which are
    read once and not copied again.  The file stores acquisition metadata
    only; analysis parameters (filter corners, noise levels) come from the
    chain argument when provided, otherwise from chain defaults.  A provided
    chain must agree with the header's sample rate and bit depth.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_SIZE:
        raise ValueError("file too small to hold a trace header")
    magic, version, sample_rate, channels, adc_bits, duration, seed, dc_1, dc_2 = (
        _HEADER.unpack(raw[: _HEADER.size])
    )
    if magic != TRACE_MAGIC:
        raise ValueError("not a trace file (bad magic)")
    if version != TRACE_VERSION:
        raise ValueError("unsupported trace format version %d" % version)
    if channels != 2:
        raise ValueError("trace files carry exactly 2 channels, found %d" % channels)
    check_adc_bits(adc_bits)
    for name, value in (("sample_rate", sample_rate), ("duration", duration),
                        ("dc_1", dc_1), ("dc_2", dc_2)):
        if not math.isfinite(value):
            raise ValueError("trace header %s must be finite, found %r" % (name, value))
    for name, value in (("dc_1", dc_1), ("dc_2", dc_2)):
        if value < 0:
            raise ValueError("trace header %s must be >= 0, found %r" % (name, value))

    if chain is None:
        chain = DetectionChain(
            sample_rate=sample_rate,
            adc_bits=adc_bits,
            dc_current_1=dc_1,
            dc_current_2=dc_2,
        )
    else:
        if abs(chain.sample_rate - sample_rate) > 1e-6 * sample_rate:
            raise ValueError(
                "chain sample_rate %g does not match the file's %g"
                % (chain.sample_rate, sample_rate)
            )
        if chain.adc_bits != adc_bits:
            raise ValueError(
                "chain adc_bits %d does not match the file's %d"
                % (chain.adc_bits, adc_bits)
            )

    payload = memoryview(raw)[HEADER_SIZE:]
    expected = int(round(duration * sample_rate))
    found, leftover = divmod(len(payload), _FRAME_BYTES)
    if len(payload) == 0 and expected > 0:
        warnings.warn("header-only trace file: expected %d samples, found none" % expected)
        empty = np.empty(0, dtype=_SAMPLE_DTYPE)
        return TwoChannelTrace(
            samples_1=empty, samples_2=empty.copy(), chain=chain,
            duration=duration, seed=seed, dc_1=dc_1, dc_2=dc_2,
        )
    if leftover or found != expected:
        raise ValueError(
            "trace payload is truncated or padded: expected %d samples per "
            "channel, found %s" % (expected, len(payload) / _FRAME_BYTES)
        )

    # read-only int16 views of the file's bytes: no copy of the payload
    frames = np.frombuffer(payload, dtype=_SAMPLE_DTYPE).reshape(-1, 2)
    return TwoChannelTrace(
        samples_1=frames[:, 0],
        samples_2=frames[:, 1],
        chain=chain,
        duration=duration,
        seed=seed,
        dc_1=dc_1,
        dc_2=dc_2,
    )
