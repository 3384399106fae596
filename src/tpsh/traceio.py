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
into place, so readers never observe a partial file.  Samples are written,
and read by stream_trace, _BLOCK_FRAMES frames at a time through one
buffer, so neither needs memory in proportion to the file.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings

import numpy as np

from .synth import DetectionChain, TraceStream, TwoChannelTrace

TRACE_MAGIC = b"TPSH"
TRACE_VERSION = 1
HEADER_SIZE = 64

_HEADER = struct.Struct("<4sHdBBdQdd")
_SAMPLE_DTYPE = np.dtype("<i2")
_SAMPLE_BITS = 8 * _SAMPLE_DTYPE.itemsize
_FRAME_BYTES = 2 * _SAMPLE_DTYPE.itemsize
# frames per block written or streamed: 256 KiB
_BLOCK_FRAMES = 1 << 16


def atomic_write(path: str, chunks) -> None:
    """Write an iterable of byte chunks to path through a temporary file.

    Each chunk is written before the next is taken, so a chunk may reuse
    the previous one's memory.  The temporary file, in path's directory,
    is renamed into place,
    so readers never observe a partial file; it is created like a plain
    open() would create it (mode 0o666 less the umask).
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


def _frames(trace):
    """trace's codes as interleaved frames, in blocks of one reused buffer."""
    buf = np.empty((_BLOCK_FRAMES, 2), dtype=_SAMPLE_DTYPE)
    for codes_1, codes_2 in trace.blocks:
        for first in range(0, len(codes_1), _BLOCK_FRAMES):
            part = slice(first, first + _BLOCK_FRAMES)
            block = buf[: len(codes_1[part])]
            block[:, 0] = codes_1[part]
            block[:, 1] = codes_2[part]
            yield block


def write_trace(trace: TwoChannelTrace | TraceStream, path: str) -> None:
    """Write a trace, or a stream's blocks as they come.

    adc_bits must fit the 16-bit sample slots.
    """
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
    atomic_write(path, itertools.chain((header,), _frames(trace)))


def _read_header(fh, chain: DetectionChain | None):
    """(chain, duration, seed, dc_1, dc_2, frames) of an open trace file.

    Checks the header and the payload's size; frames is the payload's frame
    count.  The file stores acquisition metadata only; analysis parameters
    (filter corners, noise levels) come from chain when provided, otherwise
    from chain defaults.  A provided chain must agree with the header's
    sample rate and bit depth.
    """
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise ValueError("file too small to hold a trace header")
    magic, version, sample_rate, channels, adc_bits, duration, seed, dc_1, dc_2 = (
        _HEADER.unpack(head[: _HEADER.size])
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

    payload = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    expected = int(round(duration * sample_rate))
    found, leftover = divmod(payload, _FRAME_BYTES)
    if payload == 0 and expected > 0:
        warnings.warn("header-only trace file: expected %d samples, found none" % expected)
    elif leftover or found != expected:
        raise ValueError(
            "trace payload is truncated or padded: expected %d samples per "
            "channel, found %s" % (expected, payload / _FRAME_BYTES)
        )
    return chain, duration, seed, dc_1, dc_2, found


def _truncated(frames: int, got: int) -> ValueError:
    # the file shrank after its header was checked
    return ValueError("trace payload is truncated: expected %d samples per channel, found %s"
                      % (frames, got / _FRAME_BYTES))


def read_trace(path: str, chain: DetectionChain | None = None,
               *, _stream: bool = False) -> TwoChannelTrace:
    """Read a trace file back into memory.

    The channels are read-only int16 views of the file's payload, which is
    read once and not copied again.  The header is checked as _read_header
    describes.  _stream makes this stream_trace, so that a wrapper of
    read_trace (perfbench's tracer) sees the streaming reads too.
    """
    fh = open(path, "rb")
    try:
        chain, duration, seed, dc_1, dc_2, frames = _read_header(fh, chain)
        if _stream:
            blocks = _read_blocks(fh, frames)
            next(blocks)  # now inside its with, which closes the file however the stream ends
            return TraceStream(chain, duration, seed, dc_1, dc_2, frames, blocks)
        with fh:
            payload = fh.read(frames * _FRAME_BYTES)
    except BaseException:
        fh.close()
        raise
    if len(payload) != frames * _FRAME_BYTES:
        raise _truncated(frames, len(payload))
    # read-only int16 views of the payload's bytes: no copy
    samples = np.frombuffer(payload, dtype=_SAMPLE_DTYPE).reshape(-1, 2)
    return TwoChannelTrace(
        samples_1=samples[:, 0],
        samples_2=samples[:, 1],
        chain=chain,
        duration=duration,
        seed=seed,
        dc_1=dc_1,
        dc_2=dc_2,
    )


def _read_blocks(fh, frames: int):
    """The payload of the open file fh, whose header has been read, as its
    channels, _BLOCK_FRAMES frames at a time through one buffer.

    Yields once first, before the payload, so that a caller can start it;
    closes fh when it ends or is closed.
    """
    with fh:
        yield
        buf = np.empty((_BLOCK_FRAMES, 2), dtype=_SAMPLE_DTYPE)
        for first in range(0, frames, _BLOCK_FRAMES):
            block = buf[: min(_BLOCK_FRAMES, frames - first)]
            got = fh.readinto(block)
            if got != block.nbytes:
                raise _truncated(frames, first * _FRAME_BYTES + got)
            yield block[:, 0], block[:, 1]


def stream_trace(path: str, chain: DetectionChain | None = None) -> TraceStream:
    """A trace file as a TraceStream, read as its blocks are taken.

    The header is checked now, as _read_header describes, and the payload
    is read from the same open file.  Each block is a pair of int16 views
    of one reused buffer.  Take the blocks to the end, or close them, to
    close the file.
    """
    return read_trace(path, chain, _stream=True)
