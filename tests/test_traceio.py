"""Binary trace format: round trips and damage handling."""

import dataclasses
import gc
import glob
import struct
from pathlib import Path

import numpy as np
import pytest

from tpsh.noise import QuadSpectra, default_frequency_grid
from tpsh.analyzer import cross_spectral_matrix
from tpsh.synth import DetectionChain, dark_trace, shot_noise_pair, synthesis_stream, synthesize
from tpsh.traceio import HEADER_SIZE, read_trace, stream_trace, write_trace


def small_trace(**chain_kw):
    base = dict(sample_rate=50e6, adc_bits=14, dc_current_1=1e-3, dc_current_2=2e-3)
    base.update(chain_kw)
    chain = DetectionChain(**base)
    return shot_noise_pair(1e-3, 2e-3, chain, 0.010, seed=321)


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        tr = small_trace()
        path = str(tmp_path / "trace.bin")
        write_trace(tr, path)
        back = read_trace(path, chain=tr.chain)
        assert np.array_equal(back.samples_1, tr.samples_1)
        assert np.array_equal(back.samples_2, tr.samples_2)
        assert back.duration == tr.duration
        assert back.seed == tr.seed
        assert back.dc_1 == tr.dc_1 and back.dc_2 == tr.dc_2

    def test_rewrite_is_deterministic(self, tmp_path):
        tr = small_trace()
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        write_trace(tr, p1)
        write_trace(tr, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        write_trace(small_trace(), str(tmp_path / "trace.bin"))
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_default_chain_reconstruction(self, tmp_path):
        tr = small_trace()
        path = str(tmp_path / "trace.bin")
        write_trace(tr, path)
        back = read_trace(path)
        assert back.chain.sample_rate == tr.chain.sample_rate
        assert back.chain.adc_bits == tr.chain.adc_bits
        assert np.array_equal(back.samples_1, tr.samples_1)

    def test_channels_are_read_only_int16_views(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        back = read_trace(path)
        for samples in (back.samples_1, back.samples_2):
            assert samples.dtype == np.int16
            assert not samples.flags.writeable
            assert not samples.flags.owndata
        # both channels are strided views of the one buffer the file was read into
        assert back.samples_1.base is back.samples_2.base


class TestStreams:
    def test_stream_blocks_equal_the_read_trace(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        whole = read_trace(path)
        stream = stream_trace(path)
        blocks = [(c1.copy(), c2.copy()) for c1, c2 in stream.blocks]
        assert len(blocks) > 1 and all(c1.dtype == np.int16 for c1, _ in blocks)
        assert np.array_equal(np.concatenate([c1 for c1, _ in blocks]), whole.samples_1)
        assert np.array_equal(np.concatenate([c2 for _, c2 in blocks]), whole.samples_2)
        assert (stream.n_samples, stream.duration, stream.seed, stream.dc_1, stream.dc_2, stream.chain) == (
            whole.n_samples, whole.duration, whole.seed, whole.dc_1, whole.dc_2, whole.chain)

    def test_a_stream_is_written_as_its_trace(self, tmp_path):
        f = default_frequency_grid()
        ones = np.ones_like(f)
        spec = QuadSpectra(frequencies=f, s_x1=ones, s_x2=ones, c_x=0 * ones,
                           s_y1=ones, s_y2=ones, c_y=0 * ones)
        chain = DetectionChain(sample_rate=50e6)
        write_trace(synthesize(spec, chain, 0.010, seed=5), str(tmp_path / "a.bin"))
        with synthesis_stream(spec, chain, 0.010, 5) as stream:
            write_trace(stream, str(tmp_path / "b.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_a_file_that_shrinks_under_its_stream_is_refused(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        stream = stream_trace(path)
        with open(path, "r+b") as fh:
            fh.truncate(HEADER_SIZE + 4 * 1000)
        with pytest.raises(ValueError, match="truncated"):
            for _ in stream.blocks:
                pass

    def test_a_stream_reads_the_file_whose_header_it_checked(self, tmp_path):
        # the payload comes from the file opened for the header, even after
        # another file is renamed into place under the same path
        path = str(tmp_path / "trace.bin")
        first = small_trace()
        write_trace(first, path)
        stream = stream_trace(path)
        write_trace(dataclasses.replace(first, samples_1=first.samples_1[::-1].copy(), seed=first.seed + 1), path)
        codes = np.concatenate([c1.copy() for c1, _ in stream.blocks])
        assert np.array_equal(codes, first.samples_1)

    def test_a_stream_left_unread_closes_its_file(self, tmp_path):
        # ResourceWarning is an error here: a file left open would fail this
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        stream_trace(path).blocks.close()
        stream = stream_trace(path)
        del stream
        gc.collect()

    def test_stream_checks_the_header_as_read_trace_does(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        with pytest.raises(ValueError, match="adc_bits"):
            stream_trace(path, chain=DetectionChain(sample_rate=50e6, adc_bits=12))


class TestValidation:
    def test_wide_adc_rejected_on_write(self, tmp_path):
        tr = small_trace(adc_bits=24)
        with pytest.raises(ValueError, match="16-bit"):
            write_trace(tr, str(tmp_path / "trace.bin"))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        blob = bytearray(Path(path).read_bytes())
        blob[:4] = b"WAVE"
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            read_trace(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        blob = bytearray(Path(path).read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_trace(path)

    def test_truncated_payload_names_counts(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        tr = small_trace()
        write_trace(tr, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: HEADER_SIZE + 4 * (tr.n_samples // 2)])
        with pytest.raises(ValueError, match=r"expected 500000.*found 250000"):
            read_trace(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="expected"):
            read_trace(path)

    def test_header_only_accepted_with_warning(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        tr = small_trace()
        write_trace(tr, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:HEADER_SIZE])
        with pytest.warns(UserWarning, match="header-only"):
            back = read_trace(path)
        assert back.n_samples == 0
        assert back.duration == tr.duration

    def test_short_file_rejected(self, tmp_path):
        path = str(tmp_path / "stub.bin")
        Path(path).write_bytes(b"TPSH")
        with pytest.raises(ValueError, match="too small"):
            read_trace(path)

    def test_chain_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "trace.bin")
        tr = small_trace()
        write_trace(tr, path)
        other_rate = DetectionChain(sample_rate=200e6, adc_bits=14)
        with pytest.raises(ValueError, match="sample_rate"):
            read_trace(path, chain=other_rate)
        other_bits = DetectionChain(sample_rate=50e6, adc_bits=12)
        with pytest.raises(ValueError, match="adc_bits"):
            read_trace(path, chain=other_bits)

    @staticmethod
    def patched_header(tmp_path, offset, value, fmt="<d", **chain_kw):
        """A trace file, of small_trace(**chain_kw), whose header holds value,
        packed as fmt, at offset."""
        path = str(tmp_path / "trace.bin")
        write_trace(small_trace(**chain_kw), path)
        blob = bytearray(Path(path).read_bytes())
        field = struct.pack(fmt, value)
        blob[offset:offset + len(field)] = field
        Path(path).write_bytes(bytes(blob))
        return path

    @pytest.mark.parametrize("field, offset, value", [
        ("sample_rate", 6, float("nan")),
        ("duration", 16, float("inf")),
        ("dc_1", 32, float("nan")),
        ("dc_2", 40, float("-inf")),
    ])
    def test_non_finite_header_field_rejected(self, tmp_path, field, offset, value):
        path = self.patched_header(tmp_path, offset, value)
        for chain in (None, DetectionChain(sample_rate=50e6, adc_bits=14)):
            with pytest.raises(ValueError, match="%s must be finite" % field):
                read_trace(path, chain=chain)

    def test_wide_adc_header_rejected(self, tmp_path):
        # a 20-bit header would scale the codes by an LSB 1/64 of the true one
        path = self.patched_header(tmp_path, 15, 20, fmt="<B")
        for chain in (None, DetectionChain(sample_rate=50e6, adc_bits=20)):
            with pytest.raises(ValueError, match="trace files hold 16-bit samples"):
                read_trace(path, chain=chain)

    def test_codes_beyond_the_header_bit_depth_rejected(self, tmp_path):
        # a 16-bit trace whose header says 12 bits: its codes, read with the
        # 12-bit step, would give a matrix 16 times too large in amplitude
        path = self.patched_header(tmp_path, 15, 12, fmt="<B", adc_bits=16)
        for chain in (None, DetectionChain(sample_rate=50e6, adc_bits=12)):
            with pytest.raises(ValueError, match="exceed the declared bit depth"):
                read_trace(path, chain=chain)
            with pytest.raises(ValueError, match="exceed the declared bit depth"):
                cross_spectral_matrix(stream_trace(path, chain=chain), 100e3)

    def test_a_dark_trace_needs_its_chain(self, tmp_path):
        # a chain built from a dark header's dc 0 and 0 has an ADC step of
        # zero: its estimate would be all zeros whatever the codes
        chain = DetectionChain(sample_rate=50e6, adc_bits=14)
        path = str(tmp_path / "dark.bin")
        write_trace(dark_trace(chain, 0.010, seed=5), path)
        for read in (read_trace, stream_trace):
            with pytest.raises(ValueError, match="pass the chain the trace was recorded with"):
                read(path)
        matrix = cross_spectral_matrix(read_trace(path, chain), 100e3)
        assert matrix.p11.max() > 0 and matrix.p22.max() > 0
        stream = stream_trace(path, chain)
        assert sum(len(codes_1) for codes_1, _ in stream.blocks) == stream.n_samples

    @pytest.mark.parametrize("field, offset", [("dc_1", 32), ("dc_2", 40)])
    def test_negative_dc_rejected(self, tmp_path, field, offset):
        path = self.patched_header(tmp_path, offset, -1e-3)
        with pytest.raises(ValueError, match="%s must be >= 0" % field):
            read_trace(path, chain=DetectionChain(sample_rate=50e6, adc_bits=14))
