"""The vectorized PNG decoder against the per-byte oracle, and its bounds.

``repro.imaging.png._unfilter`` must reproduce ``tests/png_oracle.py`` bit
for bit on any filter mix, and ``decode_png`` must refuse every hostile
stream — decompression bombs, oversize or empty headers, malformed
palettes — with :class:`CodecError` before doing unbounded work.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.imaging.image import MAX_PIXELS
from repro.imaging.png import _unfilter, decode_png
from repro.imaging.ppm import decode_netpbm

from tests.png_oracle import filter_loop, png_bytes, unfilter_loop

#: Samples per pixel -> PNG color type.
_COLOR_TYPES = {1: 0, 2: 4, 3: 2, 4: 6}


@st.composite
def filtered_streams(draw):
    """A raw scanline stream: random size, channels, data and filter bytes."""
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    channels = draw(st.sampled_from([1, 2, 3, 4]))
    # Half the streams use None/Sub/Up only, the whole-row path; with all
    # five filters a stream of more than a few rows almost always has an
    # Average or Paeth row and takes the wavefront.
    max_filter = draw(st.sampled_from([2, 4]))
    filters = draw(st.lists(st.integers(0, max_filter), min_size=height, max_size=height))
    # Pixels from a drawn seed: up to 6400 bytes would overrun hypothesis's
    # own draw buffer.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 256, (height, width * channels), dtype=np.uint8)
    raw = np.concatenate([np.array(filters, dtype=np.uint8)[:, None], rows], axis=1)
    return raw.tobytes(), height, width, channels


class TestUnfilterMatchesOracle:
    @given(filtered_streams())
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_on_random_streams(self, stream):
        raw, height, width, channels = stream
        got = _unfilter(raw, height, width, channels)
        assert got.dtype == np.uint8
        assert np.array_equal(got, unfilter_loop(raw, height, width, channels))

    @pytest.mark.parametrize("shape", [(4096, 2, 1), (3, 3000, 3)])
    def test_tall_and_wide_paeth_in_linear_memory(self, rng, shape):
        height, width, channels = shape
        rows = rng.integers(0, 256, (height, width * channels)).astype(np.uint8)
        raw = np.concatenate([np.full((height, 1), 4, np.uint8), rows], axis=1).tobytes()
        tracemalloc.start()
        try:
            got = _unfilter(raw, height, width, channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, unfilter_loop(raw, height, width, channels))
        # Skewed (H + W) x H buffers would need thousands of times this.
        assert peak < 16 * height * width * channels

    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    def test_bit_identical_on_one_filter_everywhere(self, rng, filter_type):
        rows = rng.integers(0, 256, (24, 31 * 3)).astype(np.uint8)
        raw = np.concatenate([np.full((24, 1), filter_type, np.uint8), rows], axis=1).tobytes()
        assert np.array_equal(_unfilter(raw, 24, 31, 3), unfilter_loop(raw, 24, 31, 3))

    def test_unknown_filter_byte_raises(self):
        raw = bytes([0, 7, 7, 5, 7, 7])
        with pytest.raises(CodecError, match="unknown PNG filter type 5"):
            _unfilter(raw, 2, 1, 2)

    def test_wrong_length_raises(self):
        with pytest.raises(CodecError, match="decompressed size"):
            _unfilter(bytes(5), 2, 2, 1)


def _encode(image: np.ndarray, filters: list[int]) -> bytes:
    height, width = image.shape[:2]
    channels = 1 if image.ndim == 2 else image.shape[2]
    idat = zlib.compress(filter_loop(image, filters))
    return png_bytes(width, height, _COLOR_TYPES[channels], idat)


class TestDecodeRoundTrip:
    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(9, 11, 3), (9, 11), (6, 5, 4)])
    def test_single_filter_stream_decodes_to_image(self, rng, filter_type, shape):
        image = rng.integers(0, 256, shape).astype(np.uint8)
        assert np.array_equal(decode_png(_encode(image, [filter_type] * shape[0])), image)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 1, 3), (1, 17, 3), (17, 1, 3), (17, 1)])
    def test_degenerate_shapes_every_filter(self, rng, shape):
        image = rng.integers(0, 256, shape).astype(np.uint8)
        for filter_type in range(5):
            assert np.array_equal(decode_png(_encode(image, [filter_type] * shape[0])), image)
        mixed = [row % 5 for row in range(shape[0])]
        assert np.array_equal(decode_png(_encode(image, mixed)), image)

    def test_gray_alpha_keeps_luma(self, rng):
        image = rng.integers(0, 256, (4, 6, 2)).astype(np.uint8)
        assert np.array_equal(decode_png(_encode(image, [4, 3, 1, 2])), image[:, :, 0])

    def test_paletted_image(self, rng):
        palette = rng.integers(0, 256, (7, 3)).astype(np.uint8)
        indices = rng.integers(0, 7, (5, 8)).astype(np.uint8)
        idat = zlib.compress(filter_loop(indices, [0, 1, 2, 3, 4]))
        data = png_bytes(8, 5, 3, idat, plte=palette.tobytes())
        assert np.array_equal(decode_png(data), palette[indices])


def _bomb(inflated: int) -> bytes:
    """A 16x16 RGB PNG whose IDAT inflates to *inflated* bytes of zeros."""
    compressor = zlib.compressobj(9)
    idat = b"".join(compressor.compress(bytes(1 << 20)) for _ in range(inflated >> 20))
    return png_bytes(16, 16, 2, idat + compressor.flush())


class TestHostileStreams:
    def test_bomb_refused_without_inflating_it(self):
        data = _bomb(32 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="inflates past"):
                decode_png(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_one_byte_too_many_refused(self):
        raw = bytes(16 * (16 * 3 + 1) + 1)
        with pytest.raises(CodecError, match="inflates past"):
            decode_png(png_bytes(16, 16, 2, zlib.compress(raw)))

    def test_truncated_stream_refused(self):
        idat = zlib.compress(bytes(4 * (4 * 3 + 1)))
        with pytest.raises(CodecError, match="corrupt PNG stream"):
            decode_png(png_bytes(4, 4, 2, idat[:-2]))

    def test_declared_size_over_the_cap_refused_before_inflate(self):
        side = 8193
        with pytest.raises(CodecError, match="pixel cap"):
            decode_png(png_bytes(side, side, 2, zlib.compress(bytes(64))))
        header = f"P6\n{side} {side}\n255\n".encode("ascii")
        with pytest.raises(CodecError, match="pixel cap"):
            decode_netpbm(header + bytes(64))

    def test_cap_is_8192_squared(self):
        assert MAX_PIXELS == 8192 * 8192
        # At the cap the header passes; the missing data is what fails.
        with pytest.raises(CodecError, match="decompressed size"):
            decode_png(png_bytes(8192, 8192, 0, zlib.compress(bytes(64))))

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0)])
    def test_empty_declared_size_refused(self, width, height):
        with pytest.raises(CodecError, match="empty"):
            decode_png(png_bytes(width, height, 2, zlib.compress(b"\x00")))
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        with pytest.raises(CodecError, match="empty"):
            decode_netpbm(header)

    def test_short_ihdr_refused(self):
        ihdr = struct.pack(">IB", 4, 4)
        with pytest.raises(CodecError, match="IHDR"):
            decode_png(png_bytes(4, 4, 2, zlib.compress(b""), ihdr=ihdr))

    def test_palette_index_past_plte_refused(self):
        indices = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        idat = zlib.compress(filter_loop(indices, [0, 0]))
        data = png_bytes(2, 2, 3, idat, plte=bytes(3 * 3))
        with pytest.raises(CodecError, match="palette index 3"):
            decode_png(data)

    @pytest.mark.parametrize("sample", [b"256", b"-1", b"99999999999999999999999", b"ten"])
    def test_ascii_netpbm_sample_out_of_range_refused(self, sample):
        with pytest.raises(CodecError):
            decode_netpbm(b"P2\n2 1\n255\n0 " + sample + b"\n")
        with pytest.raises(CodecError):
            decode_netpbm(b"P3\n1 1\n255\n0 0 " + sample + b"\n")
