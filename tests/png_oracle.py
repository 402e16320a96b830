"""Per-byte PNG scanline unfiltering: the PNG decoder's test oracle.

The pre-vectorization algorithm, kept here (not in ``src/``) so the
property tests can compare :func:`repro.imaging.png._unfilter` against a
direct transcription of the PNG specification's reconstruction functions
(https://www.w3.org/TR/png/#9Filters), one byte at a time, with the same
signature and the same errors. :func:`filter_loop` and :func:`png_bytes`
build the test streams: rows under any chosen filter, wrapped in chunks.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CodecError


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def unfilter_loop(raw: bytes, height: int, width: int, channels: int) -> np.ndarray:
    """Undo PNG scanline filtering; returns (H, W*channels) uint8."""
    stride = width * channels
    expected = height * (stride + 1)
    if len(raw) != expected:
        raise CodecError(
            f"decompressed size {len(raw)} != expected {expected} "
            f"(interlaced or corrupt PNG?)"
        )
    out = np.zeros((height, stride), dtype=np.uint8)
    pos = 0
    prev = np.zeros(stride, dtype=np.int64)
    for row in range(height):
        filter_type = raw[pos]
        pos += 1
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=pos).astype(np.int64)
        pos += stride
        if filter_type == 0:  # None
            recon = line
        elif filter_type == 1:  # Sub
            recon = line.copy()
            for i in range(channels, stride):
                recon[i] = (recon[i] + recon[i - channels]) & 0xFF
        elif filter_type == 2:  # Up
            recon = (line + prev) & 0xFF
        elif filter_type == 3:  # Average
            recon = line.copy()
            for i in range(stride):
                left = recon[i - channels] if i >= channels else 0
                recon[i] = (recon[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif filter_type == 4:  # Paeth
            recon = line.copy()
            for i in range(stride):
                left = recon[i - channels] if i >= channels else 0
                up_left = prev[i - channels] if i >= channels else 0
                recon[i] = (recon[i] + _paeth(int(left), int(prev[i]), int(up_left))) & 0xFF
        else:
            raise CodecError(f"unknown PNG filter type {filter_type}")
        out[row] = recon.astype(np.uint8)
        prev = recon
    return out


def filter_loop(image: np.ndarray, filters: list[int]) -> bytes:
    """The raw (pre-deflate) scanline stream of *image* with row ``r``
    filtered by ``filters[r]``: the encoder side of :func:`unfilter_loop`."""
    pixels = image if image.ndim == 3 else image[:, :, None]
    height, width, channels = pixels.shape
    stride = width * channels
    raw = bytearray()
    prev = np.zeros(stride, dtype=np.int64)
    for row_index, filter_type in zip(range(height), filters):
        row = pixels[row_index].reshape(-1).astype(np.int64)
        raw.append(filter_type)
        if filter_type == 0:
            encoded = row
        elif filter_type == 1:
            encoded = row.copy()
            encoded[channels:] = (row[channels:] - row[:-channels]) % 256
        elif filter_type == 2:
            encoded = (row - prev) % 256
        elif filter_type == 3:
            encoded = row.copy()
            for i in range(stride):
                left = row[i - channels] if i >= channels else 0
                encoded[i] = (row[i] - ((left + prev[i]) >> 1)) % 256
        else:
            encoded = row.copy()
            for i in range(stride):
                left = row[i - channels] if i >= channels else 0
                up_left = prev[i - channels] if i >= channels else 0
                encoded[i] = (row[i] - _paeth(int(left), int(prev[i]), int(up_left))) % 256
        raw.extend(int(v) for v in encoded)
        prev = row
    return bytes(raw)


def png_bytes(
    width: int,
    height: int,
    color_type: int,
    idat: bytes,
    *,
    plte: bytes | None = None,
    ihdr: bytes | None = None,
) -> bytes:
    """A PNG file from its parts, every CRC valid. *idat* is already
    deflated; *ihdr* overrides the 13-byte header built from the size."""
    def chunk(ctype: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)

    if ihdr is None:
        ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + (chunk(b"PLTE", plte) if plte is not None else b"")
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )
