"""Seeded request bodies for the serving benchmark.

Every builder is a pure function of its arguments (a seed or an explicit
``numpy.random.Generator``), so the same seed always yields the same bytes.
The server receives only these bytes; nothing here is shared with it.

* :func:`encode_png_filtered` — a PNG encoder that can force any of the
  five scanline filters or pick one per row the way libpng's adaptive
  heuristic does (minimum sum of absolute signed residuals). The library's
  own ``encode_png`` writes filter 0 only, which hides the decoder's
  per-byte Python loops for Sub/Average/Paeth rows.
* :func:`bomb_png` — a well-formed PNG declaring 128x128 whose IDAT
  inflates to tens of MiB: the server must refuse it (400/413).
* :func:`huge_png` / :func:`huge_ppm` — headers declaring 10^5 x 10^5
  pixels with almost no data behind them.
* :func:`garbage_payloads` — random bytes and a PNG cut in half.
* :func:`crafted_attacks` — real scaling attacks (bilinear, epsilon 4).
* :func:`stratified_shapes` — (H, W) pairs spread evenly over a range of
  sides.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.attacks.base import AttackConfig
from repro.attacks.strong import craft_attack_image
from repro.datasets.synthetic import generate_image
from repro.imaging.image import as_uint8
from repro.imaging.scaling import resize

__all__ = [
    "FILTERS",
    "bomb_png",
    "crafted_attacks",
    "encode_png_filtered",
    "garbage_payloads",
    "huge_png",
    "huge_ppm",
    "row_filters",
    "stratified_shapes",
]

#: PNG scanline filter types: None, Sub, Up, Average, Paeth.
FILTERS = (0, 1, 2, 3, 4)

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPES = {1: 0, 3: 2, 4: 6}
#: Declared side of the huge-dimension payloads.
_HUGE_SIDE = 100_000


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _png(width: int, height: int, color_type: int, idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _residuals(rows: np.ndarray, channels: int) -> np.ndarray:
    """All five filtered forms of every row: ``(5, H, stride)`` uint8.

    Computed on the original pixels, which is what makes encoding
    vectorisable where decoding is not (the decoder must reconstruct each
    byte before the next one can be predicted).
    """
    x = rows.astype(np.int16)
    height, stride = x.shape
    a = np.zeros_like(x)
    a[:, channels:] = x[:, :-channels]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, channels:] = x[:-1, :-channels]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    predictions = np.stack([np.zeros_like(x), a, b, (a + b) >> 1, paeth])
    return ((x[None] - predictions) & 0xFF).astype(np.uint8)


def encode_png_filtered(image: np.ndarray, filter_type: int | str = "adaptive") -> bytes:
    """Encode *image* as an 8-bit PNG with the given row filter.

    *filter_type* is one of :data:`FILTERS` (every row uses it) or
    ``"adaptive"``: each row takes the filter whose residuals, read as
    signed bytes, have the smallest sum of absolute values.
    """
    pixels = as_uint8(image)
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    height, width, channels = pixels.shape
    color_type = _COLOR_TYPES.get(channels)
    if color_type is None:
        raise ValueError(f"cannot encode {channels}-channel image as PNG")
    residuals = _residuals(pixels.reshape(height, width * channels), channels)
    if filter_type == "adaptive":
        cost = np.abs(residuals.view(np.int8).astype(np.int32)).sum(axis=2)
        chosen = np.argmin(cost, axis=0)
    elif filter_type in FILTERS:
        chosen = np.full(height, filter_type)
    else:
        raise ValueError(f"unknown filter {filter_type!r}")
    body = residuals[chosen, np.arange(height)]
    rows = np.concatenate([chosen.astype(np.uint8)[:, None], body], axis=1)
    return _png(width, height, color_type, zlib.compress(rows.tobytes(), 6))


def row_filters(data: bytes) -> list[int]:
    """The filter byte of every row of an encoded RGB/gray PNG (tests and
    the README's filter census)."""
    offset = len(_SIGNATURE)
    width = height = channels = 0
    idat = bytearray()
    while offset < len(data):
        length, ctype = struct.unpack(">I4s", data[offset : offset + 8])
        payload = data[offset + 8 : offset + 8 + length]
        if ctype == b"IHDR":
            width, height, _, color_type = struct.unpack(">IIBB", payload[:10])
            channels = {0: 1, 2: 3, 6: 4}[color_type]
        elif ctype == b"IDAT":
            idat.extend(payload)
        offset += length + 12
    raw = zlib.decompress(bytes(idat))
    stride = width * channels + 1
    return [raw[row * stride] for row in range(height)]


def bomb_png(inflated_mib: int = 64) -> bytes:
    """A 128x128 RGB PNG whose IDAT inflates to *inflated_mib* MiB of zeros.

    Compressed in 1 MiB pieces so building it never holds the inflated
    stream; zlib's ~1000:1 ceiling makes the IDAT about 64 KiB.
    """
    compressor = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    parts = [compressor.compress(zeros) for _ in range(inflated_mib)]
    parts.append(compressor.flush())
    return _png(128, 128, 2, b"".join(parts))


def huge_png() -> bytes:
    """An RGB PNG header declaring 10^5 x 10^5 pixels over one tiny IDAT."""
    return _png(_HUGE_SIDE, _HUGE_SIDE, 2, zlib.compress(bytes(64)))


def huge_ppm() -> bytes:
    """A binary PPM header declaring 10^5 x 10^5 pixels, then 64 bytes."""
    return f"P6\n{_HUGE_SIDE} {_HUGE_SIDE}\n255\n".encode("ascii") + bytes(64)


def garbage_payloads(rng: np.random.Generator) -> tuple[bytes, bytes]:
    """Undecodable bodies: 2 KiB of noise (first byte zeroed so it can never
    sniff as PNG or netpbm) and a valid PNG truncated mid-stream."""
    noise = bytearray(rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes())
    noise[0] = 0
    valid = encode_png_filtered(generate_image((32, 32), rng), 0)
    return bytes(noise), valid[: len(valid) // 2]


def crafted_attacks(
    rng: np.random.Generator,
    count: int,
    source_shape: tuple[int, int],
    input_shape: tuple[int, int],
) -> list[np.ndarray]:
    """*count* bilinear scaling attacks (epsilon 4) as uint8 images: a
    NeurIPS-like original hiding a Caltech-like target of the model's
    input size."""
    attacks = []
    for _ in range(count):
        original = generate_image(source_shape, rng, family="neurips")
        target = resize(
            generate_image(source_shape, rng, family="caltech"), input_shape, "bilinear"
        )
        result = craft_attack_image(
            original, target, algorithm="bilinear", config=AttackConfig(epsilon=4.0)
        )
        attacks.append(as_uint8(result.attack_image))
    return attacks


def stratified_shapes(
    rng: np.random.Generator, count: int, low: int, high: int
) -> list[tuple[int, int]]:
    """*count* (H, W) pairs in [low, high].

    Heights and widths each take one value from every one of *count*
    equal strata of the range, jittered inside the stratum and paired by a
    random permutation, so the shapes cover the range evenly.
    """
    edges = np.linspace(low, high + 1, count + 1)
    span = edges[1:] - edges[:-1]
    heights = np.floor(edges[:-1] + rng.random(count) * span).astype(int)
    widths = np.floor(edges[:-1] + rng.random(count) * span).astype(int)
    widths = widths[rng.permutation(count)]
    return [(int(h), int(w)) for h, w in zip(heights, widths)]
