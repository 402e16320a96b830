"""PPM/PGM (netpbm) codec.

The netpbm formats are trivial, dependency-free, and handy for tests and
for interchange with other tooling. Supports:

* ``P5`` — binary grayscale (PGM)
* ``P6`` — binary RGB (PPM)
* ``P2``/``P3`` — ASCII variants (read only)

8-bit maxval (255) only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import CodecError
from repro.imaging.image import as_uint8, channel_count, check_declared_size, ensure_image

__all__ = ["decode_netpbm", "encode_netpbm", "read_ppm", "write_ppm"]


def _read_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read *count* whitespace-separated integer tokens, skipping comments.

    Returns the tokens and the offset just past the final token's trailing
    whitespace byte (where binary payload begins).
    """
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise CodecError("truncated netpbm header")
        byte = data[pos : pos + 1]
        if byte == b"#":
            newline = data.find(b"\n", pos)
            if newline == -1:
                raise CodecError("unterminated comment in netpbm header")
            pos = newline + 1
        elif byte.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            token = data[pos:end]
            try:
                tokens.append(int(token))
            except ValueError as exc:
                raise CodecError(f"bad netpbm header token {token!r}") from exc
            pos = end
    # Exactly one whitespace byte separates the header from binary data.
    if pos < len(data) and data[pos : pos + 1].isspace():
        pos += 1
    return tokens, pos


def read_ppm(path: str | Path) -> np.ndarray:
    """Decode a PGM/PPM file to uint8 ``(H, W)`` or ``(H, W, 3)``."""
    return decode_netpbm(Path(path).read_bytes(), origin=str(path))


def decode_netpbm(data: bytes, *, origin: str = "<bytes>") -> np.ndarray:
    """Decode in-memory PGM/PPM *data* to uint8 ``(H, W)`` or ``(H, W, 3)``.

    *origin* labels error messages, as in :func:`repro.imaging.png.decode_png`.
    """
    path = origin
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise CodecError(f"{path}: not a supported netpbm file (magic {magic!r})")
    channels = 3 if magic in (b"P3", b"P6") else 1
    (width, height, maxval), offset = _read_tokens(data[2:], 3)
    offset += 2  # account for the magic bytes we sliced off
    if maxval != 255:
        raise CodecError(f"{path}: only maxval 255 supported, got {maxval}")
    check_declared_size(height, width, origin=path)
    n_values = width * height * channels
    if magic in (b"P5", b"P6"):
        payload = data[offset : offset + n_values]
        if len(payload) != n_values:
            raise CodecError(f"{path}: truncated pixel data")
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        values = data[offset:].split()
        if len(values) < n_values:
            raise CodecError(f"{path}: truncated ASCII pixel data")
        try:
            samples = np.array([int(v) for v in values[:n_values]], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise CodecError(f"{path}: bad ASCII sample: {exc}") from exc
        if samples.min() < 0 or samples.max() > maxval:
            raise CodecError(f"{path}: ASCII sample outside 0..{maxval}")
        flat = samples.astype(np.uint8)
    if channels == 1:
        return flat.reshape(height, width)
    return flat.reshape(height, width, 3)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Encode a grayscale or RGB image as binary PGM/PPM."""
    Path(path).write_bytes(encode_netpbm(image))


def encode_netpbm(image: np.ndarray) -> bytes:
    """Encode a grayscale or RGB image as in-memory binary PGM/PPM bytes."""
    ensure_image(image)
    channels = channel_count(image)
    if channels not in (1, 3):
        raise CodecError(f"cannot encode {channels}-channel image as netpbm")
    pixels = as_uint8(image)
    if pixels.ndim == 3 and channels == 1:
        pixels = pixels[:, :, 0]
    magic = b"P6" if channels == 3 else b"P5"
    height, width = pixels.shape[:2]
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()
