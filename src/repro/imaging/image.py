"""Image container and validation helpers.

The library represents images as plain ``numpy.ndarray`` objects:

* grayscale: shape ``(H, W)``
* color:     shape ``(H, W, C)`` with ``C`` in ``{1, 3, 4}``

Two dtype conventions are used throughout:

* **uint8** — storage form, values in ``[0, 255]``; what codecs produce.
* **float64** — working form, values nominally in ``[0, 255]`` (not
  ``[0, 1]``); what the scaling, filtering, and attack code operates on.
  Keeping the 0–255 range in floats matches the paper's metric values
  (e.g. the MSE threshold 1714.96 assumes 8-bit pixel scale).

This module centralizes conversion and validation so every other module can
assume well-formed inputs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import CodecError, ImageError

__all__ = [
    "MAX_PIXEL",
    "MAX_PIXELS",
    "as_float",
    "as_uint8",
    "check_declared_size",
    "clip_pixels",
    "ensure_image",
    "channel_count",
    "is_grayscale",
    "split_channels",
    "merge_channels",
    "pad_reflect",
    "image_summary",
]

#: Highest representable 8-bit pixel intensity.
MAX_PIXEL = 255.0

#: Largest pixel count (H * W) the codecs decode: 8192 x 8192. A fixed
#: cap, checked against the declared header size before any inflate or
#: allocation, bounds the work one hostile header can ask for.
MAX_PIXELS = 1 << 26


def check_declared_size(height: int, width: int, *, origin: str) -> None:
    """Refuse a codec header declaring an empty image or more than
    :data:`MAX_PIXELS` pixels, with :class:`~repro.errors.CodecError`."""
    if height <= 0 or width <= 0:
        raise CodecError(f"{origin}: declared size {width}x{height} is empty")
    if height * width > MAX_PIXELS:
        raise CodecError(
            f"{origin}: declared size {width}x{height} exceeds the "
            f"{MAX_PIXELS}-pixel cap"
        )


def ensure_image(array: np.ndarray, *, name: str = "image") -> np.ndarray:
    """Validate that *array* is a 2-D or 3-D image and return it.

    Raises :class:`~repro.errors.ImageError` when the shape cannot be an
    image (wrong rank, zero-sized axis, or unsupported channel count).
    """
    if not isinstance(array, np.ndarray):
        raise ImageError(f"{name} must be a numpy array, got {type(array).__name__}")
    if array.ndim not in (2, 3):
        raise ImageError(f"{name} must be 2-D or 3-D, got shape {array.shape}")
    if array.size == 0:
        raise ImageError(f"{name} has a zero-sized axis: shape {array.shape}")
    if array.ndim == 3 and array.shape[2] not in (1, 3, 4):
        raise ImageError(
            f"{name} has {array.shape[2]} channels; expected 1, 3, or 4"
        )
    if not np.issubdtype(array.dtype, np.number):
        raise ImageError(f"{name} must be numeric, got dtype {array.dtype}")
    return array


def as_float(image: np.ndarray) -> np.ndarray:
    """Return *image* as float64 in the 0–255 working range.

    uint8 inputs are promoted; float inputs are passed through unchanged
    (already assumed to be on the 0–255 scale). Always returns a new array
    or a float64 view-safe copy so callers may mutate the result.
    """
    ensure_image(image)
    return image.astype(np.float64, copy=True)


def as_uint8(image: np.ndarray) -> np.ndarray:
    """Round and clip a working-form image back to uint8 storage form."""
    ensure_image(image)
    return np.clip(np.rint(image), 0, MAX_PIXEL).astype(np.uint8)


def clip_pixels(image: np.ndarray) -> np.ndarray:
    """Clip a float image to the representable ``[0, 255]`` range in place."""
    return np.clip(image, 0.0, MAX_PIXEL, out=image)


def channel_count(image: np.ndarray) -> int:
    """Number of color channels (1 for a 2-D grayscale array)."""
    ensure_image(image)
    return 1 if image.ndim == 2 else image.shape[2]


def is_grayscale(image: np.ndarray) -> bool:
    """True when the image is 2-D or has exactly one channel."""
    return channel_count(image) == 1


def split_channels(image: np.ndarray) -> list[np.ndarray]:
    """Split an image into a list of 2-D channel planes."""
    ensure_image(image)
    if image.ndim == 2:
        return [image]
    return [image[:, :, c] for c in range(image.shape[2])]


def merge_channels(planes: Iterable[np.ndarray]) -> np.ndarray:
    """Stack 2-D channel planes back into an image.

    A single plane yields a 2-D grayscale image; several planes yield an
    ``(H, W, C)`` array. All planes must share one shape.
    """
    planes = list(planes)
    if not planes:
        raise ImageError("merge_channels requires at least one plane")
    shapes = {p.shape for p in planes}
    if len(shapes) != 1:
        raise ImageError(f"channel planes disagree on shape: {sorted(shapes)}")
    if any(p.ndim != 2 for p in planes):
        raise ImageError("channel planes must be 2-D")
    if len(planes) == 1:
        return planes[0]
    return np.stack(planes, axis=2)


def pad_reflect(image: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Reflect-pad the two spatial axes (channels untouched)."""
    ensure_image(image)
    if pad_h < 0 or pad_w < 0:
        raise ImageError("padding must be non-negative")
    pad = [(pad_h, pad_h), (pad_w, pad_w)]
    if image.ndim == 3:
        pad.append((0, 0))
    return np.pad(image, pad, mode="reflect")


def image_summary(image: np.ndarray) -> str:
    """One-line human-readable description used in logs and CLI output."""
    ensure_image(image)
    h, w = image.shape[:2]
    c = channel_count(image)
    return (
        f"{h}x{w}x{c} {image.dtype} "
        f"range=[{float(image.min()):.1f}, {float(image.max()):.1f}]"
    )
