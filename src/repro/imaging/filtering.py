"""Spatial window filters (Method 2 substrate).

Implements the order-statistic filters the paper's filtering detector relies
on — minimum (erosion), median, maximum (dilation) — plus uniform and
Gaussian smoothing used by the adaptive attacks and the reconstruction
defense. All filters:

* operate per channel,
* use reflect padding at the borders,
* accept uint8 or float64 and return float64 on the 0–255 scale.

They are implemented directly with ``numpy`` sliding windows rather than
delegating to ``scipy.ndimage`` so the repository carries its own substrate
(and so behaviour is identical across scipy versions); the test suite
cross-checks them against scipy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ImageError
from repro.imaging.image import as_float, ensure_image, pad_reflect

__all__ = [
    "minimum_filter",
    "maximum_filter",
    "median_filter",
    "uniform_filter",
    "gaussian_filter",
    "FILTERS",
]


def _sliding_extreme(padded, size: int, op) -> np.ndarray:
    """Window min/max over the two spatial axes of *padded* via separable
    shifted-slice reduction.

    Min and max over a rectangle factor into a pass per axis, and each
    pass is ``size - 1`` elementwise ``np.minimum``/``np.maximum`` calls
    over shifted views — the same set of elements every window reduction
    visits, so the result is **bit-identical** to reducing size×size
    sliding windows while never materializing them.
    """
    out = padded
    for axis in (0, 1):
        length = out.shape[axis] - size + 1
        index = [slice(None)] * out.ndim
        index[axis] = slice(0, length)
        acc = out[tuple(index)].copy()
        for shift in range(1, size):
            index[axis] = slice(shift, shift + length)
            op(acc, out[tuple(index)], out=acc)
        out = acc
    return out


def _window_reduce(image: np.ndarray, size: int, reducer) -> np.ndarray:
    """Apply ``reducer`` over every size×size spatial window."""
    ensure_image(image)
    if size < 1:
        raise ImageError(f"filter size must be >= 1, got {size}")
    if size == 1:
        return as_float(image)
    img = as_float(image)
    pad_before = (size - 1) // 2
    pad_after = size - 1 - pad_before
    pad = [(pad_before, pad_after), (pad_before, pad_after)]
    if img.ndim == 3:
        pad.append((0, 0))
    padded = np.pad(img, pad, mode="reflect")
    if reducer is np.min or reducer is np.max:
        op = np.minimum if reducer is np.min else np.maximum
        return _sliding_extreme(padded, size, op)
    windows = sliding_window_view(padded, (size, size), axis=(0, 1))
    # windows shape: (H, W[, C], size, size) -> reduce the trailing two axes.
    return reducer(windows, axis=(-2, -1))


def minimum_filter(image: np.ndarray, size: int = 2) -> np.ndarray:
    """Grayscale erosion: each pixel becomes the window minimum.

    The paper selects the minimum filter (default 2×2 window) because the
    bright original pixels dominate an attack image; taking window minima
    strips them and exposes the darker embedded target pixels.
    """
    return _window_reduce(image, size, np.min)


def maximum_filter(image: np.ndarray, size: int = 2) -> np.ndarray:
    """Grayscale dilation: each pixel becomes the window maximum."""
    return _window_reduce(image, size, np.max)


def median_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """Each pixel becomes the window median (classic denoising filter)."""
    return _window_reduce(image, size, np.median)


def uniform_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """Each pixel becomes the window mean (box blur)."""
    return _window_reduce(image, size, np.mean)


def gaussian_filter(image: np.ndarray, sigma: float, truncate: float = 4.0) -> np.ndarray:
    """Separable Gaussian blur with reflect borders.

    Used by the adaptive attack (to smear the perturbation into low
    frequencies) and by the reconstruction defense baseline.
    """
    ensure_image(image)
    if sigma <= 0:
        return as_float(image)
    radius = max(1, int(truncate * sigma + 0.5))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel /= kernel.sum()

    img = as_float(image)
    padded = pad_reflect(img, radius, radius)

    # Convolve rows then columns via sliding windows (separable kernel);
    # sliding_window_view appends the window axis last, so a matmul/tensordot
    # with the kernel contracts it away.
    rows = sliding_window_view(padded, len(kernel), axis=1)
    blurred_rows = rows @ kernel
    cols = sliding_window_view(blurred_rows, len(kernel), axis=0)
    return np.tensordot(cols, kernel, axes=([-1], [0]))


FILTERS = {
    "minimum": minimum_filter,
    "maximum": maximum_filter,
    "median": median_filter,
    "uniform": uniform_filter,
}
