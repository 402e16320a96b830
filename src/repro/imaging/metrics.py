"""Image similarity metrics (paper Section 4.2).

* :func:`mse` — mean squared error (Eq. 5), the scaling detector's default.
* :func:`ssim` — structural similarity (Eq. 6), windowed with a Gaussian,
  constants and window matching the reference implementation of
  Wang et al. 2004 (``K1=0.01, K2=0.03, L=255``, 11×11, σ=1.5).
* :func:`psnr` — peak signal-to-noise ratio (Eq. 8); the paper's appendix
  shows it is *not* a usable detection metric — we keep it to reproduce
  that negative result.
* :func:`histogram_intersection` — the color-histogram similarity Xiao et
  al. suggested as a defense; the paper (and our ablation bench) show it
  fails to separate benign from attack images.

All metrics accept uint8 or float64 images on the 0–255 scale, any channel
count, and require both operands to share one shape.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import sepfir2d as _sepfir2d

from repro.errors import ImageError
from repro.imaging.image import as_float, ensure_image

__all__ = ["mse", "psnr", "ssim", "ssim_fast", "histogram_intersection"]


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ensure_image(a, name="first image")
    ensure_image(b, name="second image")
    if a.shape != b.shape:
        raise ImageError(f"images must share a shape: {a.shape} vs {b.shape}")
    return as_float(a), as_float(b)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared pixel error over all pixels and channels (paper Eq. 5)."""
    fa, fb = _check_pair(a, b)
    return float(np.mean((fa - fb) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, *, max_value: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (paper Eq. 8).

    Returns ``inf`` for identical images.
    """
    err = mse(a, b)
    if err == 0:
        return float("inf")
    return float(10.0 * np.log10(max_value**2 / err))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def _filter2_valid(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Separable 2-D correlation with 'valid' boundary handling."""
    rows = sliding_window_view(plane, len(window), axis=1) @ window
    cols = sliding_window_view(rows, len(window), axis=0)
    return np.tensordot(cols, window, axes=([-1], [0]))


def _ssim_plane(a: np.ndarray, b: np.ndarray, window: np.ndarray, c1: float, c2: float) -> float:
    mu_a = _filter2_valid(a, window)
    mu_b = _filter2_valid(b, window)
    mu_a_sq, mu_b_sq, mu_ab = mu_a * mu_a, mu_b * mu_b, mu_a * mu_b
    sigma_a_sq = _filter2_valid(a * a, window) - mu_a_sq
    sigma_b_sq = _filter2_valid(b * b, window) - mu_b_sq
    sigma_ab = _filter2_valid(a * b, window) - mu_ab
    numerator = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
    denominator = (mu_a_sq + mu_b_sq + c1) * (sigma_a_sq + sigma_b_sq + c2)
    return float(np.mean(numerator / denominator))


def ssim(
    a: np.ndarray,
    b: np.ndarray,
    *,
    window_size: int = 11,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    max_value: float = 255.0,
) -> float:
    """Mean structural similarity index between two images (paper Eq. 6).

    Color images are scored per channel and averaged. Images smaller than
    the window fall back to a single global window.
    """
    fa, fb = _check_pair(a, b)
    h, w = fa.shape[:2]
    size = min(window_size, h, w)
    window = _gaussian_window(size, sigma)
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    if fa.ndim == 2:
        return _ssim_plane(fa, fb, window, c1, c2)
    scores = [
        _ssim_plane(fa[:, :, c], fb[:, :, c], window, c1, c2)
        for c in range(fa.shape[2])
    ]
    return float(np.mean(scores))


def _filter2_valid_fast(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    """:func:`_filter2_valid` through SciPy's C separable filter.

    ``sepfir2d`` runs the same separable correlation in one C pass
    (~2x faster than the sliding-window matmuls); only the interior of
    its same-size output is kept, where boundary handling cannot reach,
    so the values differ from :func:`_filter2_valid` by summation order
    alone (observed ≤1e-15 relative). Falls back to the exact routine
    for even window sizes (``sepfir2d`` needs odd taps).
    """
    size = window.shape[0]
    if size % 2 == 0:
        return _filter2_valid(plane, window)
    margin = size // 2
    full = _sepfir2d(np.ascontiguousarray(plane), window, window)
    return full[margin : plane.shape[0] - margin, margin : plane.shape[1] - margin]


def _ssim_plane_fast(
    a: np.ndarray, b: np.ndarray, window: np.ndarray, c1: float, c2: float
) -> float:
    mu_a = _filter2_valid_fast(a, window)
    mu_b = _filter2_valid_fast(b, window)
    mu_a_sq, mu_b_sq, mu_ab = mu_a * mu_a, mu_b * mu_b, mu_a * mu_b
    sigma_a_sq = _filter2_valid_fast(a * a, window) - mu_a_sq
    sigma_b_sq = _filter2_valid_fast(b * b, window) - mu_b_sq
    sigma_ab = _filter2_valid_fast(a * b, window) - mu_ab
    numerator = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
    denominator = (mu_a_sq + mu_b_sq + c1) * (sigma_a_sq + sigma_b_sq + c2)
    return float(np.mean(numerator / denominator))


def ssim_fast(
    a: np.ndarray,
    b: np.ndarray,
    *,
    window_size: int = 11,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    max_value: float = 255.0,
) -> float:
    """:func:`ssim` with the windowed statistics filtered in C (the scoring path).

    Same windows, constants, and per-channel averaging as :func:`ssim`;
    the five filtered maps per channel come from
    :func:`_filter2_valid_fast`, so scores agree with :func:`ssim` to
    well under 1e-9 relative (only summation order differs). :func:`ssim`
    stays as the reference the parity tests compare against.
    """
    fa, fb = _check_pair(a, b)
    h, w = fa.shape[:2]
    size = min(window_size, h, w)
    window = _gaussian_window(size, sigma)
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    if fa.ndim == 2:
        return _ssim_plane_fast(fa, fb, window, c1, c2)
    scores = [
        _ssim_plane_fast(fa[:, :, c], fb[:, :, c], window, c1, c2)
        for c in range(fa.shape[2])
    ]
    return float(np.mean(scores))


def histogram_intersection(a: np.ndarray, b: np.ndarray, *, bins: int = 64) -> float:
    """Normalized color-histogram intersection in ``[0, 1]``.

    The metric Xiao et al. proposed for detecting attack images. Because a
    scaling attack moves only a sparse subset of pixels, the global color
    distribution barely changes — so this score stays near 1 for attack
    images too. Kept as the paper's (and our) negative baseline.
    """
    fa, fb = _check_pair(a, b)
    edges = np.linspace(0.0, 256.0, bins + 1)
    if fa.ndim == 2:
        fa = fa[:, :, None]
        fb = fb[:, :, None]
    total = 0.0
    for c in range(fa.shape[2]):
        hist_a, _ = np.histogram(fa[:, :, c], bins=edges)
        hist_b, _ = np.histogram(fb[:, :, c], bins=edges)
        hist_a = hist_a / max(hist_a.sum(), 1)
        hist_b = hist_b / max(hist_b.sum(), 1)
        total += float(np.minimum(hist_a, hist_b).sum())
    return total / fa.shape[2]
