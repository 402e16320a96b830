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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.errors import ImageError
from repro.imaging.image import as_float, ensure_image

__all__ = ["mse", "psnr", "ssim", "ssim_fast", "histogram_intersection"]


def _validate_pair(a: np.ndarray, b: np.ndarray) -> None:
    ensure_image(a, name="first image")
    ensure_image(b, name="second image")
    if a.shape != b.shape:
        raise ImageError(f"images must share a shape: {a.shape} vs {b.shape}")


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _validate_pair(a, b)
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


#: Outputs per tile of the banded Gaussian block in :func:`ssim_fast`.
_TILE = 16


def _tiles(src: np.ndarray, axis: int, span: int) -> np.ndarray:
    """Read-only view of the full ``span``-long tiles of *src* along *axis*,
    one every ``_TILE`` steps, indexed by a new axis 1."""
    shape, strides = list(src.shape), list(src.strides)
    shape[axis] = span
    shape.insert(1, (src.shape[axis] - span) // _TILE + 1)
    strides.insert(1, _TILE * src.strides[axis])
    return as_strided(src, shape, strides, writeable=False)


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
    """:func:`ssim` through a tiled banded GEMM (the scoring path).

    Same windows, constants, and per-channel averaging as :func:`ssim`.
    Per channel, one reused ``(4, H, W)`` buffer holds ``a``, ``b``,
    ``a² + b²`` and ``a·b`` (the denominator needs only ``σa² + σb²``).
    The Gaussian runs as batched matmuls of one ``(T, T + k - 1)`` banded
    block (``T = 16``) over read-only views of overlapping tiles, down the
    rows and then along the columns; a ragged last tile takes the block's
    corner. The SSIM map is formed in place. Scores agree with :func:`ssim`, the
    reference, to ≤1e-9 relative: only summation order differs.
    """
    _validate_pair(a, b)
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    h, w, channels = a.shape
    size = min(window_size, h, w)
    span = _TILE + size - 1
    block = np.zeros((_TILE, span))
    diagonal = np.arange(_TILE)[:, None]
    block[diagonal, diagonal + np.arange(size)] = _gaussian_window(size, sigma)
    block_t = np.ascontiguousarray(block.T)
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    out_h, out_w = h - size + 1, w - size + 1
    full_h, full_w = out_h - out_h % _TILE, out_w - out_w % _TILE
    stack, down = np.empty((4, h, w)), np.empty((4, out_h, w))
    flat = stack.reshape(4, h * w)
    split, valid = full_w * out_h, out_w * out_h
    scores = []
    for c in range(channels):
        plane_a, plane_b, energy, cross = stack
        plane_a[...], plane_b[...] = a[:, :, c], b[:, :, c]
        np.multiply(plane_a, plane_a, out=energy)
        np.multiply(plane_b, plane_b, out=cross)
        energy += cross
        np.multiply(plane_a, plane_b, out=cross)
        tiles_out = down[:, :full_h].reshape(4, -1, _TILE, w)
        np.matmul(block, _tiles(stack, 1, span), out=tiles_out)
        corner = block[: out_h - full_h, : h - full_h]
        np.matmul(corner, stack[:, full_h:], out=down[:, full_h:])
        # Along the columns the outputs land tile by tile, each an
        # (out_h, T) block: the mean below does not depend on their order.
        tiles_out = flat[:, :split].reshape(4, -1, out_h, _TILE)
        np.matmul(_tiles(down, 2, span), block_t, out=tiles_out)
        corner = block_t[: w - full_w, : out_w - full_w]
        np.matmul(down[:, :, full_w:], corner, out=flat[:, split:valid].reshape(4, out_h, -1))
        means = flat[:, :valid]
        mu_a, mu_b, energy, cross = means
        mu_ab = np.multiply(mu_a, mu_b, out=down.reshape(4, -1)[0, :valid])
        cross -= mu_ab  # σab
        np.square(means[:2], out=means[:2])
        mu_a += mu_b
        energy -= mu_a  # σa² + σb²
        np.multiply(mu_ab, 2, out=mu_b)
        cross *= 2
        means[:2] += c1
        means[2:] += c2
        cross *= mu_b  # (2μaμb + c1)(2σab + c2)
        energy *= mu_a  # (μa² + μb² + c1)(σa² + σb² + c2)
        cross /= energy
        scores.append(float(np.mean(cross)))
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
