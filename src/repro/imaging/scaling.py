"""Image resizing built on the coefficient-matrix representation.

``resize`` is the single entry point used across the library (detectors,
attacks, benchmarks). It applies the separable operators from
:mod:`repro.imaging.coefficients`::

    scaled = L @ image @ R        (per channel)

which makes the resizer, the attack, and the analysis all agree *exactly* on
the scaling semantics — the property the reproduction depends on.

The 1-D coefficient matrices behind each operator pair are memoized by
:func:`repro.imaging.coefficients.scaling_matrix`'s LRU, so a deployment
builds each one once, not once per image. :func:`operator_cache_stats`
exposes that cache's hits and misses for dashboards (the serving pipeline
folds them into ``pipeline.stats``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScalingError
from repro.imaging.coefficients import scaling_matrix, scaling_operators
from repro.imaging.image import as_float, ensure_image

__all__ = [
    "resize",
    "downscale_then_upscale",
    "operator_cache_stats",
    "clear_operator_cache",
    "ALGORITHMS",
]

#: Algorithms accepted by :func:`resize`.
ALGORITHMS = ("nearest", "bilinear", "bicubic", "lanczos4", "area")


def operator_cache_stats() -> dict[str, float | int]:
    """Hit/miss statistics of the process-wide coefficient-matrix cache.

    Same keys as the plan caches (``size``/``maxsize``/``hits``/
    ``misses``/``hit_rate``); one operator pair is two matrix lookups.
    """
    info = scaling_matrix.cache_info()
    total = info.hits + info.misses
    return {
        "size": info.currsize,
        "maxsize": info.maxsize,
        "hits": info.hits,
        "misses": info.misses,
        "hit_rate": (info.hits / total) if total else 0.0,
    }


def clear_operator_cache() -> None:
    """Reset the coefficient-matrix cache and its counters (tests and benchmarks)."""
    scaling_matrix.cache_clear()


def resize(
    image: np.ndarray,
    out_shape: tuple[int, int],
    algorithm: str = "bilinear",
) -> np.ndarray:
    """Resize *image* to ``out_shape`` (height, width).

    Accepts grayscale ``(H, W)`` or color ``(H, W, C)`` arrays in uint8 or
    float64 and returns float64 on the 0–255 scale. The output is **not**
    clipped or rounded: detectors compare float pixels directly, and the
    attack optimizer needs the unquantized linear output.
    """
    ensure_image(image)
    h_out, w_out = out_shape
    if h_out <= 0 or w_out <= 0:
        raise ScalingError(f"output shape must be positive, got {out_shape}")
    img = as_float(image)
    left, right = scaling_operators(img.shape[:2], (h_out, w_out), algorithm)
    if img.ndim == 2:
        return left @ img @ right
    # One batched matmul over channels-first planes: a stacked matmul runs
    # the same GEMM per 2-D slice the old per-channel loop ran, so the
    # result is bit-identical — only the Python dispatch overhead is gone.
    planes = np.ascontiguousarray(img.transpose(2, 0, 1))
    return np.ascontiguousarray(np.matmul(np.matmul(left, planes), right).transpose(1, 2, 0))


def downscale_then_upscale(
    image: np.ndarray,
    small_shape: tuple[int, int],
    algorithm: str = "bilinear",
    upscale_algorithm: str | None = None,
) -> np.ndarray:
    """Round-trip an image through the model's input size and back.

    This is the core operation of the paper's *scaling detection* method
    (Section 3.1): ``S = up(down(I))``. Benign images survive the round
    trip; attack images come back as the hidden target. By default the same
    algorithm is used both ways, matching the deployment being defended.
    """
    ensure_image(image)
    down = resize(image, small_shape, algorithm)
    up_alg = upscale_algorithm or algorithm
    return resize(down, image.shape[:2], up_alg)
