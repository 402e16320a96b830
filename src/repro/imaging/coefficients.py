"""Scaling coefficient matrices.

Separable image scaling can be written as a pair of linear operators:

    scaled = L @ image @ R

with ``L`` of shape ``(h_out, h_in)`` acting on rows and ``R`` of shape
``(w_in, w_out)`` acting on columns. This module builds those matrices for
every supported algorithm using the OpenCV sampling convention

    src_x = (dst_x + 0.5) * ratio - 0.5,   ratio = n_in / n_out

with border replication and per-row weight normalization.

The matrices are the common currency of this library: the resizer multiplies
by them, the image-scaling attack optimizes against them, and the
vulnerability analysis inspects their sparsity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ScalingError
from repro.imaging.kernels import Kernel, get_kernel

__all__ = [
    "scaling_matrix",
    "scaling_operators",
    "coefficient_sparsity",
    "vulnerable_source_pixels",
]


def _nearest_matrix(n_in: int, n_out: int) -> np.ndarray:
    """0/1 matrix selecting OpenCV's INTER_NEAREST source index."""
    ratio = n_in / n_out
    src = np.minimum(np.floor(np.arange(n_out) * ratio).astype(int), n_in - 1)
    matrix = np.zeros((n_out, n_in))
    matrix[np.arange(n_out), src] = 1.0
    return matrix


def _area_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Exact box-average (INTER_AREA) weights for downscaling.

    Output cell ``i`` covers source interval ``[i*r, (i+1)*r)``; the weight
    of source pixel ``j`` is the length of the overlap between that interval
    and ``[j, j+1)`` divided by ``r``. Every source pixel contributes —
    this is the anti-aliased algorithm that resists scaling attacks.

    Computed as one broadcast over the ``(n_out, n_in)`` interval-overlap
    grid; pairs with no overlap get exactly 0, so the result equals
    :func:`_area_matrix_reference` bit for bit.
    """
    ratio = n_in / n_out
    lefts = np.arange(n_out)[:, None] * ratio
    rights = (np.arange(n_out) + 1)[:, None] * ratio
    cells = np.arange(n_in)[None, :]
    overlap = np.minimum(rights, cells + 1) - np.maximum(lefts, cells)
    return np.where(overlap > 0, overlap / ratio, 0.0)


def _area_matrix_reference(n_in: int, n_out: int) -> np.ndarray:
    """Scalar-loop INTER_AREA weights — the oracle :func:`_area_matrix`
    is exact-equality tested against."""
    ratio = n_in / n_out
    matrix = np.zeros((n_out, n_in))
    for i in range(n_out):
        left = i * ratio
        right = (i + 1) * ratio
        j_first = int(np.floor(left))
        j_last = min(int(np.ceil(right)), n_in)
        for j in range(j_first, j_last):
            overlap = min(right, j + 1) - max(left, j)
            if overlap > 0:
                matrix[i, j] = overlap / ratio
    return matrix


def _kernel_matrix(n_in: int, n_out: int, kernel: Kernel) -> np.ndarray:
    """Fixed-support convolution weights with replicated borders.

    The whole ``(n_out, taps)`` grid is weighted, normalized and scattered
    at once; ``np.add.at`` adds each row's taps in order, so the result
    equals :func:`_kernel_matrix_reference` bit for bit.
    """
    ratio = n_in / n_out
    centers = (np.arange(n_out) + 0.5) * ratio - 0.5
    width = int(np.ceil(kernel.support)) * 2 + 1
    starts = np.floor(centers).astype(np.int64) - width // 2
    taps = starts[:, None] + np.arange(width + 1)[None, :]
    weights = kernel(centers[:, None] - taps)
    totals = weights.sum(axis=1)
    empty = np.nonzero(totals <= 0)[0]
    if empty.size:
        raise ScalingError(
            f"kernel {kernel.name!r} produced empty support at output {int(empty[0])}"
        )
    weights = weights / totals[:, None]
    # Replicate-border: out-of-range taps fold onto the edge pixels.
    clamped = np.clip(taps, 0, n_in - 1)
    matrix = np.zeros((n_out, n_in))
    np.add.at(matrix, (np.arange(n_out)[:, None], clamped), weights)
    return matrix


def _kernel_matrix_reference(n_in: int, n_out: int, kernel: Kernel) -> np.ndarray:
    """Per-output-row loop — the oracle :func:`_kernel_matrix` is
    exact-equality tested against."""
    ratio = n_in / n_out
    centers = (np.arange(n_out) + 0.5) * ratio - 0.5
    support = kernel.support
    width = int(np.ceil(support)) * 2 + 1
    matrix = np.zeros((n_out, n_in))
    for i, x in enumerate(centers):
        j_start = int(np.floor(x)) - width // 2
        taps = np.arange(j_start, j_start + width + 1)
        weights = kernel(x - taps)
        total = weights.sum()
        if total <= 0:
            raise ScalingError(
                f"kernel {kernel.name!r} produced empty support at output {i}"
            )
        weights = weights / total
        # Replicate-border: out-of-range taps fold onto the edge pixels.
        clamped = np.clip(taps, 0, n_in - 1)
        np.add.at(matrix[i], clamped, weights)
    return matrix


@lru_cache(maxsize=512)
def scaling_matrix(n_in: int, n_out: int, algorithm: str = "bilinear") -> np.ndarray:
    """Build the 1-D coefficient matrix mapping ``n_in`` to ``n_out`` samples.

    The result has shape ``(n_out, n_in)``, every row sums to 1, and is
    cached (immutably — callers must not mutate it) because experiments
    reuse a handful of size pairs thousands of times.
    """
    if n_in <= 0 or n_out <= 0:
        raise ScalingError(f"sizes must be positive, got {n_in} -> {n_out}")
    kernel = get_kernel(algorithm)
    if kernel.name == "nearest":
        matrix = _nearest_matrix(n_in, n_out)
    elif kernel.name == "area":
        # OpenCV's INTER_AREA falls back to bilinear when enlarging.
        if n_out >= n_in:
            matrix = _kernel_matrix(n_in, n_out, get_kernel("bilinear"))
        else:
            matrix = _area_matrix(n_in, n_out)
    else:
        matrix = _kernel_matrix(n_in, n_out, kernel)
    matrix.setflags(write=False)
    return matrix


def scaling_operators(
    in_shape: tuple[int, int],
    out_shape: tuple[int, int],
    algorithm: str = "bilinear",
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(L, R)`` with ``scaled = L @ image @ R``.

    ``in_shape`` and ``out_shape`` are ``(height, width)`` pairs. ``L`` has
    shape ``(h_out, h_in)``; ``R`` has shape ``(w_in, w_out)``.
    """
    (h_in, w_in), (h_out, w_out) = in_shape, out_shape
    left = scaling_matrix(h_in, h_out, algorithm)
    right = scaling_matrix(w_in, w_out, algorithm).T
    return left, right


def coefficient_sparsity(matrix: np.ndarray, tol: float = 1e-12) -> float:
    """Fraction of source samples with (near-)zero total weight.

    A high sparsity means most source pixels never influence the output —
    the precondition for an invisible image-scaling attack.
    """
    column_weight = np.abs(matrix).sum(axis=0)
    return float(np.mean(column_weight <= tol))


def vulnerable_source_pixels(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Indices of source samples that *do* influence the output.

    These are the pixels an attacker must modify (and the only ones a
    perfect reconstruction defense needs to sanitize).
    """
    column_weight = np.abs(matrix).sum(axis=0)
    return np.nonzero(column_weight > tol)[0]
