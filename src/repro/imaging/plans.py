"""Precompiled scoring plans: the hot-path compilation layer.

Scoring an image is dominated by two costs: applying the scaling
operators (four dense matmuls per round trip) and the steganalysis
spectrum (a full complex FFT plus per-call mask/grid rebuilds). This
module precompiles both, once per configuration, and caches the results:

* :class:`ScoringPlan` — per ``(src_shape, dst_shape, algorithm,
  upscale_algorithm)``, the operator quadruple ``(Ld, Rd, Lu, Ru)`` of
  the round trip ``S = Lu @ (Ld @ I @ Rd) @ Ru``, applied as four
  matmuls with all channels stacked into one batched GEMM per step.
* :class:`SpectrumGeometry` — per ``(h, w, lowpass_radius_fraction)``,
  the low-pass disk and nothing else: its points' centered coordinates,
  their distance from the center, and their Hermitian indices into the
  ``rfft2`` half-spectrum. :func:`csp_count_fast` uses it to score the
  CSP metric from a real FFT (half the transform work) without
  materializing the normalized spectrum image; a region that survives
  to the prominence test maps its peak window and its annulus (from a
  centered crop) into the half spectrum on the spot.

Both caches are thread-safe LRUs with one hit/miss stats contract
(``size``/``maxsize``/``hits``/``misses``/``hit_rate``), surfaced
through ``pipeline.stats`` and ``/metrics``.

Numerics contract
-----------------
This is the only scoring path. Round trips, and so the scaling
detector's MSE, are bit-identical to
:func:`repro.imaging.scaling.downscale_then_upscale`. The other fast
paths are parity-tested against the references kept beside them —
:func:`repro.imaging.metrics.ssim` at ≤1e-9 relative, and
:func:`repro.imaging.fourier.csp_count_from_spectrum` with CSP counts
exactly equal on the test corpus. The SSIM difference comes only from
summation order in the tiled banded GEMM of
:func:`~repro.imaging.metrics.ssim_fast`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ImageError, ScalingError
from repro.imaging.coefficients import scaling_operators
from repro.imaging.contours import label_runs, region_stats_from_runs

__all__ = [
    "PlanCache",
    "ScoringPlan",
    "SpectrumGeometry",
    "get_scoring_plan",
    "get_spectrum_geometry",
    "plan_cache_stats",
    "geometry_cache_stats",
    "clear_plan_caches",
    "csp_count_fast",
]


# -- the cache --------------------------------------------------------------


class PlanCache:
    """Thread-safe LRU mapping hashable keys to compiled plan objects.

    The builder runs *outside* the lock because construction is pure and
    idempotent, so a rare duplicate build beats serializing every miss.
    ``stats()`` reports ``size``/``maxsize``/``hits``/``misses``/``hit_rate``.
    """

    def __init__(self, builder: Callable[[tuple], object], maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ScalingError(f"plan cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._builder = builder
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: tuple) -> object:
        """The compiled plan for *key*, built on first request."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return plan
            self._misses += 1
        plan = self._builder(key)
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return plan

    def stats(self) -> dict[str, float | int]:
        """Hit/miss counters and the current fill, for dashboards."""
        with self._lock:
            hits, misses, size = self._hits, self._misses, len(self._entries)
        total = hits + misses
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


# -- round-trip plans -------------------------------------------------------


@dataclass(frozen=True)
class ScoringPlan:
    """Compiled round-trip operators for one scaling configuration.

    Holds the operator quadruple (shared, read-only arrays from the
    coefficient cache); :meth:`round_trip` applies it as four matmuls.
    """

    src_shape: tuple[int, int]
    dst_shape: tuple[int, int]
    algorithm: str
    upscale_algorithm: str
    left_down: np.ndarray = field(repr=False)
    right_down: np.ndarray = field(repr=False)
    left_up: np.ndarray = field(repr=False)
    right_up: np.ndarray = field(repr=False)

    def round_trip(self, float_image: np.ndarray) -> np.ndarray:
        """``up(down(I))``, bit-identical to
        :func:`repro.imaging.scaling.downscale_then_upscale`: the same
        operators in the same multiplication order, one GEMM per 2-D slice.
        """
        planes = float_image
        if float_image.ndim == 3:
            planes = np.ascontiguousarray(float_image.transpose(2, 0, 1))
        down = np.matmul(np.matmul(self.left_down, planes), self.right_down)
        up = np.matmul(np.matmul(self.left_up, down), self.right_up)
        if float_image.ndim == 2:
            return up
        return np.ascontiguousarray(up.transpose(1, 2, 0))


def _build_scoring_plan(key: tuple) -> ScoringPlan:
    src_shape, dst_shape, algorithm, upscale_algorithm = key
    left_down, right_down = scaling_operators(src_shape, dst_shape, algorithm)
    left_up, right_up = scaling_operators(dst_shape, src_shape, upscale_algorithm)
    return ScoringPlan(
        src_shape=src_shape,
        dst_shape=dst_shape,
        algorithm=algorithm,
        upscale_algorithm=upscale_algorithm,
        left_down=left_down,
        right_down=right_down,
        left_up=left_up,
        right_up=right_up,
    )


_PLAN_CACHE = PlanCache(_build_scoring_plan, maxsize=32)


def get_scoring_plan(
    src_shape: tuple[int, int],
    dst_shape: tuple[int, int],
    algorithm: str = "bilinear",
    upscale_algorithm: str | None = None,
) -> ScoringPlan:
    """The compiled :class:`ScoringPlan` for one round-trip configuration."""
    key = (
        (int(src_shape[0]), int(src_shape[1])),
        (int(dst_shape[0]), int(dst_shape[1])),
        algorithm,
        upscale_algorithm or algorithm,
    )
    return _PLAN_CACHE.lookup(key)


# -- spectrum geometry ------------------------------------------------------


@dataclass(frozen=True)
class SpectrumGeometry:
    """The low-pass disk of the CSP metric for one spectrum shape.

    Holds only the disk points, as read-only arrays in row-major order:
    their centered (``fftshift``) coordinates, their distance from the
    center, and the flat index of the ``rfft2`` half-spectrum bin each
    one maps to through Hermitian symmetry, which is what lets the fast
    path run on half the FFT output. Nothing is kept for the rest of the
    grid; :func:`csp_count_fast` maps a region's peak window and annulus
    into the half spectrum when a region needs them.
    """

    shape: tuple[int, int]
    radius: float
    disk_rows: np.ndarray = field(repr=False)  # row coordinate per disk point
    disk_cols: np.ndarray = field(repr=False)  # col coordinate per disk point
    disk_radial: np.ndarray = field(repr=False)  # center distance per disk point
    disk_herm: np.ndarray = field(repr=False)  # half indices of disk points


def _half_spectrum_index(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Flat ``rfft2`` half-spectrum indices of centered coordinates.

    Centered coordinate ``(i, j)`` is unshifted frequency
    ``(u, v) = ((i - h//2) % h, (j - w//2) % w)``; bins with
    ``v >= w//2 + 1`` mirror onto ``((h - u) % h, w - v)`` with equal
    magnitude. *rows* and *cols* broadcast against each other.
    """
    h, w = shape
    half_w = w // 2 + 1
    u = (rows - h // 2) % h
    v = (cols - w // 2) % w
    mirror = v >= half_w
    u = np.where(mirror, (h - u) % h, u)
    v = np.where(mirror, w - v, v)
    return (u * half_w + v).astype(np.int64, copy=False)


def _centered_offsets(reach: int, n: int) -> np.ndarray:
    """Offsets from the center ``n // 2`` within *reach*, clipped to the grid."""
    return np.arange(max(-reach, -(n // 2)), min(reach, n - 1 - n // 2) + 1)


def _build_spectrum_geometry(key: tuple) -> SpectrumGeometry:
    h, w, lowpass_radius_fraction = key
    radius = lowpass_radius_fraction * (min(h, w) / 2.0)
    if radius <= 0:
        raise ImageError(f"low-pass radius must be positive, got {radius}")
    # No point further than int(radius) from the center along either axis
    # is on the disk, so only that centered square is tested, with the
    # expression of repro.imaging.fourier.radial_lowpass_mask.
    row_offsets = _centered_offsets(int(radius), h)
    col_offsets = _centered_offsets(int(radius), w)
    dist_sq = row_offsets[:, None] ** 2 + col_offsets[None, :] ** 2
    local_rows, local_cols = np.nonzero(dist_sq <= radius * radius)
    disk_rows = row_offsets[local_rows] + h // 2
    disk_cols = col_offsets[local_cols] + w // 2
    disk_radial = np.hypot(row_offsets[local_rows], col_offsets[local_cols])
    disk_herm = _half_spectrum_index(disk_rows, disk_cols, (h, w))
    arrays = (disk_rows, disk_cols, disk_radial, disk_herm)
    for array in arrays:
        array.setflags(write=False)
    return SpectrumGeometry((h, w), radius, *arrays)


_GEOMETRY_CACHE = PlanCache(_build_spectrum_geometry, maxsize=16)


def get_spectrum_geometry(
    shape: tuple[int, int], lowpass_radius_fraction: float = 0.5
) -> SpectrumGeometry:
    """The cached :class:`SpectrumGeometry` for one spectrum shape."""
    key = (int(shape[0]), int(shape[1]), float(lowpass_radius_fraction))
    return _GEOMETRY_CACHE.lookup(key)


# -- fast CSP ---------------------------------------------------------------


def _median_normalized(
    values: np.ndarray, low: float, scale: float
) -> float:
    """``np.median`` of the normalized spectrum over raw magnitude *values*.

    Normalization is strictly monotone in the magnitude, so the median
    element(s) can be selected on the raw values with ``np.partition``
    and only the middle one or two need the log/normalize transform —
    matching ``np.median`` of the fully normalized array bit for bit.
    """
    n = values.shape[0]
    mid = n // 2
    if n % 2:
        value = np.partition(values, mid)[mid]
        return float((np.log1p(value) - low) * scale)
    part = np.partition(values, [mid - 1, mid])
    a = (np.log1p(part[mid - 1]) - low) * scale
    b = (np.log1p(part[mid]) - low) * scale
    return float((a + b) / 2.0)


def _point_region_stats(
    rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """8-connected component stats of a non-empty, row-major point list.

    Only the crop around the points is labeled, by
    :func:`~repro.imaging.contours.label_runs`, and its runs are moved
    back by the crop origin. Returns ``(areas, row_sums, col_sums,
    bboxes)`` exactly as
    :func:`~repro.imaging.contours.region_stats_from_runs` gives them for
    the equivalent dense mask: the crop has the same runs in the same
    order.
    """
    top = int(rows[0])
    left = int(cols.min())
    patch = np.zeros(
        (int(rows[-1]) - top + 1, int(cols.max()) - left + 1), dtype=bool
    )
    patch[rows - top, cols - left] = True
    run_rows, starts, ends, components, count = label_runs(patch, connectivity=8)
    return region_stats_from_runs(
        run_rows + top, starts + left, ends + left, components, count
    )


def csp_count_fast(
    gray: np.ndarray,
    *,
    brightness_threshold: float = 160.0,
    lowpass_radius_fraction: float = 0.5,
    inner_radius_fraction: float = 0.09,
    min_area: int = 2,
    min_prominence: float = 35.0,
) -> int:
    """The CSP count of the 2-D luma plane *gray*, from a real FFT and
    cached geometry.

    Agrees with :func:`repro.imaging.fourier.csp_count_from_spectrum` on
    the normalized spectrum; counts are exactly equal on the test corpus
    (the only divergence channel is sub-ulp FFT symmetry at exact
    threshold boundaries).
    """
    h, w = gray.shape
    geometry = get_spectrum_geometry((h, w), lowpass_radius_fraction)

    flat_magnitude = np.abs(np.fft.rfft2(gray)).ravel()  # |rfft2| half spectrum
    low = float(np.log1p(flat_magnitude.min()))
    high = float(np.log1p(flat_magnitude.max()))
    if high - low <= 0:
        return 1  # constant spectrum: empty binary mask, one central point
    scale = 255.0 / (high - low)

    # Brightness threshold, evaluated only at low-pass disk points with
    # the same per-element expression the reference path uses. The
    # normalization is strictly monotone in the magnitude, so inverting
    # it once gives a raw-magnitude cutoff; a relative safety margin
    # far wider than the expression's rounding error makes the raw
    # candidates a superset, and the exact expression then runs only on
    # those few points instead of the whole disk.
    raw_cut = float(np.expm1(brightness_threshold / scale + low)) * (1.0 - 1e-6)
    disk_magnitude = flat_magnitude[geometry.disk_herm]
    candidates = np.nonzero(disk_magnitude >= raw_cut)[0]
    if candidates.size == 0:
        return 1
    values = np.log1p(disk_magnitude[candidates])
    bright = candidates[(values - low) * scale >= brightness_threshold]
    if bright.size == 0:
        return 1
    # All-central shortcut: a centroid is a convex combination of its
    # region's points, so when every bright point sits strictly inside
    # the inner radius (margin covering centroid rounding) no region can
    # pass the distance filter — benign spectra end here, unlabeled.
    inner_radius = inner_radius_fraction * min(h, w)
    if float(geometry.disk_radial[bright].max()) <= inner_radius * (1.0 - 1e-9):
        return 1
    # The bright points inherit the disk's row-major sort, so they can be
    # labeled sparsely, without building the binary mask.
    areas, row_sums, col_sums, bboxes = _point_region_stats(
        geometry.disk_rows[bright], geometry.disk_cols[bright]
    )
    distances = np.hypot(row_sums / areas - h // 2, col_sums / areas - w // 2)
    keep = (areas >= min_area) & (distances > inner_radius)
    if not keep.any():
        return 1

    outer = 0
    backgrounds: dict[float, float] = {}
    for index in np.nonzero(keep)[0]:
        r0, c0, r1, c1 = bboxes[index]
        window = _half_spectrum_index(
            np.arange(r0, r1 + 1)[:, None], np.arange(c0, c1 + 1)[None, :], (h, w)
        )
        peak = (np.log1p(flat_magnitude[window].max()) - low) * scale
        distance = float(distances[index])
        # Mirror-symmetric spectrum regions usually sit at the same
        # distance, so the annulus median is memoized per distance.
        background = backgrounds.get(distance)
        if background is None:
            annulus = flat_magnitude[_annulus_half_index(distance, (h, w))]
            background = (
                _median_normalized(annulus, low, scale) if annulus.size else 0.0
            )
            backgrounds[distance] = background
        if peak - background >= min_prominence:
            outer += 1
    return 1 + outer


def _annulus_half_index(distance: float, shape: tuple[int, int]) -> np.ndarray:
    """Half-spectrum indices of the points ``d - 3 < radial < d + 3``.

    The predicate and the ``np.hypot`` of integer center offsets are the
    reference's (:func:`repro.imaging.fourier.csp_count_from_spectrum`),
    evaluated over the centered square of half-side ``int(d + 3) + 1``
    only: no point outside it is nearer than ``d + 3``, so the points are
    exactly the reference's.
    """
    h, w = shape
    reach = int(distance + 3.0) + 1
    row_offsets = _centered_offsets(reach, h)
    col_offsets = _centered_offsets(reach, w)
    radial = np.hypot(row_offsets[:, None], col_offsets[None, :])
    local_rows, local_cols = np.nonzero(
        (radial > distance - 3.0) & (radial < distance + 3.0)
    )
    return _half_spectrum_index(
        row_offsets[local_rows] + h // 2, col_offsets[local_cols] + w // 2, shape
    )


# -- cache surfaces ---------------------------------------------------------


def plan_cache_stats() -> dict[str, float | int]:
    """Hit/miss statistics of the process-wide scoring-plan cache."""
    return _PLAN_CACHE.stats()


def geometry_cache_stats() -> dict[str, float | int]:
    """Hit/miss statistics of the spectrum-geometry cache."""
    return _GEOMETRY_CACHE.stats()


def clear_plan_caches() -> None:
    """Reset both plan caches (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _GEOMETRY_CACHE.clear()
