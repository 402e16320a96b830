"""Shared lazy-analysis context: one validated image, memoized intermediates.

All three Decamouflage methods (paper Algorithms 1–3) consume the *same*
input image. Before this layer existed, each detector re-validated the
image, re-converted it to float, and computed its intermediate (round
trip, filtered image, log spectrum) privately — so the ensemble did the
shared preprocessing three times and the multi-scale scanner repeated it
once per candidate size.

:class:`ImageAnalysis` wraps one :func:`~repro.imaging.image.ensure_image`-
validated image and memoizes every named intermediate the detectors need,
keyed by the parameters that define it:

* ``round_trip(shape, algorithm, upscale_algorithm)`` — the scaling
  detector's reconstruction ``S = up(down(I))``
* ``filtered(name, size)`` — the filtering detector's ``F = filter(I)``
* ``log_spectrum()`` — the steganalysis detector's centered log spectrum
* ``mse_against(key)`` / ``ssim_against(key)`` — memoized residual-metric
  scalars between the image and an intermediate

Every value is computed at most once per context; repeat requests are memo
hits. Hit/miss counts are tracked per intermediate name and, when a
:class:`~repro.observability.Metrics` registry is attached, mirrored into
``analysis.<intermediate>.hit`` / ``analysis.<intermediate>.miss``
counters so a serving dashboard can show the shared-work savings.

Numerics contract: scoring runs through the precompiled
:mod:`repro.imaging.plans`. Round trips are bit-identical to
:func:`~repro.imaging.scaling.downscale_then_upscale`, so scaling MSE
scores equal their reference exactly. SSIM filters through a tiled
banded GEMM, within ≤1e-9 relative of :func:`~repro.imaging.metrics.ssim`,
and the CSP count comes from a real FFT, exactly equal to
:func:`~repro.imaging.fourier.csp_count_from_spectrum` on the test
corpus. Otherwise the context only removes redundant validation, dtype
conversion, and recomputation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DetectionError
from repro.imaging.color import to_grayscale
from repro.imaging.filtering import FILTERS
from repro.imaging.fourier import log_spectrum_image
from repro.imaging.image import ensure_image
from repro.imaging.metrics import ssim_fast
from repro.imaging.plans import csp_count_fast, get_scoring_plan
from repro.observability import Metrics

__all__ = ["ImageAnalysis"]

#: Memo key kinds whose values are image-sized arrays (droppable to bound
#: memory during calibration sweeps); scalar results are never dropped.
_ARRAY_KINDS = ("round_trip", "filtered", "log_spectrum", "gray")


class ImageAnalysis:
    """Lazy, memoizing analysis context for one image.

    The image is validated exactly once, at construction. The float64
    working view and every intermediate are computed on first request and
    memoized; detectors pull from the context via
    :meth:`repro.core.Detector.score_from` so an ensemble, a multi-scale
    scan, or a serving decision shares one copy of everything.

    The float view may alias the caller's array when it is already
    float64 — the context and every consumer treat it as read-only.
    """

    __slots__ = ("image", "metrics", "_float", "_memo", "_counts")

    def __init__(self, image: np.ndarray, *, metrics: Metrics | None = None) -> None:
        ensure_image(image)
        self.image = image
        self.metrics = metrics
        self._float: np.ndarray | None = None
        self._memo: dict[tuple, object] = {}
        #: per-intermediate [hits, misses], keyed by the kind name
        self._counts: dict[str, list[int]] = {}

    # -- accounting --------------------------------------------------------

    def _tally(self, name: str, *, hit: bool) -> None:
        counts = self._counts.setdefault(name, [0, 0])
        counts[0 if hit else 1] += 1
        if self.metrics is not None:
            suffix = "hit" if hit else "miss"
            self.metrics.counter(f"analysis.{name}.{suffix}").add(1)

    def memo_stats(self) -> dict[str, dict[str, int]]:
        """Per-intermediate hit/miss counts for this context."""
        return {
            name: {"hits": hits, "misses": misses}
            for name, (hits, misses) in sorted(self._counts.items())
        }

    # -- the float working view -------------------------------------------

    @property
    def float_image(self) -> np.ndarray:
        """The image as float64 on the 0–255 scale, kept until :meth:`forget_arrays`.

        Read-only by convention: when the input is already float64 this is
        the caller's own array, not a copy.
        """
        if self._float is None:
            self._tally("float", hit=False)
            self._float = self.image.astype(np.float64, copy=False)
        else:
            self._tally("float", hit=True)
        return self._float

    # -- memo keys ---------------------------------------------------------

    @staticmethod
    def round_trip_key(
        shape: tuple[int, int],
        algorithm: str = "bilinear",
        upscale_algorithm: str | None = None,
    ) -> tuple:
        """Memo key of the ``up(down(I))`` reconstruction."""
        h, w = shape
        return ("round_trip", (int(h), int(w)), algorithm, upscale_algorithm or algorithm)

    @staticmethod
    def filtered_key(name: str = "minimum", size: int = 2) -> tuple:
        """Memo key of the order-statistic-filtered image."""
        return ("filtered", name, int(size))

    @staticmethod
    def log_spectrum_key() -> tuple:
        """Memo key of the centered, normalized log spectrum."""
        return ("log_spectrum",)

    @staticmethod
    def csp_key(
        brightness_threshold: float = 160.0,
        lowpass_radius_fraction: float = 0.5,
        inner_radius_fraction: float = 0.09,
        min_area: int = 2,
        min_prominence: float = 35.0,
    ) -> tuple:
        """Memo key of the (scalar) centered-spectrum-point count."""
        return (
            "csp",
            float(brightness_threshold),
            float(lowpass_radius_fraction),
            float(inner_radius_fraction),
            int(min_area),
            float(min_prominence),
        )

    # -- memo plumbing -----------------------------------------------------

    def _compute(self, key: tuple) -> object:
        kind = key[0]
        if kind == "round_trip":
            _, shape, algorithm, up_algorithm = key
            f = self.float_image
            return get_scoring_plan(f.shape[:2], shape, algorithm, up_algorithm).round_trip(f)
        if kind == "filtered":
            _, name, size = key
            if name not in FILTERS:
                known = ", ".join(sorted(FILTERS))
                raise DetectionError(f"unknown filter {name!r}; known: {known}")
            return FILTERS[name](self.float_image, size)
        if kind == "log_spectrum":
            return log_spectrum_image(self.image)
        if kind == "gray":
            return to_grayscale(self.image)
        if kind == "csp":
            _, brightness, lowpass, inner, min_area, min_prominence = key
            # Real-FFT path: never materializes the normalized spectrum
            # image, only the cheaper gray plane.
            return csp_count_fast(
                self.get(("gray",)),
                brightness_threshold=brightness,
                lowpass_radius_fraction=lowpass,
                inner_radius_fraction=inner,
                min_area=min_area,
                min_prominence=min_prominence,
            )
        if kind == "mse":
            other = self.get(key[1:])
            # Same values, same evaluation order as imaging.metrics.mse —
            # only the redundant per-call float copies are skipped.
            return float(np.mean((self.float_image - other) ** 2))
        if kind == "ssim":
            return ssim_fast(self.float_image, self.get(key[1:]))
        raise DetectionError(f"unknown analysis intermediate kind {kind!r}")

    def get(self, key: tuple) -> object:
        """The intermediate for *key*, computed on first request."""
        value = self._memo.get(key)
        if value is not None:
            self._tally(key[0], hit=True)
            return value
        self._tally(key[0], hit=False)
        value = self._compute(key)
        self._memo[key] = value
        return value

    def forget_arrays(self) -> None:
        """Drop the float view and image-sized memo entries, keeping scalars.

        Calibration sweeps (:func:`repro.core.detector.score_image_major`)
        call this once an image's scalar scores exist, to bound peak memory
        at one image's working set.
        """
        self._float = None
        for key in [k for k in self._memo if k[0] in _ARRAY_KINDS]:
            del self._memo[key]

    # -- named intermediates ----------------------------------------------

    def round_trip(
        self,
        shape: tuple[int, int],
        algorithm: str = "bilinear",
        upscale_algorithm: str | None = None,
    ) -> np.ndarray:
        """``S = up(down(I))`` through ``shape`` (paper Algorithm 1).

        Computed by the cached :class:`~repro.imaging.plans.ScoringPlan`,
        bit-identical to
        :func:`repro.imaging.scaling.downscale_then_upscale`.
        """
        return self.get(self.round_trip_key(shape, algorithm, upscale_algorithm))

    def filtered(self, name: str = "minimum", size: int = 2) -> np.ndarray:
        """``F = filter(I)`` (paper Algorithm 2), via :data:`FILTERS`."""
        return self.get(self.filtered_key(name, size))

    def log_spectrum(self) -> np.ndarray:
        """Centered log-magnitude spectrum on the 0–255 scale (paper Eq. 4)."""
        return self.get(self.log_spectrum_key())

    def gray(self) -> np.ndarray:
        """The luma plane (float64), memoized for the fast spectrum path."""
        return self.get(("gray",))

    def csp_count(
        self,
        *,
        brightness_threshold: float = 160.0,
        lowpass_radius_fraction: float = 0.5,
        inner_radius_fraction: float = 0.09,
        min_area: int = 2,
        min_prominence: float = 35.0,
    ) -> int:
        """Memoized CSP count (paper Algorithm 3).

        Counts directly from a real FFT of the luma plane
        (:func:`repro.imaging.plans.csp_count_fast`), which agrees
        exactly with the normalized-spectrum reference
        :func:`repro.imaging.fourier.csp_count_from_spectrum` on the test
        corpus.
        """
        return self.get(  # type: ignore[return-value]
            self.csp_key(
                brightness_threshold,
                lowpass_radius_fraction,
                inner_radius_fraction,
                min_area,
                min_prominence,
            )
        )

    # -- residual metrics --------------------------------------------------

    def mse_against(self, key: tuple) -> float:
        """Memoized ``MSE(I, intermediate)`` (paper Eq. 5)."""
        return self.get(("mse",) + tuple(key))

    def ssim_against(self, key: tuple) -> float:
        """Memoized ``SSIM(I, intermediate)`` (paper Eq. 6)."""
        return self.get(("ssim",) + tuple(key))

    # -- explanation artifacts --------------------------------------------

    def artifacts(self) -> dict[str, np.ndarray]:
        """Already-computed image intermediates, labeled for persistence.

        Only returns what scoring happened to memoize — nothing is
        computed here — so the serving pipeline can attach round-trip and
        filtered images to a quarantine record at zero extra cost.
        """
        out: dict[str, np.ndarray] = {}
        for key, value in self._memo.items():
            kind = key[0]
            if kind == "round_trip":
                (h, w), algorithm, up_algorithm = key[1], key[2], key[3]
                label = f"round_trip_{h}x{w}_{algorithm}"
                if up_algorithm != algorithm:
                    label += f"_{up_algorithm}"
            elif kind == "filtered":
                label = f"filtered_{key[1]}_{key[2]}"
            elif kind == "log_spectrum":
                label = "log_spectrum"
            else:
                continue
            out[label] = value  # type: ignore[assignment]
        return out
