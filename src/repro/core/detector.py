"""Detector base class: score + pluggable threshold rule.

Every Decamouflage method reduces an image to one scalar score and compares
it to a calibrated threshold (paper Algorithms 1–3). The base class owns
the threshold plumbing — the unified :meth:`Detector.calibrate` entry point
(percentile / sigma / midpoint strategies), decisions, and per-detector
latency metrics — so the three concrete detectors only define
*how to score* and *which side of the threshold is suspicious*.

Since the shared-analysis refactor the scoring primitive is
:meth:`Detector.score_from`, which reads from an
:class:`~repro.core.analysis.ImageAnalysis` context instead of a raw array.
The context validates the image once, converts it to float once, and
memoizes every intermediate — so an ensemble, a multi-scale scan, or a
serving decision that runs several detectors over one image shares all of
that work. :meth:`Detector.score` remains as a thin wrapper that builds a
throwaway context, so single-detector callers are unaffected.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable, Sequence

import numpy as np

from repro.core.analysis import ImageAnalysis
from repro.core.result import Detection, Direction, ThresholdRule
from repro.core.thresholds import (
    calibrate_blackbox,
    calibrate_blackbox_sigma,
    calibrate_whitebox,
)
from repro.errors import CalibrationError, DetectionError
from repro.observability import Metrics

__all__ = ["CALIBRATION_STRATEGIES", "Detector", "score_image_major"]

#: Strategies accepted by :meth:`Detector.calibrate`.
CALIBRATION_STRATEGIES = ("percentile", "sigma", "midpoint")


class Detector(ABC):
    """One Decamouflage detection method.

    A detector is constructed unconfigured, then either given an explicit
    :class:`ThresholdRule` or calibrated from data. ``detect`` raises
    :class:`DetectionError` until a threshold exists (except for detectors
    that define a fixed default rule, like steganalysis).

    Subclasses implement :meth:`score_from`, pulling their intermediates
    from the shared :class:`ImageAnalysis` context; every image-accepting
    entry point (``score``, ``scores``, ``detect``) also accepts ready-made
    contexts, so composite callers can score many detectors against one
    context.

    Setting :attr:`metrics` to a :class:`repro.observability.Metrics`
    registry makes every ``detect`` call record its scoring latency under
    ``detector.<method>.<metric>``.
    """

    #: short name used in reports: "scaling", "filtering", "steganalysis"
    method: str = "detector"
    #: metric name used in reports: "mse", "ssim", "csp"
    metric: str = "score"

    def __init__(self, threshold: ThresholdRule | None = None) -> None:
        self._threshold = threshold
        #: optional observability registry; set by the serving pipeline.
        self.metrics: Metrics | None = None

    # -- scoring ---------------------------------------------------------

    @staticmethod
    def as_analysis(
        item: np.ndarray | ImageAnalysis,
        metrics: Metrics | None = None,
    ) -> ImageAnalysis:
        """Coerce an image (or pass an existing context through) to an
        :class:`ImageAnalysis`. Composite callers wrap each image once and
        hand the same context to every member detector."""
        if isinstance(item, ImageAnalysis):
            return item
        return ImageAnalysis(item, metrics=metrics)

    @abstractmethod
    def score_from(self, analysis: ImageAnalysis) -> float:
        """Reduce the analyzed image to this method's scalar attack score.

        This is the scoring primitive: implementations read their
        intermediates from *analysis* so repeated work is shared across
        detectors. Third-party subclasses should override this (not
        :meth:`score`, which is a wrapper building a throwaway context).
        """

    def score(self, image: np.ndarray | ImageAnalysis) -> float:
        """Reduce *image* to this method's scalar attack score."""
        return self.score_from(self.as_analysis(image, self.metrics))

    @property
    @abstractmethod
    def attack_direction(self) -> Direction:
        """Which side of the threshold indicates an attack."""

    def scores(self, images: Iterable[np.ndarray | ImageAnalysis]) -> list[float]:
        """Score each image (or prepared analysis context) on its own."""
        return [self.score(image) for image in images]

    # -- threshold management --------------------------------------------

    @property
    def threshold(self) -> ThresholdRule:
        if self._threshold is None:
            raise DetectionError(
                f"{self.method} detector has no threshold; call "
                "calibrate() or pass one explicitly"
            )
        return self._threshold

    @threshold.setter
    def threshold(self, rule: ThresholdRule) -> None:
        if rule.direction is not self.attack_direction:
            raise DetectionError(
                f"{self.method}/{self.metric} expects direction "
                f"{self.attack_direction.value!r}, got {rule.direction.value!r}"
            )
        self._threshold = rule

    @property
    def is_calibrated(self) -> bool:
        return self._threshold is not None

    def calibrate(
        self,
        benign: Sequence[np.ndarray | ImageAnalysis],
        attacks: Sequence[np.ndarray | ImageAnalysis] | None = None,
        *,
        strategy: str = "percentile",
        percentile: float = 1.0,
        n_sigma: float = 3.0,
    ) -> ThresholdRule:
        """Calibrate the threshold from example images.

        One entry point for every calibration regime in the paper:

        * ``strategy="percentile"`` (default) — benign images only; the
          threshold sits at the *percentile* tail of the benign score
          distribution (the paper's black-box setting, Section 5.1).
        * ``strategy="sigma"`` — benign images only; mean ± *n_sigma*·std
          of the benign scores (the Mean/STD rule of Tables 3 and 5).
        * ``strategy="midpoint"`` — needs *attacks*; exact accuracy-
          maximizing threshold from both populations (the paper's
          white-box setting).

        Passing *attacks* selects the midpoint strategy automatically;
        combining *attacks* with ``strategy="sigma"`` is rejected because
        the sigma rule cannot use them.
        """
        if strategy not in CALIBRATION_STRATEGIES:
            known = ", ".join(CALIBRATION_STRATEGIES)
            raise CalibrationError(f"unknown strategy {strategy!r}; known: {known}")
        if attacks is not None:
            if strategy == "sigma":
                raise CalibrationError(
                    "attack examples are only used by the 'midpoint' strategy; "
                    "drop them or use strategy='midpoint'"
                )
            strategy = "midpoint"
        if strategy == "midpoint":
            if attacks is None:
                raise CalibrationError(
                    "strategy='midpoint' needs attack example images"
                )
            rule = calibrate_whitebox(
                self.scores(benign),
                self.scores(attacks),
                direction=self.attack_direction,
            )
        elif strategy == "sigma":
            rule = calibrate_blackbox_sigma(
                self.scores(benign),
                direction=self.attack_direction,
                n_sigma=n_sigma,
            )
        else:
            rule = calibrate_blackbox(
                self.scores(benign),
                direction=self.attack_direction,
                percentile=percentile,
            )
        self._threshold = rule
        return rule

    # -- decisions ---------------------------------------------------------

    def detect_from(self, analysis: ImageAnalysis) -> Detection:
        """Score one prepared context and apply the calibrated rule."""
        start = time.perf_counter()
        value = self.score_from(analysis)
        if self.metrics is not None:
            self.metrics.observe(
                f"detector.{self.method}.{self.metric}",
                (time.perf_counter() - start) * 1000.0,
            )
        rule = self.threshold
        return Detection(
            method=self.method,
            metric=self.metric,
            score=value,
            threshold=rule,
            is_attack=rule.is_attack(value),
        )

    def detect(self, image: np.ndarray | ImageAnalysis) -> Detection:
        """Score one image and apply the calibrated rule."""
        return self.detect_from(self.as_analysis(image, self.metrics))

    def is_attack(self, image: np.ndarray | ImageAnalysis) -> bool:
        """Convenience: just the boolean verdict."""
        return self.detect(image).is_attack


def score_image_major(
    analyses: Iterable[ImageAnalysis], detectors: Collection[Detector]
) -> None:
    """Memoize every detector's score on each analysis, then drop that
    analysis's arrays before the next: calibration then holds one image's
    working set, and thresholds come from the memoized scalars."""
    for analysis in analyses:
        for detector in detectors:
            detector.score_from(analysis)
        analysis.forget_arrays()
