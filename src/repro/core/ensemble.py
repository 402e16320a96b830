"""Majority-vote ensemble of detectors (paper Section 5.5).

The three methods fail in different ways — the ensemble exists to (a)
stabilize accuracy and (b) force an adaptive attacker to beat all methods
at once (paper Section 6). Any odd number of calibrated detectors can be
combined; the canonical Decamouflage instance is built by
:func:`build_default_ensemble`.

Every decision path builds **one**
:class:`~repro.core.analysis.ImageAnalysis` context per image and hands it
to every member: the image is validated and float-converted once, not once
per member, and members that share an intermediate (e.g. two scaling
configurations with the same model size) hit the memo instead of
recomputing it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector, score_image_major
from repro.core.result import EnsembleDetection, ThresholdRule
from repro.core.filtering_detector import FilteringDetector
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.errors import DetectionError
from repro.observability import Metrics

__all__ = ["DetectionEnsemble", "build_default_ensemble"]


class DetectionEnsemble:
    """Majority voting over independent detectors."""

    def __init__(
        self,
        detectors: Sequence[Detector],
        *,
        metrics: Metrics | None = None,
    ) -> None:
        if not detectors:
            raise DetectionError("ensemble needs at least one detector")
        if len(detectors) % 2 == 0:
            raise DetectionError(
                f"ensemble needs an odd number of detectors to avoid tied "
                f"votes, got {len(detectors)}"
            )
        self.detectors = list(detectors)
        self._metrics: Metrics | None = None
        if metrics is not None:
            self.metrics = metrics

    # -- observability ------------------------------------------------------

    @property
    def metrics(self) -> Metrics | None:
        """Attached observability registry, propagated to every member."""
        return self._metrics

    @metrics.setter
    def metrics(self, metrics: Metrics | None) -> None:
        self._metrics = metrics
        for detector in self.detectors:
            detector.metrics = metrics

    # -- shared analysis ----------------------------------------------------

    def analyze(self, image: np.ndarray | ImageAnalysis) -> ImageAnalysis:
        """The shared analysis context members score from (pass-through for
        prepared contexts). Carries the ensemble's metrics registry so memo
        hit/miss counters land on the attached dashboard."""
        return Detector.as_analysis(image, self._metrics)

    # -- calibration --------------------------------------------------------

    def calibrate(
        self,
        benign: Sequence[np.ndarray | ImageAnalysis],
        attacks: Sequence[np.ndarray | ImageAnalysis] | None = None,
        *,
        strategy: str = "percentile",
        percentile: float = 1.0,
        n_sigma: float = 3.0,
    ) -> dict[str, ThresholdRule]:
        """Calibrate every member with one strategy (see
        :meth:`repro.core.Detector.calibrate` for the strategies).

        Steganalysis members keep their fixed CSP rule — the paper's point
        is that this method needs no calibration data at all. Returns the
        calibrated rules keyed by ``"<method>/<metric>"``.

        Calibration runs image-major
        (:func:`repro.core.detector.score_image_major`), so peak memory is
        one image's working set whatever the corpus size.
        """
        members = [d for d in self.detectors if d.method != "steganalysis"]
        benign = [self.analyze(image) for image in benign]
        attacks = None if attacks is None else [self.analyze(image) for image in attacks]
        score_image_major(chain(benign, attacks or ()), members)
        return {
            f"{detector.method}/{detector.metric}": detector.calibrate(
                benign,
                attacks,
                strategy=strategy,
                percentile=percentile,
                n_sigma=n_sigma,
            )
            for detector in members
        }

    # -- decisions ----------------------------------------------------------

    def detect_from(self, analysis: ImageAnalysis) -> EnsembleDetection:
        """Run all members against one shared context and majority-vote."""
        detections = tuple(
            detector.detect_from(analysis) for detector in self.detectors
        )
        votes = sum(1 for d in detections if d.is_attack)
        return EnsembleDetection(
            is_attack=votes > len(detections) // 2,
            votes_for_attack=votes,
            votes_total=len(detections),
            detections=detections,
        )

    def detect(self, image: np.ndarray | ImageAnalysis) -> EnsembleDetection:
        """Run all members and majority-vote their verdicts."""
        return self.detect_from(self.analyze(image))

    def is_attack(self, image: np.ndarray | ImageAnalysis) -> bool:
        return self.detect(image).is_attack


def build_default_ensemble(
    model_input_shape: tuple[int, int],
    *,
    algorithm: str = "bilinear",
    scaling_metric: str = "mse",
    filtering_metric: str = "ssim",
) -> DetectionEnsemble:
    """The canonical Decamouflage: scaling + filtering + steganalysis.

    Metric defaults follow the paper's per-method recommendations: MSE for
    scaling detection (its best configuration, Table 2) and SSIM for
    filtering detection (Table 4); steganalysis always uses CSP.
    """
    return DetectionEnsemble(
        [
            ScalingDetector(
                model_input_shape, algorithm=algorithm, metric=scaling_metric
            ),
            FilteringDetector(metric=filtering_metric),
            SteganalysisDetector(),
        ]
    )
