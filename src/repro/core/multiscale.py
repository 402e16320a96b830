"""Multi-scale scanning: detect attacks without knowing the target size.

The paper's Table 1 makes a practical observation: real deployments use a
handful of input sizes (32², 224², 227², 299², 200×66), so an attacker's
choice is drawn from a small set — and so a *defender who does not know
which model the attacker aimed at* can simply test all plausible sizes.

:class:`MultiScaleScanner` runs one scaling detector per candidate size,
flags an image if any of them fires, and reports the size with the largest
threshold margin — i.e. *which model the attack was most likely aimed at*,
which is useful forensics when triaging a poisoned dataset.

Each scanned image gets **one** shared
:class:`~repro.core.analysis.ImageAnalysis` context for all candidate
sizes: validation and the float conversion happen once per image instead
of once per size (only the per-size round trips differ).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector, score_image_major
from repro.core.result import Direction
from repro.core.scaling_detector import ScalingDetector
from repro.errors import DetectionError

__all__ = ["COMMON_INPUT_SIZES", "MultiScaleDetection", "MultiScaleScanner"]

#: The deployment input sizes from paper Table 1.
COMMON_INPUT_SIZES: tuple[tuple[int, int], ...] = (
    (32, 32),      # LeNet-5
    (224, 224),    # VGG / ResNet / GoogleNet / MobileNet
    (227, 227),    # AlexNet
    (299, 299),    # Inception V3/V4
    (66, 200),     # DAVE-2 self-driving
)


@dataclass(frozen=True)
class MultiScaleDetection:
    """Verdict across candidate sizes, with per-size scores."""

    is_attack: bool
    #: candidate size with the largest threshold margin (the likely target
    #: of the attack); None when no size fired
    inferred_target_size: tuple[int, int] | None
    #: per-size (score, threshold value, fired) records
    per_size: dict[tuple[int, int], tuple[float, float, bool]]

    def explain(self) -> str:
        lines = ["ATTACK" if self.is_attack else "benign"]
        for size, (score, threshold, fired) in sorted(self.per_size.items()):
            marker = " <-- inferred target" if size == self.inferred_target_size else ""
            lines.append(
                f"  {size[0]}x{size[1]}: score={score:.4g} vs {threshold:.4g}"
                f" ({'fired' if fired else 'quiet'}){marker}"
            )
        return "\n".join(lines)


class MultiScaleScanner:
    """One scaling detector per candidate model-input size.

    Candidate sizes larger than the scanned image are skipped at detection
    time (you cannot downscale 256² to 299²).
    """

    def __init__(
        self,
        candidate_sizes: Sequence[tuple[int, int]] = COMMON_INPUT_SIZES,
        *,
        algorithm: str = "bilinear",
        metric: str = "mse",
    ) -> None:
        if not candidate_sizes:
            raise DetectionError("MultiScaleScanner needs at least one candidate size")
        self.detectors = {
            tuple(size): ScalingDetector(tuple(size), algorithm=algorithm, metric=metric)
            for size in candidate_sizes
        }
        self.algorithm = algorithm
        self.metric = metric

    def _applicable(self, image: np.ndarray) -> dict[tuple[int, int], ScalingDetector]:
        h, w = image.shape[:2]
        return {
            size: detector
            for size, detector in self.detectors.items()
            if size[0] < h and size[1] < w
        }

    def calibrate(
        self,
        benign: Sequence[np.ndarray | ImageAnalysis],
        attacks: Sequence[np.ndarray | ImageAnalysis] | None = None,
        *,
        strategy: str = "percentile",
        percentile: float = 1.0,
        n_sigma: float = 3.0,
    ) -> None:
        """Calibrate every candidate size with one strategy (see
        :meth:`repro.core.Detector.calibrate` for the strategies).

        Sizes not smaller than the hold-out images are dropped (they could
        never apply to same-sized inputs anyway). Calibration runs
        image-major (:func:`repro.core.detector.score_image_major`), so
        peak memory is one image's working set.
        """
        if not benign:
            raise DetectionError("calibration needs at least one benign image")
        benign = [Detector.as_analysis(image) for image in benign]
        attacks = (
            None
            if attacks is None
            else [Detector.as_analysis(image) for image in attacks]
        )
        applicable = self._applicable(benign[0].image)
        if not applicable:
            raise DetectionError(
                "no candidate size is smaller than the hold-out images"
            )
        score_image_major(chain(benign, attacks or ()), applicable.values())
        for detector in applicable.values():
            detector.calibrate(
                benign,
                attacks,
                strategy=strategy,
                percentile=percentile,
                n_sigma=n_sigma,
            )
        self.detectors = dict(applicable)

    def detect(self, image: np.ndarray | ImageAnalysis) -> MultiScaleDetection:
        """Test every applicable size against one shared context, and
        report the fired size with the largest normalized margin."""
        analysis = Detector.as_analysis(image)
        per_size: dict[tuple[int, int], tuple[float, float, bool]] = {}
        for size, detector in self._applicable(analysis.image).items():
            if not detector.is_calibrated:
                raise DetectionError(
                    f"size {size} is not calibrated; call calibrate() first"
                )
            score = detector.score_from(analysis)
            rule = detector.threshold
            per_size[size] = (score, rule.value, rule.is_attack(score))
        if not per_size:
            raise DetectionError(
                f"no candidate size applies to a {analysis.image.shape[:2]} image"
            )
        direction = (
            Direction.GREATER if self.metric == "mse" else Direction.LESS
        )
        best_size: tuple[int, int] | None = None
        best_margin = -np.inf
        for size, (score, threshold_value, fired) in per_size.items():
            if not fired:
                continue
            # Normalized margin: how far past the threshold, in units of
            # the threshold, so sizes are comparable.
            denominator = abs(threshold_value) or 1.0
            if direction is Direction.GREATER:
                margin = (score - threshold_value) / denominator
            else:
                margin = (threshold_value - score) / denominator
            if margin > best_margin:
                best_margin = margin
                best_size = size
        return MultiScaleDetection(
            is_attack=best_size is not None,
            inferred_target_size=best_size,
            per_size=per_size,
        )

    def is_attack(self, image: np.ndarray | ImageAnalysis) -> bool:
        return self.detect(image).is_attack
