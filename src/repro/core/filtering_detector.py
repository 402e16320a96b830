"""Method 2 — filtering detection (paper Section 3.2, Algorithm 2).

Apply an order-statistic filter and compare the result to the input. The
perturbed pixels the attack injects are statistical outliers inside their
neighborhoods, so a minimum filter (the paper's choice) strips them and the
filtered image diverges strongly from an attack input, while a benign image
barely changes.

Score = MSE(I, F) (attack high) or SSIM(I, F) (attack low), ``F = filter(I)``.
"""

from __future__ import annotations

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector
from repro.core.result import Direction, ThresholdRule
from repro.errors import DetectionError
from repro.imaging.filtering import FILTERS

__all__ = ["FilteringDetector"]


class FilteringDetector(Detector):
    """Window-filter residual detector (minimum filter by default)."""

    method = "filtering"

    def __init__(
        self,
        *,
        filter_name: str = "minimum",
        filter_size: int = 2,
        metric: str = "mse",
        threshold: ThresholdRule | None = None,
    ) -> None:
        if metric not in ("mse", "ssim"):
            raise DetectionError(f"filtering detector metric must be mse or ssim, got {metric!r}")
        if filter_name not in FILTERS:
            known = ", ".join(sorted(FILTERS))
            raise DetectionError(f"unknown filter {filter_name!r}; known: {known}")
        super().__init__(threshold)
        self.filter_name = filter_name
        self.filter_size = filter_size
        self.metric = metric

    @property
    def attack_direction(self) -> Direction:
        return Direction.GREATER if self.metric == "mse" else Direction.LESS

    def score_from(self, analysis: ImageAnalysis) -> float:
        key = ImageAnalysis.filtered_key(self.filter_name, self.filter_size)
        if self.metric == "mse":
            return analysis.mse_against(key)
        return analysis.ssim_against(key)
