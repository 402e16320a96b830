"""Method 1 — scaling detection (paper Section 3.1, Algorithm 1).

Reverse-engineer the attack: downscale the input to the model's input size,
upscale back, and compare with the input. A benign image loses only fine
detail in the round trip; an attack image comes back as the *hidden target*
blown up to full size, which is wildly different from the input.

Score = MSE(I, S) (attack scores high) or SSIM(I, S) (attack scores low),
where ``S = up(down(I))``.
"""

from __future__ import annotations

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector
from repro.core.result import Direction, ThresholdRule
from repro.errors import DetectionError

__all__ = ["ScalingDetector"]


class ScalingDetector(Detector):
    """Down/up round-trip similarity detector.

    Parameters mirror the deployment being defended: ``model_input_shape``
    is the CNN's expected input size, ``algorithm`` the scaling algorithm
    the serving pipeline uses (which the attacker targeted).

    The round trip and its residual metric come from the shared
    :class:`~repro.core.analysis.ImageAnalysis` context, so a multi-scale
    scan or an ensemble sharing one context per image validates and
    float-converts it exactly once, and a repeated score is a memo hit.
    """

    method = "scaling"

    def __init__(
        self,
        model_input_shape: tuple[int, int],
        *,
        algorithm: str = "bilinear",
        metric: str = "mse",
        upscale_algorithm: str | None = None,
        threshold: ThresholdRule | None = None,
    ) -> None:
        if metric not in ("mse", "ssim"):
            raise DetectionError(f"scaling detector metric must be mse or ssim, got {metric!r}")
        super().__init__(threshold)
        self.model_input_shape = model_input_shape
        self.algorithm = algorithm
        self.upscale_algorithm = upscale_algorithm
        self.metric = metric

    @property
    def attack_direction(self) -> Direction:
        # MSE grows on attack images; SSIM collapses.
        return Direction.GREATER if self.metric == "mse" else Direction.LESS

    def score_from(self, analysis: ImageAnalysis) -> float:
        key = ImageAnalysis.round_trip_key(
            self.model_input_shape, self.algorithm, self.upscale_algorithm
        )
        if self.metric == "mse":
            return analysis.mse_against(key)
        return analysis.ssim_against(key)
