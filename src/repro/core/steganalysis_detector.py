"""Method 3 — steganalysis detection (paper Section 3.3, Algorithm 3).

Treat the attack's perturbation as hidden information and look for it in
the frequency domain: the regular grid of injected pixels adds periodic
components, so the centered log spectrum of an attack image shows multiple
bright points where a benign image shows one.

Score = CSP count (integer). Unlike the other two methods the threshold is
*fixed* at 2 — the paper's key observation is that this needs no
calibration at all ("we use a fixed threshold of 2 for CSP … regardless of
original and attack images"), which is why the detector is born calibrated.
"""

from __future__ import annotations

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector
from repro.core.result import Direction, ThresholdRule

__all__ = ["SteganalysisDetector", "DEFAULT_CSP_THRESHOLD"]

#: The paper's universal CSP threshold: >= 2 spectrum points ⇒ attack.
DEFAULT_CSP_THRESHOLD = 2.0


class SteganalysisDetector(Detector):
    """Centered-spectrum-point counting detector.

    Spectrum extraction knobs (brightness threshold, low-pass radius,
    prominence) are exposed for experimentation but the defaults are used
    throughout the paper reproduction; see
    :func:`repro.imaging.fourier.csp_count` for their meaning. The log
    spectrum itself comes from the shared analysis context (it is
    parameter-free), so figure code or a second steganalysis configuration
    scoring the same context reuses the FFT.
    """

    method = "steganalysis"
    metric = "csp"

    def __init__(
        self,
        *,
        brightness_threshold: float = 160.0,
        lowpass_radius_fraction: float = 0.5,
        inner_radius_fraction: float = 0.09,
        min_area: int = 2,
        min_prominence: float = 35.0,
        threshold: ThresholdRule | None = None,
    ) -> None:
        super().__init__(
            threshold
            or ThresholdRule(value=DEFAULT_CSP_THRESHOLD, direction=Direction.GREATER)
        )
        self.brightness_threshold = brightness_threshold
        self.lowpass_radius_fraction = lowpass_radius_fraction
        self.inner_radius_fraction = inner_radius_fraction
        self.min_area = min_area
        self.min_prominence = min_prominence

    @property
    def attack_direction(self) -> Direction:
        return Direction.GREATER

    def _csp_params(self) -> dict[str, float | int]:
        return {
            "brightness_threshold": self.brightness_threshold,
            "lowpass_radius_fraction": self.lowpass_radius_fraction,
            "inner_radius_fraction": self.inner_radius_fraction,
            "min_area": self.min_area,
            "min_prominence": self.min_prominence,
        }

    def score_from(self, analysis: ImageAnalysis) -> float:
        return float(analysis.csp_count(**self._csp_params()))
