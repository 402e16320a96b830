"""Run-time overhead measurement (paper Table 7).

Times each detector's per-image decision path — score + threshold compare —
exactly as an online deployment would run it, and reports mean and standard
deviation in milliseconds. The paper's i5-7500 numbers are attached for
comparison; absolute times differ by machine, but the ordering
(CSP ≪ MSE ≪ SSIM) and the "milliseconds, deployable online" scale are the
reproduced claims.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.detector import Detector
from repro.core.filtering_detector import FilteringDetector
from repro.core.result import Direction, ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.eval.data import ExperimentData
from repro.eval.experiments import ExperimentResult
from repro.eval.registry import experiment
from repro.eval.tables import format_number

__all__ = [
    "PAPER_RUNTIMES",
    "time_detector",
    "table7_runtime",
    "table7_from_data",
]

#: Paper Table 7 (milliseconds on an Intel i5-7500).
PAPER_RUNTIMES = [
    {"Method": "Scaling", "Metric": "MSE", "Run-time (ms)": "11", "Std (ms)": "5"},
    {"Method": "Scaling", "Metric": "SSIM", "Run-time (ms)": "137", "Std (ms)": "4"},
    {"Method": "Filtering", "Metric": "MSE", "Run-time (ms)": "11", "Std (ms)": "3"},
    {"Method": "Filtering", "Metric": "SSIM", "Run-time (ms)": "174", "Std (ms)": "6"},
    {"Method": "Steganalysis", "Metric": "CSP", "Run-time (ms)": "3", "Std (ms)": "1"},
]


def time_detector(
    detector: Detector,
    images: Sequence[np.ndarray],
    *,
    repeats: int = 1,
) -> tuple[float, float]:
    """Per-image decision latency: (mean_ms, std_ms) over all images."""
    timings = []
    for _ in range(repeats):
        for image in images:
            start = time.perf_counter()
            detector.detect(image)
            timings.append((time.perf_counter() - start) * 1000.0)
    array = np.asarray(timings)
    return float(array.mean()), float(array.std())


@experiment(
    "T7",
    title="Run-time overhead per detection method",
    order=110,
)
def table7_from_data(data: ExperimentData) -> ExperimentResult:
    """Table 7 with the standard corpus: times 30 evaluation-benign images.

    The registry entry point; :func:`table7_runtime` stays available for
    timing arbitrary image pools (the benchmarks use it directly).
    """
    return table7_runtime(
        data.evaluation.benign[: min(30, len(data.evaluation.benign))],
        model_input_shape=data.model_input_shape,
        algorithm=data.algorithm,
    )


def table7_runtime(
    images: Sequence[np.ndarray],
    *,
    model_input_shape: tuple[int, int] = (32, 32),
    algorithm: str = "bilinear",
    repeats: int = 1,
) -> ExperimentResult:
    """Table 7: per-method run-time overhead on this machine."""
    placeholder = ThresholdRule(value=0.0, direction=Direction.GREATER)
    ssim_placeholder = ThresholdRule(value=0.0, direction=Direction.LESS)
    detectors = [
        ("Scaling", "MSE", ScalingDetector(model_input_shape, algorithm=algorithm, metric="mse", threshold=placeholder)),
        ("Scaling", "SSIM", ScalingDetector(model_input_shape, algorithm=algorithm, metric="ssim", threshold=ssim_placeholder)),
        ("Filtering", "MSE", FilteringDetector(metric="mse", threshold=placeholder)),
        ("Filtering", "SSIM", FilteringDetector(metric="ssim", threshold=ssim_placeholder)),
        ("Steganalysis", "CSP", SteganalysisDetector()),
    ]
    rows = []
    for method, metric, detector in detectors:
        mean_ms, std_ms = time_detector(detector, images, repeats=repeats)
        rows.append(
            {
                "Method": method,
                "Metric": metric,
                "Run-time (ms)": format_number(mean_ms),
                "Std (ms)": format_number(std_ms),
            }
        )
    return ExperimentResult(
        experiment_id="T7",
        title="Run-time overhead per detection method",
        rows=rows,
        paper_reference=PAPER_RUNTIMES,
        notes=(
            "Absolute numbers are machine-dependent; the reproduced claims are "
            "the ordering (CSP fastest, SSIM slowest) and millisecond scale."
        ),
    )
