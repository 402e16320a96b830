"""T7 — paper Table 7: per-method run-time overhead.

Paper (i5-7500): scaling 11/137 ms (MSE/SSIM), filtering 11/174 ms,
steganalysis 3 ms. Absolute numbers are machine-dependent; the reproduced
claims are the ordering (CSP fastest, SSIM slowest) and millisecond scale.

Unlike the other benches, this one uses pytest-benchmark's statistics for
real: each detector's single-image decision is measured over many rounds.
The paper reports cost per image, and every entry point scores one image
at a time, so there is no separate batch path to time: a pipeline batch
costs the sum of its images.
"""

import time

import pytest

from repro.core.filtering_detector import FilteringDetector
from repro.core.result import Direction, ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.eval.runtime import table7_runtime
from repro.imaging.scaling import clear_operator_cache, resize
from repro.serving.pipeline import ProtectedPipeline

_GREATER = ThresholdRule(0.0, Direction.GREATER)
_LESS = ThresholdRule(0.0, Direction.LESS)


def _detector(name, data):
    shape = data.model_input_shape
    return {
        "scaling-mse": ScalingDetector(shape, metric="mse", threshold=_GREATER),
        "scaling-ssim": ScalingDetector(shape, metric="ssim", threshold=_LESS),
        "filtering-mse": FilteringDetector(metric="mse", threshold=_GREATER),
        "filtering-ssim": FilteringDetector(metric="ssim", threshold=_LESS),
        "steganalysis-csp": SteganalysisDetector(),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["scaling-mse", "scaling-ssim", "filtering-mse", "filtering-ssim", "steganalysis-csp"],
)
def test_per_image_decision_latency(benchmark, data, name):
    detector = _detector(name, data)
    image = data.evaluation.benign[0]
    benchmark(detector.detect, image)


def _batch_pool(data, side=128, count=64):
    """A mixed benign/attack pool of float64 images at ``side``²."""
    half = count // 2
    sources = data.evaluation.benign[:half] + data.evaluation.attacks[:half]
    return [resize(image, (side, side), data.algorithm) for image in sources]


def test_ensemble_shared_context_vs_legacy(data, save_result, capsys):
    """Shared-context ensemble decisions vs the legacy per-member path.

    ``ensemble.detect`` builds ONE :class:`ImageAnalysis` per image and
    hands it to all three members. The legacy path — reconstructed here by
    calling each member's ``score(image)``, which validates and
    float-converts privately exactly as detectors did before the shared
    layer existed — repeats that work per member. Scores are asserted
    identical; the timing difference is pure redundancy removal.
    """
    from repro.core.analysis import ImageAnalysis
    from repro.core.ensemble import build_default_ensemble
    from repro.eval.experiments import ExperimentResult

    pool = _batch_pool(data, side=64)
    ensemble = build_default_ensemble((16, 16), algorithm=data.algorithm)
    ensemble.calibrate(pool[: len(pool) // 2], percentile=1.0)
    clear_operator_cache()
    ensemble.detect(pool[0])  # warm operators + code paths for both runs

    def legacy_scores(image):
        return [member.score(image) for member in ensemble.detectors]

    def shared_scores(image):
        analysis = ImageAnalysis(image)
        return [member.score_from(analysis) for member in ensemble.detectors]

    start = time.perf_counter()
    legacy = [legacy_scores(image) for image in pool]
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    shared = [shared_scores(image) for image in pool]
    shared_s = time.perf_counter() - start

    assert shared == legacy  # bit-identical scores, member by member
    speedup = legacy_s / shared_s
    rows = [
        {
            "Path": name,
            "Total (ms)": f"{seconds * 1000:.1f}",
            "Per image (ms)": f"{seconds * 1000 / len(pool):.3f}",
            "Speedup": f"{legacy_s / seconds:.2f}",
        }
        for name, seconds in (("Legacy per-member", legacy_s), ("Shared context", shared_s))
    ]
    result = ExperimentResult(
        experiment_id="bench/ensemble_shared_context",
        title="Ensemble decision: shared analysis context vs legacy per-member path",
        rows=rows,
        notes=(
            f"{len(pool)} color images at 64x64, 16x16 model input, warm operator "
            f"cache; identical scores asserted. Speedup x{speedup:.2f}."
        ),
    )
    save_result(result)
    with capsys.disabled():
        print(f"\nensemble shared-context speedup: x{speedup:.2f}")
    # No-regression bound with headroom for timer noise; the shared path
    # removes work (validation, float copies) and adds none.
    assert speedup >= 0.8


def test_pipeline_batch_throughput(data, capsys):
    """submit_batch vs per-image submit on the full pipeline (report only:
    both score each image on its own, so the ratio shows the per-call
    overhead that batching saves and nothing else)."""
    pool = _batch_pool(data)
    holdout = pool[: len(pool) // 2]

    def _pipeline():
        pipeline = ProtectedPipeline((32, 32), algorithm=data.algorithm)
        pipeline.calibrate(holdout, percentile=1.0)
        return pipeline

    serial = _pipeline()
    start = time.perf_counter()
    for image in pool:
        serial.submit(image)
    serial_s = time.perf_counter() - start

    batched = _pipeline()
    start = time.perf_counter()
    batched.submit_batch(pool)
    batch_s = time.perf_counter() - start

    assert serial.stats.as_dict()["accepted"] == batched.stats.as_dict()["accepted"]
    with capsys.disabled():
        print(
            f"\npipeline throughput over {len(pool)} images: "
            f"serial {len(pool) / serial_s:.1f} img/s, "
            f"batch {len(pool) / batch_s:.1f} img/s "
            f"(x{serial_s / batch_s:.2f})"
        )


def test_table7_summary(run_once, data, save_result):
    result = run_once(
        table7_runtime,
        data.evaluation.benign[: min(20, len(data.evaluation.benign))],
        model_input_shape=data.model_input_shape,
        algorithm=data.algorithm,
    )
    save_result(result)
    times = {(r["Method"], r["Metric"]): float(r["Run-time (ms)"]) for r in result.rows}
    assert times[("Steganalysis", "CSP")] < times[("Scaling", "SSIM")]
    assert times[("Scaling", "MSE")] < times[("Scaling", "SSIM")]
    assert times[("Filtering", "MSE")] < times[("Filtering", "SSIM")]
