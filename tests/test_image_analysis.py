"""The shared lazy-analysis layer: memoization, exact parity, observability.

Three properties are load-bearing:

1. each intermediate is computed at most once per context (memo counters);
2. ``score_from(analysis)`` equals ``score(image)`` **bit for bit** for
   every detector × metric combination, and both equal the legacy
   per-detector computation built from the imaging primitives directly;
3. composite consumers (ensemble, scanner, pipeline) share one context per
   image, visible in the hit/miss counters and ``pipeline.stats``.
"""

import numpy as np
import pytest

from repro.core.analysis import ImageAnalysis
from repro.core.detector import Detector
from repro.core.ensemble import build_default_ensemble
from repro.core.filtering_detector import FilteringDetector
from repro.core.multiscale import MultiScaleScanner
from repro.core.result import Direction, ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.errors import DetectionError, ImageError
from repro.imaging.filtering import FILTERS
from repro.imaging.fourier import csp_count, log_spectrum_image
from repro.imaging.metrics import mse, ssim
from repro.imaging.scaling import downscale_then_upscale
from repro.observability import Metrics

from tests.conftest import MODEL_INPUT

_GREATER = ThresholdRule(0.0, Direction.GREATER)
_LESS = ThresholdRule(0.0, Direction.LESS)


def _detector_grid(shape=MODEL_INPUT):
    """Every detector × metric combination the repo ships."""
    return [
        ScalingDetector(shape, metric="mse", threshold=_GREATER),
        ScalingDetector(shape, metric="ssim", threshold=_LESS),
        ScalingDetector(shape, metric="mse", algorithm="nearest", threshold=_GREATER),
        FilteringDetector(metric="mse", threshold=_GREATER),
        FilteringDetector(metric="ssim", threshold=_LESS),
        FilteringDetector(filter_name="median", filter_size=3, metric="mse", threshold=_GREATER),
        SteganalysisDetector(),
    ]


class TestMemoization:
    def test_each_intermediate_computed_once(self, color_image):
        analysis = ImageAnalysis(color_image)
        key = ImageAnalysis.round_trip_key(MODEL_INPUT)
        first = analysis.get(key)
        second = analysis.get(key)
        assert first is second
        assert analysis.memo_stats()["round_trip"] == {"hits": 1, "misses": 1}

    def test_float_view_converted_once(self, color_image):
        analysis = ImageAnalysis(color_image)
        first = analysis.float_image
        second = analysis.float_image
        assert first is second
        assert analysis.memo_stats()["float"] == {"hits": 1, "misses": 1}

    def test_metric_scalars_memoized(self, color_image):
        analysis = ImageAnalysis(color_image)
        key = ImageAnalysis.filtered_key("minimum", 2)
        analysis.mse_against(key)
        analysis.mse_against(key)
        stats = analysis.memo_stats()
        assert stats["mse"] == {"hits": 1, "misses": 1}
        # The filtered image itself was computed once (by the first mse),
        # and never again.
        assert stats["filtered"]["misses"] == 1

    def test_distinct_parameters_are_distinct_entries(self, color_image):
        analysis = ImageAnalysis(color_image)
        analysis.round_trip(MODEL_INPUT, "bilinear")
        analysis.round_trip(MODEL_INPUT, "nearest")
        analysis.round_trip((8, 8), "bilinear")
        assert analysis.memo_stats()["round_trip"] == {"hits": 0, "misses": 3}

    def test_forget_arrays_keeps_scalars(self, color_image):
        analysis = ImageAnalysis(color_image)
        key = ImageAnalysis.round_trip_key(MODEL_INPUT)
        score = analysis.mse_against(key)
        analysis.forget_arrays()
        # The scalar survives: asking again is a hit, not a recompute.
        assert analysis.mse_against(key) == score
        assert analysis.memo_stats()["mse"] == {"hits": 1, "misses": 1}
        # The image-sized round trip is gone: asking again recomputes it.
        assert analysis.memo_stats()["round_trip"] == {"hits": 0, "misses": 1}
        analysis.round_trip(MODEL_INPUT)
        assert analysis.memo_stats()["round_trip"] == {"hits": 0, "misses": 2}

    def test_counters_mirrored_into_metrics(self, color_image):
        metrics = Metrics()
        analysis = ImageAnalysis(color_image, metrics=metrics)
        analysis.log_spectrum()
        analysis.log_spectrum()
        values = metrics.counter_values("analysis.")
        assert values["analysis.log_spectrum.miss"] == 1
        assert values["analysis.log_spectrum.hit"] == 1

    def test_invalid_image_rejected_at_construction(self):
        with pytest.raises(ImageError):
            ImageAnalysis(np.zeros((4, 4, 7)))

    def test_unknown_key_kind_rejected(self, color_image):
        with pytest.raises(DetectionError, match="unknown analysis"):
            ImageAnalysis(color_image).get(("wavelet",))

    def test_unknown_filter_rejected(self, color_image):
        with pytest.raises(DetectionError, match="unknown filter"):
            ImageAnalysis(color_image).filtered("sobel", 2)


class TestExactParity:
    """score_from == score exactly; both match the imaging primitives
    (CSP and scaling MSE exactly, SSIM within the documented 1e-9
    relative band)."""

    @pytest.mark.parametrize("detector", _detector_grid(), ids=lambda d: f"{d.method}-{d.metric}-{getattr(d, 'algorithm', getattr(d, 'filter_name', ''))}")
    @pytest.mark.parametrize("kind", ["benign", "attack"])
    def test_score_from_equals_score(self, detector, kind, benign_images, attack_images):
        pool = benign_images if kind == "benign" else attack_images
        for image in pool[:3]:
            assert detector.score_from(ImageAnalysis(image)) == detector.score(image)

    def test_scaling_matches_legacy_computation(self, benign_images, attack_images):
        for image in [*benign_images[:2], *attack_images[:2]]:
            reconstructed = downscale_then_upscale(image, MODEL_INPUT, "bilinear")
            mse_detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
            ssim_detector = ScalingDetector(MODEL_INPUT, metric="ssim", threshold=_LESS)
            planned = ImageAnalysis(image)
            assert mse_detector.score_from(planned) == mse(image, reconstructed)
            assert ssim_detector.score_from(planned) == pytest.approx(
                ssim(image, reconstructed), rel=1e-9
            )

    def test_filtering_matches_legacy_computation(self, benign_images, attack_images):
        for image in [*benign_images[:2], *attack_images[:2]]:
            filtered = FILTERS["minimum"](image, 2)
            mse_detector = FilteringDetector(metric="mse", threshold=_GREATER)
            ssim_detector = FilteringDetector(metric="ssim", threshold=_LESS)
            planned = ImageAnalysis(image)
            assert mse_detector.score_from(planned) == pytest.approx(
                mse(image, filtered), rel=1e-9
            )
            assert ssim_detector.score_from(planned) == pytest.approx(
                ssim(image, filtered), rel=1e-9
            )

    def test_steganalysis_matches_legacy_computation(self, benign_images, attack_images):
        detector = SteganalysisDetector()
        for image in [*benign_images[:2], *attack_images[:2]]:
            assert detector.score_from(ImageAnalysis(image)) == float(csp_count(image))

    def test_log_spectrum_matches_fourier_module(self, color_image):
        assert np.array_equal(
            ImageAnalysis(color_image).log_spectrum(), log_spectrum_image(color_image)
        )

    def test_round_trip_matches_scaling_module(self, gray_image, color_image):
        for image in (gray_image, color_image):
            assert np.array_equal(
                ImageAnalysis(image).round_trip(MODEL_INPUT, "bilinear"),
                downscale_then_upscale(image, MODEL_INPUT, "bilinear"),
            )

    def test_grayscale_images_supported(self, gray_image):
        for detector in _detector_grid((8, 8)):
            assert detector.score_from(ImageAnalysis(gray_image)) == detector.score(gray_image)


class TestSharedContexts:
    def test_ensemble_validates_once_per_image(self, benign_images):
        """The acceptance proof: one float conversion per image for the
        whole ensemble, not one per member."""
        metrics = Metrics()
        ensemble = build_default_ensemble(MODEL_INPUT)
        ensemble.calibrate(benign_images, percentile=5.0)
        ensemble.metrics = metrics
        ensemble.detect(benign_images[0])
        values = metrics.counter_values("analysis.")
        # Scaling and filtering each need the float view; only the first
        # asks for a conversion.
        assert values["analysis.float.miss"] == 1
        assert values["analysis.float.hit"] >= 1

    def test_two_members_sharing_an_intermediate_hit_the_memo(self, benign_images):
        metrics = Metrics()
        analysis = ImageAnalysis(benign_images[0], metrics=metrics)
        ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER).score_from(analysis)
        ScalingDetector(MODEL_INPUT, metric="ssim", threshold=_LESS).score_from(analysis)
        # Same round trip parameters -> the second member reuses the array.
        assert metrics.counter_values()["analysis.round_trip.miss"] == 1
        assert metrics.counter_values()["analysis.round_trip.hit"] == 1

    def test_scanner_shares_one_context_across_sizes(self, benign_images):
        scanner = MultiScaleScanner([(8, 8), (16, 16)], algorithm="bilinear")
        scanner.calibrate(benign_images, percentile=5.0)
        metrics = Metrics()
        analysis = ImageAnalysis(benign_images[0], metrics=metrics)
        scanner.detect(analysis)
        values = metrics.counter_values("analysis.")
        assert values["analysis.float.miss"] == 1
        # Two sizes -> two distinct round trips, each computed once.
        assert values["analysis.round_trip.miss"] == 2

    def test_pipeline_stats_expose_memo_savings(self, benign_images):
        from repro.serving import ProtectedPipeline

        pipeline = ProtectedPipeline(MODEL_INPUT)
        pipeline.calibrate(benign_images, percentile=5.0)
        pipeline.submit_batch(list(benign_images))
        stats = pipeline.stats.as_dict()
        assert "analysis_memo" in stats
        assert stats["analysis_memo"]["analysis.float.hit"] >= 1

    def test_artifacts_only_report_computed_intermediates(self, color_image):
        analysis = ImageAnalysis(color_image)
        assert analysis.artifacts() == {}
        analysis.round_trip(MODEL_INPUT)
        analysis.filtered("minimum", 2)
        labels = set(analysis.artifacts())
        assert labels == {"round_trip_16x16_bilinear", "filtered_minimum_2"}


class TestFusedFilteringBatch:
    """Every filter over a pool: ``Detector.scores`` runs each image through
    the one per-image path and matches the filter-then-metric reference
    built from the imaging primitives."""

    @pytest.mark.parametrize("name,size", [("minimum", 2), ("maximum", 2), ("median", 3), ("uniform", 3)])
    @pytest.mark.parametrize("metric", ["mse", "ssim"])
    def test_batch_equals_serial(self, name, size, metric, benign_images, attack_images):
        threshold = _GREATER if metric == "mse" else _LESS
        detector = FilteringDetector(
            filter_name=name, filter_size=size, metric=metric, threshold=threshold
        )
        pool = [*benign_images, *attack_images]
        reference = mse if metric == "mse" else ssim
        expected = [reference(image, FILTERS[name](image, size)) for image in pool]
        assert detector.scores(pool) == pytest.approx(expected, rel=1e-9)

    def test_mixed_shapes_and_dtypes(self, benign_images, gray_image, color_image):
        """uint8 inputs score exactly as their float64 copies, whatever
        the shape."""
        detector = FilteringDetector(metric="mse", threshold=_GREATER)
        pool = [benign_images[0], gray_image, color_image, benign_images[1], gray_image + 1.0]
        as_float = [np.asarray(image, np.float64) for image in pool]
        assert detector.scores(pool) == detector.scores(as_float)

    def test_prepared_contexts_are_not_recomputed(self, benign_images):
        detector = FilteringDetector(metric="mse", threshold=_GREATER)
        analyses = [ImageAnalysis(image) for image in benign_images]
        detector.scores(analyses)
        detector.scores(analyses)
        for analysis in analyses:
            assert analysis.memo_stats()["filtered"]["misses"] == 1

    def test_filter_size_one_matches(self, benign_images):
        """A 1x1 window is the identity, so the residual is exactly zero."""
        detector = FilteringDetector(filter_size=1, metric="mse", threshold=_GREATER)
        assert detector.scores(benign_images) == [0.0] * len(benign_images)


class TestDetectorWrappers:
    def test_detect_accepts_prepared_context(self, benign_images):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        analysis = ImageAnalysis(benign_images[0])
        assert detector.detect(analysis) == detector.detect(benign_images[0])

    def test_as_analysis_passthrough(self, color_image):
        analysis = ImageAnalysis(color_image)
        assert Detector.as_analysis(analysis) is analysis
        wrapped = Detector.as_analysis(color_image)
        assert isinstance(wrapped, ImageAnalysis)
        assert wrapped.image is color_image
