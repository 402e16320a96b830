"""Scoring many images: every batch entry point scores each image on its
own, so it equals the per-image path by construction. These tests pin the
batch entry points that remain (``Detector.scores``, which calibration
uses, and ``ProtectedPipeline.submit_batch``) against references, plus
the scaling-operator cache behind them (``scaling_matrix``'s LRU, read
through ``operator_cache_stats`` / ``clear_operator_cache``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ImageAnalysis
from repro.core.ensemble import DetectionEnsemble
from repro.core.filtering_detector import FilteringDetector
from repro.core.multiscale import MultiScaleScanner
from repro.core.result import Direction, ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.imaging.coefficients import scaling_matrix, scaling_operators
from repro.imaging.metrics import mse
from repro.imaging.scaling import (
    clear_operator_cache,
    downscale_then_upscale,
    operator_cache_stats,
    resize,
)
from repro.serving.pipeline import ProtectedPipeline

MODEL_INPUT = (16, 16)
_GREATER = ThresholdRule(0.0, Direction.GREATER)
_LESS = ThresholdRule(0.0, Direction.LESS)


def _detectors():
    return [
        ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER),
        ScalingDetector(MODEL_INPUT, metric="ssim", threshold=_LESS),
        FilteringDetector(metric="mse", threshold=_GREATER),
        FilteringDetector(metric="ssim", threshold=_LESS),
        SteganalysisDetector(),
    ]


@pytest.fixture(scope="module")
def mixed_pool(benign_images, attack_images):
    """Benign + attack, uint8 and float64 interleaved."""
    pool = []
    for index, (benign, attack) in enumerate(zip(benign_images, attack_images)):
        pool.append(benign if index % 2 == 0 else benign.astype(np.float64))
        pool.append(attack)
    return pool


def _calibrated_pipeline(benign_images, attack_images, ensemble=None):
    pipeline = ProtectedPipeline(MODEL_INPUT, ensemble=ensemble)
    pipeline.calibrate(benign_images, attack_images)
    return pipeline


class TestScoreBatchParity:
    """``Detector.scores``, the batch entry point calibration uses."""

    @pytest.mark.parametrize("which", range(5))
    def test_bitwise_equal_scores_on_mixed_pool(self, which, mixed_pool):
        """uint8 inputs score exactly as their float64 copies."""
        detector = _detectors()[which]
        as_float = [np.asarray(image, np.float64) for image in mixed_pool]
        assert detector.scores(mixed_pool) == detector.scores(as_float)

    def test_scaling_batch_handles_grayscale(self, gray_image):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        prepared = ImageAnalysis(gray_image)
        assert detector.scores([prepared, gray_image]) == [detector.score(gray_image)] * 2

    def test_scaling_batch_handles_mixed_shapes(self, benign_images, gray_image, color_image):
        """Interleaved shapes each get their own plan."""
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        pool = [benign_images[0], gray_image, color_image, benign_images[1], gray_image]
        expected = [
            mse(image, downscale_then_upscale(image, MODEL_INPUT, "bilinear"))
            for image in pool
        ]
        assert detector.scores(pool) == expected

    def test_empty_batch(self):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        assert detector.scores([]) == []


class TestDetectBatchParity:
    """``submit_batch`` through a one-member ensemble of each detector."""

    @pytest.mark.parametrize("which", range(5))
    def test_verdicts_and_scores_match_detect(self, which, mixed_pool):
        detector = _detectors()[which]
        pipeline = ProtectedPipeline(MODEL_INPUT, ensemble=DetectionEnsemble([detector]))
        outcomes = pipeline.submit_batch(mixed_pool)
        serial = [detector.detect(image) for image in mixed_pool]
        assert [outcome.detection.detections for outcome in outcomes] == [
            (detection,) for detection in serial
        ]

    def test_single_image_batch(self, benign_images, attack_images):
        batched = _calibrated_pipeline(benign_images, attack_images)
        (outcome,) = batched.submit_batch(benign_images[:1])
        serial = _calibrated_pipeline(benign_images, attack_images)
        assert outcome.image_id == "batch-00000"
        assert outcome.detection == serial.submit(benign_images[0]).detection


class TestEnsembleBatch:
    def test_batch_matches_per_image(self, benign_images, attack_images):
        """A same-shape batch: outcomes in input order, ``<prefix>-NNNNN``
        ids, and the verdicts and scores of per-image submits."""
        pool = [image for pair in zip(benign_images, attack_images) for image in pair]
        batched = _calibrated_pipeline(benign_images, attack_images)
        outcomes = batched.submit_batch(pool, prefix="upload")
        serial = _calibrated_pipeline(benign_images, attack_images)
        one_by_one = [serial.submit(image) for image in pool]
        assert [o.image_id for o in outcomes] == [
            f"upload-{index:05d}" for index in range(len(pool))
        ]
        assert [o.action for o in outcomes] == [o.action for o in one_by_one]
        assert [o.detection for o in outcomes] == [o.detection for o in one_by_one]

    def test_batch_separates_attacks(self, benign_images, attack_images):
        pipeline = _calibrated_pipeline(benign_images, attack_images)
        outcomes = pipeline.submit_batch(benign_images + attack_images)
        n = len(benign_images)
        assert all(outcome.accepted for outcome in outcomes[:n])
        assert not any(outcome.accepted for outcome in outcomes[n:])


class TestMultiScaleBatch:
    def test_batch_matches_per_image(self, benign_images, attack_images):
        """Each size's entry is that size's own detector on the image."""
        scanner = MultiScaleScanner(
            [(16, 16), (32, 32), (64, 64)], algorithm="bilinear"
        )
        scanner.calibrate(benign_images, percentile=5.0)
        for image in benign_images + attack_images:
            per_size = scanner.detect(image).per_size
            for size, detector in scanner.detectors.items():
                detection = detector.detect(image)
                assert per_size[size] == (
                    detection.score,
                    detection.threshold.value,
                    detection.is_attack,
                )

    def test_batch_with_mixed_applicability(self, benign_images, gray_image):
        """A 40x40 image skips the 64x64 candidate; the 128x128 ones don't."""
        scanner = MultiScaleScanner([(16, 16), (64, 64)], algorithm="bilinear")
        scanner.calibrate(benign_images, percentile=5.0)
        pool = [benign_images[0], gray_image, benign_images[1]]
        sizes = [set(scanner.detect(image).per_size) for image in pool]
        assert sizes == [{(16, 16), (64, 64)}, {(16, 16)}, {(16, 16), (64, 64)}]


class TestOperatorCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        clear_operator_cache()
        yield
        clear_operator_cache()

    def test_hit_miss_accounting(self):
        image = np.zeros((8, 6))
        resize(image, (4, 3))  # one row matrix, one column matrix
        resize(image, (4, 3))
        stats = operator_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 2 and stats["size"] == 2
        assert stats["hit_rate"] == 0.5

    def test_cached_pair_is_identical_object(self):
        first = scaling_operators((8, 6), (4, 3), "bilinear")
        second = scaling_operators((8, 6), (4, 3), "bilinear")
        assert first[0] is second[0]
        assert first[1].base is second[1].base  # R is a view of one cached matrix

    def test_distinct_keys_do_not_collide(self):
        image = np.zeros((8, 8))
        a = resize(image, (4, 4), "bilinear")
        b = resize(image, (4, 4), "nearest")
        c = resize(image, (6, 6), "bilinear")
        assert a.shape == b.shape == (4, 4)
        assert c.shape == (6, 6)
        assert operator_cache_stats()["misses"] == 3

    def test_lru_eviction(self):
        maxsize = operator_cache_stats()["maxsize"]
        resize(np.zeros((8, 8)), (1, 1))
        for n_out in range(2, maxsize + 2):
            scaling_matrix(8, n_out, "bilinear")
        stats = operator_cache_stats()
        assert stats["size"] == maxsize
        resize(np.zeros((8, 8)), (1, 1))
        assert operator_cache_stats()["misses"] == stats["misses"] + 1  # rebuilt

    def test_clear_resets(self):
        resize(np.zeros((8, 8)), (4, 4))
        clear_operator_cache()
        stats = operator_cache_stats()
        assert stats == {
            "size": 0, "maxsize": 512, "hits": 0, "misses": 0, "hit_rate": 0.0,
        }

    def test_operators_match_resize(self, color_image):
        left, right = scaling_operators(color_image.shape[:2], (10, 12), "bilinear")
        expected = resize(color_image, (10, 12), "bilinear")
        img = color_image.astype(np.float64)
        planes = [left @ img[:, :, c] @ right for c in range(3)]
        np.testing.assert_array_equal(np.stack(planes, axis=2), expected)

    def test_process_cache_stats_and_clear(self):
        clear_operator_cache()
        assert operator_cache_stats()["size"] == 0
        resize(np.zeros((8, 8)), (4, 4), "bilinear")
        resize(np.zeros((8, 8)), (4, 4), "bilinear")
        stats = operator_cache_stats()
        assert stats["size"] == 1 and stats["hits"] >= 1
        clear_operator_cache()
