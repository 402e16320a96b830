"""Batch decision paths: bit-for-bit parity with the per-image paths,
plus the scaling-operator cache backing them (``scaling_matrix``'s LRU,
read through ``operator_cache_stats`` / ``clear_operator_cache``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import build_default_ensemble
from repro.core.filtering_detector import FilteringDetector
from repro.core.multiscale import MultiScaleScanner
from repro.core.result import Direction, ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.imaging.coefficients import scaling_matrix, scaling_operators
from repro.imaging.scaling import clear_operator_cache, operator_cache_stats, resize

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


class TestScoreBatchParity:
    @pytest.mark.parametrize("which", range(5))
    def test_bitwise_equal_scores_on_mixed_pool(self, which, mixed_pool):
        detector = _detectors()[which]
        serial = [detector.score(image) for image in mixed_pool]
        batch = detector.score_batch(mixed_pool)
        assert batch == serial  # exact float equality, not approx

    def test_scaling_batch_handles_grayscale(self, gray_image):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        assert detector.score_batch([gray_image]) == [detector.score(gray_image)]

    def test_scaling_batch_handles_mixed_shapes(self, benign_images, gray_image, color_image):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        pool = [benign_images[0], gray_image, color_image]
        assert detector.score_batch(pool) == [detector.score(image) for image in pool]

    def test_empty_batch(self):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        assert detector.score_batch([]) == []
        assert detector.detect_batch([]) == []


class TestDetectBatchParity:
    @pytest.mark.parametrize("which", range(5))
    def test_verdicts_and_scores_match_detect(self, which, mixed_pool):
        detector = _detectors()[which]
        serial = [detector.detect(image) for image in mixed_pool]
        batch = detector.detect_batch(mixed_pool)
        assert [d.is_attack for d in batch] == [d.is_attack for d in serial]
        assert [d.score for d in batch] == [d.score for d in serial]
        assert all(d.method == detector.method for d in batch)

    def test_single_image_batch(self, benign_images):
        detector = ScalingDetector(MODEL_INPUT, metric="mse", threshold=_GREATER)
        (batch,) = detector.detect_batch(benign_images[:1])
        serial = detector.detect(benign_images[0])
        assert batch == serial


class TestEnsembleBatch:
    def test_batch_matches_per_image(self, benign_images, attack_images):
        ensemble = build_default_ensemble(MODEL_INPUT)
        ensemble.calibrate(benign_images, attack_images)
        pool = benign_images + attack_images
        serial = [ensemble.detect(image) for image in pool]
        batch = ensemble.detect_batch(pool)
        assert [d.is_attack for d in batch] == [d.is_attack for d in serial]
        assert [d.votes_for_attack for d in batch] == [
            d.votes_for_attack for d in serial
        ]
        for b, s in zip(batch, serial):
            assert [m.score for m in b.detections] == [m.score for m in s.detections]

    def test_batch_separates_attacks(self, benign_images, attack_images):
        ensemble = build_default_ensemble(MODEL_INPUT)
        ensemble.calibrate(benign_images, attack_images)
        verdicts = ensemble.detect_batch(benign_images + attack_images)
        n = len(benign_images)
        assert not any(d.is_attack for d in verdicts[:n])
        assert all(d.is_attack for d in verdicts[n:])


class TestMultiScaleBatch:
    def test_batch_matches_per_image(self, benign_images, attack_images):
        scanner = MultiScaleScanner(
            [(16, 16), (32, 32), (64, 64)], algorithm="bilinear"
        )
        scanner.calibrate(benign_images, percentile=5.0)
        pool = benign_images + attack_images
        serial = [scanner.detect(image) for image in pool]
        batch = scanner.detect_batch(pool)
        assert [d.is_attack for d in batch] == [d.is_attack for d in serial]
        assert [d.inferred_target_size for d in batch] == [
            d.inferred_target_size for d in serial
        ]
        assert [d.per_size for d in batch] == [d.per_size for d in serial]

    def test_batch_with_mixed_applicability(self, benign_images, gray_image):
        """A 40x40 image skips the 64x64 candidate; the 128x128 ones don't."""
        scanner = MultiScaleScanner([(16, 16), (64, 64)], algorithm="bilinear")
        scanner.calibrate(benign_images, percentile=5.0)
        pool = [benign_images[0], gray_image, benign_images[1]]
        batch = scanner.detect_batch(pool)
        assert set(batch[0].per_size) == {(16, 16), (64, 64)}
        assert set(batch[1].per_size) == {(16, 16)}
        serial = [scanner.detect(image) for image in pool]
        assert [d.per_size for d in batch] == [d.per_size for d in serial]


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
