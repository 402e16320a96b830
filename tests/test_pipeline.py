"""Unit tests for the end-to-end detection pipeline helpers."""

import numpy as np
import pytest

from repro.attacks.base import AttackConfig
from repro.core.pipeline import build_attack_set, evaluate_detector, evaluate_ensemble
from repro.core.ensemble import build_default_ensemble
from repro.core.scaling_detector import ScalingDetector
from repro.datasets.synthetic import generate_image
from repro.serving import ProtectedPipeline

from tests.conftest import MODEL_INPUT, SOURCE_SHAPE


class TestBuildAttackSet:
    def test_pairs_and_shapes(self, benign_images, target_images):
        attack_set = build_attack_set(
            benign_images[:3],
            target_images[:3],
            model_input_shape=MODEL_INPUT,
        )
        assert len(attack_set.benign) == len(attack_set.attacks) == 3
        assert attack_set.attacks[0].shape == benign_images[0].shape
        assert attack_set.skipped == []

    def test_large_targets_downscaled(self, benign_images):
        attack_set = build_attack_set(
            benign_images[:2],
            benign_images[2:4],  # full-size targets
            model_input_shape=MODEL_INPUT,
        )
        assert len(attack_set.attacks) == 2

    def test_unreachable_pairs_skipped_not_fatal(self, benign_images):
        impossible_target = np.full((*MODEL_INPUT, 3), 400.0)  # out of gamut
        attack_set = build_attack_set(
            benign_images[:1],
            [impossible_target],
            model_input_shape=MODEL_INPUT,
            config=AttackConfig(epsilon=0.5, max_iterations=30, penalty_rounds=2),
        )
        assert attack_set.skipped == [0]
        assert attack_set.attacks == []


class TestEvaluate:
    def test_detector_evaluation_scores_recorded(self, benign_images, target_images):
        attack_set = build_attack_set(
            benign_images, target_images, model_input_shape=MODEL_INPUT
        )
        detector = ScalingDetector(MODEL_INPUT, metric="mse")
        detector.calibrate(attack_set.benign, attack_set.attacks)
        outcome = evaluate_detector(detector, attack_set)
        assert outcome.counts.accuracy == 1.0
        assert len(outcome.benign_scores) == len(benign_images)
        assert "mse" in outcome.threshold_description

    def test_ensemble_evaluation(self, benign_images, target_images):
        attack_set = build_attack_set(
            benign_images, target_images, model_input_shape=MODEL_INPUT
        )
        ensemble = build_default_ensemble(MODEL_INPUT)
        ensemble.calibrate(attack_set.benign, attack_set.attacks)
        counts = evaluate_ensemble(ensemble, attack_set)
        assert counts.recall == 1.0
        assert counts.frr <= 0.2


class TestPerImageDetectorLatency:
    def test_batch_records_one_latency_per_image(self, benign_images):
        """A batch of a small and a large image gives each detector
        histogram two distinct samples, not the batch average twice."""
        pipeline = ProtectedPipeline(MODEL_INPUT)
        pipeline.calibrate(benign_images, percentile=5.0)
        small, large = (
            generate_image((side, side), np.random.default_rng(side), family="neurips")
            for side in (32, 256)
        )
        names = ["detector.scaling.mse", "detector.filtering.ssim", "detector.steganalysis.csp"]
        before = {name: pipeline.metrics.histogram(name).count for name in names}
        pipeline.submit_batch([small, large])
        latency = pipeline.stats.as_dict()["latency_ms"]
        for name in names:
            summary = latency[name]
            assert summary["count"] == before[name] + 2, name
            assert summary["min_ms"] < summary["max_ms"], (name, summary)
