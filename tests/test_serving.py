"""Unit tests for the serving layer (protected pipeline + audit log)."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import generate_image
from repro.errors import DetectionError, ReproError
from repro.serving import AuditLog, AuditRecord, Policy, ProtectedPipeline

from tests.conftest import MODEL_INPUT


@pytest.fixture
def pipeline(benign_images):
    pipeline = ProtectedPipeline(MODEL_INPUT, policy=Policy.REJECT)
    pipeline.calibrate(benign_images, percentile=5.0)
    return pipeline


class TestCalibration:
    def test_uncalibrated_submit_raises(self, benign_images):
        pipeline = ProtectedPipeline(MODEL_INPUT)
        with pytest.raises(DetectionError, match="calibrate"):
            pipeline.submit(benign_images[0])

    def test_whitebox_calibration_path(self, benign_images, attack_images):
        pipeline = ProtectedPipeline(MODEL_INPUT)
        pipeline.calibrate(benign_images, attack_images)
        assert pipeline.is_calibrated


class TestPolicies:
    def test_benign_accepted_with_model_input(self, pipeline, benign_images):
        outcome = pipeline.submit(benign_images[0])
        assert outcome.accepted
        assert outcome.action == "accepted"
        assert outcome.model_input.shape[:2] == MODEL_INPUT

    def test_benign_pixels_untouched(self, pipeline, benign_images):
        """Detection must not modify accepted inputs (paper's core point)."""
        from repro.imaging.scaling import resize

        outcome = pipeline.submit(benign_images[1])
        plain = resize(benign_images[1], MODEL_INPUT, "bilinear")
        assert np.array_equal(outcome.model_input, plain)

    def test_attack_rejected(self, pipeline, attack_images):
        outcome = pipeline.submit(attack_images[0])
        assert not outcome.accepted
        assert outcome.action == "rejected"
        assert outcome.model_input is None

    def test_quarantine_policy_stores_image(self, benign_images, attack_images, tmp_path):
        log = AuditLog(tmp_path / "log.jsonl", quarantine_dir=tmp_path / "q")
        pipeline = ProtectedPipeline(MODEL_INPUT, policy=Policy.QUARANTINE, audit_log=log)
        pipeline.calibrate(benign_images, percentile=5.0)
        outcome = pipeline.submit(attack_images[0], image_id="poison-1")
        assert outcome.action == "quarantined"
        stored = {p.name for p in (tmp_path / "q").glob("*.png")}
        assert "poison-1.png" in stored
        # Screening's memoized intermediates ride along as explanation
        # artifacts — one per member intermediate, no recomputation.
        assert any(name.startswith("poison-1.round_trip_") for name in stored)
        assert "poison-1.filtered_minimum_2.png" in stored
        # Steganalysis counts spectrum points from the half spectrum and
        # never renders the full log-spectrum image, so there is no such
        # artifact.
        assert "poison-1.log_spectrum.png" not in stored

    def test_batch_quarantine_stores_only_the_attack(
        self, benign_images, attack_images, tmp_path
    ):
        """In a mixed batch only the attack keeps its analysis to the
        policy step: it alone gets its image and artifacts."""
        log = AuditLog(tmp_path / "log.jsonl", quarantine_dir=tmp_path / "q")
        pipeline = ProtectedPipeline(MODEL_INPUT, policy=Policy.QUARANTINE, audit_log=log)
        pipeline.calibrate(benign_images, percentile=5.0)
        benign, attack = pipeline.submit_batch(
            [benign_images[0], attack_images[0]], prefix="mixed"
        )
        assert benign.action == "accepted" and benign.quarantine_path is None
        assert attack.action == "quarantined"
        stored = {p.name for p in (tmp_path / "q").glob("*.png")}
        assert "mixed-00001.png" in stored
        assert any(name.startswith("mixed-00001.round_trip_") for name in stored)
        assert "mixed-00001.filtered_minimum_2.png" in stored
        assert not any(name.startswith("mixed-00000") for name in stored)

    def test_sanitize_policy_neutralizes(self, benign_images, attack_images, target_images):
        from repro.imaging.metrics import mse

        pipeline = ProtectedPipeline(MODEL_INPUT, policy=Policy.SANITIZE)
        pipeline.calibrate(benign_images, percentile=5.0)
        outcome = pipeline.submit(attack_images[0])
        assert outcome.accepted
        assert outcome.action == "sanitized"
        # The model input must NOT be the hidden target anymore.
        target = np.asarray(target_images[0], dtype=float)
        assert mse(outcome.model_input, target) > 500.0


class TestStatsAndIds:
    def test_stats_counters(self, pipeline, benign_images, attack_images):
        pipeline.submit_batch(list(benign_images[:3]) + [attack_images[0]])
        stats = pipeline.stats.as_dict()
        assert stats["submitted"] == 4
        assert stats["accepted"] >= 2
        assert stats["rejected"] >= 1

    def test_generated_ids_sequential(self, pipeline, benign_images):
        outcomes = pipeline.submit_batch(list(benign_images[:2]), prefix="up")
        assert outcomes[0].image_id == "up-00000"
        assert outcomes[1].image_id == "up-00001"


class TestBatchParity:
    def _fresh(self, benign_images):
        pipeline = ProtectedPipeline(MODEL_INPUT)
        pipeline.calibrate(benign_images, percentile=5.0)
        return pipeline

    def test_batch_verdicts_match_serial_submit(self, benign_images, attack_images):
        images = list(benign_images) + list(attack_images)
        serial = self._fresh(benign_images)
        one_by_one = [serial.submit(image) for image in images]
        batched = self._fresh(benign_images)
        batch = batched.submit_batch(images)
        assert [o.action for o in batch] == [o.action for o in one_by_one]
        for b, s in zip(batch, one_by_one):
            assert [d.score for d in b.detection.detections] == [
                d.score for d in s.detection.detections
            ]

    def test_empty_batch(self, pipeline):
        assert pipeline.submit_batch([]) == []
        assert pipeline.stats.submitted == 0

    def test_uncalibrated_batch_raises(self, benign_images):
        with pytest.raises(DetectionError, match="calibrate"):
            ProtectedPipeline(MODEL_INPUT).submit_batch(benign_images)


class TestObservability:
    def test_stats_dict_reports_latency_and_cache(self, pipeline, benign_images):
        pipeline.submit(benign_images[0])
        stats = pipeline.stats.as_dict()
        assert "pipeline.screen" in stats["latency_ms"]
        assert stats["latency_ms"]["pipeline.screen"]["count"] == 1
        assert stats["latency_ms"]["pipeline.screen"]["p95_ms"] > 0.0
        assert "detector.scaling.mse" in stats["latency_ms"]
        assert {"hits", "misses", "hit_rate"} <= set(stats["operator_cache"])

    def test_batch_records_per_image_latency(self, pipeline, benign_images):
        pipeline.submit_batch(list(benign_images[:3]))
        latency = pipeline.stats.as_dict()["latency_ms"]
        assert latency["detector.scaling.mse"]["count"] == 3
        assert latency["pipeline.screen"]["count"] == 1

    def test_batch_screen_holds_one_images_working_set(self, pipeline):
        """Screening releases each image's analysis once it is scored, so
        four 256² RGB images peak about where one does."""
        images = [
            generate_image((256, 256), np.random.default_rng((29, i)), family="neurips")
            for i in range(4)
        ]
        ids = [f"peak-{i}" for i in range(4)]
        pipeline.screen(images, ids)  # compile plans and geometry first
        peaks = []
        for count in (1, 4):
            tracemalloc.start()
            try:
                pipeline.screen(images[:count], ids[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_injected_metrics_registry(self, benign_images):
        from repro.observability import Metrics

        metrics = Metrics()
        pipeline = ProtectedPipeline(MODEL_INPUT, metrics=metrics)
        pipeline.calibrate(benign_images, percentile=5.0)
        pipeline.submit(benign_images[0])
        assert metrics.histogram("pipeline.screen").count == 1
        # The registry propagated down to the ensemble members.
        assert all(d.metrics is metrics for d in pipeline.ensemble.detectors)

    def test_audit_stage_timed(self, benign_images, tmp_path):
        log = AuditLog(tmp_path / "log.jsonl")
        pipeline = ProtectedPipeline(MODEL_INPUT, audit_log=log)
        pipeline.calibrate(benign_images, percentile=5.0)
        pipeline.submit(benign_images[0])
        assert pipeline.metrics.histogram("pipeline.audit").count == 1


class TestAuditLog:
    def test_records_roundtrip(self, benign_images, attack_images, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = ProtectedPipeline(MODEL_INPUT, policy=Policy.REJECT, audit_log=log)
        pipeline.calibrate(benign_images, percentile=5.0)
        pipeline.submit(benign_images[0], image_id="ok-1")
        pipeline.submit(attack_images[0], image_id="bad-1")
        records = log.records()
        assert len(records) == 2
        by_id = {r.image_id: r for r in records}
        assert by_id["ok-1"].verdict == "benign"
        assert by_id["bad-1"].verdict == "attack"
        assert by_id["bad-1"].action == "rejected"
        assert "scaling/mse" in by_id["bad-1"].scores

    def test_log_is_valid_jsonl(self, benign_images, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = ProtectedPipeline(MODEL_INPUT, audit_log=log)
        pipeline.calibrate(benign_images, percentile=5.0)
        pipeline.submit(benign_images[0])
        for line in (tmp_path / "audit.jsonl").read_text().splitlines():
            json.loads(line)

    def test_corrupt_log_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"not a record": tru\n')
        with pytest.raises(ReproError, match="corrupt"):
            AuditLog(path).records()

    def test_quarantine_without_dir_raises(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        with pytest.raises(ReproError, match="quarantine"):
            log.quarantine("x", np.zeros((4, 4, 3)))

    def test_empty_log_reads_empty(self, tmp_path):
        assert AuditLog(tmp_path / "missing.jsonl").records() == []

    def test_unsafe_ids_sanitized_in_quarantine(self, benign_images, tmp_path):
        from pathlib import Path

        log = AuditLog(tmp_path / "a.jsonl", quarantine_dir=tmp_path / "q")
        stored = Path(log.quarantine("../../evil name", np.zeros((4, 4, 3))))
        assert stored.parent == tmp_path / "q"  # stayed inside quarantine
        assert ".." not in stored.stem
        assert stored.exists()


def _record(index: int) -> AuditRecord:
    return AuditRecord(
        image_id=f"img-{index:05d}",
        sequence=index,
        verdict="benign",
        action="accepted",
        votes_for_attack=0,
        votes_total=3,
        scores={"scaling/mse": 1.0},
        thresholds={"scaling/mse": "mse >= 2"},
    )


class TestAuditRotation:
    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="max_bytes"):
            AuditLog(tmp_path / "a.jsonl", max_bytes=0)
        with pytest.raises(ReproError, match="backup_count"):
            AuditLog(tmp_path / "a.jsonl", max_bytes=100, backup_count=0)

    def test_rotation_bounds_active_file(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", max_bytes=600, backup_count=3)
        for index in range(40):
            log.append(_record(index))
        assert log.log_path.stat().st_size <= 600
        rotated = log.rotated_paths()
        assert 1 <= len(rotated) <= 3
        for path in rotated:
            assert path.stat().st_size <= 600

    def test_oldest_files_dropped_beyond_backup_count(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", max_bytes=300, backup_count=2)
        for index in range(200):
            log.append(_record(index))
        files = {p.name for p in tmp_path.iterdir()}
        assert files == {"audit.jsonl", "audit.jsonl.1", "audit.jsonl.2"}
        # Total disk stays bounded even after 200 records.
        total = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert total <= 3 * 300 + 300  # +1 record of slack

    def test_records_include_rotated_in_order(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl", max_bytes=600, backup_count=50)
        for index in range(30):
            log.append(_record(index))
        everything = log.records(include_rotated=True)
        assert [r.sequence for r in everything] == list(range(30))
        # Default stays the active file only.
        assert len(log.records()) < 30

    def test_concurrent_hammer_loses_nothing_and_corrupts_nothing(self, tmp_path):
        """Many threads appending through rotation: every line everywhere
        parses, and with enough backups no record is lost."""
        import threading

        log = AuditLog(tmp_path / "audit.jsonl", max_bytes=500, backup_count=200)
        n_threads, per_thread = 8, 50

        def hammer(thread_id: int):
            for index in range(per_thread):
                log.append(_record(thread_id * 1000 + index))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        everything = log.records(include_rotated=True)
        assert len(everything) == n_threads * per_thread
        assert {r.image_id for r in everything} == {
            f"img-{t * 1000 + i:05d}" for t in range(n_threads) for i in range(per_thread)
        }

    def test_flush_is_reentrant_barrier(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        log.append(_record(0))
        log.flush()  # no-op barrier; must not deadlock or raise
        assert len(log.records()) == 1
