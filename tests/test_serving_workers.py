"""Shard-pool tests: parity, dispatch accounting, and lifecycle.

These start real shard processes (fresh interpreters on pipes), so the
pool fixtures are module-scoped and kept small. Crash/fault behaviour
lives in ``tests/test_serving_faults.py``; this file covers the sunny-day
contract: sharded verdicts are bit-for-bit the in-process ones, and
``ProtectedPipeline.record`` keeps the books from their wire verdicts.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.errors import CodecError, DetectionError, ReproError
from repro.imaging.image import as_uint8
from repro.serving.audit import AuditLog, AuditRecord
from repro.serving.pipeline import ProtectedPipeline, verdict_payload
from repro.serving.wire import (
    encode_image_payload,
    pack_job,
    read_frame,
    unpack_result,
    write_frame,
)
from repro.serving.workers import WorkerPool, WorkerPoolConfig, WorkerSpec

from tests.conftest import MODEL_INPUT
from tests.fault_injection import (
    FAST_POOL,
    calibrated_pipeline,
    holdout_images,
    make_pool,
)


@pytest.fixture(scope="module")
def pool_setup():
    """One calibrated pipeline + a started 2-shard pool, shared across the
    module (spawning a shard imports numpy from scratch — not cheap)."""
    pipeline = calibrated_pipeline(holdout_images())
    pool = WorkerPool(
        WorkerSpec.from_pipeline(pipeline),
        WorkerPoolConfig(workers=2, **FAST_POOL),
        metrics=pipeline.metrics,
    )
    pool.start()
    yield pool, pipeline
    pool.shutdown()


class TestWorkerSpec:
    def test_uncalibrated_pipeline_refused(self):
        with pytest.raises(DetectionError, match="calibrate"):
            WorkerSpec.from_pipeline(ProtectedPipeline(MODEL_INPUT))

    def test_spec_rebuilds_an_equivalent_pipeline(self, benign_images):
        parent = calibrated_pipeline(benign_images)
        spec = WorkerSpec.from_pipeline(parent)
        rebuilt = spec.build_pipeline()
        assert rebuilt.is_calibrated
        image = as_uint8(benign_images[0])
        local = parent.submit(image, image_id="spec-parity")
        remote = rebuilt.submit(image, image_id="spec-parity")
        assert remote.action == local.action
        assert [d.score for d in remote.detection.detections] == [
            d.score for d in local.detection.detections
        ]

    def test_pickling_does_not_disturb_parent_metrics(self, benign_images):
        parent = calibrated_pipeline(benign_images)
        WorkerSpec.from_pipeline(parent)
        # The spec strips each detector's metrics during pickling; the
        # parent must get its registry back afterwards.
        for detector in parent.ensemble.detectors:
            assert detector.metrics is not None


#: A shard whose entry point records that the scoring malloc thresholds
#: are set before it serves; the child asserts the order as it exits.
_RECORDING_SHARD = """
from repro.serving import workers

steps = []
set_thresholds = workers.keep_scoring_arrays_on_heap
serve = workers.Shard.run


def recording_thresholds():
    steps.append("heap")
    set_thresholds()


def recording_run(shard):
    steps.append("serve")
    serve(shard)


workers.keep_scoring_arrays_on_heap = recording_thresholds
workers.Shard.run = recording_run
workers.Shard.main()
assert steps == ["heap", "serve"], steps
"""


class TestShardMain:
    def test_shard_keeps_scoring_arrays_on_heap_and_exits_on_eof(self, benign_images):
        """A shard driven over real pipes: it sets the scoring malloc
        thresholds before it serves, as ``repro serve`` does in its own
        process, answers the job already in its stdin, and exits 0 at the
        end of its stdin."""
        pipeline = calibrated_pipeline(benign_images)
        spec = WorkerSpec.from_pipeline(pipeline)
        image = as_uint8(benign_images[0])
        shard = subprocess.Popen(
            [sys.executable, "-c", _RECORDING_SHARD],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        try:
            write_frame(shard.stdin, pickle.dumps((spec, 0, 0, 60.0)))
            write_frame(shard.stdin, pack_job("single", "j1", "eof", [encode_image_payload(image)]))
            shard.stdin.close()
            kind, job_id, body = unpack_result(read_frame(shard.stdout))
            assert read_frame(shard.stdout) is None
            assert shard.wait(timeout=60.0) == 0, shard.stderr.read().decode()
        finally:
            shard.kill()
            shard.wait()
            shard.stdout.close()
            shard.stderr.close()
        assert (kind, job_id) == ("ok", "j1")
        (verdict,) = json.loads(body)["verdicts"]
        local = verdict_payload(pipeline.submit(image, image_id="eof"), request_id="eof", latency_ms=0.0)
        assert {**verdict, "latency_ms": 0.0} == local


class TestPoolScoring:
    def test_single_verdict_bit_for_bit(self, pool_setup, attack_images):
        pool, pipeline = pool_setup
        for source in (holdout_images(1)[0], attack_images[0]):
            image = as_uint8(source)
            reply = pool.submit(
                [encode_image_payload(image)], request_id="parity-1"
            )
            local = verdict_payload(
                pipeline.submit(image, image_id="parity-1"),
                request_id="parity-1",
                latency_ms=0.0,
            )
            remote = dict(reply["verdicts"][0])
            remote["latency_ms"] = 0.0  # only timing may differ
            assert remote == local  # scores compare float-for-float

    def test_batch_verdicts_match_singles(self, pool_setup, attack_images):
        pool, _ = pool_setup
        images = [as_uint8(holdout_images(1)[0]), as_uint8(attack_images[0])]
        payloads = [encode_image_payload(image) for image in images]
        batch = pool.submit(payloads, request_id="parity-b", batch=True)
        singles = [
            pool.submit([payload], request_id="parity-b")["verdicts"][0]
            for payload in payloads
        ]
        assert [v["verdict"] for v in batch["verdicts"]] == [
            v["verdict"] for v in singles
        ]
        assert [v["scores"] for v in batch["verdicts"]] == [
            v["scores"] for v in singles
        ]
        assert len(batch["quarantine_paths"]) == 2

    def test_bad_payload_raises_codec_error_with_origin(self, pool_setup):
        pool, _ = pool_setup
        with pytest.raises(CodecError, match="bad-req"):
            pool.submit([b"definitely not an image"], request_id="bad-req")

    def test_shard_counters_move_while_the_shard_is_busy(self, pool_setup):
        """Back-to-back jobs leave a shard no idle interval to heartbeat
        in, so the per-shard counters must come from the result frames:
        they are exact the moment the last ``submit`` returns."""
        _, pipeline = pool_setup
        pool = make_pool(pipeline, workers=1)

        def total(family: str) -> float:
            return sum(value for _, value in pool.labeled_families()["counters"][family])

        try:
            payload = encode_image_payload(as_uint8(holdout_images(1)[0]))
            jobs = 12
            for index in range(jobs):
                pool.submit([payload], request_id=f"busy-{index}")
            assert total("worker.scored") == jobs
            assert total("worker.errors") == 0
            with pytest.raises(CodecError):
                pool.submit([b"not an image"], request_id="busy-bad")
            assert total("worker.errors") == 1
            assert total("worker.scored") == jobs
            assert total("worker.jobs_done") == jobs + 1
        finally:
            pool.shutdown()

    def test_concurrent_batches_count_every_image_once(self, pool_setup):
        """Dispatch threads submit batches to both shards while their
        receiver threads count: a batch adds one job and one image per
        payload, and no count is lost."""
        pool, _ = pool_setup
        payload = encode_image_payload(as_uint8(holdout_images(1)[0]))

        def totals() -> tuple[float, float]:
            counters = pool.labeled_families()["counters"]
            return tuple(
                sum(value for _, value in counters[family])
                for family in ("worker.scored", "worker.jobs_done")
            )

        def submitter(index: int) -> None:
            for round_ in range(3):
                pool.submit(
                    [payload, payload], request_id=f"race-{index}-{round_}", batch=True
                )

        before = totals()
        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(6)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert totals() == (before[0] + 6 * 3 * 2, before[1] + 6 * 3)

    def test_labeled_families_cover_every_shard(self, pool_setup):
        pool, _ = pool_setup
        families = pool.labeled_families()
        for family in ("worker.up", "worker.inflight", "worker.heartbeat_age_s"):
            labels = sorted(d["worker_id"] for d, _ in families["gauges"][family])
            assert labels == ["0", "1"]
        for family in ("worker.restarts", "worker.jobs_done", "worker.scored", "worker.errors"):
            assert len(families["counters"][family]) == 2

    def test_dispatch_metrics_counted(self, pool_setup):
        pool, pipeline = pool_setup
        before = pipeline.metrics.counter("workers.dispatched").value
        pool.submit(
            [encode_image_payload(as_uint8(holdout_images(1)[0]))],
            request_id="count-me",
        )
        assert pipeline.metrics.counter("workers.dispatched").value == before + 1


def _in_process_verdicts(pipeline, images, request_id: str, *, batch=False) -> list[dict]:
    if batch:
        outcomes = pipeline.submit_batch(images, prefix=request_id)
    else:
        outcomes = [pipeline.submit(image, image_id=request_id) for image in images]
    return [
        verdict_payload(outcome, request_id=request_id, latency_ms=0.0)
        for outcome in outcomes
    ]


def _untimed(reply: dict) -> list[dict]:
    return [{**verdict, "latency_ms": 0.0} for verdict in reply["verdicts"]]


class TestPipeFrames:
    """Every frame rides the pipe whole, however large, and scores
    exactly as it would in-process."""

    def test_frames_larger_than_the_socket_buffer_ride_the_pipe(self, attack_images):
        pipeline = calibrated_pipeline(holdout_images())
        pool = make_pool(pipeline, workers=1)
        try:
            images = [as_uint8(holdout_images(1)[0]), as_uint8(attack_images[0])]
            payloads = [encode_image_payload(image) for image in images]
            # Over 1 MiB of batch body: the send fills the pipe buffer and
            # must block part-way until the shard reads.
            repeats = (1 << 20) // sum(map(len, payloads)) + 1
            images, payloads = images * repeats, payloads * repeats
            single = pool.submit(payloads[:1], request_id="big-1")
            batch = pool.submit(payloads, request_id="big-b", batch=True)
            assert _untimed(single) == _in_process_verdicts(pipeline, images[:1], "big-1")
            assert _untimed(batch) == _in_process_verdicts(
                pipeline, images, "big-b", batch=True
            )
        finally:
            pool.shutdown()


class TestRecord:
    def test_record_sequences_counts_and_audits_verdict_dicts(
        self, benign_images, attack_images, tmp_path
    ):
        """``screen`` leaves the books alone; ``record`` turns wire verdict
        dicts into sequence numbers, stats and audit records."""
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = calibrated_pipeline(benign_images, audit_log=log)
        images = [as_uint8(benign_images[0]), as_uint8(attack_images[0])]
        outcomes = pipeline.screen(images, ["rec-0", "rec-1"])
        assert pipeline.stats.submitted == 0
        assert log.records() == []
        verdicts = [
            verdict_payload(outcome, request_id="rec", latency_ms=1.5)
            for outcome in outcomes
        ]
        paths = [None, "q/rec-1.png"]
        assert list(pipeline.record(verdicts[:1], paths[:1])) == [1]
        assert list(pipeline.record(verdicts[1:], paths[1:])) == [2]
        assert pipeline.stats.counts() == {
            "submitted": 2,
            "accepted": 1,
            "rejected": 1,
            "quarantined": 0,
            "sanitized": 0,
        }
        assert log.records() == [
            AuditRecord.from_detection(
                outcome.image_id, sequence, outcome.detection, outcome.action, path
            )
            for sequence, outcome, path in zip((1, 2), outcomes, paths)
        ]

    def test_concurrent_records_take_unique_contiguous_sequences(self, benign_images):
        """Dispatch threads record concurrently: no sequence is taken twice
        or skipped, and no count is lost."""
        pipeline = calibrated_pipeline(benign_images)
        (outcome,) = pipeline.screen([as_uint8(benign_images[0])], ["race"])
        verdict = verdict_payload(outcome, request_id="race", latency_ms=0.0)
        taken: list[int] = []

        def worker() -> None:
            for _ in range(200):
                taken.extend(pipeline.record([verdict, verdict], [None, None]))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(taken) == list(range(1, 8 * 200 * 2 + 1))
        assert pipeline.stats.submitted == pipeline.stats.accepted == 8 * 200 * 2

    def test_malformed_verdict_is_refused_before_counting(self, benign_images):
        pipeline = calibrated_pipeline(benign_images)
        (outcome,) = pipeline.screen([as_uint8(benign_images[0])], ["bad"])
        verdict = verdict_payload(outcome, request_id="bad", latency_ms=0.0)
        for broken in (
            {key: value for key, value in verdict.items() if key != "scores"},
            {**verdict, "action": "submitted"},
        ):
            with pytest.raises(DetectionError, match="verdict"):
                pipeline.record([verdict, broken], [None, None])
        assert pipeline.stats.submitted == 0
        assert list(pipeline.record([verdict], [None])) == [1]


class TestPoolLifecycle:
    def test_config_rejects_zero_workers(self, benign_images):
        spec = WorkerSpec.from_pipeline(calibrated_pipeline(benign_images))
        with pytest.raises(ReproError, match="workers must be >= 1"):
            WorkerPool(spec, WorkerPoolConfig(workers=0))

    def test_submit_before_start_and_after_shutdown_refused(self, benign_images):
        pipeline = calibrated_pipeline(benign_images)
        pool = WorkerPool(
            WorkerSpec.from_pipeline(pipeline),
            WorkerPoolConfig(workers=1, **FAST_POOL),
        )
        payload = encode_image_payload(as_uint8(benign_images[0]))
        with pytest.raises(ReproError, match="not started"):
            pool.submit([payload], request_id="early")
        pool.start()
        try:
            assert pool.submit([payload], request_id="mid")["verdicts"]
        finally:
            pool.shutdown()
        with pytest.raises(DetectionError, match="shut down"):
            pool.submit([payload], request_id="late")
        pool.shutdown()  # idempotent

    def test_shards_get_the_dispatchers_warning_options(self, benign_images, monkeypatch):
        """A shard runs with the dispatcher's ``-W`` options, so a run with
        warnings as errors covers the shards too."""
        monkeypatch.setattr(sys, "warnoptions", ["error::DeprecationWarning"])
        pipeline = calibrated_pipeline(benign_images)
        pool = WorkerPool(
            WorkerSpec.from_pipeline(pipeline),
            WorkerPoolConfig(workers=1, **FAST_POOL),
            metrics=pipeline.metrics,
        )
        pool.shard_command = (
            sys.executable,
            "-c",
            "import sys; assert sys.warnoptions == ['error::DeprecationWarning'];"
            " from repro.serving.workers import Shard; Shard.main()",
        )
        pool.start()
        try:
            payload = encode_image_payload(as_uint8(benign_images[0]))
            assert pool.submit([payload], request_id="warned")["verdicts"]
            assert pipeline.metrics.counter("workers.deaths").value == 0
        finally:
            pool.shutdown()

    def test_status_and_pids_expose_live_shards(self, pool_setup):
        pool, _ = pool_setup
        pids = pool.pids()
        assert sorted(pids) == [0, 1]
        assert all(isinstance(pid, int) for pid in pids.values())
        for status in pool.worker_status():
            assert status["up"] is True
            assert status["restarts"] == 0
            assert status["inflight"] == 0
        assert pool.healthy_count == 2

    def test_reply_shape_is_json_wire_contract(self, pool_setup):
        pool, _ = pool_setup
        reply = pool.submit(
            [encode_image_payload(as_uint8(holdout_images(1)[0]))],
            request_id="shape",
        )
        assert set(reply) == {"verdicts", "quarantine_paths"}
        verdict = reply["verdicts"][0]
        assert verdict["request_id"] == "shape"
        assert verdict["image_id"] == "shape"
        assert verdict["verdict"] in ("benign", "attack")
        json.dumps(reply)  # whole reply is JSON-serializable as received
        assert all(isinstance(score, float) for score in verdict["scores"].values())
