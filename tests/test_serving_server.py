"""Lifecycle tests for the HTTP detection service (server + client).

Real sockets on ephemeral ports, no mocks: every test starts a
:class:`DetectionServer` wrapping a calibrated pipeline, talks to it
through :class:`DetectionClient`, and shuts it down.

The shared ``served`` fixture honors ``REPRO_TEST_WORKERS`` (see
``tests/conftest.py``): CI's fault-matrix job reruns this file with the
pipeline sharded across 0, 1, and 4 worker processes, so the same
end-to-end assertions — including bit-for-bit verdict parity — gate the
sharded scoring path.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import threading
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CodecError, ReproError, ServingError
from repro.imaging.image import as_uint8
from repro.imaging.png import read_png
from repro.serving import (
    AuditLog,
    DetectionClient,
    DetectionServer,
    DetectionVerdict,
    Policy,
    ProtectedPipeline,
    ServerConfig,
)
from repro.serving.wire import (
    IMAGE_CONTENT_TYPE,
    decode_image_payload,
    encode_image_payload,
    pack_batch,
    unpack_batch,
)

from tests.conftest import MODEL_INPUT, SERVER_WORKERS, wait_until
from tests.png_oracle import png_bytes


def _make_pipeline(benign_images, **kwargs) -> ProtectedPipeline:
    pipeline = ProtectedPipeline(MODEL_INPUT, **kwargs)
    pipeline.calibrate(benign_images, percentile=5.0)
    return pipeline


def _server_config(**kwargs) -> ServerConfig:
    """Ephemeral port; the shard count follows ``REPRO_TEST_WORKERS`` (see
    ``tests/conftest.py``). Tests that gate scoring in-process
    (monkeypatched ``screen`` cannot cross a spawn) pass ``workers=0``."""
    kwargs.setdefault("workers", SERVER_WORKERS)
    return ServerConfig(port=0, **kwargs)


@pytest.fixture
def served(benign_images):
    """A running server on an ephemeral port + a connected client."""
    pipeline = _make_pipeline(benign_images)
    server = DetectionServer(pipeline, _server_config())
    server.start()
    client = DetectionClient(*server.address)
    # Worker mode spawns shard processes (cold numpy imports): be patient.
    client.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
    yield server, client, pipeline
    client.close()
    server.shutdown()


class TestWire:
    def test_single_payload_round_trip(self, benign_images):
        image = np.asarray(benign_images[0])
        payload = encode_image_payload(image)
        assert np.array_equal(decode_image_payload(payload), image)

    def test_batch_framing_round_trip(self, benign_images):
        payloads = [encode_image_payload(np.asarray(i)) for i in benign_images[:3]]
        assert unpack_batch(pack_batch(payloads)) == payloads
        assert unpack_batch(pack_batch([])) == []

    def test_garbage_rejected(self):
        with pytest.raises(CodecError, match="neither PNG nor netpbm"):
            decode_image_payload(b"definitely not an image")
        with pytest.raises(CodecError, match="truncated"):
            unpack_batch(pack_batch([b"x" * 10])[:-3])


class TestEndToEnd:
    def test_benign_and_attack_detected(self, served, benign_images, attack_images):
        _, client, _ = served
        benign = client.detect(np.asarray(benign_images[0]))
        assert not benign.is_attack
        assert benign.action == "accepted"
        attack = client.detect(as_uint8(attack_images[0]))
        assert attack.is_attack
        assert attack.action == "rejected"
        assert not attack.accepted

    def test_verdict_matches_in_process_submit_bit_for_bit(
        self, served, benign_images, attack_images
    ):
        """The wire adds nothing: scores through the HTTP path equal an
        in-process ``submit()`` on the same pixels, float-for-float (JSON
        round-trips doubles exactly via repr)."""
        _, client, pipeline = served
        for source in (benign_images[0], attack_images[0]):
            image = as_uint8(source)
            local = pipeline.submit(image)
            remote = client.detect(image)
            assert remote.is_attack == local.detection.is_attack
            assert remote.action == local.action
            assert remote.votes_for_attack == local.detection.votes_for_attack
            local_scores = {
                f"{d.method}/{d.metric}": float(d.score)
                for d in local.detection.detections
            }
            assert remote.scores == local_scores  # bit-for-bit, no approx

    def test_batch_matches_single(self, served, benign_images, attack_images):
        _, client, _ = served
        images = [as_uint8(benign_images[0]), as_uint8(attack_images[0])]
        batch = client.detect_batch(images)
        singles = [client.detect(image) for image in images]
        assert [v.verdict for v in batch] == [v.verdict for v in singles]
        assert [v.scores for v in batch] == [v.scores for v in singles]

    def test_request_id_echoed_and_audited(self, benign_images, tmp_path):
        """The audit trail is dispatcher-side accounting, so it must read
        identically whether scoring happened in-process or on a shard."""
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = _make_pipeline(benign_images, audit_log=log)
        server = DetectionServer(pipeline, _server_config())
        server.start()
        try:
            with DetectionClient(*server.address) as client:
                client.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
                verdict = client.detect(
                    np.asarray(benign_images[0]), request_id="req-42"
                )
            assert verdict.request_id == "req-42"
            assert verdict.image_id == "req-42"
        finally:
            server.shutdown()
        assert [r.image_id for r in log.records()] == ["req-42"]

    def test_bad_body_is_400_not_retried(self, served):
        _, client, _ = served
        with pytest.raises(ServingError, match="400"):
            client.detect(payload=b"not an image at all")

    def test_unknown_path_404(self, served):
        _, client, _ = served
        status, _, _ = client._request("GET", "/nope")
        assert status == 404


def _malformed_bodies() -> dict[str, bytes]:
    """Hostile bodies that used to escape the codecs as non-codec errors,
    or to cost unbounded memory, one per way in."""
    compressor = zlib.compressobj(9)
    bomb = b"".join(compressor.compress(bytes(1 << 20)) for _ in range(16))
    indices = zlib.compress(bytes([0, 0, 1, 0, 2]))  # one filter-0 row of 4
    return {
        "png-decompression-bomb": png_bytes(16, 16, 2, bomb + compressor.flush()),
        "png-oversize-header": png_bytes(100_000, 100_000, 2, zlib.compress(bytes(64))),
        "png-zero-width": png_bytes(0, 4, 2, zlib.compress(b"")),
        "png-short-ihdr": png_bytes(4, 4, 2, zlib.compress(b""), ihdr=bytes(5)),
        "png-index-past-palette": png_bytes(4, 1, 3, indices, plte=bytes(3 * 2)),
        "ppm-oversize-header": b"P6\n100000 100000\n255\n" + bytes(64),
        "pgm-zero-height": b"P5\n4 0\n255\n",
        "p2-sample-over-255": b"P2\n2 1\n255\n0 300\n",
        "p3-negative-sample": b"P3\n1 1\n255\n0 -1 0\n",
    }


class TestMalformedPayloads:
    @pytest.mark.parametrize("case", sorted(_malformed_bodies()))
    def test_malformed_body_is_400(self, served, case):
        """Every malformed payload is a client error at every worker
        count: a codec exception in the dispatcher or on a shard maps to
        400, never 500 (unmapped in-process) or 503 (unmapped shard)."""
        _, client, _ = served
        status, _, body = client._request(
            "POST",
            "/v1/detect",
            body=_malformed_bodies()[case],
            headers={"Content-Type": IMAGE_CONTENT_TYPE},
        )
        assert status == 400, body
        assert client.health()[0] == 200


class TestAuditParityAcrossWorkerCounts:
    def _audit_trail(self, workers, benign_images, attack_images, root: Path):
        """Serve serially a benign single, an attack single and a mixed
        2-image batch under QUARANTINE; return the JSONL records (with the
        quarantine path reduced to its file name) and the stored files."""
        log = AuditLog(root / "audit.jsonl", quarantine_dir=root / "q")
        pipeline = _make_pipeline(
            benign_images, policy=Policy.QUARANTINE, audit_log=log
        )
        server = DetectionServer(pipeline, _server_config(workers=workers))
        server.start()
        benign, attack = as_uint8(benign_images[0]), as_uint8(attack_images[0])
        try:
            with DetectionClient(*server.address) as client:
                client.wait_ready(timeout_s=120.0 if workers else 10.0)
                client.detect(benign, request_id="one-benign")
                client.detect(attack, request_id="one-attack")
                client.detect_batch([benign, attack], request_id="mixed")
        finally:
            server.shutdown()
        records = [
            {
                **asdict(record),
                "quarantine_path": record.quarantine_path
                and Path(record.quarantine_path).name,
            }
            for record in log.records()
        ]
        return records, {path.name for path in (root / "q").iterdir()}

    def test_audit_and_quarantine_match_in_process_and_sharded(
        self, benign_images, attack_images, tmp_path
    ):
        """The dispatcher records what the job returns wherever it ran, so
        the audit trail and the quarantine files are the same at 0 and 1
        workers: sequences, verdicts, scores, rules and paths."""
        in_process, stored_here = self._audit_trail(
            0, benign_images, attack_images, tmp_path / "w0"
        )
        sharded, stored_there = self._audit_trail(
            1, benign_images, attack_images, tmp_path / "w1"
        )
        assert sharded == in_process
        assert [r["sequence"] for r in in_process] == [1, 2, 3, 4]
        assert [r["image_id"] for r in in_process] == [
            "one-benign", "one-attack", "mixed-00000", "mixed-00001"
        ]
        assert [r["quarantine_path"] for r in in_process] == [
            None, "one-attack.png", None, "mixed-00001.png"
        ]
        assert stored_there == stored_here
        assert {"one-attack.png", "mixed-00001.png"} <= stored_here


class TestQuarantineNames:
    def test_long_and_colliding_ids_each_keep_their_own_file(
        self, benign_images, attack_images, tmp_path
    ):
        """The client's ``X-Request-Id`` names the quarantine file. A
        300-byte id is still quarantined and audited, and two ids that
        sanitize to the same name leave two files, each record's path
        holding the image that record scored."""
        log = AuditLog(tmp_path / "audit.jsonl", quarantine_dir=tmp_path / "q")
        pipeline = _make_pipeline(
            benign_images, policy=Policy.QUARANTINE, audit_log=log
        )
        server = DetectionServer(pipeline, _server_config())
        server.start()
        sent = {
            "x" * 300: as_uint8(attack_images[0]),
            "a.b": as_uint8(attack_images[1]),
            "a_b": as_uint8(attack_images[2]),
        }
        try:
            with DetectionClient(*server.address) as client:
                client.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
                for request_id, image in sent.items():
                    verdict = client.detect(image, request_id=request_id)
                    assert verdict.action == "quarantined", request_id[:16]
        finally:
            server.shutdown()
        records = log.records()
        assert [record.image_id for record in records] == list(sent)
        paths = [Path(record.quarantine_path) for record in records]
        assert len(set(paths)) == len(sent)
        assert paths[1].name == "a_b.png"
        stored = {path.name for path in (tmp_path / "q").iterdir()}
        for record, path in zip(records, paths):
            assert path.parent == tmp_path / "q"
            assert np.array_equal(read_png(path), sent[record.image_id])
            assert any(name.startswith(f"{path.stem}.") for name in stored)


class TestServerErrorBodies:
    def test_5xx_body_names_no_server_path(
        self, benign_images, attack_images, tmp_path, capfd
    ):
        """A quarantine write that fails with an OSError is the server's
        fault, not the client's: 500 at every worker count. The body holds
        a fixed reason and the request id, never the path the exception
        names; the one stderr line keyed by the request id holds both."""
        quarantine_dir = tmp_path / "q"
        log = AuditLog(tmp_path / "audit.jsonl", quarantine_dir=quarantine_dir)
        pipeline = _make_pipeline(
            benign_images, policy=Policy.QUARANTINE, audit_log=log
        )
        server = DetectionServer(pipeline, _server_config())
        server.start()
        try:
            with DetectionClient(*server.address, max_retries=0) as client:
                client.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
                if SERVER_WORKERS:
                    # Each shard opens the quarantine directory as it starts.
                    wait_until(
                        lambda: all(
                            status["ready"]
                            for status in server.worker_pool.worker_status()
                        ),
                        timeout_s=120.0,
                        message="every shard to be ready",
                    )
                quarantine_dir.rmdir()
                quarantine_dir.write_bytes(b"")
                status, _, body = client._request(
                    "POST",
                    "/v1/detect",
                    body=encode_image_payload(as_uint8(attack_images[0])),
                    headers={
                        "Content-Type": IMAGE_CONTENT_TYPE,
                        "X-Request-Id": "lost-quarantine",
                    },
                )
        finally:
            server.shutdown()
        assert status == 500, body
        assert json.loads(body) == {
            "error": "internal error",
            "request_id": "lost-quarantine",
        }
        assert str(tmp_path).encode() not in body
        lines = [
            line
            for line in capfd.readouterr().err.splitlines()
            if "[lost-quarantine]" in line
        ]
        assert len(lines) == 1, lines
        assert str(quarantine_dir) in lines[0]


class TestHealth:
    def test_ready_payload(self, served):
        _, client, _ = served
        status, payload = client.health()
        assert status == 200
        # The dispatcher advertises its own pid (external tooling
        # discovers what to watch from this payload).
        assert payload.pop("pid") == os.getpid()
        if SERVER_WORKERS:
            workers = payload.pop("workers")
            assert workers["configured"] == SERVER_WORKERS
            assert workers["healthy"] == SERVER_WORKERS
            pids = workers["pids"]
            assert len(pids) == SERVER_WORKERS
            assert all(isinstance(pid, int) and pid > 0 for pid in pids.values())
            assert os.getpid() not in pids.values()  # shards are processes
        assert payload == {
            "ready": True,
            "calibrated": True,
            "draining": False,
            "queue_saturated": False,
        }

    def test_uncalibrated_is_not_ready(self):
        server = DetectionServer(
            ProtectedPipeline(MODEL_INPUT), _server_config(workers=0)
        )
        server.start()
        try:
            with DetectionClient(*server.address) as client:
                status, payload = client.health()
                assert status == 503
                assert payload["calibrated"] is False
                with pytest.raises(ServingError, match="not ready"):
                    client.wait_ready(timeout_s=0.3, poll_s=0.05)
        finally:
            server.shutdown()


def _block_submissions(pipeline, gate: threading.Event, started: threading.Event):
    """Make every screen wait on *gate* (instance-level wrap, test only)."""
    original = pipeline.screen

    def slow_screen(images, image_ids):
        started.set()
        assert gate.wait(timeout=30.0), "test gate never opened"
        return original(images, image_ids)

    pipeline.screen = slow_screen


class TestAdmissionControl:
    @pytest.mark.parametrize("field, value", [("max_active", 0), ("queue_depth", -1)])
    def test_invalid_limits_refused_at_construction(self, field, value):
        with pytest.raises(ReproError, match=f"{field} must be"):
            DetectionServer(
                ProtectedPipeline(MODEL_INPUT), _server_config(workers=0, **{field: value})
            )

    def test_ready_at_queue_depth_zero_until_its_slot_is_held(self, benign_images):
        """Saturated means the next detect request would get 429: every
        active slot taken and the waiting room full. An idle server with no
        waiting room is ready."""
        pipeline = _make_pipeline(benign_images)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        server = DetectionServer(
            pipeline, _server_config(workers=0, max_active=1, queue_depth=0)
        )
        server.start()

        def occupy():
            with DetectionClient(*server.address) as client:
                client.detect(np.asarray(benign_images[0]))

        occupant = threading.Thread(target=occupy)
        try:
            idle = server.health()
            assert (idle["ready"], idle["queue_saturated"]) == (True, False)
            occupant.start()
            assert started.wait(timeout=10.0)
            held = server.health()
            assert (held["ready"], held["queue_saturated"]) == (False, True)
            gate.set()
            occupant.join(timeout=30.0)
            assert not occupant.is_alive()
            released = server.health()
            assert (released["ready"], released["queue_saturated"]) == (True, False)
        finally:
            gate.set()
            if occupant.is_alive():
                occupant.join(timeout=30.0)
            server.shutdown()

    def test_waiting_requests_hold_no_thread_and_run_in_arrival_order(
        self, benign_images, tmp_path
    ):
        """65 admitted requests (1 active, 64 waiting) add at most
        ``max_active + 4`` threads, and the waiters are scored in the order
        they arrived."""
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = _make_pipeline(benign_images, audit_log=log)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        max_active, queue_depth = 1, 64
        server = DetectionServer(
            pipeline,
            _server_config(
                workers=0, max_active=max_active, queue_depth=queue_depth,
                deadline_ms=30_000,
            ),
        )
        server.start()
        body = encode_image_payload(as_uint8(benign_images[0]))
        ids = [f"wait-{index:02d}" for index in range(max_active + queue_depth)]
        waiting = pipeline.metrics.gauge("server.queue_depth")
        threads_before = threading.active_count()
        socks: list[socket.socket] = []
        try:
            for index, request_id in enumerate(ids):
                sock = socket.create_connection(server.address, timeout=60.0)
                socks.append(sock)
                sock.sendall(
                    _request_bytes(
                        "POST",
                        "/v1/detect",
                        [
                            ("Host", "wait.test"),
                            ("X-Request-Id", request_id),
                            _OCTET,
                            ("Content-Length", str(len(body))),
                        ],
                        body,
                    )
                )
                if index < max_active:
                    assert started.wait(timeout=10.0)
                else:
                    # Each arrival is queued before the next is sent, so
                    # the arrival order is fixed.
                    wait_until(
                        lambda n=index: waiting.value == n,
                        timeout_s=10.0,
                        message=f"{request_id} to wait",
                    )
            assert threading.active_count() - threads_before <= max_active + 4
            gate.set()
            for sock in socks:
                assert _read_response(sock).startswith(b"HTTP/1.1 200 ")
        finally:
            gate.set()
            for sock in socks:
                sock.close()
            server.shutdown()
        records = log.records()
        assert [r.image_id for r in records] == ids
        assert [r.sequence for r in records] == sorted(r.sequence for r in records)

    def test_saturated_queue_429_with_retry_after(self, benign_images):
        pipeline = _make_pipeline(benign_images)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        server = DetectionServer(
            pipeline,
            _server_config(workers=0, max_active=1, queue_depth=0, deadline_ms=30_000),
        )
        server.start()
        image = np.asarray(benign_images[0])
        outcomes: list = []

        def occupy():
            with DetectionClient(*server.address) as client:
                outcomes.append(client.detect(image))

        occupant = threading.Thread(target=occupy)
        try:
            occupant.start()
            assert started.wait(timeout=10.0)
            # The only active slot is held and the waiting room is size 0:
            # an immediate 429 + Retry-After, never a hang.
            with DetectionClient(*server.address, max_retries=0) as probe:
                status, headers, payload = probe._request(
                    "POST",
                    "/v1/detect",
                    body=encode_image_payload(image),
                    headers={"Content-Type": "application/octet-stream"},
                )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue full" in json.loads(payload)["error"]
        finally:
            gate.set()
            occupant.join(timeout=30.0)
            server.shutdown()
        assert not occupant.is_alive()
        assert [v.action for v in outcomes] == ["accepted"]

    def test_queue_deadline_503(self, benign_images):
        pipeline = _make_pipeline(benign_images)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        server = DetectionServer(
            pipeline,
            _server_config(workers=0, max_active=1, queue_depth=4, deadline_ms=100),
        )
        server.start()
        image = np.asarray(benign_images[0])

        def occupy():
            with DetectionClient(*server.address) as client:
                client.detect(image)

        occupant = threading.Thread(target=occupy)
        try:
            occupant.start()
            assert started.wait(timeout=10.0)
            with DetectionClient(*server.address, max_retries=0) as probe:
                status, _, payload = probe._request(
                    "POST",
                    "/v1/detect",
                    body=encode_image_payload(image),
                    headers={"Content-Type": "application/octet-stream"},
                )
            assert status == 503
            assert "gave up" in json.loads(payload)["error"]
            # The expired waiter left the room, and the server still serves.
            assert pipeline.metrics.gauge("server.queue_depth").value == 0
            gate.set()
            occupant.join(timeout=30.0)
            with DetectionClient(*server.address, max_retries=0) as probe:
                assert probe.detect(image).action == "accepted"
        finally:
            gate.set()
            occupant.join(timeout=30.0)
            server.shutdown()

    def test_client_retries_through_transient_429(self, benign_images):
        """With retries enabled, the client rides out a temporarily full
        queue and still gets its verdict."""
        pipeline = _make_pipeline(benign_images)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        server = DetectionServer(
            pipeline,
            _server_config(
                workers=0, max_active=1, queue_depth=0, deadline_ms=30_000,
                retry_after_s=0.1,
            ),
        )
        server.start()
        image = np.asarray(benign_images[0])
        outcomes: list = []

        def occupy():
            with DetectionClient(*server.address) as client:
                outcomes.append(client.detect(image))

        occupant = threading.Thread(target=occupy)
        try:
            occupant.start()
            assert started.wait(timeout=10.0)

            def open_after_first_429():
                # Event-driven, not a timer: the gate opens once the
                # retrying client has provably been turned away at least
                # once, so the test asserts a real 429 -> retry -> 200 arc.
                wait_until(
                    lambda: pipeline.metrics.counter("server.responses.429").value >= 1,
                    timeout_s=10.0,
                    message="the retrying client to see its first 429",
                )
                gate.set()

            opener = threading.Thread(target=open_after_first_429)
            opener.start()
            with DetectionClient(
                *server.address, max_retries=8, backoff_base_s=0.05
            ) as client:
                verdict = client.detect(image)
            assert verdict.action == "accepted"
            opener.join(timeout=10.0)
        finally:
            gate.set()
            occupant.join(timeout=30.0)
            server.shutdown()


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_flushes_audit(
        self, benign_images, tmp_path
    ):
        """shutdown() during in-flight requests loses none of them: every
        accepted request gets a 200 and an audit record."""
        log = AuditLog(tmp_path / "audit.jsonl")
        pipeline = _make_pipeline(benign_images, audit_log=log)
        gate, started = threading.Event(), threading.Event()
        _block_submissions(pipeline, gate, started)
        n_inflight = 3
        server = DetectionServer(
            pipeline,
            _server_config(workers=0, max_active=n_inflight, queue_depth=0),
        )
        server.start()
        image = np.asarray(benign_images[0])
        verdicts: list = []
        errors: list = []

        def one(request_id: str):
            try:
                with DetectionClient(*server.address, max_retries=0) as client:
                    verdicts.append(client.detect(image, request_id=request_id))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(f"inflight-{i}",))
            for i in range(n_inflight)
        ]
        for thread in threads:
            thread.start()
        # Wait until all three occupy active slots, then drain mid-flight.
        wait_until(
            lambda: pipeline.metrics.gauge("server.in_flight").value == n_inflight,
            timeout_s=10.0,
            message="all in-flight requests to occupy active slots",
        )
        gate.set()
        server.shutdown()  # joins handler threads before flushing the log
        for thread in threads:
            thread.join(timeout=30.0)

        assert errors == []
        assert sorted(v.request_id for v in verdicts) == sorted(
            f"inflight-{i}" for i in range(n_inflight)
        )
        assert all(v.action == "accepted" for v in verdicts)
        audited = sorted(r.image_id for r in log.records())
        assert audited == sorted(f"inflight-{i}" for i in range(n_inflight))

    def test_shutdown_is_idempotent_and_post_drain_refuses(self, benign_images):
        pipeline = _make_pipeline(benign_images)
        server = DetectionServer(pipeline, _server_config())
        server.start()
        host, port = server.address
        server.shutdown()
        server.shutdown()  # second call is a no-op, not an error
        with pytest.raises(ServingError):
            with DetectionClient(host, port, max_retries=1, backoff_base_s=0.01) as c:
                c.detect(np.asarray(benign_images[0]))


def test_512_keepalive_connections_all_answered(benign_images, attack_images):
    """512 keep-alive connections open at once each get two verdicts, and
    none is lost: the admission queue (``max_active + queue_depth``) holds
    every request, each connection is reused for its second request, and
    every verdict equals an in-process ``submit()`` of the same pixels."""
    n_connections = 512
    pipeline = _make_pipeline(benign_images)
    images = [as_uint8(image) for image in (*benign_images[:2], *attack_images[:2])]
    expected = [pipeline.submit(image).detection.is_attack for image in images]
    assert set(expected) == {False, True}
    requests = [
        _request_bytes(
            "POST",
            "/v1/detect",
            [("Host", "keepalive.test"), _OCTET, ("Content-Length", str(len(body)))],
            body,
        )
        for body in map(encode_image_payload, images)
    ]
    server = DetectionServer(
        pipeline, _server_config(max_active=8, queue_depth=1024, deadline_ms=60_000)
    )
    server.start()
    socks: list[socket.socket] = []
    try:
        with DetectionClient(*server.address) as client:
            client.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
        answered_before = pipeline.metrics.counter("server.responses.200").value
        socks = [
            socket.create_connection(server.address, timeout=120.0)
            for _ in range(n_connections)
        ]
        for _round in range(2):
            for index, sock in enumerate(socks):
                sock.sendall(requests[index % len(requests)])
            for index, sock in enumerate(socks):
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = response.read()
                assert response.status == 200, (index, response.status, body[:200])
                verdict = DetectionVerdict.from_payload(json.loads(body))
                assert verdict.is_attack == expected[index % len(requests)], index
        for sock in socks:
            sock.close()
        open_gauge = pipeline.metrics.gauge("eventloop.open_connections")
        wait_until(
            lambda: open_gauge.value == 0,
            timeout_s=30.0,
            message="every closed connection to leave the event loop",
        )
        responses = pipeline.metrics.counter_values("server.responses.")
    finally:
        for sock in socks:
            sock.close()
        server.shutdown()
    answered = responses["server.responses.200"] - answered_before
    assert answered == 2 * n_connections
    assert not {
        name: count
        for name, count in responses.items()
        if name.startswith("server.responses.5") and count
    }


# -- golden response grid -----------------------------------------------------
#
# tests/golden/http_responses.json holds the responses the (since removed)
# thread-per-connection front end served for every request shape below.
# The event loop must keep serving the same bytes; only what is honestly
# volatile is masked: the Date header, the Python version in the Server
# header, measured latencies, and process ids.

_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "http_responses.json").read_text(encoding="utf-8")
)

_VOLATILE = (
    (re.compile(rb"Date: [^\r\n]+"), b"Date: <date>"),
    (re.compile(rb"Python/[0-9]+\.[0-9]+\.[0-9]+"), b"Python/<python>"),
    (re.compile(rb'"latency_ms": [-+0-9.eE]+'), b'"latency_ms": <ms>'),
    (re.compile(rb'"pid": [0-9]+'), b'"pid": <pid>'),
    (re.compile(rb'"pids": \{[^}]*\}'), b'"pids": <pids>'),
)


def _normalize(raw: bytes) -> bytes:
    for pattern, replacement in _VOLATILE:
        raw = pattern.sub(replacement, raw)
    return raw


def _comparable(raw: bytes) -> bytes:
    """A response reduced to its golden-comparable form. ``Content-Length``
    is first checked against the actual body (so it is never wrong, just
    unequal across variable-width latency floats), then normalized along
    with the other volatile fields."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = []
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            assert int(line.split(b":", 1)[1]) == len(body), raw[:200]
            line = b"Content-Length: <n>"
        lines.append(line)
    return _normalize(b"\r\n".join(lines) + sep + body)


def _golden(case: str) -> bytes:
    """The golden response for *case*; ``/healthz`` grows a ``workers``
    block when the server is sharded."""
    workers = (
        f', "workers": {{"configured": {SERVER_WORKERS}, "healthy": {SERVER_WORKERS}, '
        '"pids": <pids>}'
        if SERVER_WORKERS
        else ""
    )
    return _GOLDEN["responses"][case].replace("<workers>", workers).encode("latin-1")


def _request_bytes(
    method: str, path: str, headers: list[tuple[str, str]], body: bytes = b""
) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers)
    return head.encode("ascii") + b"\r\n" + body


def _read_response(sock: socket.socket) -> bytes:
    """Read exactly one HTTP response (head + Content-Length body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest[:length]


def _exchange(address: tuple[str, int], requests: list[bytes]) -> list[bytes]:
    """Send requests sequentially over ONE connection; return the responses."""
    with socket.create_connection(address, timeout=30.0) as sock:
        responses = []
        for request in requests:
            sock.sendall(request)
            responses.append(_read_response(sock))
        return responses


_BASE_HEADERS = [("Host", "parity.test"), ("X-Request-Id", "parity-grid")]
_OCTET = ("Content-Type", "application/octet-stream")


def _grid_cases(single: bytes, attack: bytes, batch: bytes, max_body: int) -> dict:
    """Every request shape the grid sends, keyed by case id."""
    return {
        "get-healthz": _request_bytes("GET", "/healthz", _BASE_HEADERS),
        "get-404": _request_bytes("GET", "/nope", _BASE_HEADERS),
        "post-404": _request_bytes(
            "POST", "/nope", [*_BASE_HEADERS, _OCTET, ("Content-Length", "0")]
        ),
        "detect-benign": _request_bytes(
            "POST",
            "/v1/detect",
            [*_BASE_HEADERS, _OCTET, ("Content-Length", str(len(single)))],
            single,
        ),
        "detect-attack": _request_bytes(
            "POST",
            "/v1/detect",
            [*_BASE_HEADERS, _OCTET, ("Content-Length", str(len(attack)))],
            attack,
        ),
        "detect-batch": _request_bytes(
            "POST",
            "/v1/detect/batch",
            [
                *_BASE_HEADERS,
                ("Content-Type", "application/x-decamouflage-batch"),
                ("Content-Length", str(len(batch))),
            ],
            batch,
        ),
        "bad-body-400": _request_bytes(
            "POST",
            "/v1/detect",
            [*_BASE_HEADERS, _OCTET, ("Content-Length", "9")],
            b"not a png",
        ),
        "missing-length-411": _request_bytes(
            "POST", "/v1/detect", [*_BASE_HEADERS, _OCTET]
        ),
        "invalid-length-400": _request_bytes(
            "POST", "/v1/detect", [*_BASE_HEADERS, _OCTET, ("Content-Length", "abc")]
        ),
        "negative-length-400": _request_bytes(
            "POST", "/v1/detect", [*_BASE_HEADERS, _OCTET, ("Content-Length", "-5")]
        ),
        "oversize-length-413": _request_bytes(
            "POST",
            "/v1/detect",
            [*_BASE_HEADERS, _OCTET, ("Content-Length", str(max_body + 1))],
        ),
        "unsupported-method-501": _request_bytes(
            "DELETE", "/v1/detect", [*_BASE_HEADERS, ("Content-Length", "0")]
        ),
    }


class TestFrontendParity:
    """The event loop against the golden bytes, over raw sockets."""

    @pytest.fixture(scope="class")
    def parity_server(self, benign_images, tmp_path_factory):
        """One server over a calibrated, audited pipeline (sharding per
        ``REPRO_TEST_WORKERS``), plus its audit log."""
        log = AuditLog(tmp_path_factory.mktemp("parity") / "audit.jsonl")
        server = DetectionServer(
            _make_pipeline(benign_images, audit_log=log), _server_config()
        )
        server.start()
        try:
            with DetectionClient(*server.address) as probe:
                probe.wait_ready(timeout_s=120.0 if SERVER_WORKERS else 10.0)
            yield server, log
        finally:
            server.shutdown()

    @pytest.fixture(scope="class")
    def grid(self, benign_images, attack_images):
        single = encode_image_payload(as_uint8(benign_images[0]))
        attack = encode_image_payload(as_uint8(attack_images[0]))
        batch = pack_batch([single, attack])
        return _grid_cases(
            single, attack, batch, ServerConfig().max_body_bytes
        )

    @pytest.mark.parametrize("case", sorted(_GOLDEN["responses"]))
    def test_response_bytes_identical(self, parity_server, grid, case):
        server, _ = parity_server
        raw = _exchange(server.address, [grid[case]])[0]
        assert _comparable(raw) == _golden(case)

    def test_metrics_endpoint_headers_identical(self, parity_server):
        """The metrics body depends on the registry's contents; the
        envelope — status line and header structure — must not."""
        server, _ = parity_server
        request = _request_bytes("GET", "/metrics", _BASE_HEADERS)
        head = _exchange(server.address, [request])[0].partition(b"\r\n\r\n")[0]
        envelope = [
            line.partition(b":")[0] if line.startswith(b"Content-Length") else line
            for line in _normalize(head).split(b"\r\n")
        ]
        assert [line.decode("latin-1") for line in envelope] == _GOLDEN["metrics_envelope"]

    def test_keep_alive_reuse_bytes_identical(self, parity_server, grid):
        """Three requests over ONE connection — the event loop's
        incremental parser resumes cleanly between keep-alive requests."""
        server, _ = parity_server
        cases = ["detect-benign", "get-healthz", "bad-body-400"]
        responses = _exchange(server.address, [grid[case] for case in cases])
        assert list(map(_comparable, responses)) == list(map(_golden, cases))

    @pytest.mark.parametrize(
        "lengths",
        [
            lambda n: [f"+{n}"],
            lambda n: [f"{str(n)[0]}_{str(n)[1:]}"],
            lambda n: [str(n), "5"],
        ],
        ids=["plus-sign", "underscore", "differing-duplicates"],
    )
    def test_non_digit_or_conflicting_content_length_is_400(
        self, parity_server, grid, lengths
    ):
        """RFC 9112 §6.3: a Content-Length that is not 1*DIGIT, or
        duplicates that differ, make the framing unrecoverable — 400 and
        close before any body is read, even where Python's int() would
        parse the value (a server that does waits for the body instead)."""
        server, _ = parity_server
        values = lengths(len(grid["detect-benign"].partition(b"\r\n\r\n")[2]))
        headers = [*_BASE_HEADERS, _OCTET, *(("Content-Length", v) for v in values)]
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(_request_bytes("POST", "/v1/detect", headers))
            raw = _read_response(sock)
            assert sock.recv(1) == b""  # the server closed the stream
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        shown = ", ".join(values)
        assert json.loads(payload)["error"] == f"invalid Content-Length {shown!r}"

    def test_identical_duplicate_content_length_passes(self, parity_server, grid):
        server, _ = parity_server
        request = grid["detect-benign"]
        line = next(
            line for line in request.split(b"\r\n") if line.startswith(b"Content-Length:")
        )
        doubled = request.replace(line, line + b"\r\n" + line, 1)
        raw = _exchange(server.address, [doubled])[0]
        assert _comparable(raw) == _golden("detect-benign")

    def test_accounting_parity_counters_and_audit(self, parity_server, grid):
        """Known traffic leaves the golden ``server.*`` counter deltas and
        audit trail."""
        server, log = parity_server
        before = server.metrics.counter_values(prefix="server.")
        audited_before = len(log.records())
        for index in range(3):
            request = grid["detect-benign"].replace(
                b"X-Request-Id: parity-grid", f"X-Request-Id: acct-{index}".encode()
            )
            response = _exchange(server.address, [request])[0]
            assert response.startswith(b"HTTP/1.1 200 ")
        _exchange(server.address, [grid["bad-body-400"]])
        after = server.metrics.counter_values(prefix="server.")
        deltas = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in set(after) | set(before)
            if after.get(key, 0) != before.get(key, 0)
        }
        assert deltas == _GOLDEN["accounting_deltas"]
        server.pipeline.audit_log.flush()
        fresh = log.records()[audited_before:]
        assert [r.image_id for r in fresh] == _GOLDEN["audited_ids"]


_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]+\"\})? [0-9.eE+-]+$|^\# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
)


class TestMetricsEndpoint:
    def test_prometheus_text_parses(self, served, benign_images, attack_images):
        _, client, _ = served
        client.detect(np.asarray(benign_images[0]))
        client.detect(as_uint8(attack_images[0]))
        text = client.metrics_text()
        lines = text.strip().splitlines()
        assert lines, "empty exposition"
        for line in lines:
            assert _METRIC_LINE.match(line), f"unparseable line: {line!r}"

    def test_expected_families_present(self, served, benign_images):
        _, client, _ = served
        client.detect(np.asarray(benign_images[0]))
        text = client.metrics_text()
        needles = [
            "decamouflage_server_requests_total",
            "decamouflage_server_responses_200_total",
            "decamouflage_server_in_flight",
            "decamouflage_server_queue_depth",
            "decamouflage_pipeline_submitted",
            "decamouflage_operator_cache_hit_rate",
            "decamouflage_analysis_",  # shared-analysis memo hit/miss counters
            "decamouflage_server_request_ms_bucket",
            'le="+Inf"',
        ]
        if SERVER_WORKERS:
            # Sharded serving adds per-worker families labeled by id.
            needles += [
                "decamouflage_workers_dispatched_total",
                'decamouflage_worker_up{worker_id="0"}',
                'decamouflage_worker_jobs_done_total{worker_id="0"}',
            ]
        if os.path.exists("/proc/self/stat"):
            # Standard (unprefixed) process self-metrics on Linux.
            needles += [
                "process_cpu_seconds_total",
                "process_resident_memory_bytes",
            ]
        for needle in needles:
            assert needle in text, f"missing {needle} in exposition"

    def test_histogram_buckets_cumulative_and_consistent(self, served, benign_images):
        _, client, _ = served
        for _ in range(3):
            client.detect(np.asarray(benign_images[0]))
        text = client.metrics_text()
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("decamouflage_server_request_ms_bucket")
        ]
        assert buckets == sorted(buckets)
        count = next(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("decamouflage_server_request_ms_count")
        )
        assert buckets[-1] == count == 3.0
