"""Fault-injection tests: the serving stack under deliberate failure.

Every test here breaks something on purpose — a shard SIGKILLed
mid-request, heartbeats silenced past the liveness deadline, garbage
frames on the result pipe, every shard down at once — and asserts the
recovery contract: requeue exactly once, respawn under bounded backoff,
no lost or duplicated verdicts, clean 503s when nothing can answer.

Faults travel as typed :class:`~tests.fault_injection.Fault` values
played by a shard subclass whose command the pool starts (monkeypatching
does not reach a fresh interpreter), or as real signals against pids from
:meth:`WorkerPool.pids`.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.errors import DetectionError
from repro.imaging.image import as_uint8
from repro.serving import DetectionClient, DetectionServer, ServerConfig
from repro.serving import workers as worker_module
from repro.serving.pipeline import verdict_payload
from repro.serving.wire import encode_image_payload
from repro.serving.workers import WorkerPool

from tests.conftest import wait_until
from tests.fault_injection import (
    EVERY_SHARD,
    Fault,
    FaultKind,
    calibrated_pipeline,
    fast_lifecycle,
    faulty_shard_command,
    make_pool,
    shard_faults,
)


@pytest.fixture(autouse=True)
def _fast_lifecycle(monkeypatch):
    fast_lifecycle(monkeypatch)


@pytest.fixture(scope="module")
def payload(benign_images):
    return encode_image_payload(as_uint8(benign_images[0]))


def _restarts(pool, worker_id: int) -> int:
    for status in pool.worker_status():
        if status["worker_id"] == worker_id:
            return status["restarts"]
    raise AssertionError(f"worker {worker_id} missing from status")


class TestFaultPlan:
    def test_faults_target_the_right_shard(self):
        plan = [
            Fault(FaultKind.KILL, 0),
            Fault(FaultKind.SLOW, 1, seconds=2.5),
            Fault(FaultKind.MUTE, EVERY_SHARD),
        ]
        assert shard_faults(plan, worker_id=1) == {
            FaultKind.SLOW: Fault(FaultKind.SLOW, 1, seconds=2.5),
            FaultKind.MUTE: Fault(FaultKind.MUTE, EVERY_SHARD),
        }
        assert set(shard_faults(plan, worker_id=0)) == {FaultKind.KILL, FaultKind.MUTE}
        assert shard_faults([], worker_id=0) == {}

    def test_invalid_faults_rejected(self):
        with pytest.raises(TypeError, match="FaultKind"):
            Fault("kill", 0)
        with pytest.raises(ValueError, match="worker id"):
            Fault(FaultKind.KILL, -1)
        with pytest.raises(ValueError, match="seconds"):
            Fault(FaultKind.SLOW, 0)
        with pytest.raises(ValueError, match="seconds"):
            Fault(FaultKind.KILL, 0, seconds=1.0)


class TestCrashMidRequest:
    def test_kill_before_scoring_requeues_once_and_answers(
        self, benign_images, payload
    ):
        """Worker 0 exits the moment the job lands; the job must fail over
        to worker 1 and still produce exactly one verdict."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.KILL, 0)])
        try:
            # Force the faulty shard to be picked first: it is idle and has
            # the lowest id, which is exactly the least-loaded tie-break.
            reply = pool.submit([payload], request_id="req-crash")
            assert len(reply["verdicts"]) == 1
            assert reply["verdicts"][0]["request_id"] == "req-crash"
            assert pipeline.metrics.counter("workers.requeued").value >= 1
            assert pipeline.metrics.counter("workers.deaths").value >= 1
        finally:
            pool.shutdown()

    def test_kill_after_scoring_still_exactly_one_verdict(
        self, benign_images, payload
    ):
        """Worker 0 scores, then dies before replying — the nastiest spot:
        the answer existed but never reached the dispatcher. The requeue
        must produce one verdict, not zero and not two."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.KILL_AFTER, 0)])
        try:
            reply = pool.submit([payload], request_id="req-lost-reply")
            assert len(reply["verdicts"]) == 1
            assert pipeline.metrics.counter("workers.requeued").value == 1
        finally:
            pool.shutdown()

    def test_sigkill_mid_request_from_outside(self, benign_images, payload):
        """A real SIGKILL against the scoring shard while the request is in
        flight: the slow fault pins the job on worker 0 long enough for the
        signal to land mid-score."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(
            pipeline, workers=2, faults=[Fault(FaultKind.SLOW, 0, seconds=30.0)]
        )
        try:
            result: dict = {}

            def submit():
                result["reply"] = pool.submit([payload], request_id="req-sigkill")

            caller = threading.Thread(target=submit)
            caller.start()
            # The job is in flight on worker 0 (it sleeps before scoring).
            wait_until(
                lambda: any(
                    s["worker_id"] == 0 and s["inflight"] == 1
                    for s in pool.worker_status()
                ),
                timeout_s=10.0,
                message="the job to land on worker 0",
            )
            os.kill(pool.pids()[0], signal.SIGKILL)
            caller.join(timeout=30.0)
            assert not caller.is_alive()
            assert len(result["reply"]["verdicts"]) == 1  # zero lost requests
        finally:
            pool.shutdown()

    def test_both_shards_dying_loses_the_request_cleanly(
        self, benign_images, payload
    ):
        """Requeue-once means exactly once: when the failover target dies
        too, the caller gets a clean DetectionError, not a hang."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.KILL, EVERY_SHARD)])
        try:
            with pytest.raises(DetectionError, match="lost twice|no healthy"):
                pool.submit([payload], request_id="req-doomed")
            assert pipeline.metrics.counter("workers.failed_jobs").value == 1
        finally:
            pool.shutdown()


class TestRespawn:
    def test_dead_shard_respawns_with_backoff_and_recovers(
        self, benign_images, payload
    ):
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.KILL, 0)])
        try:
            first_pid = pool.pids()[0]
            pool.submit([payload], request_id="req-1")  # kills worker 0
            wait_until(
                lambda: _restarts(pool, 0) >= 1 and pool.pids()[0] not in (None, first_pid),
                timeout_s=15.0,
                message="worker 0 to respawn with a new pid",
            )
            wait_until(
                lambda: all(s["up"] for s in pool.worker_status()),
                timeout_s=15.0,
                message="both shards up after respawn",
            )
            # Faults apply only to a shard's first incarnation: the
            # respawned worker 0 scores normally.
            reply = pool.submit([payload], request_id="req-2")
            assert len(reply["verdicts"]) == 1
            assert pipeline.metrics.counter("workers.restarts").value >= 1
        finally:
            pool.shutdown()

    def test_muted_shard_hits_liveness_deadline_and_is_recycled(
        self, benign_images, monkeypatch
    ):
        """A shard that sends one heartbeat then goes silent must be
        declared dead by the liveness deadline and respawned — without any
        job traffic to expose it."""
        monkeypatch.setattr(worker_module, "_LIVENESS_TIMEOUT_S", 0.5)
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=1, faults=[Fault(FaultKind.MUTE, 0)])
        try:
            wait_until(
                lambda: _restarts(pool, 0) >= 1,
                timeout_s=20.0,
                message="the mute shard to be recycled",
            )
            assert pipeline.metrics.counter("workers.deaths").value >= 1
        finally:
            pool.shutdown()

    def test_garbage_frames_recycle_the_shard_but_answer_the_request(
        self, benign_images, payload
    ):
        """A shard replying with unframed bytes can no longer pair results
        with jobs: the dispatcher recycles it and fails the job over."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.GARBAGE, 0)])
        try:
            reply = pool.submit([payload], request_id="req-garbage")
            assert len(reply["verdicts"]) == 1
            assert pipeline.metrics.counter("workers.garbage_frames").value >= 1
        finally:
            pool.shutdown()


class TestStdoutHygiene:
    def test_prints_in_a_shard_do_not_tear_frames(self, benign_images, attack_images):
        """A shard that prints to stdout before every score: its stdout
        carries frames only, so the print lands on stderr, the verdicts
        are the in-process ones bit for bit, and no frame is garbage."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=2, faults=[Fault(FaultKind.CHATTY, EVERY_SHARD)])
        try:
            for index, source in enumerate((benign_images[0], attack_images[0]) * 2):
                image = as_uint8(source)
                request_id = f"req-chatty-{index}"
                reply = pool.submit([encode_image_payload(image)], request_id=request_id)
                local = verdict_payload(
                    pipeline.submit(image, image_id=request_id),
                    request_id=request_id,
                    latency_ms=0.0,
                )
                remote = dict(reply["verdicts"][0])
                remote["latency_ms"] = 0.0  # only timing may differ
                assert remote == local
            assert pipeline.metrics.counter("workers.garbage_frames").value == 0
            assert pipeline.metrics.counter("workers.deaths").value == 0
        finally:
            pool.shutdown()


class TestMidFrameKill:
    def test_kill_mid_frame_requeues_once_and_answers(self, benign_images, payload):
        """Worker 0 dies half-way through writing its reply to the pipe,
        after the length header that promised the whole frame. The torn
        frame must surface as an end of file (never as data), the shard
        recycled, and the job requeued exactly once."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(
            pipeline, workers=2, faults=[Fault(FaultKind.KILL_MID_FRAME, 0)]
        )
        try:
            reply = pool.submit([payload], request_id="req-torn-frame")
            assert len(reply["verdicts"]) == 1
            assert reply["verdicts"][0]["request_id"] == "req-torn-frame"
            assert pipeline.metrics.counter("workers.requeued").value == 1
            assert pipeline.metrics.counter("workers.deaths").value >= 1
        finally:
            pool.shutdown()

    def test_frozen_mid_frame_is_recycled_at_the_job_deadline(
        self, benign_images, payload, monkeypatch
    ):
        """Worker 0 writes half its reply and hangs with its pipe open, so
        no end of file comes. The job deadline must still recycle it while
        the frame is half read, and requeue the job exactly once."""
        monkeypatch.setattr(worker_module, "_JOB_TIMEOUT_S", 2.0)
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(
            pipeline, workers=2, faults=[Fault(FaultKind.STALL_MID_FRAME, 0)]
        )
        try:
            wait_until(
                lambda: all(status["ready"] for status in pool.worker_status()),
                timeout_s=30.0,
                message="both shards to boot",
            )
            reply = pool.submit([payload], request_id="req-frozen-frame")
            assert reply["verdicts"][0]["request_id"] == "req-frozen-frame"
            assert pipeline.metrics.counter("workers.requeued").value == 1
            wait_until(
                lambda: _restarts(pool, 0) >= 1,
                timeout_s=30.0,
                message="worker 0 to respawn",
            )
        finally:
            pool.shutdown()


class TestShutdownBound:
    def test_shutdown_does_not_wait_on_a_blocked_sender(self, benign_images, monkeypatch):
        """A dispatch thread writing a frame larger than the pipe buffer
        to a busy shard holds that shard's send lock until the shard reads
        the frame. Shutdown must not wait for it past the drain deadline:
        it kills the shard, the blocked send fails, and both callers get
        an answer."""
        drain_timeout_s = 0.5
        monkeypatch.setattr(worker_module, "_DRAIN_TIMEOUT_S", drain_timeout_s)
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=1, faults=[Fault(FaultKind.SLOW, 0, seconds=3.0)])
        pids = list(pool.pids().values())
        big = b"\x00" * (2 << 20)  # never decoded: the shard dies first
        returned: list[str] = []

        def submit(request_id: str) -> None:
            try:
                pool.submit([big], request_id=request_id)
            except DetectionError:
                pass
            returned.append(request_id)

        callers = []
        try:
            wait_until(
                lambda: pool.worker_status()[0]["ready"],
                timeout_s=60.0,
                message="the shard's first heartbeat",
            )
            for request_id in ("job-a", "job-b"):
                caller = threading.Thread(target=submit, args=(request_id,))
                caller.start()
                callers.append(caller)
                wait_until(
                    lambda: pool.worker_status()[0]["inflight"] == len(callers),
                    timeout_s=30.0,
                    message=f"{request_id} to be dispatched",
                )
            # Job A sits in the slow shard's score step; job B's send is
            # blocked on the full pipe buffer, holding the send lock.
            wait_until(
                lambda: pool._workers[0].send_lock.locked(),
                timeout_s=10.0,
                message="job B's sender to hold the send lock",
            )
            started = time.monotonic()
            pool.shutdown()
            elapsed = time.monotonic() - started
        finally:
            pool.shutdown()
            for caller in callers:
                caller.join(timeout=30.0)
        assert elapsed < drain_timeout_s + 1.0, f"shutdown took {elapsed:.2f}s"
        assert sorted(returned) == ["job-a", "job-b"]
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_shutdown_answers_the_job_in_flight(self, benign_images, payload):
        """A job the shard is scoring when shutdown starts is answered,
        not failed as shut down mid-request: shutdown joins the shard's
        supervisor, which reads the last answer, before it fails what is
        left."""
        pipeline = calibrated_pipeline(benign_images)
        pool = make_pool(pipeline, workers=1, faults=[Fault(FaultKind.SLOW, 0, seconds=0.3)])
        result: dict = {}

        def submit() -> None:
            try:
                result["reply"] = pool.submit([payload], request_id="req-drained")
            except DetectionError as exc:
                result["error"] = exc

        caller = threading.Thread(target=submit)
        caller.start()
        try:
            wait_until(
                lambda: pool.worker_status()[0]["inflight"] == 1,
                timeout_s=30.0,
                message="the job to be dispatched",
            )
        finally:
            pool.shutdown()
            caller.join(timeout=30.0)
        assert not caller.is_alive()
        assert "error" not in result, result.get("error")
        assert result["reply"]["verdicts"][0]["request_id"] == "req-drained"


def _read_http_response(sock: socket.socket) -> bytes:
    """Read one HTTP response (head + Content-Length body) off a raw socket."""
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
    return head + b"\r\n\r\n" + rest


class TestEventLoopFaults:
    """Hostile connections against the selectors front end. Every fault
    here wedges or kills sockets, never requests: the contract is that no
    *accepted* request is lost and healthy clients never stall."""

    @pytest.fixture
    def loop_server(self, benign_images):
        pipeline = calibrated_pipeline(benign_images)
        server = DetectionServer(pipeline, ServerConfig(port=0))
        server.start()
        yield server, pipeline
        server.shutdown()

    def _detect_request(self, payload: bytes) -> bytes:
        head = (
            "POST /v1/detect HTTP/1.1\r\n"
            "Host: faults.test\r\n"
            "Content-Type: application/octet-stream\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        return head.encode("ascii") + payload

    def test_slow_loris_herd_does_not_starve_healthy_clients(
        self, loop_server, benign_images
    ):
        """100 sockets trickling a request head byte-by-byte occupy
        buffers, not threads — and a healthy client's request completes
        while the herd hangs."""
        server, pipeline = loop_server
        body = encode_image_payload(as_uint8(benign_images[0]))
        herd: list[socket.socket] = []
        try:
            for _ in range(100):
                sock = socket.create_connection(server.address, timeout=10.0)
                sock.sendall(b"POST /v1/detect HTT")  # head, never finished
                herd.append(sock)
            wait_until(
                lambda: pipeline.metrics.gauge("eventloop.open_connections").value
                >= 100,
                timeout_s=10.0,
                message="the loop to be holding the whole herd",
            )
            threads_with_herd = threading.active_count()
            started = time.monotonic()
            with DetectionClient(*server.address, max_retries=0) as client:
                verdict = client.detect(payload=body, request_id="healthy-1")
            elapsed = time.monotonic() - started
            assert verdict.request_id == "healthy-1"
            assert elapsed < 10.0, f"healthy client stalled {elapsed:.1f}s"
            # Another trickled byte per attacker: still alive, still cheap.
            for sock in herd:
                sock.sendall(b"P")
            assert threading.active_count() - threads_with_herd <= 5, (
                "held connections must not cost threads"
            )
        finally:
            for sock in herd:
                sock.close()

    def test_reset_storm_during_keep_alive_reuse(self, loop_server, benign_images):
        """Twenty clients score once over keep-alive, start a second
        request, then slam RST mid-stream. Every accepted request was
        answered, the loop survives, and fresh clients still score."""
        server, pipeline = loop_server
        payload = encode_image_payload(as_uint8(benign_images[0]))
        request = self._detect_request(payload)
        answered = 0
        for _ in range(20):
            sock = socket.create_connection(server.address, timeout=30.0)
            try:
                sock.sendall(request)
                response = _read_http_response(sock)
                assert response.startswith(b"HTTP/1.1 200 ")
                answered += 1
                # Second request, cut off half-way, then RST (SO_LINGER 0
                # turns close() into a reset, not a FIN).
                sock.sendall(request[: len(request) // 2])
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            finally:
                sock.close()
        assert answered == 20  # zero lost accepted requests
        with DetectionClient(*server.address, max_retries=0) as client:
            verdict = client.detect(payload=payload, request_id="post-storm")
        assert verdict.request_id == "post-storm"
        wait_until(
            lambda: pipeline.metrics.gauge("eventloop.open_connections").value == 0,
            timeout_s=10.0,
            message="the loop to reap every reset connection",
        )

    def test_half_closed_socket_still_gets_its_response(
        self, loop_server, benign_images
    ):
        """A client that sends its whole request then shuts down its write
        side (FIN) must still receive the verdict: half-closed is not
        closed."""
        server, _ = loop_server
        payload = encode_image_payload(as_uint8(benign_images[0]))
        with socket.create_connection(server.address, timeout=30.0) as sock:
            sock.sendall(self._detect_request(payload))
            sock.shutdown(socket.SHUT_WR)
            response = _read_http_response(sock)
        assert response.startswith(b"HTTP/1.1 200 ")

    def test_half_closed_partial_request_is_reaped(self, loop_server):
        """A FIN after an incomplete head can never become a request; the
        loop drops the connection instead of holding it forever."""
        server, pipeline = loop_server
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(b"POST /v1/detect HTT")
            wait_until(
                lambda: pipeline.metrics.gauge("eventloop.open_connections").value
                >= 1,
                timeout_s=10.0,
                message="the connection to be registered",
            )
            sock.shutdown(socket.SHUT_WR)
            wait_until(
                lambda: pipeline.metrics.gauge("eventloop.open_connections").value
                == 0,
                timeout_s=10.0,
                message="the half-closed partial request to be reaped",
            )


class TestServerUnderFaults:
    def test_all_shards_down_is_a_clean_503_then_recovery(
        self, benign_images, monkeypatch
    ):
        """End to end over HTTP: the only shard crashes on the first
        request (503, not a hang or a 500), respawns under backoff, and
        the service answers again."""
        pipeline = calibrated_pipeline(benign_images)
        monkeypatch.setattr(
            WorkerPool, "shard_command", faulty_shard_command([Fault(FaultKind.KILL, 0)])
        )
        server = DetectionServer(pipeline, ServerConfig(port=0, workers=1))
        server.start()
        body = encode_image_payload(as_uint8(benign_images[0]))
        try:
            with DetectionClient(*server.address, max_retries=0) as probe:
                probe.wait_ready(timeout_s=30.0)
                status, _, _ = probe._request(
                    "POST",
                    "/v1/detect",
                    body=body,
                    headers={"Content-Type": "application/octet-stream"},
                )
                assert status == 503  # lost to the crash, reported cleanly
            wait_until(
                lambda: server.worker_pool.healthy_count == 1
                and _restarts(server.worker_pool, 0) >= 1,
                timeout_s=20.0,
                message="the shard to respawn",
            )
            with DetectionClient(*server.address) as client:
                verdict = client.detect(payload=body, request_id="req-recovered")
            assert verdict.request_id == "req-recovered"
            # The lost request never reached the canonical accounting; the
            # recovered one did, exactly once.
            assert pipeline.stats.submitted == 1
        finally:
            server.shutdown()

    def test_health_reports_worker_outage(self, benign_images, monkeypatch):
        pipeline = calibrated_pipeline(benign_images)
        monkeypatch.setattr(
            WorkerPool, "shard_command", faulty_shard_command([Fault(FaultKind.MUTE, 0)])
        )
        monkeypatch.setattr(worker_module, "_LIVENESS_TIMEOUT_S", 0.5)
        # Backoff far past the test horizon: the outage stays observable
        # instead of healing under the assertion.
        monkeypatch.setattr(worker_module, "_RESTART_BACKOFF_BASE_S", 60.0)
        monkeypatch.setattr(worker_module, "_RESTART_BACKOFF_MAX_S", 60.0)
        server = DetectionServer(pipeline, ServerConfig(port=0, workers=1))
        server.start()
        try:
            wait_until(
                lambda: server.worker_pool.healthy_count == 0,
                timeout_s=20.0,
                message="the mute shard to be declared dead",
            )
            payload = server.health()
            assert payload["ready"] is False
            workers = payload["workers"]
            assert set(workers) == {"configured", "healthy", "pids"}
            assert workers["configured"] == 1
            assert workers["healthy"] == 0
        finally:
            server.shutdown()
