"""Stdlib-only HTTP detection service around a :class:`ProtectedPipeline`.

The paper positions Decamouflage as an online defense sitting in front of
a model's resize step; this module puts that defense on the network with
nothing beyond the standard library:

* ``POST /v1/detect`` — raw PNG/netpbm body in, JSON verdict out
  (per-detector scores, thresholds, the pipeline action).
* ``POST /v1/detect/batch`` — length-prefixed batch body
  (:func:`repro.serving.wire.pack_batch`), JSON list of verdicts.
* ``GET /healthz`` — readiness: calibrated pipeline, not draining, and the
  admission queue below saturation.
* ``GET /metrics`` — Prometheus text exposition rendered from the
  pipeline's :class:`~repro.observability.Metrics`, including the
  operator-cache and shared-analysis memo hit rates.

Every detect request passes through a bounded admission queue: up to
``max_active`` requests score concurrently, up to ``queue_depth`` more may
wait, and each waiter carries a deadline. A full queue answers ``429``
with ``Retry-After``; a deadline overrun answers ``503``. SIGTERM (or
:meth:`DetectionServer.shutdown`) drains gracefully — the listener stops
accepting, in-flight requests finish, and the audit log is flushed, so an
accepted request is never dropped.

Every detect request runs one job function,
:func:`repro.serving.workers.score_job` (decode, screen, serialize), in
the dispatcher when ``workers=0`` or on a shard otherwise, and then
exactly one :meth:`ProtectedPipeline.record` call here, which assigns the
audit sequence (in completion order), counts ``pipeline.stats`` and
appends the audit records.

Every request carries an ``X-Request-Id`` (client-provided or generated)
that is echoed in the response, used as the pipeline ``image_id`` (and so
threaded into audit records), and printed on the server's log lines.

Usage::

    pipeline = ProtectedPipeline((32, 32))
    pipeline.calibrate(benign_holdout)
    server = DetectionServer(pipeline, ServerConfig(port=0))
    server.start()                       # background thread
    host, port = server.address
    ...
    server.shutdown()                    # graceful drain
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import uuid
from dataclasses import dataclass

from repro.errors import CodecError, DetectionError, ImageError, ReproError
from repro.observability import Metrics, render_process_metrics, render_prometheus
from repro.serving.eventloop import EventLoopFrontend
from repro.serving.pipeline import ProtectedPipeline, cache_stats
from repro.serving.wire import METRICS_CONTENT_TYPE, unpack_batch
from repro.serving.workers import WorkerPool, WorkerPoolConfig, WorkerSpec, score_job

__all__ = ["ServerConfig", "DetectionServer", "AdmissionQueue", "WireResponse"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for :class:`DetectionServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read the real one from ``server.address``.
    port: int = 8080
    #: Requests scoring concurrently; the rest wait in the admission queue.
    max_active: int = 4
    #: Waiting-room capacity. A full room answers 429 + Retry-After.
    queue_depth: int = 16
    #: Per-request admission deadline; overruns answer 503.
    deadline_ms: float = 2000.0
    #: Advisory client back-off on 429/503, seconds.
    retry_after_s: float = 1.0
    #: Largest accepted request body; beyond it answers 413.
    max_body_bytes: int = 64 * 1024 * 1024
    #: Print one log line per request to stderr.
    verbose: bool = False
    #: Scoring shard processes (:mod:`repro.serving.workers`); 0 runs the
    #: detect job in the dispatcher.
    workers: int = 0
    #: Shard lifecycle knobs, forwarded to :class:`WorkerPoolConfig`. The
    #: wedged-job timeout stays at that class's ``job_timeout_s`` (30 s).
    worker_heartbeat_interval_s: float = 0.25
    worker_liveness_timeout_s: float = 10.0
    worker_restart_backoff_base_s: float = 0.1
    worker_restart_backoff_max_s: float = 5.0


@dataclass(frozen=True)
class WireResponse:
    """One HTTP response, fully decided by the request core.

    The front end only serializes it
    (:func:`repro.serving.eventloop.serialize_response`). ``close`` asks
    the front end to drop the connection after the write — set while
    draining and on body-framing errors (411/413/bad Content-Length),
    where unread body bytes would desync a keep-alive stream.
    """

    status: int
    headers: tuple[tuple[str, str], ...]
    body: bytes
    close: bool = False


class _Saturated(ReproError):
    """Admission queue waiting room is full."""


class _DeadlineExceeded(ReproError):
    """A request waited past its admission deadline."""


class AdmissionQueue:
    """Bounded two-stage admission control: active slots + waiting room.

    ``acquire`` either takes an active slot immediately, waits (bounded by
    the deadline) in the waiting room, or fails fast when the room is
    full. The current occupancy is mirrored into the ``server.in_flight``
    and ``server.queue_depth`` gauges on every transition.
    """

    def __init__(self, max_active: int, queue_depth: int, metrics: Metrics) -> None:
        if max_active < 1:
            raise ReproError(f"max_active must be >= 1, got {max_active}")
        if queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {queue_depth}")
        self.max_active = max_active
        self.queue_depth = queue_depth
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self._in_flight_gauge = metrics.gauge("server.in_flight")
        self._queue_gauge = metrics.gauge("server.queue_depth")

    @property
    def waiting(self) -> int:
        return self._waiting

    def acquire(self, deadline_s: float) -> None:
        deadline = time.monotonic() + deadline_s
        with self._cond:
            if self._active >= self.max_active:
                if self._waiting >= self.queue_depth:
                    raise _Saturated(
                        f"admission queue full ({self._waiting} waiting)"
                    )
                self._waiting += 1
                self._queue_gauge.set(self._waiting)
                try:
                    while self._active >= self.max_active:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise _DeadlineExceeded(
                                f"gave up after {deadline_s * 1000:.0f} ms in queue"
                            )
                        self._cond.wait(remaining)
                finally:
                    self._waiting -= 1
                    self._queue_gauge.set(self._waiting)
            self._active += 1
            self._in_flight_gauge.set(self._active)

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            self._in_flight_gauge.set(self._active)
            self._cond.notify()

    def quiesced(self) -> bool:
        with self._cond:
            return self._active == 0 and self._waiting == 0


class DetectionServer:
    """The detection service: the request core plus lifecycle.

    Connections live on one
    :class:`~repro.serving.eventloop.EventLoopFrontend` selector thread,
    which parses each request and hands it to :meth:`handle_http_request`.
    """

    def __init__(
        self, pipeline: ProtectedPipeline, config: ServerConfig | None = None
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServerConfig()
        self.metrics = pipeline.metrics
        self.admission = AdmissionQueue(
            self.config.max_active, self.config.queue_depth, self.metrics
        )
        self.draining = False
        self._frontend = EventLoopFrontend(self)
        self._shutdown_lock = threading.Lock()
        self._closed = False
        self._pool: WorkerPool | None = None

    # -- request core ---------------------------------------------------------

    def handle_http_request(
        self, method: str, path: str, headers, body: bytes, *, requestline: str = ""
    ) -> WireResponse:
        """Decide one request end-to-end: routing, admission, scoring,
        error mapping, counters, and logging.

        ``headers`` is any mapping with ``.get`` (an ``email.message``
        object); ``body`` is the request body the front end buffered, empty
        when the Content-Length checks below will refuse the request.
        """
        request_id = (headers.get("X-Request-Id") or "").strip() or uuid.uuid4().hex[:12]
        if method == "GET":
            return self._handle_get(path, request_id, requestline)
        return self._handle_post(path, headers, body, request_id, requestline)

    def _handle_get(self, path: str, request_id: str, requestline: str) -> WireResponse:
        if path == "/healthz":
            payload = self.health()
            status = 200 if payload["ready"] else 503
            return self._json_response(status, payload, request_id=request_id)
        if path == "/metrics":
            return self._wire_response(
                200,
                self.render_metrics().encode("utf-8"),
                content_type=METRICS_CONTENT_TYPE,
                request_id=request_id,
            )
        return self._error_response(404, f"unknown path {path}", request_id, requestline)

    def _handle_post(
        self, path: str, headers, body: bytes, request_id: str, requestline: str
    ) -> WireResponse:
        if path not in ("/v1/detect", "/v1/detect/batch"):
            return self._error_response(
                404, f"unknown path {path}", request_id, requestline
            )
        self.metrics.counter("server.requests").add(1)
        if self.draining:
            return self._error_response(
                503,
                "server is draining",
                request_id,
                requestline,
                retry_after_s=self.config.retry_after_s,
            )
        # Body-framing refusals close the connection: the unread body bytes
        # would be parsed as the next request on a reused stream.
        raw_length = headers.get("Content-Length")
        if raw_length is None:
            return self._error_response(
                411, "Content-Length required", request_id, requestline, close=True
            )
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            return self._error_response(
                400,
                f"invalid Content-Length {raw_length.strip()!r}",
                request_id,
                requestline,
                close=True,
            )
        if length > self.config.max_body_bytes:
            return self._error_response(
                413,
                f"body of {length} bytes exceeds limit",
                request_id,
                requestline,
                close=True,
            )
        try:
            self.admission.acquire(self.config.deadline_ms / 1000.0)
        except _Saturated as exc:
            return self._error_response(
                429,
                str(exc),
                request_id,
                requestline,
                retry_after_s=self.config.retry_after_s,
            )
        except _DeadlineExceeded as exc:
            return self._error_response(
                503,
                str(exc),
                request_id,
                requestline,
                retry_after_s=self.config.retry_after_s,
            )
        try:
            with self.metrics.timer("server.request"):
                return self._detect_response(
                    path == "/v1/detect/batch", body, request_id, requestline
                )
        finally:
            self.admission.release()

    def saturated_response(self, headers, *, requestline: str = "") -> WireResponse:
        """Fail-fast 429 for the event loop's saturation short-circuit —
        the answer a dispatch-pool thread would have produced had it tried
        (and failed) to enter the full waiting room, without the thread."""
        request_id = (headers.get("X-Request-Id") or "").strip() or uuid.uuid4().hex[:12]
        self.metrics.counter("server.requests").add(1)
        if self.draining:
            return self._error_response(
                503,
                "server is draining",
                request_id,
                requestline,
                retry_after_s=self.config.retry_after_s,
            )
        return self._error_response(
            429,
            f"admission queue full ({self.admission.waiting} waiting)",
            request_id,
            requestline,
            retry_after_s=self.config.retry_after_s,
        )

    def _detect_response(
        self, batch: bool, body: bytes, request_id: str, requestline: str
    ) -> WireResponse:
        start = time.perf_counter()
        try:
            verdicts = self._score(batch, body, request_id)
        except (CodecError, ImageError) as exc:
            return self._error_response(400, str(exc), request_id, requestline)
        except DetectionError as exc:
            return self._error_response(503, str(exc), request_id, requestline)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for verdict in verdicts:
            verdict["latency_ms"] = elapsed_ms
        if batch:
            self._log(f'"{requestline}" 200 batch={len(verdicts)} [{request_id}]')
            return self._json_response(
                200, {"request_id": request_id, "results": verdicts}, request_id=request_id
            )
        self._log(f'"{requestline}" 200 {verdicts[0]["verdict"]} [{request_id}]')
        return self._json_response(200, verdicts[0], request_id=request_id)

    def _wire_response(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        request_id: str | None = None,
        retry_after_s: float | None = None,
        close: bool = False,
    ) -> WireResponse:
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ]
        if request_id is not None:
            headers.append(("X-Request-Id", request_id))
        if retry_after_s is not None:
            headers.append(("Retry-After", f"{max(1, round(retry_after_s))}"))
        if self.draining:
            close = True
        if close:
            headers.append(("Connection", "close"))
        self.metrics.counter(f"server.responses.{status}").add(1)
        return WireResponse(status, tuple(headers), body, close)

    def _json_response(self, status: int, payload, **kwargs) -> WireResponse:
        return self._wire_response(
            status, json.dumps(payload).encode("utf-8"), **kwargs
        )

    def _error_response(
        self,
        status: int,
        message: str,
        request_id: str,
        requestline: str = "",
        **kwargs,
    ) -> WireResponse:
        self._log(f'"{requestline}" {status} {message} [{request_id}]')
        return self._json_response(
            status,
            {"error": message, "request_id": request_id},
            request_id=request_id,
            **kwargs,
        )

    def _log(self, line: str) -> None:
        if self.config.verbose:
            print(line, file=sys.stderr, flush=True)

    # -- scoring (in-process or sharded) -------------------------------------

    @property
    def worker_pool(self) -> WorkerPool | None:
        """The shard pool when serving with ``workers > 0``; else None."""
        return self._pool

    def _score(self, batch: bool, body: bytes, request_id: str) -> list[dict]:
        """Run one detect job, in this process or on a shard, then record
        its verdicts: the only place the server sequences, counts and
        audits."""
        payloads = unpack_batch(body, origin=request_id) if batch else [body]
        kind = "batch" if batch else "single"
        if self._pool is None:
            reply = score_job(self.pipeline, kind, request_id, payloads)
        else:
            reply = self._pool.submit(payloads, request_id=request_id, batch=batch)
        self.pipeline.record(reply["verdicts"], reply["quarantine_paths"])
        return reply["verdicts"]

    # -- introspection -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` — the real port even when configured as 0."""
        return self._frontend.address

    def health(self) -> dict:
        saturated = self.admission.waiting >= self.config.queue_depth
        calibrated = self.pipeline.is_calibrated
        payload = {
            "ready": calibrated and not self.draining and not saturated,
            "calibrated": calibrated,
            "draining": self.draining,
            "queue_saturated": saturated,
            # The dispatcher's own pid, so external tooling can watch
            # /proc/<pid> without guessing.
            "pid": os.getpid(),
        }
        pool = self._pool
        if pool is not None:
            healthy = pool.healthy_count
            payload["workers"] = {
                "configured": self.config.workers,
                "healthy": healthy,
                "pids": pool.pids(),
            }
            # No shard can answer -> not ready, even though the HTTP
            # listener itself is fine.
            payload["ready"] = payload["ready"] and healthy > 0
        return payload

    def render_metrics(self) -> str:
        """Prometheus text for ``GET /metrics``: the pipeline registry plus
        point-in-time pipeline action counts, the operator/plan/geometry
        cache stats, and — when sharded — per-worker families labeled by
        ``worker_id``."""
        extra = {
            f"pipeline.{name}": float(value)
            for name, value in self.pipeline.stats.counts().items()
        }
        for family, stats in cache_stats().items():
            for key, value in stats.items():
                extra[f"{family}.{key}"] = float(value)
        labeled = self._pool.labeled_families() if self._pool is not None else {}
        body = render_prometheus(
            self.metrics,
            extra_gauges=extra,
            labeled_gauges=labeled.get("gauges"),
            labeled_counters=labeled.get("counters"),
        )
        # Standard (unprefixed) process self-metrics for the dispatcher:
        # process_cpu_seconds_total, process_resident_memory_bytes,
        # process_open_fds. Empty off-Linux.
        return body + render_process_metrics()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Serve on a background thread (tests, embedding); returns at once.

        Guarded by the shutdown lock: ``start`` and ``shutdown`` race on
        ``_serve_thread``, and starting after a drain would leak a thread
        spinning on a closed socket.
        """
        with self._shutdown_lock:
            if self._closed:
                raise ReproError("server is closed; create a new DetectionServer")
            self._ensure_workers_locked()
            self._frontend.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        with self._shutdown_lock:
            if self._closed:
                raise ReproError("server is closed; create a new DetectionServer")
            self._ensure_workers_locked()
        self._frontend.serve_forever()

    def ensure_workers(self) -> None:
        """Spawn the shard pool now (idempotent; normally lazy at serve).

        Lets a caller learn the worker pids before the accept loop starts —
        the CLI prints them so an operator (or the CI smoke test) can
        observe crash recovery from outside.
        """
        with self._shutdown_lock:
            if self._closed:
                raise ReproError("server is closed; create a new DetectionServer")
            self._ensure_workers_locked()

    def _ensure_workers_locked(self) -> None:
        """Spawn the shard pool on first serve (caller holds the lock).

        Lazy so construction order stays flexible: the pipeline must be
        calibrated by the time the server starts serving — the shard spec
        snapshots the calibrated detectors — not when the server object is
        created.
        """
        if self.config.workers <= 0 or self._pool is not None:
            return
        spec = WorkerSpec.from_pipeline(self.pipeline)
        pool_config = WorkerPoolConfig(
            workers=self.config.workers,
            heartbeat_interval_s=self.config.worker_heartbeat_interval_s,
            liveness_timeout_s=self.config.worker_liveness_timeout_s,
            restart_backoff_base_s=self.config.worker_restart_backoff_base_s,
            restart_backoff_max_s=self.config.worker_restart_backoff_max_s,
        )
        self._pool = WorkerPool(spec, pool_config, metrics=self.metrics)
        self._pool.start()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _drain(signum, frame) -> None:  # pragma: no cover - signal path
            threading.Thread(
                target=self.shutdown, name="detection-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    def shutdown(self) -> None:  # analyze: ignore[io-under-lock]
        """Graceful drain: stop accepting, finish in-flight, flush audit.

        Idempotent and safe to call from any thread except a dispatch-pool
        thread (it waits for them). Joining and flushing *while holding*
        the shutdown lock is the point — concurrent shutdown() calls must
        not return before the drain completes — hence the analyzer
        suppression.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self.draining = True
            # The loop stops accepting, finishes writing every in-flight
            # response (bounded by the drain deadline), and only then
            # releases its dispatch pool.
            self._frontend.stop()
            # The front end is drained, so no job is in flight: stop the
            # shards before the final audit flush.
            if self._pool is not None:
                self._pool.shutdown()
            if self.pipeline.audit_log is not None:
                self.pipeline.audit_log.flush()
            self._closed = True
