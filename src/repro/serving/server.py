"""Stdlib-only HTTP detection service around a :class:`ProtectedPipeline`.

The paper positions Decamouflage as an online defense sitting in front of
a model's resize step; this module puts that defense on the network with
nothing beyond the standard library:

* ``POST /v1/detect`` — raw PNG/netpbm body in, JSON verdict out
  (per-detector scores, thresholds, the pipeline action).
* ``POST /v1/detect/batch`` — length-prefixed batch body
  (:func:`repro.serving.wire.pack_batch`), JSON list of verdicts.
* ``GET /healthz`` — readiness: calibrated pipeline, not draining, and
  room for one more detect request.
* ``GET /metrics`` — Prometheus text exposition rendered from the
  pipeline's :class:`~repro.observability.Metrics`, including the
  operator-cache and shared-analysis memo hit rates.

The event loop (:mod:`repro.serving.eventloop`) is the only admission
gate: up to ``max_active`` detect requests score concurrently, up to
``queue_depth`` more wait in its deque, and each waiter carries a
deadline. A full waiting room answers ``429`` with ``Retry-After``; a
deadline overrun answers ``503``. Every refusal goes through
:meth:`DetectionServer.refuse`. SIGTERM (or
:meth:`DetectionServer.shutdown`) drains gracefully — the listener stops
accepting, admitted requests finish, and the audit log is flushed, so an
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
from repro.observability import render_process_metrics, render_prometheus
from repro.serving.eventloop import DETECT_PATHS, EventLoopFrontend
from repro.serving.pipeline import ProtectedPipeline, cache_stats
from repro.serving.wire import METRICS_CONTENT_TYPE, unpack_batch
from repro.serving.workers import WorkerPool, WorkerPoolConfig, WorkerSpec, score_job

__all__ = ["ServerConfig", "DetectionServer", "WireResponse"]

#: Advisory client back-off on 429/503, whole seconds (``Retry-After``).
_RETRY_AFTER_S = 1


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for :class:`DetectionServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read the real one from ``server.address``.
    port: int = 8080
    #: Detect requests scoring concurrently; the rest wait in the event
    #: loop's waiting room.
    max_active: int = 4
    #: Waiting-room capacity. A full room answers 429 + Retry-After.
    queue_depth: int = 16
    #: Per-request admission deadline; overruns answer 503.
    deadline_ms: float = 2000.0
    #: Print one log line per request to stderr.
    verbose: bool = False
    #: Scoring shard processes (:mod:`repro.serving.workers`); 0 runs the
    #: detect job in the dispatcher. The shard lifecycle keeps
    #: :class:`WorkerPoolConfig`'s defaults.
    workers: int = 0


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
        if self.config.max_active < 1:
            raise ReproError(f"max_active must be >= 1, got {self.config.max_active}")
        if self.config.queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {self.config.queue_depth}")
        self.metrics = pipeline.metrics
        self.draining = False
        self._frontend = EventLoopFrontend(self)
        self._shutdown_lock = threading.Lock()
        self._closed = False
        self._pool: WorkerPool | None = None

    # -- request core ---------------------------------------------------------

    def handle_http_request(
        self, method: str, path: str, headers, body: bytes, *, requestline: str = ""
    ) -> WireResponse:
        """Answer one request the front end dispatched: a GET, a POST to an
        unknown path, or a detect request holding an admission slot, whose
        framing the front end already checked. Routing, scoring, error
        mapping, counters, and logging.

        ``headers`` is any mapping with ``.get`` (an ``email.message``
        object); ``body`` is the request body the front end buffered.
        """
        request_id = self._request_id(headers)
        if method == "GET":
            return self._handle_get(path, request_id, requestline)
        if path not in DETECT_PATHS:
            return self._error_response(
                404, f"unknown path {path}", request_id, requestline
            )
        self.metrics.counter("server.requests").add(1)
        with self.metrics.timer("server.request"):
            return self._detect_response(
                path == "/v1/detect/batch", body, request_id, requestline
            )

    def refuse(
        self,
        status: int,
        message: str,
        headers,
        *,
        requestline: str = "",
        close: bool = False,
    ) -> WireResponse:
        """The one refusal path for detect requests the front end turns
        away unscored: draining (503), body framing (411/400/413), a full
        waiting room (429), a queue deadline (503).

        Counts the request in ``server.requests``. Framing refusals pass
        ``close``: the unread body bytes would be parsed as the next
        request on a reused stream. The others are transient and carry
        ``Retry-After``.
        """
        self.metrics.counter("server.requests").add(1)
        return self._error_response(
            status,
            message,
            self._request_id(headers),
            requestline,
            retry_after=not close,
            close=close,
        )

    @staticmethod
    def _request_id(headers) -> str:
        return (headers.get("X-Request-Id") or "").strip() or uuid.uuid4().hex[:12]

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

    def _detect_response(
        self, batch: bool, body: bytes, request_id: str, requestline: str
    ) -> WireResponse:
        start = time.perf_counter()
        try:
            verdicts = self._score(batch, body, request_id)
        except (CodecError, ImageError) as exc:
            return self._error_response(400, str(exc), request_id, requestline)
        except DetectionError as exc:
            return self._server_error(503, "scoring unavailable", exc, request_id, requestline)
        except Exception as exc:  # answered 500; the text goes to stderr only
            return self._server_error(500, "internal error", exc, request_id, requestline)
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
        retry_after: bool = False,
        close: bool = False,
    ) -> WireResponse:
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ]
        if request_id is not None:
            headers.append(("X-Request-Id", request_id))
        if retry_after:
            headers.append(("Retry-After", str(_RETRY_AFTER_S)))
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

    def _server_error(
        self,
        status: int,
        reason: str,
        exc: Exception,
        request_id: str,
        requestline: str,
    ) -> WireResponse:
        """A 5xx answer. The body carries a fixed *reason* and the request
        id; the exception's type and text, which can name server paths, go
        only to one stderr line keyed by the request id."""
        print(
            f'"{requestline}" {status} {reason} [{request_id}] '
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
            flush=True,
        )
        return self._json_response(
            status, {"error": reason, "request_id": request_id}, request_id=request_id
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
        # Saturated: the next detect request would get 429 — every active
        # slot is taken and the waiting room is full.
        saturated = (
            self.metrics.gauge("server.in_flight").value >= self.config.max_active
            and self.metrics.gauge("server.queue_depth").value >= self.config.queue_depth
        )
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
        pool_config = WorkerPoolConfig(workers=self.config.workers)
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
