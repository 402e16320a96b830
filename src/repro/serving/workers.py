"""Process-based scoring shards behind the detection server.

Scoring in-process behind a thread pool leaves one Python process
GIL-bound on SSIM/FFT math. This module shards scoring across
``multiprocessing`` worker processes, each owning its own calibrated
:class:`~repro.serving.pipeline.ProtectedPipeline`, while the server's
dispatch threads become thin dispatchers speaking the
:mod:`repro.serving.wire` framing:

* :class:`WorkerSpec` — the picklable recipe for one shard's pipeline,
  captured once from the parent's calibrated pipeline (the detectors are
  shipped with their thresholds, so shard verdicts are bit-for-bit what
  the parent would compute).
* :class:`WorkerPool` — spawns N shards, routes jobs to the least-loaded
  healthy one, and owns the lifecycle: per-worker heartbeats with a
  liveness deadline, crash detection, automatic respawn under bounded
  exponential backoff, and requeue-exactly-once failover for jobs that
  were in flight on a dead shard (a second failure answers 503).
* :func:`score_job` — the one detect job: decode, screen, serialize the
  verdicts. Shards run it; a server without shards runs it in the
  dispatcher.
* :class:`Shard` — the shard process: run jobs, reply; send a heartbeat
  whenever idle for one interval.

Every frame rides the shard's ``multiprocessing`` pipe whole: jobs, stop
frames, results and heartbeats alike. A shard killed part-way through a
frame leaves the dispatcher an end of file, and the jobs it held are
requeued once.

Division of labour: shards screen and write quarantine artifacts (they
hold the memoized analysis intermediates) and never record; the
dispatcher passes every reply to :meth:`ProtectedPipeline.record`, which
keeps ``pipeline.stats``, sequence numbers and JSONL audit records — the
same call a server without shards makes.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import select
import threading
import time
from dataclasses import dataclass

from repro.core.ensemble import DetectionEnsemble
from repro.errors import CodecError, DetectionError, ImageError, ReproError
from repro.imaging.plans import (
    geometry_cache_keys,
    get_scoring_plan,
    get_spectrum_geometry,
    plan_cache_keys,
)
from repro.observability import Metrics
from repro.serving.audit import AuditLog
from repro.serving.pipeline import ProtectedPipeline, batch_image_ids, verdict_payload
from repro.serving.policy import Policy
from repro.serving.wire import (
    decode_image_payload,
    pack_job,
    pack_result,
    unpack_job,
    unpack_result,
)

__all__ = ["Shard", "WorkerSpec", "WorkerPoolConfig", "WorkerPool", "score_job"]


# -- what a shard needs to know ---------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard process needs to rebuild the parent's pipeline.

    Captured once (at pool start) from a calibrated pipeline and reused for
    every respawn, so a shard that crashed mid-flight comes back with the
    exact same thresholds.
    """

    model_input_shape: tuple[int, int]
    algorithm: str
    policy: str
    #: the parent's calibrated detectors, pickled with their (unpicklable)
    #: metrics registry stripped; thresholds travel inside.
    detectors_pickle: bytes
    #: quarantine destination, or None when the policy never quarantines.
    audit_log_path: str | None = None
    quarantine_dir: str | None = None
    #: scoring-plan / spectrum-geometry cache keys warm in the parent when
    #: the pool started; each shard compiles them at spawn so its first
    #: request pays no plan-build latency.
    warm_plan_keys: tuple = ()
    warm_geometry_keys: tuple = ()

    @classmethod
    def from_pipeline(cls, pipeline: ProtectedPipeline) -> "WorkerSpec":
        if not pipeline.is_calibrated:
            raise DetectionError(
                "cannot shard an uncalibrated pipeline; call calibrate() first"
            )
        detectors = list(pipeline.ensemble.detectors)
        saved = [detector.metrics for detector in detectors]
        try:
            for detector in detectors:
                detector.metrics = None
            blob = pickle.dumps(detectors)
        finally:
            for detector, metrics in zip(detectors, saved):
                detector.metrics = metrics
        audit = pipeline.audit_log
        quarantines = (
            pipeline.policy is Policy.QUARANTINE
            and audit is not None
            and audit.quarantine_dir is not None
        )
        return cls(
            model_input_shape=tuple(pipeline.model_input_shape),
            algorithm=pipeline.algorithm,
            policy=pipeline.policy.value,
            detectors_pickle=blob,
            audit_log_path=str(audit.log_path) if quarantines else None,
            quarantine_dir=str(audit.quarantine_dir) if quarantines else None,
            warm_plan_keys=tuple(plan_cache_keys()),
            warm_geometry_keys=tuple(geometry_cache_keys()),
        )

    def prewarm_caches(self) -> None:
        """Pre-warm the plan caches.

        Called in the shard process before it answers any job: plan/geometry
        compilation happens during the startup grace window instead of on
        the first request.
        """
        for src_shape, dst_shape, algorithm, upscale in self.warm_plan_keys:
            get_scoring_plan(src_shape, dst_shape, algorithm, upscale)
        for height, width, lowpass in self.warm_geometry_keys:
            get_spectrum_geometry((height, width), lowpass)

    def build_pipeline(self) -> ProtectedPipeline:
        """Reconstruct the calibrated pipeline inside a shard process."""
        detectors = pickle.loads(self.detectors_pickle)
        # Quarantine writes only: a shard never records, so never appends.
        audit_log = None
        if self.audit_log_path and self.quarantine_dir:
            audit_log = AuditLog(self.audit_log_path, quarantine_dir=self.quarantine_dir)
        return ProtectedPipeline(
            self.model_input_shape,
            algorithm=self.algorithm,
            policy=Policy(self.policy),
            ensemble=DetectionEnsemble(detectors),
            audit_log=audit_log,
            metrics=Metrics(),
        )


# -- the one detect job -------------------------------------------------------


def score_job(
    pipeline: ProtectedPipeline, kind: str, request_id: str, payloads: list[bytes]
) -> dict:
    """Decode, screen, and serialize one detect job's verdicts.

    A shard runs it; with no shards the dispatcher runs it directly. Either
    way the reply, ``{"verdicts": [...], "quarantine_paths": [...]}``, goes
    to the dispatcher's :meth:`ProtectedPipeline.record`, so nothing here
    sequences, counts or audits.
    """
    start = time.perf_counter()
    if kind == "single":
        images = [decode_image_payload(payloads[0], origin=request_id)]
        image_ids = [request_id]
    else:
        images = [
            decode_image_payload(blob, origin=f"{request_id}[{index}]")
            for index, blob in enumerate(payloads)
        ]
        image_ids = batch_image_ids(request_id, len(images))
    outcomes = pipeline.screen(images, image_ids)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "verdicts": [
            verdict_payload(outcome, request_id=request_id, latency_ms=elapsed_ms)
            for outcome in outcomes
        ],
        "quarantine_paths": [outcome.quarantine_path for outcome in outcomes],
    }


# -- the shard process --------------------------------------------------------


class Shard:
    """One shard process: score jobs, heartbeat when idle, exit on stop.

    :meth:`run` is the loop; :meth:`heartbeat`, :meth:`score` and
    :meth:`reply` are its three steps, each overridable on its own.
    """

    def __init__(
        self,
        conn,
        spec: WorkerSpec,
        worker_id: int,
        restarts: int,
        heartbeat_interval_s: float,
    ) -> None:
        self.conn = conn
        self.worker_id = worker_id
        #: 0 for a shard's first incarnation, n after its nth respawn.
        self.restarts = restarts
        self.heartbeat_interval_s = heartbeat_interval_s
        self.origin = f"worker-{worker_id}"
        #: images screened and jobs failed, for the heartbeat snapshot
        self.submitted = 0
        self.errors = 0
        spec.prewarm_caches()
        self.pipeline = spec.build_pipeline()

    @classmethod
    def main(cls, *args) -> None:
        """Spawn target (see :attr:`WorkerPool.shard_main`): build the
        shard inside the child process and run it."""
        cls(*args).run()

    def run(self) -> None:
        """Serve jobs until a stop frame arrives or the dispatcher is gone."""
        while True:
            if not self.conn.poll(self.heartbeat_interval_s):
                if not self.heartbeat():
                    return
                continue
            try:
                frame = self.conn.recv_bytes()
            except (EOFError, OSError):
                return
            try:
                kind, job_id, request_id, payloads = unpack_job(frame, origin=self.origin)
            except CodecError:
                self.errors += 1
                continue  # dispatcher bug; the job times out and fails over
            if kind == "stop":
                return
            if not self.reply(self.score(kind, job_id, request_id, payloads)):
                return

    def heartbeat(self) -> bool:
        """Report this shard's stats; False once the dispatcher is gone."""
        screen = self.pipeline.metrics.histogram("pipeline.screen").summary()
        snapshot = {
            "submitted": self.submitted,
            "errors": self.errors,
            "screen_ms": {
                key: round(float(screen.get(key, 0.0)), 3)
                for key in ("count", "mean_ms", "p50_ms", "p95_ms")
            },
        }
        return self.send(pack_result("hb", "-", json.dumps(snapshot).encode("utf-8")))

    def score(self, kind: str, job_id: str, request_id: str, payloads: list[bytes]) -> bytes:
        """Score one job into its result frame: ``ok`` with the verdicts,
        or ``err`` carrying the exception for the dispatcher to re-raise."""
        try:
            reply = score_job(self.pipeline, kind, request_id, payloads)
        except Exception as exc:  # shipped to the dispatcher, not swallowed
            self.errors += 1
            descriptor = {"type": type(exc).__name__, "message": str(exc)}
            return pack_result("err", job_id, json.dumps(descriptor).encode("utf-8"))
        self.submitted += len(reply["verdicts"])
        return pack_result("ok", job_id, json.dumps(reply).encode("utf-8"))

    def reply(self, frame: bytes) -> bool:
        """Deliver one result frame; False once the dispatcher is gone."""
        return self.send(frame)

    def send(self, frame: bytes) -> bool:
        """Write one frame to the pipe; False once the dispatcher is gone."""
        try:
            self.conn.send_bytes(frame)
        except (OSError, ValueError):
            return False
        return True


# -- pool configuration ------------------------------------------------------


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Tunables for :class:`WorkerPool`."""

    #: Number of shard processes; must be >= 1 (0 means "no pool at all"
    #: and is the server's decision, not this class's).
    workers: int = 2
    #: An idle shard sends one heartbeat per interval.
    heartbeat_interval_s: float = 0.25
    #: An idle shard silent for longer than this is declared dead.
    liveness_timeout_s: float = 10.0
    #: A busy shard whose oldest in-flight job is older than this is
    #: declared wedged (busy shards cannot heartbeat — they are scoring).
    job_timeout_s: float = 30.0
    #: Respawn backoff: ``base * 2**consecutive_failures``, capped at max.
    restart_backoff_base_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    #: Grace for a fresh process to import numpy and calibrate before the
    #: liveness deadline applies (its first message ends the grace).
    startup_grace_s: float = 60.0
    #: How long shutdown waits for shards to drain before killing them.
    drain_timeout_s: float = 10.0


# -- parent-side bookkeeping -------------------------------------------------


class _Job:
    """One dispatched request, waited on by an HTTP handler thread."""

    __slots__ = (
        "job_id",
        "kind",
        "request_id",
        "payloads",
        "attempts",
        "worker_id",
        "done",
        "result_kind",
        "body",
        "error",
    )

    def __init__(
        self, job_id: str, kind: str, request_id: str, payloads: list[bytes]
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.request_id = request_id
        self.payloads = payloads
        self.attempts = 0
        self.worker_id: int | None = None
        self.done = threading.Event()
        self.result_kind: str | None = None
        self.body: bytes | None = None
        self.error: Exception | None = None


class _WorkerHandle:
    """Parent-side view of one shard incarnation.

    Mutable fields are guarded by the owning pool's lock; the handle object
    itself doubles as the generation token (a respawn installs a brand-new
    handle under the same worker id, so stale receiver threads compare
    identity and stand down).
    """

    __slots__ = (
        "worker_id",
        "process",
        "conn",
        "send_lock",
        "up",
        "ready",
        "spawned_at",
        "last_seen",
        "restarts",
        "consecutive_failures",
        "jobs",
        "jobs_done",
        "respawn_at",
        "snapshot",
    )

    def __init__(self, worker_id, process, conn, restarts, consecutive) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.up = True
        self.ready = False
        self.spawned_at = time.monotonic()
        self.last_seen = self.spawned_at
        self.restarts = restarts
        self.consecutive_failures = consecutive
        #: in-flight job_id -> dispatch timestamp
        self.jobs: dict[str, float] = {}
        self.jobs_done = 0
        self.respawn_at: float | None = None
        self.snapshot: dict = {}


_STOP_FRAME = pack_job("stop", "-", "-", [])


def _error_from_wire(body: bytes) -> Exception:
    """Rebuild a shard-reported exception so HTTP status mapping matches
    the in-process path: CodecError/ImageError -> 400, DetectionError ->
    503, and any other type -> 500, as if it had been raised here."""
    try:
        descriptor = json.loads(body.decode("utf-8"))
        kind = str(descriptor.get("type", ""))
        message = str(descriptor.get("message", "worker error"))
    except (ValueError, UnicodeDecodeError):
        kind, message = "", "unintelligible worker error"
    types: dict[str, type[Exception]] = {
        "CodecError": CodecError,
        "ImageError": ImageError,
        "DetectionError": DetectionError,
    }
    if kind in types:
        return types[kind](message)
    return RuntimeError(f"shard raised {kind or 'an unknown error'}: {message}")


class WorkerPool:
    """N scoring shards plus the lifecycle that keeps them answering.

    Thread-safety: ``_lock`` guards the worker table, the job table, and
    the closed/started flags. Pipe sends serialize on each handle's own
    ``send_lock``; pipe receives happen on one receiver thread per shard.
    Process spawning, joining, and pipe I/O all happen outside ``_lock``.
    """

    #: Spawn target of every shard process, called in the child as
    #: ``shard_main(conn, spec, worker_id, restarts, heartbeat_interval_s)``.
    #: It crosses the spawn boundary by
    #: pickle, so it must be importable by reference (a module-level
    #: function, a classmethod, or a ``functools.partial`` of one).
    shard_main = Shard.main

    def __init__(
        self,
        spec: WorkerSpec,
        config: WorkerPoolConfig | None = None,
        *,
        metrics: Metrics | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or WorkerPoolConfig()
        if self.config.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.config.workers}")
        self.metrics = metrics or Metrics()
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._workers: dict[int, _WorkerHandle] = {}
        self._jobs: dict[str, _Job] = {}
        self._job_counter = 0
        self._started = False
        self._closed = False
        self._wake = threading.Event()
        self._monitor_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard and the liveness monitor; returns at once
        (shards announce readiness via their first heartbeat)."""
        with self._lock:
            if self._closed:
                raise ReproError("worker pool is shut down")
            if self._started:
                raise ReproError("worker pool is already started")
            self._started = True
        for worker_id in range(self.config.workers):
            self._spawn_worker(worker_id, restarts=0, consecutive=0)
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="worker-pool-monitor", daemon=True
        )
        self._monitor_thread.start()

    def shutdown(self) -> None:
        """Graceful drain: stop every shard, join, kill stragglers, and
        fail any job that somehow remained in flight."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers.values())
        self._wake.set()
        deadline = time.monotonic() + self.config.drain_timeout_s
        for handle in handles:
            if handle.up and not self._send_stop(handle, deadline):
                # A dispatch thread is blocked writing a frame this shard
                # is too busy to read: killing the shard fails that send
                # with EPIPE, and the down-path answers its jobs.
                handle.process.kill()
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            self._close_pipe(handle)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
        with self._lock:
            leftover = list(self._jobs.values())
            self._jobs.clear()
        for job in leftover:
            job.error = DetectionError("worker pool shut down mid-request")
            job.done.set()

    @staticmethod
    def _send_stop(handle: _WorkerHandle, deadline: float) -> bool:
        """Send one shard its stop frame; False when the send lock or room
        in the pipe cannot be had before *deadline*."""
        if not handle.send_lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            return False
        try:
            # Writable means the socket buffer has room for the tiny stop
            # frame, so the send below cannot block on a busy shard.
            _, writable, _ = select.select(
                [], [handle.conn], [], max(0.0, deadline - time.monotonic())
            )
            if not writable:
                return False
            handle.conn.send_bytes(_STOP_FRAME)
        except (OSError, ValueError):
            pass  # already dead; join/kill in shutdown handles it
        finally:
            handle.send_lock.release()
        return True

    @staticmethod
    def _close_pipe(handle: _WorkerHandle) -> None:
        """Close the dispatcher's end of a shard's pipe between sends.

        Closing under a sender would let its next write hit a closed, or
        reused, fd. Callers make the shard exit first, so a sender blocked
        on it fails with EPIPE and lets go of the lock.
        """
        with handle.send_lock:
            try:
                handle.conn.close()
            except OSError:
                pass  # receiver already closed it

    # -- introspection -------------------------------------------------------

    @property
    def healthy_count(self) -> int:
        """Shards currently believed alive (spawned or respawned, pipe open)."""
        with self._lock:
            return sum(1 for handle in self._workers.values() if handle.up)

    def pids(self) -> dict[int, int | None]:
        """``worker_id -> os pid`` for every current shard incarnation."""
        with self._lock:
            return {
                worker_id: handle.process.pid
                for worker_id, handle in sorted(self._workers.items())
            }

    def worker_status(self) -> list[dict]:
        """One dict per shard: liveness, restarts, load, last snapshot."""
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "worker_id": handle.worker_id,
                    "pid": handle.process.pid,
                    "up": handle.up,
                    "ready": handle.ready,
                    "restarts": handle.restarts,
                    "inflight": len(handle.jobs),
                    "jobs_done": handle.jobs_done,
                    "heartbeat_age_s": now - handle.last_seen,
                    "snapshot": dict(handle.snapshot),
                }
                for _, handle in sorted(self._workers.items())
            ]

    def labeled_families(self) -> dict[str, dict[str, list[tuple[dict, float]]]]:
        """Per-shard metric series for
        :func:`repro.observability.render_prometheus`'s labeled families
        (``{worker_id="N"}``)."""
        gauges: dict[str, list[tuple[dict, float]]] = {
            "worker.up": [],
            "worker.inflight": [],
            "worker.heartbeat_age_s": [],
        }
        counters: dict[str, list[tuple[dict, float]]] = {
            "worker.restarts": [],
            "worker.jobs_done": [],
            "worker.scored": [],
            "worker.errors": [],
        }
        for status in self.worker_status():
            labels = {"worker_id": str(status["worker_id"])}
            gauges["worker.up"].append((labels, 1.0 if status["up"] else 0.0))
            gauges["worker.inflight"].append((labels, float(status["inflight"])))
            gauges["worker.heartbeat_age_s"].append(
                (labels, round(status["heartbeat_age_s"], 3))
            )
            counters["worker.restarts"].append((labels, float(status["restarts"])))
            counters["worker.jobs_done"].append((labels, float(status["jobs_done"])))
            snapshot = status["snapshot"]
            counters["worker.scored"].append(
                (labels, float(snapshot.get("submitted", 0)))
            )
            counters["worker.errors"].append((labels, float(snapshot.get("errors", 0))))
        return {"gauges": gauges, "counters": counters}

    # -- dispatch ------------------------------------------------------------

    def submit(
        self, payloads: list[bytes], *, request_id: str, batch: bool = False
    ) -> dict:
        """Route one request to a healthy shard and wait for its verdicts.

        Returns the shard's :func:`score_job` reply, checked to hold one
        verdict and one quarantine path per payload. Raises what the
        in-process path would (CodecError/ImageError for bad payloads,
        DetectionError when no shard can answer or the reply is malformed).
        """
        with self._lock:
            if self._closed:
                raise DetectionError("worker pool is shut down")
            if not self._started:
                raise ReproError("worker pool is not started")
            self._job_counter += 1
            job_id = f"job-{self._job_counter:08d}"
        job = _Job(job_id, "batch" if batch else "single", request_id, payloads)
        target = self._pick_target()
        if target is None:
            raise DetectionError("no healthy worker shard available")
        self.metrics.counter("workers.dispatched").add(1)
        start = time.perf_counter()
        self._dispatch(job, target)
        # Worst case one failover: two job timeouts plus scheduling slack.
        if not job.done.wait(self.config.job_timeout_s * 2 + 5.0):
            with self._lock:
                self._jobs.pop(job_id, None)
                owner = self._workers.get(job.worker_id)
                if owner is not None:
                    owner.jobs.pop(job_id, None)
            raise DetectionError(f"worker job {job_id} timed out")
        self.metrics.observe("workers.job", (time.perf_counter() - start) * 1000.0)
        if job.error is not None:
            raise job.error
        if job.result_kind == "err":
            raise _error_from_wire(job.body or b"")
        try:
            reply = json.loads((job.body or b"").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise DetectionError(f"worker returned malformed verdicts: {exc}") from exc
        if not (
            isinstance(reply, dict)
            and isinstance(reply.get("verdicts"), list)
            and isinstance(reply.get("quarantine_paths"), list)
            and len(reply["verdicts"]) == len(reply["quarantine_paths"]) == len(payloads)
        ):
            raise DetectionError(f"worker reply for {job_id} does not match its job")
        return reply

    def _pick_target(self, exclude: int | None = None) -> _WorkerHandle | None:
        with self._lock:
            candidates = [
                handle
                for handle in self._workers.values()
                if handle.up and handle.worker_id != exclude
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda handle: (len(handle.jobs), handle.worker_id))

    def _dispatch(self, job: _Job, handle: _WorkerHandle) -> None:
        frame = pack_job(job.kind, job.job_id, job.request_id, job.payloads)
        with self._lock:
            if not handle.up:
                # The target died between selection and dispatch; keep the
                # attempt count honest and reroute below.
                stale = True
                self._jobs[job.job_id] = job
            else:
                stale = False
                job.attempts += 1
                job.worker_id = handle.worker_id
                self._jobs[job.job_id] = job
                handle.jobs[job.job_id] = time.monotonic()
        if stale:
            self._failover(
                job, exclude=handle.worker_id, reason="target died before dispatch"
            )
            return
        try:
            with handle.send_lock:
                handle.conn.send_bytes(frame)
        except (OSError, ValueError):
            # The pipe died under us: the down-path requeues (or fails)
            # every job this shard held, including the one just registered.
            self._worker_down(handle, reason="pipe send failed")

    # -- failure handling ----------------------------------------------------

    def _worker_down(self, handle: _WorkerHandle, *, reason: str) -> None:
        """Declare one shard incarnation dead: fail it over and schedule a
        respawn under backoff. Idempotent per incarnation."""
        with self._lock:
            if not handle.up or self._workers.get(handle.worker_id) is not handle:
                return
            handle.up = False
            orphans = [
                self._jobs[job_id] for job_id in handle.jobs if job_id in self._jobs
            ]
            handle.jobs.clear()
            if not self._closed:
                backoff = min(
                    self.config.restart_backoff_base_s
                    * (2 ** min(handle.consecutive_failures, 16)),
                    self.config.restart_backoff_max_s,
                )
                handle.respawn_at = time.monotonic() + backoff
        self.metrics.counter("workers.deaths").add(1)
        if handle.process.is_alive():
            handle.process.terminate()
        self._close_pipe(handle)
        self._wake.set()
        for job in orphans:
            self._failover(job, exclude=handle.worker_id, reason=reason)

    def _failover(self, job: _Job, *, exclude: int, reason: str) -> None:
        """Requeue one orphaned job exactly once; a second strike fails it."""
        with self._lock:
            if job.job_id not in self._jobs:
                return  # completed or timed out concurrently
            second_strike = job.attempts >= 2
        if second_strike:
            self._fail_job(
                job,
                DetectionError(
                    f"request {job.request_id} lost twice to worker failures "
                    f"(last: {reason})"
                ),
            )
            return
        target = self._pick_target(exclude=exclude)
        if target is None:
            self._fail_job(
                job,
                DetectionError(
                    f"no healthy worker shard to requeue request {job.request_id} "
                    f"({reason})"
                ),
            )
            return
        self.metrics.counter("workers.requeued").add(1)
        self._dispatch(job, target)

    def _fail_job(self, job: _Job, error: Exception) -> None:
        with self._lock:
            self._jobs.pop(job.job_id, None)
        self.metrics.counter("workers.failed_jobs").add(1)
        job.error = error
        job.done.set()

    # -- per-shard receiver --------------------------------------------------

    def _receive_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                frame = handle.conn.recv_bytes()
            except (EOFError, OSError):
                break
            origin = f"worker-{handle.worker_id}"
            try:
                kind, job_id, body = unpack_result(frame, origin=origin)
            except CodecError:
                # A shard emitting unparseable frames can no longer be
                # trusted to pair results with jobs: recycle it.
                self.metrics.counter("workers.garbage_frames").add(1)
                break
            with self._lock:
                handle.last_seen = time.monotonic()
                handle.ready = True
                handle.consecutive_failures = 0
            if kind == "hb":
                self._store_snapshot(handle, body)
            else:
                self._complete(handle, job_id, kind, body)
        self._worker_down(handle, reason="worker pipe closed")

    def _store_snapshot(self, handle: _WorkerHandle, body: bytes) -> None:
        try:
            snapshot = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            snapshot = {}
        if isinstance(snapshot, dict):
            with self._lock:
                handle.snapshot = snapshot

    def _complete(
        self, handle: _WorkerHandle, job_id: str, kind: str, body: bytes
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.worker_id != handle.worker_id:
                return  # late result for a job already failed over: drop it
            del self._jobs[job_id]
            handle.jobs.pop(job_id, None)
            handle.jobs_done += 1
        job.result_kind = kind
        job.body = body
        job.done.set()

    # -- spawn + monitor -----------------------------------------------------

    def _spawn_worker(self, worker_id: int, *, restarts: int, consecutive: int) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=self.shard_main,
            args=(
                child_conn,
                self.spec,
                worker_id,
                restarts,
                self.config.heartbeat_interval_s,
            ),
            name=f"decamouflage-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(worker_id, process, parent_conn, restarts, consecutive)
        with self._lock:
            aborted = self._closed
            if not aborted:
                self._workers[worker_id] = handle
        if aborted:
            # Shutdown won the race with this respawn: reap the process
            # instead of leaking it past the pool's lifetime.
            try:
                parent_conn.close()
            except OSError:
                pass  # never opened far enough to matter
            process.kill()
            process.join(1.0)
            return
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle,),
            name=f"worker-{worker_id}-rx",
            daemon=True,
        )
        receiver.start()
        if restarts:
            self.metrics.counter("workers.restarts").add(1)

    def _monitor_loop(self) -> None:
        interval = max(0.01, min(self.config.heartbeat_interval_s / 2, 0.25))
        while True:
            self._wake.wait(interval)
            self._wake.clear()
            now = time.monotonic()
            dead: list[tuple[_WorkerHandle, str]] = []
            respawn: list[tuple[int, int, int]] = []
            with self._lock:
                if self._closed:
                    return
                for handle in self._workers.values():
                    if handle.up:
                        reason = self._death_reason_locked(handle, now)
                        if reason is not None:
                            dead.append((handle, reason))
                    elif handle.respawn_at is not None and now >= handle.respawn_at:
                        handle.respawn_at = None
                        respawn.append(
                            (
                                handle.worker_id,
                                handle.restarts + 1,
                                handle.consecutive_failures + 1,
                            )
                        )
            for handle, reason in dead:
                self._worker_down(handle, reason=reason)
            for worker_id, restarts, consecutive in respawn:
                self._spawn_worker(
                    worker_id, restarts=restarts, consecutive=consecutive
                )

    def _death_reason_locked(self, handle: _WorkerHandle, now: float) -> str | None:
        """Liveness verdict for one live handle (caller holds the lock)."""
        if not handle.process.is_alive():
            return f"worker process exited (code {handle.process.exitcode})"
        if handle.jobs:
            oldest = min(handle.jobs.values())
            if now - oldest > self.config.job_timeout_s:
                return (
                    f"oldest in-flight job exceeded {self.config.job_timeout_s:.1f}s"
                )
            return None
        deadline = (
            self.config.liveness_timeout_s
            if handle.ready
            else self.config.startup_grace_s
        )
        if now - handle.last_seen > deadline:
            return f"no heartbeat for {now - handle.last_seen:.1f}s"
        return None
