"""Process-based scoring shards behind the detection server.

Scoring in-process behind a thread pool leaves one Python process
GIL-bound on SSIM/FFT math. This module shards scoring across plain
child processes, each owning its own calibrated
:class:`~repro.serving.pipeline.ProtectedPipeline`, while the server's
dispatch threads become thin dispatchers speaking the
:mod:`repro.serving.wire` framing:

* :class:`WorkerSpec` — the picklable recipe for one shard's pipeline,
  captured once from the parent's calibrated pipeline (the detectors are
  shipped with their thresholds, so shard verdicts are bit-for-bit what
  the parent would compute).
* :class:`WorkerPool` — spawns N shards and routes jobs to the
  least-loaded healthy one. Each shard has one supervisor thread that
  owns its whole lifecycle: it reads the shard's frames, declares it dead
  (end of file, a garbage frame, a job past its deadline, or silence past
  the liveness deadline), reaps it, requeues its in-flight jobs exactly
  once (a second failure answers 503), and respawns it under bounded
  exponential backoff.
* :func:`score_job` — the one detect job: decode, screen, serialize the
  verdicts. Shards run it; a server without shards runs it in the
  dispatcher.
* :class:`Shard` — the shard process: a plain job runner holding its
  calibrated pipeline and nothing else. It runs jobs and replies, and
  sends a bare liveness heartbeat whenever idle for one interval.

A shard is a ``subprocess`` child: spec and jobs ride its stdin, results
and heartbeats its stdout, each frame whole. A shard killed part-way
through a frame leaves the dispatcher an end of file, and the jobs it held
are requeued once. The end of its stdin stops a shard, whether shutdown
closed it or the dispatcher died.

Division of labour: shards screen and write quarantine artifacts (they
hold the memoized analysis intermediates) and never record; the
dispatcher passes every reply to :meth:`ProtectedPipeline.record`, which
keeps ``pipeline.stats``, sequence numbers and JSONL audit records — the
same call a server without shards makes. The per-shard counters
(``worker.jobs_done``, ``worker.scored``, ``worker.errors``) are counted
in the dispatcher too, from the result frames it receives, so they move
while a shard is busy.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

from repro.core.ensemble import DetectionEnsemble
from repro.errors import CodecError, DetectionError, ImageError, ReproError
from repro.observability import Metrics
from repro.serving.audit import AuditLog
from repro.serving.pipeline import ProtectedPipeline, batch_image_ids, verdict_payload
from repro.serving.policy import Policy
from repro.serving.wire import (
    decode_image_payload,
    pack_job,
    pack_result,
    read_frame,
    unpack_job,
    unpack_result,
    write_frame,
)

__all__ = [
    "Shard",
    "WorkerSpec",
    "WorkerPool",
    "keep_scoring_arrays_on_heap",
    "score_job",
]


#: glibc malloc thresholds for every scoring process: ``repro serve``'s
#: own and each shard. Scoring one image allocates and frees several
#: image-sized float arrays per request. At glibc's dynamic defaults they
#: are mmapped, or the heap top is trimmed, and the pages are faulted in
#: again on every request (50-330 minor faults per 128² RGB detect
#: request on a 2-core Linux host, against 0.3-3.5 with these). Arrays up
#: to 8 MiB, a 512² RGB float image, stay on the heap.
_MMAP_THRESHOLD_BYTES = 8 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


def keep_scoring_arrays_on_heap() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op on other C libraries."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD_BYTES)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD_BYTES)  # M_TRIM_THRESHOLD


# -- what a shard needs to know ---------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard process needs to rebuild the parent's pipeline.

    Captured once (at pool start) from a calibrated pipeline and reused for
    every respawn, so a shard that crashed mid-flight comes back with the
    exact same thresholds. It carries no cache state: a shard builds each
    scoring plan and spectrum geometry on first use, like the dispatcher.
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
        )

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
    """One shard process: score jobs, heartbeat when idle, exit at the end
    of its stdin.

    It holds its calibrated pipeline and nothing else: every per-shard
    number is counted by the dispatcher from the frames it receives.
    :meth:`run` is the loop; :meth:`heartbeat`, :meth:`score` and
    :meth:`reply` are its three steps, each overridable on its own.
    """

    def __init__(
        self,
        frames_in,
        frames_out,
        spec: WorkerSpec,
        worker_id: int,
        restarts: int,
        heartbeat_interval_s: float,
    ) -> None:
        self.frames_in = frames_in  # unbuffered, so ``select`` sees every frame
        self.frames_out = frames_out
        self.worker_id = worker_id
        #: 0 for a shard's first incarnation, n after its nth respawn.
        self.restarts = restarts
        self.heartbeat_interval_s = heartbeat_interval_s
        self.origin = f"worker-{worker_id}"
        self.pipeline = spec.build_pipeline()

    @classmethod
    def main(cls, *args) -> None:
        """Entry point of :attr:`WorkerPool.shard_command`; *args* go to the
        constructor ahead of the pipes and the spec frame's fields."""
        keep_scoring_arrays_on_heap()
        # Frames leave through a private copy of fd 1; fd 1 itself points at
        # stderr, so a stray print cannot tear a frame.
        frames_out = open(os.dup(1), "wb", buffering=0)
        os.dup2(2, 1)
        frames_in = open(0, "rb", buffering=0, closefd=False)
        first = read_frame(frames_in, origin="spec")
        if first is not None:  # None: the dispatcher left before sending it
            cls(*args, frames_in, frames_out, *pickle.loads(first)).run()

    def run(self) -> None:
        """Serve jobs, those already in the pipe included, until stdin ends."""
        while True:
            readable, _, _ = select.select([self.frames_in], [], [], self.heartbeat_interval_s)
            if not readable:
                if not self.heartbeat():
                    return
                continue
            try:
                frame = read_frame(self.frames_in, origin=self.origin)
            except (CodecError, OSError):
                return  # an oversized header leaves the stream unframed
            if frame is None:
                return  # the dispatcher closed stdin, or is gone
            try:
                kind, job_id, request_id, payloads = unpack_job(frame, origin=self.origin)
            except CodecError:
                continue  # dispatcher bug; the job times out and fails over
            if not self.reply(self.score(kind, job_id, request_id, payloads)):
                return

    def heartbeat(self) -> bool:
        """Send a bare liveness frame; False once the dispatcher is gone."""
        return self.send(pack_result("hb", "-", b""))

    def score(self, kind: str, job_id: str, request_id: str, payloads: list[bytes]) -> bytes:
        """Score one job into its result frame: ``ok`` with the verdicts,
        or ``err`` carrying the exception for the dispatcher to re-raise."""
        try:
            reply = score_job(self.pipeline, kind, request_id, payloads)
        except Exception as exc:  # shipped to the dispatcher, not swallowed
            descriptor = {"type": type(exc).__name__, "message": str(exc)}
            return pack_result("err", job_id, json.dumps(descriptor).encode("utf-8"))
        return pack_result("ok", job_id, json.dumps(reply).encode("utf-8"))

    def reply(self, frame: bytes) -> bool:
        """Deliver one result frame; False once the dispatcher is gone."""
        return self.send(frame)

    def send(self, frame: bytes) -> bool:
        """Write one frame to stdout; False once the dispatcher is gone."""
        try:
            write_frame(self.frames_out, frame)
        except (OSError, ValueError):
            return False
        return True


# -- shard lifecycle timings ---------------------------------------------------

#: An idle shard sends one heartbeat per interval; a supervisor checks its
#: shard's deadlines at least this often.
_HEARTBEAT_INTERVAL_S = 0.25
#: An idle shard silent for longer than this is declared dead.
_LIVENESS_TIMEOUT_S = 10.0
#: Grace for a fresh process to import numpy and build its pipeline
#: before the liveness deadline applies (its first frame ends the grace).
_STARTUP_GRACE_S = 60.0
#: A busy shard whose oldest in-flight job is older than this is declared
#: wedged (busy shards cannot heartbeat: they are scoring).
_JOB_TIMEOUT_S = 30.0
#: Respawn backoff: ``base * 2**failures``, capped at the max, where
#: ``failures`` counts the incarnations in a row that died without a frame.
_RESTART_BACKOFF_BASE_S = 0.1
_RESTART_BACKOFF_MAX_S = 5.0
#: How long shutdown waits for shards to drain before killing them.
_DRAIN_TIMEOUT_S = 10.0


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

    Mutable fields are guarded by the owning pool's lock. A respawn
    installs a new handle under the same worker id; only the shard's
    supervisor reads the process's stdout, reaps it, or marks it down.
    """

    __slots__ = (
        "worker_id",
        "process",
        "send_lock",
        "up",
        "ready",
        "last_seen",
        "restarts",
        "jobs",
        "jobs_done",
        "scored",
        "errors",
    )

    def __init__(self, worker_id, process, restarts) -> None:
        self.worker_id = worker_id
        self.process = process  # a ``subprocess.Popen`` with stdin and stdout pipes
        self.send_lock = threading.Lock()
        self.up = True
        #: set by the incarnation's first frame
        self.ready = False
        self.last_seen = time.monotonic()
        self.restarts = restarts
        #: in-flight job_id -> dispatch timestamp
        self.jobs: dict[str, float] = {}
        self.jobs_done = 0
        #: counted from result frames as they arrive: the images answered
        #: in ``ok`` results, and the ``err`` results
        self.scored = 0
        self.errors = 0


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
    """N scoring shards, each kept answering by its own supervisor thread.

    Thread-safety: ``_lock`` guards the worker table, the job table, and
    the started flag; ``_closed`` is set under it. Writes to a shard's
    stdin serialize on its handle's ``send_lock``. Shard ``n``'s stdout is
    read only by its supervisor, the thread ``worker-n``, which is also
    the only thread that declares the shard dead, reaps it and respawns
    it. Process spawning, reaping, and pipe I/O all happen outside
    ``_lock``.
    """

    #: argv of every shard, run with the dispatcher's ``-W`` options and
    #: ``sys.path``. Its first stdin frame is the pickled ``(spec,
    #: worker_id, restarts, heartbeat_interval_s)``.
    shard_command = (sys.executable, "-c", "from repro.serving.workers import Shard; Shard.main()")

    def __init__(
        self, spec: WorkerSpec, workers: int, *, metrics: Metrics | None = None
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.metrics = metrics or Metrics()
        self._lock = threading.Lock()
        self._workers: dict[int, _WorkerHandle] = {}
        self._jobs: dict[str, _Job] = {}
        self._job_counter = 0
        self._started = False
        self._closed = threading.Event()
        self._supervisors: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard and its supervisor; returns at once (shards
        announce readiness with their first frame)."""
        with self._lock:
            if self._closed.is_set():
                raise ReproError("worker pool is shut down")
            if self._started:
                raise ReproError("worker pool is already started")
            self._started = True
        for worker_id in range(self.workers):
            handle = self._spawn(worker_id, restarts=0)
            if handle is None:
                return  # shut down while starting
            supervisor = threading.Thread(
                target=self._supervise, args=(handle,), name=f"worker-{worker_id}", daemon=True
            )
            supervisor.start()
            self._supervisors.append(supervisor)

    def shutdown(self) -> None:
        """Graceful drain: close every shard's stdin, let the supervisors
        read the shards' last answers and reap them, kill shards still
        busy at the drain deadline, then fail any job left unanswered."""
        with self._lock:
            if self._closed.is_set():
                return
            self._closed.set()
            handles = list(self._workers.values())
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        for handle in handles:
            if not handle.send_lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
                # A dispatch thread is blocked writing a frame this shard
                # is too busy to read: killing the shard fails that send
                # with EPIPE.
                handle.process.kill()
                continue
            try:
                handle.process.stdin.close()
            finally:
                handle.send_lock.release()
        for supervisor in self._supervisors:
            supervisor.join(max(0.0, deadline - time.monotonic()))
        for handle in handles:
            handle.process.kill()  # a no-op on a shard its supervisor reaped
        for supervisor in self._supervisors:
            supervisor.join()
        with self._lock:
            leftover = list(self._jobs.values())
            self._jobs.clear()
        for job in leftover:
            job.error = DetectionError("worker pool shut down mid-request")
            job.done.set()

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
        """One dict per shard: liveness, restarts, load, work counters."""
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
                    "scored": handle.scored,
                    "errors": handle.errors,
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
            counters["worker.scored"].append((labels, float(status["scored"])))
            counters["worker.errors"].append((labels, float(status["errors"])))
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
            if self._closed.is_set():
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
        if not job.done.wait(_JOB_TIMEOUT_S * 2 + 5.0):
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
                write_frame(handle.process.stdin, frame)
        except (OSError, ValueError):
            # The shard is gone, or its stdin was closed: its supervisor
            # fails this job over with the rest the shard held. A drain
            # leaves the shard to answer what it already has, and
            # shutdown fails this job.
            if not self._closed.is_set():
                handle.process.kill()

    # -- failure handling ----------------------------------------------------

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
            if kind == "ok":
                handle.scored += len(job.payloads)
            else:
                handle.errors += 1
        job.result_kind = kind
        job.body = body
        job.done.set()

    # -- the supervisor --------------------------------------------------------

    def _supervise(self, handle: _WorkerHandle) -> None:
        """Shard ``handle.worker_id``'s one lifecycle thread: read the
        incarnation's frames until it is dead, reap it, fail its jobs
        over, wait out the backoff and spawn the next incarnation. Returns
        once the pool is closed and the shard is reaped."""
        worker_id = handle.worker_id
        failures = 0  # incarnations in a row that died without a frame
        while True:
            reason = self._read_until_dead(handle)
            with self._lock:
                handle.up = False
                orphans = [self._jobs[job_id] for job_id in handle.jobs if job_id in self._jobs]
                handle.jobs.clear()
                closing = self._closed.is_set()
            handle.process.kill()  # a no-op on a shard that already exited
            handle.process.wait()
            # Closed between sends, so no write hits a closed or reused fd;
            # a sender blocked on the dead shard fails with EPIPE first.
            with handle.send_lock:
                handle.process.stdin.close()
            handle.process.stdout.close()
            if closing:
                return  # a drain, not a death: shutdown fails what is left
            self.metrics.counter("workers.deaths").add(1)
            for job in orphans:
                self._failover(job, exclude=worker_id, reason=reason)
            if handle.ready:
                failures = 0
            backoff = min(
                _RESTART_BACKOFF_BASE_S * 2 ** min(failures, 16), _RESTART_BACKOFF_MAX_S
            )
            failures += 1
            if self._closed.wait(backoff):
                return
            handle = self._spawn(worker_id, restarts=handle.restarts + 1)
            if handle is None:
                return

    def _read_until_dead(self, handle: _WorkerHandle) -> str:
        """Read one incarnation's frames, completing its jobs, until it is
        dead; returns why. Each read waits one heartbeat interval at a
        time and checks the deadlines in between, part-way through a frame
        too: a shard frozen mid-frame sends no end of file."""
        stdout = handle.process.stdout
        origin = f"worker-{handle.worker_id}"
        reason: str | None = None

        def read(size: int) -> bytes:
            nonlocal reason
            while not select.select([stdout], [], [], _HEARTBEAT_INTERVAL_S)[0]:
                with self._lock:
                    reason = self._death_reason_locked(handle, time.monotonic())
                if reason is not None:
                    return b""  # read_frame takes it for an end of file
            return stdout.read(size)

        paced = SimpleNamespace(read=read)
        while True:
            try:
                frame = read_frame(paced, origin=origin)
                if frame is None:
                    return reason or "worker pipe closed"
                kind, job_id, body = unpack_result(frame, origin=origin)
            except OSError:
                return "worker pipe closed"
            except CodecError:
                # A shard emitting unparseable frames can no longer be
                # trusted to pair results with jobs: recycle it.
                self.metrics.counter("workers.garbage_frames").add(1)
                return "garbage frame"
            if kind != "hb":
                self._complete(handle, job_id, kind, body)
            now = time.monotonic()
            with self._lock:
                handle.last_seen = now
                handle.ready = True
                reason = self._death_reason_locked(handle, now)
            if reason is not None:
                return reason

    def _spawn(self, worker_id: int, *, restarts: int) -> _WorkerHandle | None:
        """Start and register one shard incarnation; None once the pool is
        closed."""
        command = self.shard_command
        process = subprocess.Popen(
            [command[0], *(f"-W{option}" for option in sys.warnoptions), *command[1:]],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        spec = (self.spec, worker_id, restarts, _HEARTBEAT_INTERVAL_S)
        try:
            write_frame(process.stdin, pickle.dumps(spec))
        except OSError:
            pass  # the child is gone already; its supervisor reads the end of file
        handle = _WorkerHandle(worker_id, process, restarts)
        with self._lock:
            aborted = self._closed.is_set()
            if not aborted:
                self._workers[worker_id] = handle
        if aborted:
            # Shutdown won the race with this spawn: reap the process
            # instead of leaking it past the pool's lifetime.
            process.kill()
            process.wait()
            process.stdin.close()
            process.stdout.close()
            return None
        if restarts:
            self.metrics.counter("workers.restarts").add(1)
        return handle

    def _death_reason_locked(self, handle: _WorkerHandle, now: float) -> str | None:
        """Why a shard that has not closed its pipe counts as dead by the
        clock, or None (caller holds the lock)."""
        if handle.jobs:
            oldest = min(handle.jobs.values())
            if now - oldest > _JOB_TIMEOUT_S:
                return f"oldest in-flight job exceeded {_JOB_TIMEOUT_S:.1f}s"
            return None
        deadline = _LIVENESS_TIMEOUT_S if handle.ready else _STARTUP_GRACE_S
        if now - handle.last_seen > deadline:
            return f"no heartbeat for {now - handle.last_seen:.1f}s"
        return None
