"""The load generator: one process, one keep-alive connection per thread.

It holds ``min(2, nproc)`` :class:`~repro.serving.client.DetectionClient`
connections. Each phase runs connection 0 on the calling thread and every
other connection on a helper thread that the phase joins before it
returns, so the generator never has more threads than connections.
Clients never retry: a 429, a 503 or a dropped connection is a failed
request, not a hidden second attempt.

Phases:

* :meth:`LoadGenerator.warmup` sends every distinct body once on each
  connection at the same moment (on a sharded server the two copies land
  on different shards) and checks each verdict against the in-process
  reference, scores to 1e-9 relative.
* :meth:`LoadGenerator.open_loop` sends on a schedule; a request is
  timed from when it was due, so a stall also charges the requests queued
  behind it. Whichever connection is free takes the next arrival.
* :meth:`LoadGenerator.closed_loop` sends back to back on every
  connection for a fixed time.
* :meth:`LoadGenerator.serial` sends on one connection, one at a time,
  each request tagged with an ``X-Request-Id``.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving.client import DetectionClient
from repro.serving.pipeline import ProtectedPipeline
from repro.serving.wire import BATCH_CONTENT_TYPE, IMAGE_CONTENT_TYPE
from workloads import BATCH_PATH, Request

__all__ = ["LoadGenerator", "Sample", "expected_verdicts"]

_TIMEOUT_S = 20.0
#: Relative tolerance between a served score and the reference score.
_SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class Sample:
    """One request as the generator saw it (``perf_counter`` seconds)."""

    request: int
    scheduled: float
    started: float
    finished: float
    status: int
    ok: bool

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.scheduled) * 1000.0


def expected_verdicts(pipeline: ProtectedPipeline, request: Request) -> list[dict]:
    """What a correct server answers for *request*: one dict per image,
    from the in-process reference pipeline (empty for hostile bodies)."""
    if not request.images:
        return []
    if request.path == BATCH_PATH:
        outcomes = pipeline.submit_batch(list(request.images))
    else:
        outcomes = [pipeline.submit(request.images[0])]
    return [
        {
            "verdict": "attack" if outcome.detection.is_attack else "benign",
            "action": outcome.action,
            "scores": {
                f"{d.method}/{d.metric}": float(d.score)
                for d in outcome.detection.detections
            },
        }
        for outcome in outcomes
    ]


def _score_mismatch(got: dict, expected: dict) -> str | None:
    if set(got) != set(expected):
        return f"score keys {sorted(got)} != {sorted(expected)}"
    for key, want in expected.items():
        value = float(got[key])
        if abs(value - want) > _SCORE_RTOL * max(abs(value), abs(want), 1e-300):
            return f"{key} score {value!r} != reference {want!r}"
    return None


class LoadGenerator:
    """Drives one server; :meth:`close` releases every connection."""

    def __init__(
        self,
        host: str,
        port: int,
        requests: list[Request],
        expected: list[list[dict]],
        connections: int,
    ) -> None:
        self.requests = requests
        self.expected = expected
        self.clients = [
            DetectionClient(host, port, timeout_s=_TIMEOUT_S, max_retries=0)
            for _ in range(connections)
        ]

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # -- one request ------------------------------------------------------

    def send(self, conn: int, index: int, request_id: str | None = None) -> tuple[int, bytes]:
        """POST one body; status 0 means no complete response."""
        request = self.requests[index]
        headers = {
            "Content-Type": BATCH_CONTENT_TYPE if request.path == BATCH_PATH else IMAGE_CONTENT_TYPE
        }
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        try:
            status, _, body = self.clients[conn].request_raw(
                "POST", request.path, body=request.body, headers=headers
            )
        except ServingError:
            return 0, b""
        return status, body

    def mismatch(self, index: int, status: int, body: bytes, *, scores: bool) -> str | None:
        """Why this response is wrong, or None. Verdict and action always
        count; *scores* also compares every score to the reference."""
        request = self.requests[index]
        if status not in request.expect:
            return f"status {status}, expected {sorted(request.expect)}"
        expected = self.expected[index]
        if not expected:
            return None
        try:
            payload = json.loads(body)
            got = payload["results"] if request.path == BATCH_PATH else [payload]
        except (ValueError, KeyError, TypeError):
            return "response is not a verdict"
        if len(got) != len(expected):
            return f"{len(got)} verdicts for {len(expected)} images"
        for number, (verdict, want) in enumerate(zip(got, expected)):
            pair = (verdict.get("verdict"), verdict.get("action"))
            if pair != (want["verdict"], want["action"]):
                return f"image {number}: {pair} != reference {(want['verdict'], want['action'])}"
            if scores:
                problem = _score_mismatch(verdict.get("scores") or {}, want["scores"])
                if problem is not None:
                    return f"image {number}: {problem}"
        return None

    # -- concurrency --------------------------------------------------------

    def fan(self, work: Callable[[int], None]) -> None:
        """Run ``work(conn)`` for every connection at once: connection 0 on
        this thread, the rest on helper threads joined before returning."""
        errors: list[BaseException] = []

        def guarded(conn: int) -> None:
            try:
                work(conn)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

        helpers = [
            threading.Thread(target=guarded, args=(conn,), name=f"loadgen-{conn}")
            for conn in range(1, len(self.clients))
        ]
        for helper in helpers:
            helper.start()
        try:
            guarded(0)
        finally:
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]

    # -- phases ---------------------------------------------------------------

    def probe(self, index: int, timeout_s: float = 90.0) -> None:
        """Send *index* on every connection at once until each is answered
        200: on a sharded server, until every shard has booted."""
        deadline = time.monotonic() + timeout_s

        def until_scored(conn: int) -> None:
            while self.send(conn, index)[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{self.requests[index].name}: server never scored it")
                time.sleep(0.005)

        self.fan(until_scored)

    def warmup(self) -> tuple[list[Sample], list[str]]:
        """Every distinct body once per connection, concurrently; returns
        the samples and one line per wrong answer, naming the payload."""
        samples: list[Sample] = []
        problems: list[str] = []
        lock = threading.Lock()
        for index, request in enumerate(self.requests):

            def one(conn: int, index: int = index, request: Request = request) -> None:
                started = time.perf_counter()
                status, body = self.send(conn, index)
                finished = time.perf_counter()
                problem = self.mismatch(index, status, body, scores=True)
                with lock:
                    samples.append(Sample(index, started, started, finished, status, problem is None))
                    if problem is not None:
                        problems.append(f"{request.name} (connection {conn}): {problem}")

            self.fan(one)
        return samples, problems

    def open_loop(self, due: list[tuple[float, int]]) -> list[Sample]:
        """Each ``(offset, index)`` in *due* sends request *index* at
        *offset* seconds after the segment starts."""
        samples: list[Sample] = []
        lock = threading.Lock()
        cursor = [0]
        origin = time.perf_counter() + 0.005

        def work(conn: int) -> None:
            while True:
                with lock:
                    n = cursor[0]
                    if n >= len(due):
                        return
                    cursor[0] += 1
                offset, index = due[n]
                scheduled = origin + offset
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                status, body = self.send(conn, index)
                finished = time.perf_counter()
                ok = self.mismatch(index, status, body, scores=False) is None
                with lock:
                    samples.append(Sample(index, scheduled, started, finished, status, ok))

        self.fan(work)
        return samples

    def closed_loop(self, sequence: list[int], start: int, seconds: float) -> tuple[list[Sample], float]:
        """Back to back on every connection for *seconds*, sending
        ``sequence`` from position *start* on (wrapping); returns the
        samples and the wall time from the start to the last response."""
        samples: list[Sample] = []
        lock = threading.Lock()
        cursor = [start]
        origin = time.perf_counter()
        deadline = origin + seconds

        def work(conn: int) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    index = sequence[cursor[0] % len(sequence)]
                    cursor[0] += 1
                started = time.perf_counter()
                status, body = self.send(conn, index)
                finished = time.perf_counter()
                ok = self.mismatch(index, status, body, scores=False) is None
                with lock:
                    samples.append(Sample(index, started, started, finished, status, ok))

        self.fan(work)
        wall = max((s.finished for s in samples), default=deadline) - origin
        return samples, wall

    def serial(self, sequence: list[int], prefix: str) -> list[Sample]:
        """One request at a time on connection 0, each with a request id."""
        samples = []
        for n, index in enumerate(sequence):
            started = time.perf_counter()
            status, body = self.send(0, index, request_id=f"{prefix}-{n:06d}")
            finished = time.perf_counter()
            ok = self.mismatch(index, status, body, scores=False) is None
            samples.append(Sample(index, started, started, finished, status, ok))
        return samples

    def healthz_ms(self, count: int) -> list[float]:
        """Round trips of ``GET /healthz`` on connection 0."""
        times = []
        for _ in range(count):
            started = time.perf_counter()
            self.clients[0].health()
            times.append((time.perf_counter() - started) * 1000.0)
        return times

    def metrics_text(self) -> str:
        return self.clients[0].metrics_text()
