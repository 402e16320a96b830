"""The load engine: drive a compiled schedule against a live server.

Closed-loop levels spawn one thread per scheduled client, each holding
its own keep-alive :class:`~repro.serving.client.DetectionClient` and
firing back-to-back until the level's clock runs out. Open-loop levels
replay the pre-compiled Poisson arrival instants from a scheduler thread
into a bounded dispatch pool, so offered load is independent of service
time — the property closed loops cannot give you.

Adversarial kinds leave the HTTP client: ``slow_loris`` opens a raw
socket and dribbles a request header a few bytes at a time without ever
completing it (the server's per-connection socket timeout is what should
save it), and ``garbage`` posts undecodable bodies that must come back
``400``, not ``500``.

Every request becomes one :class:`RequestRecord`; the results pipeline
(:mod:`repro.loadlab.results`) does all aggregation. The engine itself
never retries, sleeps, or reads wall-clock time except through its
injectable ``clock``, which is how the tests drive it with a fake
clock against a scripted HTTP impostor (``tests/test_loadlab_engine.py``).
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import ServingError
from repro.loadlab.schedule import LevelSchedule, kind_stream
from repro.loadlab.scenario import Scenario
from repro.loadlab.workload import PayloadPool
from repro.serving.client import DetectionClient
from repro.serving.wire import BATCH_CONTENT_TYPE, IMAGE_CONTENT_TYPE

__all__ = ["EXPECTED_STATUSES", "LoadEngine", "RequestRecord"]

#: What "the server behaved" means per request kind: benign, attack, and
#: batch uploads must score (200); garbage must be *rejected cleanly*
#: (400); a slow-loris hold never completes, so any outcome but a crash
#: counts (status 0 records the abort).
EXPECTED_STATUSES = {
    "benign": frozenset({200}),
    "attack": frozenset({200}),
    "batch": frozenset({200}),
    "garbage": frozenset({400}),
    "slow_loris": frozenset({0}),
}

#: Bytes of request head a slow-loris connection dribbles out.
_LORIS_HEAD = (
    b"POST /v1/detect HTTP/1.1\r\n"
    b"Content-Type: application/octet-stream\r\n"
    b"Content-Length: 1000000\r\n"
)
_LORIS_CHUNKS = 8


@dataclass(frozen=True)
class RequestRecord:
    """One fired request, as observed by the generator."""

    level: int
    kind: str
    #: HTTP status; 0 = no complete response (transport error or an
    #: intentionally-abandoned slow-loris hold).
    status: int
    #: Whether the outcome matches :data:`EXPECTED_STATUSES` for the kind.
    ok: bool
    latency_ms: float
    #: Offset of the request's start from the engine run's start.
    start_s: float


class LoadEngine:
    """Execute one compiled schedule; returns the flat record list.

    Thread-safety: ``_lock`` guards the record list and the per-level
    request budget; clients are per-thread and sockets are touched only
    outside the lock.
    """

    def __init__(
        self,
        scenario: Scenario,
        schedule: tuple[LevelSchedule, ...],
        payloads: PayloadPool,
        host: str,
        port: int,
        *,
        clock=None,
    ) -> None:
        self.scenario = scenario
        self.schedule = schedule
        self.payloads = payloads
        self.host = host
        self.port = port
        self._clock = clock or time
        self._lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self._level_count = 0
        self._t0 = 0.0

    # -- public ---------------------------------------------------------------

    def run(self) -> list[RequestRecord]:
        """Drive every level in order; blocking. Returns all records."""
        self._warmup()
        self._t0 = self._clock.monotonic()
        for level in self.schedule:
            with self._lock:
                self._level_count = 0
            if level.mode == "closed":
                self._run_closed(level)
            else:
                self._run_open(level)
        with self._lock:
            return list(self._records)

    def _warmup(self) -> None:
        """Fire the scenario's unrecorded warm-up requests sequentially, so
        cold caches (shard plan compilation, operator memos) don't land in
        level 0's latency sample. Uses the first scorable pool."""
        count = self.scenario.warmup_requests
        if count <= 0:
            return
        kind = next(
            (k for k in ("benign", "batch", "attack") if getattr(self.payloads, k)),
            None,
        )
        if kind is None:
            return
        client = self._make_client()
        try:
            for index in range(count):
                self._post(client, kind, index)
        finally:
            client.close()

    # -- record plumbing ------------------------------------------------------

    def _record(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    def _claim_budget(self) -> bool:
        """Reserve one request against the per-level cap; False = stop."""
        cap = self.scenario.max_requests_per_level
        with self._lock:
            if cap is not None and self._level_count >= cap:
                return False
            self._level_count += 1
            return True

    # -- closed loop ----------------------------------------------------------

    def _run_closed(self, level: LevelSchedule) -> None:
        end = self._clock.monotonic() + level.duration_s
        think = self.scenario.arrival.think_time_s

        def client_loop(client_index: int) -> None:
            stream = kind_stream(self.scenario, level.index, client_index)
            client = self._make_client()
            sent = 0
            try:
                while self._clock.monotonic() < end:
                    if not self._claim_budget():
                        return
                    kind = stream.next()
                    self._record(self._fire(client, level.index, kind, sent))
                    sent += 1
                    if think > 0:
                        self._clock.sleep(think)
            finally:
                client.close()

        threads = [
            threading.Thread(
                target=client_loop, args=(index,), name=f"loadlab-client-{index}"
            )
            for index in range(level.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=level.duration_s + self.scenario.client_timeout_s + 30.0)

    # -- open loop ------------------------------------------------------------

    def _run_open(self, level: LevelSchedule) -> None:
        local = threading.local()
        clients: list[DetectionClient] = []

        def task(kind: str, sequence: int) -> None:
            client = getattr(local, "client", None)
            if client is None:
                client = local.client = self._make_client()
                with self._lock:
                    clients.append(client)
            self._record(self._fire(client, level.index, kind, sequence))

        start = self._clock.monotonic()
        try:
            with ThreadPoolExecutor(
                max_workers=self.scenario.arrival.max_outstanding,
                thread_name_prefix="loadlab-open",
            ) as pool:
                for sequence, arrival in enumerate(level.arrivals):
                    delay = start + arrival.at_s - self._clock.monotonic()
                    if delay > 0:
                        self._clock.sleep(delay)
                    pool.submit(task, arrival.kind, sequence)
        finally:
            for client in clients:
                client.close()

    # -- one request ----------------------------------------------------------

    def _make_client(self) -> DetectionClient:
        return DetectionClient(
            self.host,
            self.port,
            timeout_s=self.scenario.client_timeout_s,
            max_retries=self.scenario.client_retries,
        )

    def _fire(
        self, client: DetectionClient, level_index: int, kind: str, sequence: int
    ) -> RequestRecord:
        start_s = self._clock.monotonic() - self._t0
        started = self._clock.perf_counter()
        if kind == "slow_loris":
            self._slow_loris_hold()
            status = 0
        else:
            status = self._post(client, kind, sequence)
        latency_ms = (self._clock.perf_counter() - started) * 1000.0
        return RequestRecord(
            level=level_index,
            kind=kind,
            status=status,
            ok=status in EXPECTED_STATUSES[kind],
            latency_ms=latency_ms,
            start_s=start_s,
        )

    def _post(self, client: DetectionClient, kind: str, sequence: int) -> int:
        if kind == "batch":
            path, content_type = "/v1/detect/batch", BATCH_CONTENT_TYPE
        else:
            path, content_type = "/v1/detect", IMAGE_CONTENT_TYPE
        body = self.payloads.payload_for(kind, sequence)
        try:
            status, _, _ = client.request_raw(
                "POST", path, body=body, headers={"Content-Type": content_type}
            )
        except ServingError:
            return 0
        return status

    def _slow_loris_hold(self) -> None:
        """Open a connection and dribble an incomplete request head, then
        abandon it — the attack is the *hold*, not the response."""
        hold_s = self.scenario.mix.slow_loris_hold_s
        pause = hold_s / _LORIS_CHUNKS
        step = max(1, len(_LORIS_HEAD) // _LORIS_CHUNKS)
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.scenario.client_timeout_s
            ) as conn:
                for offset in range(0, len(_LORIS_HEAD), step):
                    conn.sendall(_LORIS_HEAD[offset : offset + step])
                    self._clock.sleep(pause)
        except OSError:
            # The server cut the hold short (socket timeout, drain) —
            # which is the defense working; the record stays status 0.
            return
