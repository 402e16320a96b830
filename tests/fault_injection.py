"""Fault-injection harness for the serving stack.

Four families of controlled failure, all stdlib:

* :class:`Fault` / :class:`FaultyShard` — typed shard faults (kill,
  kill-after, kill-mid-frame, stall-mid-frame, mute, garbage, slow,
  chatty; one shard or
  :data:`EVERY_SHARD`) played by a :class:`~repro.serving.workers.Shard`
  subclass. A shard is a fresh interpreter, so monkeypatching does not
  reach it: the faults travel in the argv of the command the pool starts
  (:func:`faulty_shard_command`); :func:`make_pool` installs it on one
  pool, and server-level tests monkeypatch ``WorkerPool.shard_command``
  itself. :func:`fast_lifecycle` shortens the pool's heartbeat,
  deadlines and backoff (a shard learns its heartbeat interval from its
  spec frame, so the patch reaches it too).
* :func:`tear_slot` / :func:`flip_byte` / :func:`free_all_slots` — edit
  a live :class:`~repro.serving.shm.ShmRing` segment the way a writer
  dying mid-copy or a stray byte would (the ring's own property tests).
* :class:`ScriptedServer` — a raw-socket HTTP impostor that plays back a
  scripted sequence of misbehaviours (429 + Retry-After, 503, connection
  reset, slow-loris dribble) so client retry discipline can be asserted
  against exact, deterministic adversity.
* :class:`FakeTime` — a stand-in for the client module's ``time`` that
  records every ``sleep`` instead of performing it, making backoff
  schedules assertable to the millisecond and the tests instant.

Shared by ``tests/test_serving_faults.py``, ``tests/test_serving_client.py``
and ``tests/test_shm_properties.py``.
"""

from __future__ import annotations

import enum
import json
import os
import socket
import struct
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.datasets.synthetic import generate_image
from repro.serving import workers
from repro.serving.pipeline import ProtectedPipeline
from repro.serving.shm import SLOT_FREE, SLOT_WRITING, RingFull, ShmRing
from repro.serving.workers import Shard, WorkerPool, WorkerSpec

SOURCE_SHAPE = (128, 128)
MODEL_INPUT = (16, 16)

#: Shard lifecycle timings tightened so fault tests converge in seconds:
#: fast heartbeats, a short liveness deadline, and near-immediate respawn.
FAST_LIFECYCLE = {
    "_HEARTBEAT_INTERVAL_S": 0.05,
    "_LIVENESS_TIMEOUT_S": 1.0,
    "_JOB_TIMEOUT_S": 20.0,
    "_RESTART_BACKOFF_BASE_S": 0.05,
    "_RESTART_BACKOFF_MAX_S": 0.5,
}


def fast_lifecycle(monkeypatch) -> None:
    """Give every shard pool started in this test the
    :data:`FAST_LIFECYCLE` timings; a test that needs one other value
    patches that one constant of :mod:`repro.serving.workers` after."""
    for name, value in FAST_LIFECYCLE.items():
        monkeypatch.setattr(workers, name, value)


def calibrated_pipeline(benign_images, **kwargs) -> ProtectedPipeline:
    """A pipeline calibrated on the shared synthetic holdout."""
    pipeline = ProtectedPipeline(MODEL_INPUT, **kwargs)
    pipeline.calibrate(benign_images, percentile=5.0)
    return pipeline


def make_pool(pipeline: ProtectedPipeline, *, workers: int = 2, faults=()) -> WorkerPool:
    """A started shard pool over *pipeline* whose shards play *faults* (a
    sequence of :class:`Fault`)."""
    pool = WorkerPool(WorkerSpec.from_pipeline(pipeline), workers, metrics=pipeline.metrics)
    if faults:
        pool.shard_command = faulty_shard_command(faults)
    pool.start()
    return pool


# -- shard faults ---------------------------------------------------------------


class FaultKind(enum.Enum):
    #: exit the moment a job lands, before scoring
    KILL = "kill"
    #: score, then exit before replying
    KILL_AFTER = "kill-after"
    #: write the reply's length header and half its bytes, then exit
    KILL_MID_FRAME = "kill-mid-frame"
    #: write the reply's length header and half its bytes, then hang
    STALL_MID_FRAME = "stall-mid-frame"
    #: send one heartbeat, then fall silent
    MUTE = "mute"
    #: reply with an unframed blob
    GARBAGE = "garbage"
    #: sleep ``seconds`` before scoring
    SLOW = "slow"
    #: print to stdout before scoring
    CHATTY = "chatty"


#: :attr:`Fault.worker` value that targets every shard.
EVERY_SHARD = "*"


@dataclass(frozen=True)
class Fault:
    """One misbehaviour for one shard (or :data:`EVERY_SHARD`)."""

    kind: FaultKind
    worker: int | str
    #: Only for :attr:`FaultKind.SLOW`: how long to stall each job.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise TypeError(f"fault kind must be a FaultKind, got {self.kind!r}")
        if self.worker != EVERY_SHARD and not (
            isinstance(self.worker, int) and self.worker >= 0
        ):
            raise ValueError(f"fault target must be a worker id or {EVERY_SHARD!r}")
        if (self.kind is FaultKind.SLOW) != (self.seconds > 0):
            raise ValueError("slow faults need seconds > 0; no other kind takes seconds")

    def hits(self, worker_id: int) -> bool:
        return self.worker == EVERY_SHARD or self.worker == worker_id


def shard_faults(faults, worker_id: int) -> dict[FaultKind, Fault]:
    """The faults one shard plays, keyed by kind."""
    return {fault.kind: fault for fault in faults if fault.hits(worker_id)}


def faulty_shard_command(faults) -> tuple[str, ...]:
    """A ``WorkerPool.shard_command`` whose shards play *faults*, which
    ride its last argument as JSON."""
    plan = json.dumps([[fault.kind.value, fault.worker, fault.seconds] for fault in faults])
    return (
        sys.executable,
        "-c",
        "from tests.fault_injection import FaultyShard; FaultyShard.main()",
        plan,
    )


class FaultyShard(Shard):
    """A shard that misbehaves on cue at the heartbeat, score, or reply
    step. Faults apply only to a shard's first incarnation, so a respawn
    recovers naturally."""

    def __init__(self, faults, *args) -> None:
        super().__init__(*args)
        self.faults = {} if self.restarts else shard_faults(faults, self.worker_id)
        self.heartbeats_sent = 0

    @classmethod
    def main(cls) -> None:
        """Entry point of :func:`faulty_shard_command`: the faults are the
        command's last argument."""
        plan = json.loads(sys.argv[-1])
        super().main([Fault(FaultKind(kind), worker, seconds) for kind, worker, seconds in plan])

    def heartbeat(self) -> bool:
        if FaultKind.MUTE in self.faults and self.heartbeats_sent >= 1:
            return True
        self.heartbeats_sent += 1
        return super().heartbeat()

    def score(self, kind, job_id, request_id, payloads) -> bytes:
        if FaultKind.KILL in self.faults:
            os._exit(170)  # simulated crash mid-request
        slow = self.faults.get(FaultKind.SLOW)
        if slow is not None:
            time.sleep(slow.seconds)
        if FaultKind.CHATTY in self.faults:
            print(f"shard {self.worker_id} scoring {job_id}", flush=True)
        return super().score(kind, job_id, request_id, payloads)

    def reply(self, frame) -> bool:
        if FaultKind.KILL_MID_FRAME in self.faults:
            # The nastiest crash window: the dispatcher has read a length
            # header promising a whole frame, and the shard dies half-way
            # through its bytes (``repro.serving.wire.write_frame``'s
            # framing, a 4-byte big-endian length, written raw). The
            # dispatcher must see an end of file, recycle this shard, and
            # requeue the job exactly once.
            try:
                os.write(
                    self.frames_out.fileno(),
                    struct.pack(">I", len(frame)) + frame[: len(frame) // 2],
                )
            finally:
                os._exit(172)
        if FaultKind.STALL_MID_FRAME in self.faults:
            # Alive, pipe open, frozen half-way through the reply: no end
            # of file ever comes, so only the job deadline can end it.
            os.write(
                self.frames_out.fileno(),
                struct.pack(">I", len(frame)) + frame[: len(frame) // 2],
            )
            time.sleep(3600)
        if FaultKind.KILL_AFTER in self.faults:
            os._exit(171)  # simulated crash after scoring, before replying
        if FaultKind.GARBAGE in self.faults:
            # Read as a header, these bytes declare a ~3.7 GB frame: over
            # the wire's cap, so the dispatcher allocates nothing for it.
            os.write(self.frames_out.fileno(), b"\xde\xad\xbe\xef" + os.urandom(24))
            return True
        return super().reply(frame)


# -- shm slot surgery -------------------------------------------------------------
#
# The segment layout documented in repro.serving.shm: a 12-byte ring header,
# then per slot a 12-byte record header (state, magic, reserved, length,
# CRC-32) followed by ``slot_bytes`` of payload room. The helpers map the
# segment by name, so they edit exactly the bytes a peer process would see.

_RING_HEADER_BYTES = 12
_SLOT_HEADER = struct.Struct(">BBHII")
_SLOT_MAGIC = 0xA5


def _slot_offset(ring: ShmRing, slot: int) -> int:
    return _RING_HEADER_BYTES + slot * (_SLOT_HEADER.size + ring.slot_bytes)


def _edit(ring: ShmRing, edit):
    shm = shared_memory.SharedMemory(name=ring.name)
    try:
        return edit(shm.buf)
    finally:
        shm.close()


def tear_slot(ring: ShmRing, frame: bytes) -> int:
    """Claim a FREE slot and copy only half of *frame*, never publishing:
    the state a writer SIGKILLed mid-copy leaves behind."""

    def edit(buf) -> int:
        for slot in range(ring.slots):
            offset = _slot_offset(ring, slot)
            if buf[offset] != SLOT_FREE:
                continue
            _SLOT_HEADER.pack_into(
                buf, offset, SLOT_WRITING, _SLOT_MAGIC, 0, len(frame), zlib.crc32(frame)
            )
            start = offset + _SLOT_HEADER.size
            half = frame[: len(frame) // 2]
            buf[start : start + len(half)] = half
            return slot
        raise RingFull(f"all {ring.slots} slots occupied")

    return _edit(ring, edit)


def flip_byte(ring: ShmRing, slot: int, index: int, mask: int) -> None:
    """XOR byte *index* of slot *slot*'s record (header + payload room)."""
    record = _SLOT_HEADER.size + ring.slot_bytes
    if not 0 <= index < record:
        raise ValueError(f"byte index {index} outside slot record of {record} bytes")

    def edit(buf) -> None:
        buf[_slot_offset(ring, slot) + index] ^= mask & 0xFF

    _edit(ring, edit)


def free_all_slots(ring: ShmRing) -> None:
    """Force every slot back to FREE."""

    def edit(buf) -> None:
        for slot in range(ring.slots):
            _SLOT_HEADER.pack_into(buf, _slot_offset(ring, slot), SLOT_FREE, _SLOT_MAGIC, 0, 0, 0)

    _edit(ring, edit)


def holdout_images(count: int = 6) -> list[np.ndarray]:
    """The same deterministic synthetic scenes the test suite calibrates on."""
    return [
        generate_image(SOURCE_SHAPE, np.random.default_rng((7, index)), family="neurips")
        for index in range(count)
    ]


# -- scripted HTTP adversity --------------------------------------------------


def response(
    status: int,
    body: bytes = b"{}",
    *,
    headers: dict[str, str] | None = None,
) -> dict:
    """Script step: one complete HTTP response."""
    return {"kind": "response", "status": status, "body": body, "headers": headers or {}}


def reset() -> dict:
    """Script step: accept the request, then slam the connection shut."""
    return {"kind": "reset"}


def slow_loris(body: bytes = b"{}", *, chunk_delay_s: float = 0.5, chunks: int = 20) -> dict:
    """Script step: dribble the response one byte at a time. The client's
    socket timeout is per-``recv``, so it only fires when *chunk_delay_s*
    exceeds it — pick the client timeout below the delay."""
    return {
        "kind": "slow",
        "body": body,
        "chunk_delay_s": chunk_delay_s,
        "chunks": chunks,
    }


_REASONS = {200: "OK", 400: "Bad Request", 429: "Too Many Requests", 503: "Service Unavailable"}


class ScriptedServer:
    """A raw-socket HTTP server that consumes one script step per request.

    The script is a list of steps (:func:`response`, :func:`reset`,
    :func:`slow_loris`); once exhausted, every further request gets a 200
    with the final-response body. Runs on a daemon thread; use as a
    context manager.
    """

    def __init__(self, script: list[dict], *, final_body: bytes = b"{}") -> None:
        self.script = list(script)
        self.final_body = final_body
        self.requests_seen = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self._lock = threading.Lock()
        self._closing = False
        self._thread = threading.Thread(
            target=self._serve, name="scripted-server", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._sock.getsockname()
        return host, port

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._closing = True
        self._thread.join(timeout=5.0)
        self._sock.close()

    # -- internals -----------------------------------------------------------

    def _next_step(self) -> dict:
        with self._lock:
            self.requests_seen += 1
            if self.script:
                return self.script.pop(0)
        return response(200, self.final_body)

    def _serve(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    return
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            # One thread per connection: a slow-loris dribble must not
            # block the accept loop the client's retry depends on.
            worker = threading.Thread(
                target=self._handle_and_close, args=(conn,), daemon=True
            )
            worker.start()

    def _handle_and_close(self, conn: socket.socket) -> None:
        try:
            self._handle(conn)
        finally:
            conn.close()

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        try:
            self._drain_request(conn)
        except OSError:
            return
        step = self._next_step()
        try:
            if step["kind"] == "reset":
                # RST instead of FIN: the client sees a hard connection
                # failure, not a graceful empty response.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            elif step["kind"] == "slow":
                head = (
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 1000000\r\n\r\n"
                )
                conn.sendall(head)
                for _ in range(step["chunks"]):
                    with self._lock:
                        if self._closing:
                            return
                    conn.sendall(step["body"][:1] or b" ")
                    time.sleep(step["chunk_delay_s"])
            else:
                conn.sendall(self._render(step))
        except OSError:
            pass  # client hung up first; the script step still counts

    def _drain_request(self, conn: socket.socket) -> None:
        """Read one request (headers + declared body) off the socket."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(rest) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return
            rest += chunk

    def _render(self, step: dict) -> bytes:
        status = step["status"]
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(step["body"])),
            # One request per connection: announce it, or the client's
            # keep-alive reuse would see spurious transport errors.
            "Connection": "close",
            **step["headers"],
        }
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        return head.encode("ascii") + b"\r\n" + step["body"]


# -- deterministic time -------------------------------------------------------


class FakeTime:
    """Drop-in for the client module's ``time``: sleeps are recorded, not
    slept, and ``monotonic`` advances by exactly the recorded amounts."""

    def __init__(self) -> None:
        self.sleeps: list[float] = []
        self._now = 1000.0

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self._now += seconds

    def monotonic(self) -> float:
        return self._now

    def perf_counter(self) -> float:
        return self._now
