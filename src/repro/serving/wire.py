"""Wire format shared by the detection server, client, and worker shards.

The service speaks raw image bytes — no multipart, no base64 — using the
library's own codecs:

* A single-image body is a PNG (``\\x89PNG...``) or binary/ASCII netpbm
  (``P2``/``P3``/``P5``/``P6``) payload, distinguished by magic bytes.
* A batch body concatenates single-image payloads with a tiny length
  prefix: ``count:uint32`` then, per image, ``length:uint32`` + payload
  (big-endian). Content type :data:`BATCH_CONTENT_TYPE`.

The same length-prefixed framing carries the dispatcher ↔ worker-shard
protocol, one :func:`write_frame` record per frame on each shard's stdin
and stdout (:mod:`repro.serving.workers`):

* a **job** frame is ``[kind, job_id, request_id, *image payloads]``
  (:func:`pack_job` / :func:`unpack_job`), ``kind`` one of
  :data:`JOB_KINDS`;
* a **result** frame is ``[kind, job_id, body]`` (:func:`pack_result` /
  :func:`unpack_result`), ``kind`` one of :data:`RESULT_KINDS` — a JSON
  verdict list for ``"ok"``, a JSON error descriptor for ``"err"``, and an
  empty body for heartbeats (``"hb"``), which are bare liveness frames.

All sides import from here so the framing cannot drift apart, and every
malformed frame raises :class:`~repro.errors.CodecError` — truncation,
trailing bytes, unknown kinds, or non-UTF-8 identifiers never hang or
silently mis-parse.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CodecError
from repro.imaging.png import decode_png, encode_png
from repro.imaging.ppm import decode_netpbm

__all__ = [
    "BATCH_CONTENT_TYPE",
    "IMAGE_CONTENT_TYPE",
    "METRICS_CONTENT_TYPE",
    "JOB_KINDS",
    "RESULT_KINDS",
    "MAX_FRAME_BYTES",
    "decode_image_payload",
    "encode_image_payload",
    "pack_batch",
    "unpack_batch",
    "pack_job",
    "unpack_job",
    "pack_result",
    "unpack_result",
    "read_frame",
    "write_frame",
]

#: Content type of a single raw image body (the codec is sniffed anyway).
IMAGE_CONTENT_TYPE = "application/octet-stream"
#: Content type of a length-prefixed batch body.
BATCH_CONTENT_TYPE = "application/x-decamouflage-batch"
#: Prometheus text exposition format, as served by ``GET /metrics``.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_NETPBM_MAGICS = (b"P2", b"P3", b"P5", b"P6")


def decode_image_payload(data: bytes, *, origin: str = "<body>") -> np.ndarray:
    """Decode one raw image body, sniffing PNG vs netpbm by magic bytes."""
    if not data:
        raise CodecError(f"{origin}: empty image body")
    if data.startswith(_PNG_SIGNATURE):
        return decode_png(data, origin=origin)
    if data[:2] in _NETPBM_MAGICS:
        return decode_netpbm(data, origin=origin)
    raise CodecError(
        f"{origin}: body is neither PNG nor netpbm (magic {data[:8]!r})"
    )


def encode_image_payload(image: np.ndarray) -> bytes:
    """Encode one image for the wire (PNG: compact and lossless)."""
    return encode_png(image)


def pack_batch(payloads: list[bytes]) -> bytes:
    """Frame already-encoded image payloads as one batch body."""
    parts = [struct.pack(">I", len(payloads))]
    for payload in payloads:
        parts.append(struct.pack(">I", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_batch(data: bytes, *, origin: str = "<body>") -> list[bytes]:
    """Split a batch body back into per-image payloads."""
    if len(data) < 4:
        raise CodecError(f"{origin}: truncated batch header")
    (count,) = struct.unpack_from(">I", data, 0)
    offset = 4
    payloads: list[bytes] = []
    for index in range(count):
        if offset + 4 > len(data):
            raise CodecError(f"{origin}: truncated length prefix for image {index}")
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise CodecError(f"{origin}: truncated payload for image {index}")
        payloads.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise CodecError(f"{origin}: {len(data) - offset} trailing bytes after batch")
    return payloads


#: Job kinds a dispatcher may send to a worker shard.
JOB_KINDS = ("single", "batch")
#: Result kinds a worker shard may send back.
RESULT_KINDS = ("ok", "err", "hb")


def _decode_field(raw: bytes, *, origin: str, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"{origin}: {what} is not valid UTF-8") from exc


def pack_job(kind: str, job_id: str, request_id: str, payloads: list[bytes]) -> bytes:
    """Frame one dispatcher→worker job on top of :func:`pack_batch`."""
    if kind not in JOB_KINDS:
        raise CodecError(f"unknown job kind {kind!r}")
    return pack_batch(
        [kind.encode("utf-8"), job_id.encode("utf-8"), request_id.encode("utf-8"), *payloads]
    )


def unpack_job(data: bytes, *, origin: str = "<job>") -> tuple[str, str, str, list[bytes]]:
    """Split a job frame into ``(kind, job_id, request_id, payloads)``."""
    frames = unpack_batch(data, origin=origin)
    if len(frames) < 3:
        raise CodecError(f"{origin}: job frame has {len(frames)} fields, need >= 3")
    kind = _decode_field(frames[0], origin=origin, what="job kind")
    if kind not in JOB_KINDS:
        raise CodecError(f"{origin}: unknown job kind {kind!r}")
    job_id = _decode_field(frames[1], origin=origin, what="job id")
    request_id = _decode_field(frames[2], origin=origin, what="request id")
    return kind, job_id, request_id, frames[3:]


def pack_result(kind: str, job_id: str, body: bytes) -> bytes:
    """Frame one worker→dispatcher result on top of :func:`pack_batch`."""
    if kind not in RESULT_KINDS:
        raise CodecError(f"unknown result kind {kind!r}")
    return pack_batch([kind.encode("utf-8"), job_id.encode("utf-8"), body])


def unpack_result(data: bytes, *, origin: str = "<result>") -> tuple[str, str, bytes]:
    """Split a result frame into ``(kind, job_id, body)``."""
    frames = unpack_batch(data, origin=origin)
    if len(frames) != 3:
        raise CodecError(f"{origin}: result frame has {len(frames)} fields, need 3")
    kind = _decode_field(frames[0], origin=origin, what="result kind")
    if kind not in RESULT_KINDS:
        raise CodecError(f"{origin}: unknown result kind {kind!r}")
    job_id = _decode_field(frames[1], origin=origin, what="job id")
    return kind, job_id, frames[2]


#: Largest frame either side of a shard pipe accepts: a 64 MiB body (the
#: front end's cap) plus ids from a request head of at most 64 KiB.
MAX_FRAME_BYTES = 65 << 20


def write_frame(stream, frame: bytes) -> None:
    """Write one ``length:uint32 + frame`` record whole to an unbuffered
    binary *stream*."""
    view = memoryview(struct.pack(">I", len(frame)) + frame)
    while view:
        view = view[stream.write(view) :]


def read_frame(stream, *, origin: str = "<pipe>") -> bytes | None:
    """Read one record off an unbuffered binary *stream*: None at an end
    of file, a short read included, and CodecError for a declared length
    over :data:`MAX_FRAME_BYTES`, before reading on."""
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"{origin}: frame declares {length} bytes, over the cap")
    return _read_exact(stream, length)


def _read_exact(stream, size: int) -> bytes | None:
    chunks = []
    while size and (chunk := stream.read(size)):
        chunks.append(chunk)
        size -= len(chunk)
    return None if size else b"".join(chunks)
