"""Property-based wire-format tests (seeded stdlib randomness, no
hypothesis dependency).

Two families of property:

* **Round-trip**: for randomly drawn images (arbitrary shapes, gray/RGB,
  uint8 and float sources) and batch sizes 0–32, pack→unpack and
  encode→decode are exact inverses — including the job/result framing the
  dispatcher and worker shards speak over their pipes.
* **Corruption**: flipping any single byte of an encoded PNG payload, or
  of a framed batch body, raises a clean :class:`CodecError` — never a
  silent mis-parse, never a raw ``struct.error``/``zlib.error`` leaking
  through. This is what lets the dispatcher treat "frame decoded" as
  "frame intact".
"""

from __future__ import annotations

import os
import random
import struct
import threading

import numpy as np
import pytest

from repro.errors import CodecError
from repro.serving.eventloop import MAX_BODY_BYTES
from repro.serving.wire import (
    JOB_KINDS,
    MAX_FRAME_BYTES,
    RESULT_KINDS,
    decode_image_payload,
    encode_image_payload,
    pack_batch,
    pack_job,
    pack_result,
    read_frame,
    unpack_batch,
    unpack_job,
    unpack_result,
    write_frame,
)

SEED = 0xDECA


def _random_image(rng: np.random.Generator) -> np.ndarray:
    height = int(rng.integers(1, 33))
    width = int(rng.integers(1, 33))
    if rng.random() < 0.5:
        shape = (height, width)
    else:
        shape = (height, width, 3)
    image = rng.integers(0, 256, size=shape, dtype=np.uint8)
    if rng.random() < 0.3:
        # Float sources in [0, 255] must survive the uint8 wire exactly
        # when they hold integral values.
        return image.astype(np.float64)
    return image


def _flip(data: bytes, position: int) -> bytes:
    mutated = bytearray(data)
    mutated[position] ^= 0x01 + (position % 0xFF)
    return bytes(mutated)


class TestRoundTrips:
    def test_image_payload_round_trip_over_random_shapes(self):
        rng = np.random.default_rng(SEED)
        for _ in range(40):
            image = _random_image(rng)
            decoded = decode_image_payload(encode_image_payload(image))
            assert decoded.dtype == np.uint8
            assert np.array_equal(decoded, image.astype(np.uint8))

    def test_batch_round_trip_over_random_sizes(self):
        rng = random.Random(SEED)
        for _ in range(60):
            count = rng.randint(0, 32)
            payloads = [
                rng.randbytes(rng.randint(0, 512)) for _ in range(count)
            ]
            assert unpack_batch(pack_batch(payloads)) == payloads

    def test_job_frame_round_trip(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            kind = rng.choice(JOB_KINDS)
            job_id = f"job-{rng.randint(0, 10**8):08d}"
            request_id = "req-" + "".join(
                chr(rng.randint(0x20, 0x2FA0)) for _ in range(rng.randint(0, 12))
            )
            payloads = [rng.randbytes(rng.randint(0, 256)) for _ in range(rng.randint(0, 8))]
            frame = pack_job(kind, job_id, request_id, payloads)
            assert unpack_job(frame) == (kind, job_id, request_id, payloads)

    def test_result_frame_round_trip(self):
        rng = random.Random(SEED + 2)
        for _ in range(60):
            kind = rng.choice(RESULT_KINDS)
            job_id = f"job-{rng.randint(0, 10**8):08d}"
            body = rng.randbytes(rng.randint(0, 2048))
            assert unpack_result(pack_result(kind, job_id, body)) == (
                kind,
                job_id,
                body,
            )

    def test_unknown_kinds_refused_at_pack_time(self):
        with pytest.raises(CodecError, match="unknown job kind"):
            pack_job("detonate", "j", "r", [])
        with pytest.raises(CodecError, match="unknown result kind"):
            pack_result("maybe", "j", b"")

    def test_slot_frames_are_unknown_kinds(self):
        """Frames ride the pipe whole; a slot-ref frame is refused like
        any other unknown kind."""
        ref = b"\x00" * 8
        with pytest.raises(CodecError, match="unknown job kind"):
            unpack_job(pack_batch([b"slot", b"j", b"r", ref]))
        with pytest.raises(CodecError, match="unknown result kind"):
            unpack_result(pack_batch([b"slot", b"j", ref]))


class TestSingleByteCorruption:
    def test_every_byte_of_a_png_payload_is_load_bearing(self):
        """Exhaustive: flip each byte of a small PNG and decode. Signature
        flips fail the magic sniff; everything else is covered by chunk
        CRCs. No position may decode silently or raise anything but
        CodecError."""
        rng = np.random.default_rng(SEED)
        payload = encode_image_payload(
            rng.integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
        )
        for position in range(len(payload)):
            with pytest.raises(CodecError):
                decode_image_payload(_flip(payload, position))

    def test_every_byte_of_a_batch_frame_is_load_bearing(self):
        """Flip each byte of a framed batch of PNGs: either the framing
        itself rejects the body, or the framing survives and the mutated
        payload fails its decode — a clean CodecError either way."""
        rng = np.random.default_rng(SEED + 1)
        payloads = [
            encode_image_payload(rng.integers(0, 256, size=(6, 6), dtype=np.uint8))
            for _ in range(3)
        ]
        frame = pack_batch(payloads)
        for position in range(len(frame)):
            mutated = _flip(frame, position)
            with pytest.raises(CodecError):
                for blob in unpack_batch(mutated):
                    decode_image_payload(blob)

    def test_truncations_and_padding_rejected(self):
        rng = np.random.default_rng(SEED + 2)
        payloads = [
            encode_image_payload(rng.integers(0, 256, size=(5, 7), dtype=np.uint8))
        ]
        frame = pack_batch(payloads)
        for cut in (1, 2, 7, len(frame) // 2, len(frame) - 1):
            with pytest.raises(CodecError, match="truncated"):
                unpack_batch(frame[:cut])
        with pytest.raises(CodecError, match="trailing"):
            unpack_batch(frame + b"\x00")

    def test_job_kind_corruption_rejected(self):
        frame = pack_job("single", "job-1", "req-1", [b"payload"])
        # The kind field starts right after the count + its length prefix.
        mutated = _flip(frame, 8)
        with pytest.raises(CodecError, match="unknown job kind"):
            unpack_job(mutated)

    def test_result_with_non_utf8_identifiers_rejected(self):
        frame = pack_batch([b"ok", b"\xff\xfe-not-utf8", b"{}"])
        with pytest.raises(CodecError, match="not valid UTF-8"):
            unpack_result(frame)
        short = pack_batch([b"ok", b"job"])
        with pytest.raises(CodecError, match="fields, need 3"):
            unpack_result(short)


class TestPipeFraming:
    """``length:uint32 + frame`` records over a real OS pipe, as between a
    dispatcher and a shard."""

    @staticmethod
    def _pipe():
        read_fd, write_fd = os.pipe()
        return open(read_fd, "rb", buffering=0), open(write_fd, "wb", buffering=0)

    def test_frames_round_trip_whatever_their_size(self):
        rng = random.Random(SEED + 3)
        # Empty, small, and several times a pipe buffer: the writer loops
        # over short writes while the reader drains on another thread.
        frames = [b"", rng.randbytes(100), rng.randbytes(65536), rng.randbytes(3 << 20)]
        reader, writer = self._pipe()
        received = []

        def drain() -> None:
            while (frame := read_frame(reader)) is not None:
                received.append(frame)

        thread = threading.Thread(target=drain)
        thread.start()
        try:
            for frame in frames:
                write_frame(writer, frame)
        finally:
            writer.close()
            thread.join(timeout=30.0)
            reader.close()
        assert received == frames

    def test_a_short_read_is_an_end_of_file(self):
        for torn in (b"", b"\x00\x00", struct.pack(">I", 10) + b"half!"):
            reader, writer = self._pipe()
            writer.write(torn)
            writer.close()
            with reader:
                assert read_frame(reader) is None

    def test_a_length_over_the_cap_is_refused_before_reading_on(self):
        reader, writer = self._pipe()
        with reader, writer:
            writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"body")
            with pytest.raises(CodecError, match="over the"):
                read_frame(reader, origin="worker-0")
            assert reader.read(4) == b"body"  # nothing was consumed for it
        # The largest job frame: a whole body plus ids from a 64 KiB head.
        assert MAX_FRAME_BYTES >= MAX_BODY_BYTES + (64 << 10) + 64
