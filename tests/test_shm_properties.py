"""Property-based tests for the shared-memory slot ring (seeded stdlib
randomness, no hypothesis dependency). The shard pool no longer uses the
ring; it stays for the serving benchmark's ``serving.shm.put_get``
microbench, and these tests keep it honest until it goes.

Three families of property:

* **Round-trip**: randomly drawn images (arbitrary shapes, gray/RGB,
  uint8 and float sources) and batches ride a ring inside full job/result
  frames and come back byte-exact, including across slot wrap-around at
  every boundary of the ring.
* **Backpressure**: a full ring refuses cleanly (:class:`RingFull`) and
  recovers the moment one slot retires; oversized frames are refused
  before touching any slot.
* **Corruption**: flipping any single byte of a published slot's record —
  header or payload — makes the reader raise a clean
  :class:`~repro.errors.CodecError`. A writer that dies mid-copy (torn
  write, never published) is refused the same way.
"""

from __future__ import annotations

import random
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import CodecError
from repro.serving.shm import RingFull, ShmRing
from repro.serving.wire import (
    encode_image_payload,
    decode_image_payload,
    pack_job,
    pack_result,
    unpack_job,
    unpack_result,
)

from tests.fault_injection import flip_byte, free_all_slots, tear_slot

SEED = 0xDECA


@pytest.fixture
def ring():
    ring = ShmRing.create(4, 1 << 16)
    yield ring
    ring.close()
    ring.unlink()


def _random_image(rng: np.random.Generator) -> np.ndarray:
    height = int(rng.integers(1, 33))
    width = int(rng.integers(1, 33))
    shape = (height, width) if rng.random() < 0.5 else (height, width, 3)
    image = rng.integers(0, 256, size=shape, dtype=np.uint8)
    if rng.random() < 0.3:
        return image.astype(np.float64)
    return image


class TestRoundTrips:
    def test_job_frames_round_trip_through_a_ring(self, ring):
        """Arbitrary images and batch sizes survive put→get byte-exact."""
        rng = np.random.default_rng(SEED)
        chooser = random.Random(SEED)
        for _ in range(40):
            images = [_random_image(rng) for _ in range(chooser.randint(1, 6))]
            payloads = [encode_image_payload(image) for image in images]
            kind = "batch" if len(images) > 1 else "single"
            frame = pack_job(kind, "job-1", "req-1", payloads)
            slot = ring.put(frame)
            back_kind, job_id, request_id, back = unpack_job(ring.get(slot))
            assert (back_kind, job_id, request_id) == (kind, "job-1", "req-1")
            assert back == payloads
            for blob, image in zip(back, images):
                assert np.array_equal(
                    decode_image_payload(blob), image.astype(np.uint8)
                )

    def test_result_frames_round_trip_through_a_ring(self, ring):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            body = rng.randbytes(rng.randint(0, 4096))
            frame = pack_result("ok", f"job-{rng.randint(0, 10**8):08d}", body)
            slot = ring.put(frame)
            assert unpack_result(ring.get(slot)) == unpack_result(frame)

    def test_wrap_around_at_every_slot_boundary(self):
        """Drive the scan pointer across every slot boundary many times:
        each put lands in a fresh slot, and payloads never bleed between
        neighbouring slots whatever their sizes."""
        ring = ShmRing.create(5, 512)
        try:
            rng = random.Random(SEED + 2)
            for step in range(5 * 7):
                payloads = [
                    rng.randbytes(rng.randint(0, 400)) for _ in range(rng.randint(1, 3))
                ]
                slots = [ring.put(p) for p in payloads]
                assert len(set(slots)) == len(slots)
                # Retire out of order so FREE slots interleave with READY.
                for slot, payload in sorted(
                    zip(slots, payloads), key=lambda pair: -pair[0]
                ):
                    assert ring.get(slot) == payload
                assert ring.occupancy() == 0
        finally:
            ring.close()
            ring.unlink()


class TestBackpressure:
    def test_full_ring_refuses_and_recovers(self):
        ring = ShmRing.create(3, 128)
        try:
            slots = [ring.put(bytes([i]) * 10) for i in range(3)]
            assert ring.occupancy() == 3
            with pytest.raises(RingFull):
                ring.put(b"overflow")
            assert ring.get(slots[1]) == b"\x01" * 10
            reused = ring.put(b"after-free")
            assert reused == slots[1]
            assert ring.get(reused) == b"after-free"
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_frame_refused_without_claiming_a_slot(self, ring):
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            ring.put(b"x" * (ring.slot_bytes + 1))
        assert ring.occupancy() == 0

    def test_empty_frame_is_legal(self, ring):
        slot = ring.put(b"")
        assert ring.get(slot) == b""


class TestCorruption:
    def test_every_byte_of_a_published_slot_is_load_bearing(self):
        """Exhaustive over the slot record: for every byte the payload or
        header occupies, a single-bit-pattern flip must make the reader
        refuse the slot with CodecError — never return mutated bytes."""
        rng = random.Random(SEED + 4)
        payload = rng.randbytes(96)
        header_size = 12  # state, magic, reserved(2), length(4), crc(4)
        for index in range(header_size + len(payload)):
            ring = ShmRing.create(1, 128)
            try:
                slot = ring.put(payload)
                flip_byte(ring, slot, index, 0x01 + (index % 0xFF))
                with pytest.raises(CodecError):
                    ring.get(slot)
            finally:
                ring.close()
                ring.unlink()

    def test_unpublished_slots_refused(self, ring):
        with pytest.raises(CodecError, match="not published"):
            ring.get(0)

    def test_out_of_range_slots_refused(self, ring):
        for slot in (-1, ring.slots, ring.slots + 7):
            with pytest.raises(CodecError, match="out of range"):
                ring.get(slot)

    def test_torn_write_never_published(self, ring):
        """A writer killed mid-copy leaves WRITING; the reader refuses it
        and the slot stays quarantined until it is forced FREE."""
        slot = tear_slot(ring, b"A" * 64)
        with pytest.raises(CodecError, match="not published"):
            ring.get(slot)
        assert ring.occupancy() == 1
        free_all_slots(ring)
        assert ring.occupancy() == 0

    def test_double_get_refused(self, ring):
        slot = ring.put(b"once")
        assert ring.get(slot) == b"once"
        with pytest.raises(CodecError, match="not published"):
            ring.get(slot)

    def test_attach_rejects_foreign_segments(self):
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            shm.buf[:8] = b"NOTARING"
            with pytest.raises(CodecError, match="bad magic"):
                ShmRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_attach_sees_the_creators_slots(self):
        ring = ShmRing.create(2, 256)
        try:
            slot = ring.put(b"cross-mapping")
            peer = ShmRing.attach(ring.name)
            try:
                assert (peer.slots, peer.slot_bytes) == (2, 256)
                assert peer.get(slot) == b"cross-mapping"
                assert ring.occupancy() == 0
            finally:
                peer.close()
        finally:
            ring.close()
            ring.unlink()
