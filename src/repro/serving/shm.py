"""Shared-memory slot rings, kept only for the serving benchmark.

The shard pool (:mod:`repro.serving.workers`) sends every frame whole
over its pipe and no longer uses this module. ``benchmarks/perf`` still
times :meth:`ShmRing.put` + :meth:`ShmRing.get` of a job frame as its
``serving.shm.put_get`` microbench, so the ring stays until that
benchmark changes.

A :class:`multiprocessing.shared_memory.SharedMemory` segment organised
as a fixed-slot ring:

* the segment starts with a 12-byte ring header (magic, version, slot
  count, slot size) so an attach can never mis-parse a stranger's segment;
* each slot is a 12-byte record header (state byte, slot magic, payload
  length, CRC-32) followed by ``slot_bytes`` of payload room;
* a writer claims a FREE slot (state → WRITING), copies the payload,
  stamps length + CRC, and only then publishes it (state → READY);
* the reader is handed the slot index out of band, validates
  state/magic/length/CRC, copies the payload out, and retires the slot
  (state → FREE).

The publish step is a single byte store, so a writer SIGKILLed mid-copy
leaves the slot in WRITING — never READY with torn bytes. A reader that
is handed a slot in any state but READY, or whose CRC disagrees, raises
:class:`~repro.errors.CodecError`. :meth:`ShmRing.put` raises
:class:`RingFull` when every slot is occupied.
"""

from __future__ import annotations

import struct
import threading
import zlib
from multiprocessing import shared_memory

from repro.errors import CodecError

__all__ = [
    "RingFull",
    "SLOT_FREE",
    "SLOT_READY",
    "SLOT_WRITING",
    "ShmRing",
]

#: Segment header: magic, version, slot count, slot payload capacity.
_RING_HEADER = struct.Struct(">4sHHI")
_RING_MAGIC = b"DCRG"
_RING_VERSION = 1

#: Slot record header: state, slot magic, reserved, payload length, CRC-32.
_SLOT_HEADER = struct.Struct(">BBHII")
_SLOT_MAGIC = 0xA5

#: Slot states. FREE → WRITING → READY → FREE; READY is the only state a
#: reader may consume, and the FREE→WRITING→READY walk is write-side only.
SLOT_FREE = 0
SLOT_WRITING = 1
SLOT_READY = 2


class RingFull(RuntimeError):
    """Every slot is occupied."""


class ShmRing:
    """One direction of a fixed-slot shared-memory ring.

    The creating side owns the segment (and must eventually
    :meth:`unlink`); the attaching side only maps it. ``put`` is
    thread-safe; ``get``
    consumes a specific slot index delivered out-of-band, so concurrent
    readers never contend for the same slot by construction.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, slots: int, slot_bytes: int, *, owner: bool
    ) -> None:
        self._shm = shm
        self._slots = slots
        self._slot_bytes = slot_bytes
        self._owner = owner
        self._closed = False
        self._lock = threading.Lock()  # serialises writers scanning for FREE
        self._scan_from = 0

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, slots: int, slot_bytes: int, *, name: str | None = None) -> "ShmRing":
        """Allocate a fresh ring with every slot FREE."""
        if slots < 1:
            raise ValueError(f"ring needs at least 1 slot, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot capacity must be positive, got {slot_bytes}")
        size = _RING_HEADER.size + slots * (_SLOT_HEADER.size + slot_bytes)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            _RING_HEADER.pack_into(shm.buf, 0, _RING_MAGIC, _RING_VERSION, slots, slot_bytes)
            ring = ShmRing(shm, slots, slot_bytes, owner=True)
            for slot in range(slots):
                _SLOT_HEADER.pack_into(shm.buf, ring._slot_offset(slot), SLOT_FREE, _SLOT_MAGIC, 0, 0, 0)
        except BaseException:
            # A half-initialised segment must not outlive the failed create.
            shm.close()
            shm.unlink()
            raise
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (the shard side).

        Attaching re-registers the segment with the ``resource_tracker``,
        but spawn children share the dispatcher's tracker process and its
        cache is a set, so the re-register is a no-op; the owner's
        :meth:`unlink` remains the single point that deregisters. (An
        attach-side ``unregister`` here would strip the shared entry and
        make the owner's later unlink trip a KeyError inside the tracker.)
        """
        shm = shared_memory.SharedMemory(name=name, create=False)
        try:
            if len(shm.buf) < _RING_HEADER.size:
                raise CodecError(f"shm ring {name!r}: segment smaller than ring header")
            magic, version, slots, slot_bytes = _RING_HEADER.unpack_from(shm.buf, 0)
            if magic != _RING_MAGIC:
                raise CodecError(f"shm ring {name!r}: bad magic {magic!r}")
            if version != _RING_VERSION:
                raise CodecError(f"shm ring {name!r}: version {version}, expected {_RING_VERSION}")
            needed = _RING_HEADER.size + slots * (_SLOT_HEADER.size + slot_bytes)
            if len(shm.buf) < needed:
                raise CodecError(
                    f"shm ring {name!r}: header claims {needed} bytes, segment has {len(shm.buf)}"
                )
        except CodecError:
            shm.close()
            raise
        return cls(shm, slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        """The segment name a peer passes to :meth:`attach`."""
        return self._shm.name

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def slot_bytes(self) -> int:
        """Payload capacity of one slot."""
        return self._slot_bytes

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment; only the creating side may call this."""
        if not self._owner:
            raise ValueError("only the ring's creator may unlink it")
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    # -- slot protocol -------------------------------------------------

    def _slot_offset(self, slot: int) -> int:
        return _RING_HEADER.size + slot * (_SLOT_HEADER.size + self._slot_bytes)

    def put(self, frame: bytes) -> int:
        """Publish *frame* into a FREE slot; returns the slot index.

        Raises :class:`RingFull` when no slot is FREE and
        :class:`ValueError` when the frame cannot fit in any slot.
        """
        if len(frame) > self._slot_bytes:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds slot capacity {self._slot_bytes}"
            )
        if self._closed:
            # A concurrent teardown is ordinary backpressure to callers.
            raise RingFull("ring torn down")
        try:
            buf = self._shm.buf
            with self._lock:
                for probe in range(self._slots):
                    slot = (self._scan_from + probe) % self._slots
                    offset = self._slot_offset(slot)
                    if buf[offset] != SLOT_FREE:
                        continue
                    self._scan_from = (slot + 1) % self._slots
                    _SLOT_HEADER.pack_into(buf, offset, SLOT_WRITING, _SLOT_MAGIC, 0, 0, 0)
                    start = offset + _SLOT_HEADER.size
                    buf[start : start + len(frame)] = frame
                    _SLOT_HEADER.pack_into(
                        buf, offset, SLOT_WRITING, _SLOT_MAGIC, 0, len(frame), zlib.crc32(frame)
                    )
                    # Publish last: a writer killed before this line leaves
                    # WRITING, which readers refuse — never torn-but-READY.
                    buf[offset] = SLOT_READY
                    return slot
        except (ValueError, TypeError) as exc:
            # close() raced us between the flag check and the buffer op;
            # a released/None memoryview means the incarnation is gone.
            raise RingFull("ring torn down mid-write") from exc
        raise RingFull(f"all {self._slots} slots occupied")

    def get(self, slot: int, *, origin: str = "<slot>") -> bytes:
        """Consume slot *slot*: validate, copy the payload out, retire it.

        Every failure mode — out-of-range index, unpublished slot,
        stomped magic, impossible length, CRC mismatch — raises
        :class:`~repro.errors.CodecError`; the slot is left untouched so
        post-mortems see what the reader saw.
        """
        if not 0 <= slot < self._slots:
            raise CodecError(f"{origin}: slot {slot} out of range 0..{self._slots - 1}")
        if self._closed:
            raise CodecError(f"{origin}: ring torn down")
        try:
            buf = self._shm.buf
            offset = self._slot_offset(slot)
            state, magic, reserved, length, crc = _SLOT_HEADER.unpack_from(buf, offset)
            if state != SLOT_READY:
                raise CodecError(f"{origin}: slot {slot} not published (state {state})")
            if magic != _SLOT_MAGIC:
                raise CodecError(f"{origin}: slot {slot} has bad magic 0x{magic:02x}")
            if reserved != 0:
                raise CodecError(f"{origin}: slot {slot} has nonzero reserved field {reserved}")
            if length > self._slot_bytes:
                raise CodecError(
                    f"{origin}: slot {slot} claims {length} bytes, capacity {self._slot_bytes}"
                )
            start = offset + _SLOT_HEADER.size
            frame = bytes(buf[start : start + length])
            if zlib.crc32(frame) != crc:
                raise CodecError(f"{origin}: slot {slot} CRC mismatch")
            buf[offset] = SLOT_FREE
        except (ValueError, TypeError) as exc:
            raise CodecError(f"{origin}: ring torn down mid-read") from exc
        return frame

    # -- introspection -------------------------------------------------

    def occupancy(self) -> int:
        """Slots not currently FREE (gauge fodder: ring pressure)."""
        if self._closed:
            return 0
        try:
            buf = self._shm.buf
            return sum(
                1 for slot in range(self._slots) if buf[self._slot_offset(slot)] != SLOT_FREE
            )
        except (ValueError, TypeError):
            return 0
