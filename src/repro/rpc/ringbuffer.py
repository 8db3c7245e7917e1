"""A byte ring buffer over trusted shared memory.

The buffer lives in pages owned by the producer's partition and shared into
the consumer's partition by the SPM, so *every* access below goes through a
real stage-2 translation: when either partition fails and the SPM
invalidates the mapping, the next ``push``/``pop`` traps and surfaces
:class:`~repro.secure.partition.PeerFailedSignal` — the property the sRPC
failover protocol builds on.

Layout: a 32-byte header (head, Sid, Rid, tail as big-endian u64) followed
by length-prefixed records in a circular byte region.  The consumer-owned
fields (head, Sid) occupy the first 16 bytes and the producer-owned fields
(Rid, tail) the last 16, so each side writes back its own half of the
header in one access.

Hot path: each side keeps a host-side *mirror* of the header words (the
model of a core's cached view of its own ring registers) with write-through
to shared memory on every update.  A warm ``push`` or ``pop`` therefore
performs at most two stage-2 accesses — the record bytes and one header
write-back — instead of the eight independent u64 round-trips the naive
implementation needed.  Because every operation still touches shared memory
at least once, a stage-2 invalidation traps exactly where it used to;
because every header mutation is written through, memory remains the
ground truth (``rid``/``sid`` and ``stream_check`` still read it).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.faults import injector as _faults
from repro.hw.memory import PAGE_SIZE
from repro.secure.partition import Partition, PartitionState, PeerFailedSignal

_HEADER = 32
_U64 = 8
_OFF_HEAD = 0
_OFF_SID = 8
_OFF_RID = 16
_OFF_TAIL = 24

_PACK_U64 = struct.Struct(">Q")
_PACK_PAIR = struct.Struct(">QQ")
_PACK_HEADER = struct.Struct(">QQQQ")
_PACK_LEN = struct.Struct(">I")


class RingBufferError(Exception):
    """Overflow or malformed record."""


class SharedRingBuffer:
    """One producer / one consumer ring over shared pages."""

    def __init__(
        self,
        producer: Partition,
        consumer: Partition,
        pages: Tuple[int, ...],
    ) -> None:
        if not pages:
            raise RingBufferError("ring buffer needs at least one page")
        # Identity IPA mapping means both sides address the same numbers.
        self._producer = producer
        self._consumer = consumer
        self.pages = tuple(sorted(pages))
        """The ring's contiguous shared pages (read-only outside the ring)."""
        for a, b in zip(self.pages, self.pages[1:]):
            if b != a + 1:
                raise RingBufferError("ring buffer pages must be contiguous")
        self._base = self.pages[0] * PAGE_SIZE
        self.capacity = len(pages) * PAGE_SIZE - _HEADER
        # Initialize the header through the producer's mapping.
        producer.write(self._base, b"\x00" * _HEADER)
        # Host-side header mirrors (each side's cached view of the ring
        # registers).  Every mutation is written through to shared memory,
        # so the mirrors can never disagree with it.
        self._head = 0
        self._sid = 0
        self._rid = 0
        self._tail = 0
        # Producer-side mirror of in-flight record sizes: lets the consumer
        # fetch prefix+record in one access (the prefix is verified against
        # the mirror, so memory stays authoritative).
        self._record_sizes: Deque[int] = deque()
        # Reusable length-prefix+record staging buffer for ``push``.
        self._scratch = bytearray()
        self.header_writebacks = 0
        self.header_refreshes = 0
        # Observability handles, called unconditionally per push/pop: a
        # disabled recorder and registry record nothing.
        self._obs = producer.platform.obs
        self._metrics = producer.platform.metrics

    # -- header fields ---------------------------------------------------
    def _read_u64(self, partition: Partition, offset: int) -> int:
        return int.from_bytes(partition.read(self._base + offset, _U64), "big")

    def _write_u64(self, partition: Partition, offset: int, value: int) -> None:
        partition.write(self._base + offset, _PACK_U64.pack(value))

    def _refresh_header(self, partition: Partition) -> None:
        """One 32-byte read of the shared header into the mirrors."""
        raw = partition.read(self._base, _HEADER)
        self._head, self._sid, self._rid, self._tail = _PACK_HEADER.unpack(raw)
        self.header_refreshes += 1

    @property
    def rid(self) -> int:
        """Request index: records pushed by the producer."""
        return self._read_u64(self._producer, _OFF_RID)

    @property
    def sid(self) -> int:
        """Progress index: records executed by the consumer."""
        return self._read_u64(self._producer, _OFF_SID)

    def bump_sid(self) -> int:
        """Consumer marks one record executed (Sid += 1, section IV-C)."""
        sid = self._sid = self._sid + 1
        self._consumer.write(self._base + _OFF_SID, _PACK_U64.pack(sid))
        self.header_writebacks += 1
        return sid

    def set_indices(self, rid: int, sid: int) -> None:
        """Seed Rid/Sid (used when a stream migrates to a fresh ring during
        smem expansion: the indices carry over, section IV-C)."""
        self._rid = rid
        self._sid = sid
        self._write_u64(self._producer, _OFF_RID, rid)
        self._write_u64(self._producer, _OFF_SID, sid)

    def stream_check(self) -> bool:
        """streamCheck: all submitted requests have executed (Sid == Rid)."""
        return self.rid == self.sid

    # -- data region -------------------------------------------------------
    def free_bytes(self) -> int:
        used = (self._tail - self._head) % self.capacity
        return self.capacity - used - 1

    def push(self, record: bytes) -> int:
        """Producer appends one length-prefixed record; returns new Rid.

        Raises :class:`RingBufferError` if the record does not fit — the
        channel responds by expanding smem (with a fresh dCheck), per the
        paper's out-of-memory rule.
        """
        if _faults.ACTIVE is not None:
            act = self._fire_ring_site("ring.push", self._producer)
            if act is not None:
                if act.action == _faults.DROP:
                    # The record is lost in flight: Rid does not move, the
                    # consumer later finds an empty ring and must detect it.
                    return self._rid
                if act.action == _faults.CORRUPT:
                    record = act.mangle(record)
                elif act.action == _faults.DUPLICATE:
                    self.push(record)  # the duplicate counts as its own hit
        need = len(record) + 4
        capacity = self.capacity
        tail = self._tail
        free = capacity - ((tail - self._head) % capacity) - 1
        if need > free:
            raise RingBufferError(
                f"record of {len(record)} bytes does not fit "
                f"(free={free}, capacity={capacity})"
            )
        scratch = self._scratch
        if len(scratch) < need:
            scratch.extend(bytearray(need - len(scratch)))
        scratch[:4] = _PACK_LEN.pack(len(record))
        scratch[4:need] = record
        if tail + need <= capacity:  # common case: the record does not wrap
            self._producer.write(
                self._base + _HEADER + tail, memoryview(scratch)[:need]
            )
        else:
            self._write_circular(self._producer, tail, memoryview(scratch)[:need])
        self._tail = (tail + need) % capacity
        self._rid += 1
        # Write back both producer-owned header words (Rid, tail) in one
        # access: they are adjacent by layout.
        self._producer.write(
            self._base + _OFF_RID, _PACK_PAIR.pack(self._rid, self._tail)
        )
        self.header_writebacks += 1
        self._record_sizes.append(len(record))
        self._obs.event(
            "ring.push", category="ring", partition=self._producer.name,
            rid=self._rid, bytes=len(record),
        )
        self._metrics.counter("ring", "pushes").inc()
        self._metrics.counter("ring", "pushed_bytes").inc(len(record))
        return self._rid

    def pop(self) -> Optional[bytes]:
        """Consumer removes the oldest record (None if the ring is empty)."""
        if _faults.ACTIVE is not None:
            self._fire_ring_site("ring.pop", self._consumer)
        if self._head == self._tail:
            # Empty by the mirrors — still touch the shared header so an
            # idle consumer polling a torn-down ring traps like it used to.
            self._refresh_header(self._consumer)
            if self._head == self._tail:
                return None
        head = self._head
        expected = self._record_sizes[0] if self._record_sizes else None
        if expected is not None:
            # Fetch prefix+record in one access; the prefix read from
            # shared memory remains authoritative.
            if head + 4 + expected <= self.capacity:  # common case: no wrap
                raw = self._consumer.read(self._base + _HEADER + head, 4 + expected)
            else:
                raw = self._read_circular(self._consumer, head, 4 + expected)
            length = _PACK_LEN.unpack_from(raw)[0]
            if length != expected:
                raise RingBufferError(
                    f"corrupt record length {length} (expected {expected})"
                )
            record = raw[4:]
            self._record_sizes.popleft()
        else:
            length = int.from_bytes(self._read_circular(self._consumer, head, 4), "big")
            if length > self.capacity:
                raise RingBufferError(f"corrupt record length {length}")
            record = self._read_circular(
                self._consumer, (head + 4) % self.capacity, length
            )
        head = self._head = (head + 4 + length) % self.capacity
        self._consumer.write(self._base + _OFF_HEAD, _PACK_U64.pack(head))
        self.header_writebacks += 1
        self._obs.event(
            "ring.pop", category="ring", partition=self._consumer.name,
            bytes=length,
        )
        self._metrics.counter("ring", "pops").inc()
        return record

    def _fire_ring_site(self, site: str, executing: Partition):
        """Fire an injection site at a ring operation.

        A crash fired here that takes down the partition *executing* the
        operation stops its execution on the spot: the interrupted
        push/pop must not resume against the reloaded stage-2 table (whose
        mapping of the peer-owned ring page is gone), so it raises the
        peer-failed signal exactly like a stage-2 trap would.  Detected
        via the restart counter, which moves even when background recovery
        has already returned the partition to READY.
        """
        restarts = executing.restarts
        act = _faults.ACTIVE.fire(site, default_target=executing.device.name)
        if (
            executing.restarts != restarts
            or executing.state is not PartitionState.READY
        ):
            raise PeerFailedSignal(executing.name, page=self.pages[0])
        return act

    def pending(self) -> int:
        """Records pushed but not yet executed."""
        return self.rid - self.sid

    @property
    def stats(self) -> Dict[str, int]:
        """Hot-path counters for the metrics report."""
        return {
            "header_writebacks": self.header_writebacks,
            "header_refreshes": self.header_refreshes,
        }

    # -- circular byte helpers -------------------------------------------------
    def _write_circular(self, partition: Partition, offset: int, data) -> None:
        first = min(len(data), self.capacity - offset)
        partition.write(self._base + _HEADER + offset, data[:first])
        if first < len(data):
            partition.write(self._base + _HEADER, data[first:])

    def _read_circular(self, partition: Partition, offset: int, length: int) -> bytes:
        first = min(length, self.capacity - offset)
        data = partition.read(self._base + _HEADER + offset, first)
        if first < length:
            data += partition.read(self._base + _HEADER, length - first)
        return data
