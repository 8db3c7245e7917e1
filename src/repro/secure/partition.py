"""S-EL2 partitions.

Each partition runs one mOS on exactly one device (paper section III-A).
Its view of physical memory is mediated by a stage-2 page table owned by
the SPM; every load/store an mEnclave performs resolves through this table,
so stage-2 invalidation during failover genuinely traps later accesses.
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.faults import injector as _faults
from repro.hw.memory import PAGE_SIZE, SECURE_WORLD
from repro.hw.pagetable import PageFault, PageTable

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hw.devices import Device
    from repro.hw.platform import Platform
    from repro.secure.spm import SPM


class PartitionState(enum.Enum):
    """Lifecycle of a partition (r_f flag of section IV-D mapped to states)."""

    READY = "ready"
    FAILED = "failed"  # r_f = 1: new sharing requests are blocked
    RESTARTING = "restarting"


class PeerFailedSignal(Exception):
    """Signal delivered to an mEnclave touching memory shared with a failed
    partition.  sRPC catches it to tear down streams; applications using raw
    shared memory install their own handlers (section IV-D)."""

    def __init__(self, peer_partition: str, page: int) -> None:
        super().__init__(f"peer partition {peer_partition!r} failed (page {page:#x})")
        self.peer_partition = peer_partition
        self.page = page


class Partition:
    """One isolated S-EL2 partition."""

    def __init__(
        self,
        partition_id: int,
        name: str,
        device: "Device",
        platform: "Platform",
        spm: "SPM",
    ) -> None:
        self.partition_id = partition_id
        self.name = name
        self.device = device
        self.state = PartitionState.READY
        self.stage2 = PageTable(name=f"stage2:{name}")
        self.platform = platform
        self._memory = platform.memory
        self._spm = spm
        self.restarts = 0
        # Direct reference to the stage-2 TLB dict: the fast lanes below
        # probe it without a method call.  The dict object is stable for
        # the partition's lifetime (flush/shoot-down mutate it in place).
        self._tlb = self.stage2.tlb
        # Hot-path counters (host-speed observability, see docs/costmodel.md).
        self.fast_accesses = 0
        self.slow_accesses = 0

    # -- memory access (the only path mEnclaves have to DRAM) -----------
    # Small accesses that stay within one page — ring-buffer headers,
    # length prefixes, mailbox words — take a fast lane that performs one
    # stage-2 translation (TLB-cached) and one single-page memory access.
    # Trap semantics are bit-identical to the span loop: the state check
    # runs first, and an invalidated translation still reaches the SPM's
    # trap handler.  Simulated time is unaffected (translation charges no
    # clock; costs are charged at the sRPC layer).
    def read(self, ipa: int, length: int) -> bytes:
        """Read guest-physical memory through the stage-2 table."""
        if _faults.ACTIVE is not None:
            # A crash fired here hits exactly at a memory access: the
            # access below then traps through the real stage-2 machinery.
            self._fire_access_site("partition.read")
        page = ipa >> _PAGE_SHIFT
        start = ipa & _PAGE_MASK
        if length <= 0 or start + length > PAGE_SIZE:
            # Zero-length reads never walked the table; keep that behaviour.
            return self._access(ipa, length, data=None)
        if self.state is not PartitionState.READY:
            raise PeerFailedSignal(self.name, page=0)
        self.fast_accesses += 1
        phys_page = self._tlb.get((page, False))
        if phys_page is None:
            phys_page = self._translate_trapping(page, write=False)
        else:
            self.stage2.tlb_hits += 1
        chunk = self._memory.page_view(phys_page)
        return bytes(memoryview(chunk)[start : start + length])

    def write(self, ipa: int, data: bytes) -> None:
        """Write guest-physical memory through the stage-2 table."""
        if _faults.ACTIVE is not None:
            self._fire_access_site("partition.write")
        page = ipa >> _PAGE_SHIFT
        start = ipa & _PAGE_MASK
        if not data or start + len(data) > PAGE_SIZE:
            self._access(ipa, len(data), data=data)
            return
        if self.state is not PartitionState.READY:
            raise PeerFailedSignal(self.name, page=0)
        self.fast_accesses += 1
        phys_page = self._tlb.get((page, True))
        if phys_page is None:
            phys_page = self._translate_trapping(page, write=True)
        else:
            self.stage2.tlb_hits += 1
        chunk = self._memory.page_view(phys_page)
        chunk[start : start + len(data)] = data

    def _fire_access_site(self, site: str) -> None:
        """Fire an injection site at a memory access.

        If the injected crash targets *this* partition, its execution stops
        at the faulting access — the interrupted operation must not resume
        against the reloaded partition, so the access raises the peer-failed
        signal (the caller's channel converts it to ``SRPCPeerFailure``).
        A restart-counter change detects this even when the background
        recovery has already returned the partition to READY.
        """
        restarts = self.restarts
        _faults.ACTIVE.fire(site, default_target=self.device.name)
        if self.restarts != restarts or self.state is not PartitionState.READY:
            raise PeerFailedSignal(self.name, page=0)

    def _translate_trapping(self, page: int, *, write: bool) -> int:
        """TLB-miss path: full table walk, converting an invalidated-entry
        fault into the SPM's peer-failed signal (proceed-trap step 3)."""
        try:
            return self.stage2.translate(page, write=write)
        except PageFault as fault:
            if fault.invalidated:
                raise self._spm.handle_shared_memory_trap(self, page) from fault
            raise

    def _access(self, ipa: int, length: int, data: Optional[bytes]):
        self._require_ready()
        self.slow_accesses += 1
        out = bytearray() if data is None else None
        offset = 0
        while offset < length:
            page, start = divmod(ipa + offset, PAGE_SIZE)
            chunk = min(PAGE_SIZE - start, length - offset)
            try:
                phys_page = self.stage2.translate(page, write=data is not None)
            except PageFault as fault:
                if fault.invalidated:
                    # Proceed-trap step 3: the SPM handles the trap and
                    # converts it into a signal for the faulting mEnclave.
                    raise self._spm.handle_shared_memory_trap(self, page) from fault
                raise
            phys = phys_page * PAGE_SIZE + start
            if data is None:
                out.extend(self._memory.read(phys, chunk, world=SECURE_WORLD))
            else:
                self._memory.write(phys, data[offset : offset + chunk], world=SECURE_WORLD)
            offset += chunk
        return bytes(out) if data is None else None

    # -- state ------------------------------------------------------------
    def _require_ready(self) -> None:
        if self.state is not PartitionState.READY:
            raise PeerFailedSignal(self.name, page=0)

    def mark_failed(self) -> None:
        self.state = PartitionState.FAILED

    def mark_restarting(self) -> None:
        self.state = PartitionState.RESTARTING

    def mark_ready(self) -> None:
        self.state = PartitionState.READY
        self.restarts += 1

    def __repr__(self) -> str:
        return (
            f"Partition(id={self.partition_id}, name={self.name!r}, "
            f"device={self.device.name!r}, state={self.state.value})"
        )
