"""The shim kernel (LibOS for drivers).

"CRONUS includes a shim runtime for running off-the-shelf device drivers in
mOSes ... as if a LibOS for the driver by providing standard kernel
functions (e.g., ioremap)" — paper section IV-B.  The shim also implements
the inter-enclave synchronization primitives of section IV-C: CRONUS
replaces mutexes with spinlocks over shared memory so the untrusted OS is
never involved, and a spin on memory shared with a failed partition traps
into the SPM instead of deadlocking (attack A2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.faults import injector as _faults
from repro.hw.memory import PAGE_SIZE
from repro.secure.partition import Partition, PeerFailedSignal


class LockError(Exception):
    """Invalid lock usage (double release, spin budget exhausted)."""


class ShimKernel:
    """Kernel functions the hosted driver calls."""

    def __init__(self, partition: Partition, spm, tzpc, gic=None) -> None:
        self._partition = partition
        self._spm = spm
        self._tzpc = tzpc
        self._gic = gic
        self._io_mappings: Dict[str, Tuple[int, int]] = {}

    # -- interrupts --------------------------------------------------------
    def request_irq(self, handler) -> int:
        """request_irq analog: claim this partition's device IRQ line.

        Only the partition owning the device may register (the TZPC/DT
        binding), mirroring the no-shared-IRQ rule of section IV-A.
        """
        if self._gic is None:
            raise LockError("no interrupt controller on this platform")
        device = self._partition.device
        self._tzpc.check(device.name, "secure")
        self._gic.register(device.irq, handler)
        return device.irq

    # -- ioremap ----------------------------------------------------------
    def ioremap(self, device_name: str, base: int, size: int) -> Tuple[int, int]:
        """Map a device MMIO window; the TZPC must assign the device to the
        secure world, otherwise the driver is touching a normal-world device
        and the mapping is rejected."""
        self._tzpc.check(device_name, "secure")
        if self._tzpc.world_of(device_name) != "secure":
            raise LockError(f"device {device_name!r} not assigned to the secure world")
        self._io_mappings[device_name] = (base, size)
        return base, size

    def iounmap(self, device_name: str) -> None:
        self._io_mappings.pop(device_name, None)

    def io_mapping(self, device_name: str) -> Optional[Tuple[int, int]]:
        return self._io_mappings.get(device_name)

    # -- memory ----------------------------------------------------------
    def alloc_pages(self, count: int) -> Tuple[int, ...]:
        """kmalloc analog: secure pages from the SPM, stage-2 mapped."""
        return self._spm.allocate_pages(self._partition, count)

    def free_pages(self, pages: Tuple[int, ...]) -> None:
        self._spm.free_pages(self._partition, pages)

    def read(self, ipa: int, length: int) -> bytes:
        return self._partition.read(ipa, length)

    def write(self, ipa: int, data: bytes) -> None:
        self._partition.write(ipa, data)

    # -- locks ------------------------------------------------------------
    def spinlock_at(self, page: int, offset: int = 0) -> "SpinLock":
        """A spinlock whose word lives at ``page * PAGE_SIZE + offset`` —
        place it in trusted shared memory for inter-enclave locking."""
        return SpinLock(self._partition, page * PAGE_SIZE + offset)

    def condvar_at(self, page: int, offset: int = 0) -> "ConditionVar":
        """A condition variable (sequence word) in trusted shared memory
        — the other inter-enclave synchronization primitive of section
        IV-C, implemented with atomic memory operations so the untrusted
        OS is never involved."""
        return ConditionVar(self._partition, page * PAGE_SIZE + offset)


class SpinLock:
    """A compare-and-swap spinlock over (possibly shared) partition memory.

    Acquire/release are single-byte atomic accesses through the partition's
    stage-2 table.  If the lock word sits in memory shared with a failed
    partition, the access faults and the SPM raises
    :class:`~repro.secure.partition.PeerFailedSignal` — the waiter is
    *signalled*, not deadlocked (paper section IV-D, attack A2).
    """

    def __init__(self, partition: Partition, address: int) -> None:
        self._partition = partition
        self._address = address

    def try_acquire(self) -> bool:
        """One CAS attempt; may raise :class:`PeerFailedSignal`."""
        if _faults.ACTIVE is not None:
            # A crash fired mid-spin is the A2 deadlock scenario: the next
            # CAS below must trap (PeerFailedSignal), never spin forever.
            _faults.ACTIVE.fire("shim.spin", default_target=self._partition.device.name)
        current = self._partition.read(self._address, 1)
        if current != b"\x00":
            return False
        self._partition.write(self._address, b"\x01")
        return True

    def acquire(self, max_spins: int = 1000) -> None:
        """Spin until acquired; a failed peer raises instead of hanging."""
        for _ in range(max_spins):
            if self.try_acquire():
                return
        raise LockError(
            f"spin budget exhausted on lock @{self._address:#x} "
            f"(holder alive but not releasing)"
        )

    def release(self) -> None:
        current = self._partition.read(self._address, 1)
        if current == b"\x00":
            raise LockError(f"releasing unheld lock @{self._address:#x}")
        self._partition.write(self._address, b"\x00")

    def held(self) -> bool:
        return self._partition.read(self._address, 1) != b"\x00"


class ConditionVar:
    """A sequence-counter condition variable over shared partition memory.

    ``notify`` bumps the counter; ``wait`` spins until the counter moves
    past the caller's last observed value.  Like :class:`SpinLock`, a wait
    on memory shared with a failed partition raises
    :class:`~repro.secure.partition.PeerFailedSignal` instead of hanging.
    """

    def __init__(self, partition: Partition, address: int) -> None:
        self._partition = partition
        self._address = address

    def sequence(self) -> int:
        return int.from_bytes(self._partition.read(self._address, 4), "big")

    def notify(self) -> int:
        """Bump the sequence (wakes every current and future waiter)."""
        seq = self.sequence() + 1
        self._partition.write(self._address, seq.to_bytes(4, "big"))
        return seq

    def wait(self, last_seen: int, max_spins: int = 1000) -> int:
        """Spin until the sequence exceeds ``last_seen``; returns it."""
        for _ in range(max_spins):
            seq = self.sequence()
            if seq > last_seen:
                return seq
        raise LockError(
            f"condvar @{self._address:#x}: no notify after {max_spins} spins"
        )
