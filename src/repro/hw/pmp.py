"""RISC-V Physical Memory Protection (PMP) isolation backend.

Paper section VII-A: "TEEs using RISC-V PMP ... support all four hardware
primitives, so CRONUS can be directly applied to them.  For RISC-V,
SecureIO is supported by configuring PMP to ensure an enclave's dedicated
access to a device's MMIO addresses; shared TEE memory is enabled using
overlapped PMP configuration."

This module implements that port: a PMP unit with prioritized, lockable
entries (RISC-V semantics: the lowest-numbered matching entry decides; a
locked entry cannot be rewritten until reset), plus two adapters exposing
the same interfaces the TrustZone TZASC/TZPC present, so the whole CRONUS
stack runs unchanged on either backend (``Platform(isolation=...)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hw.memory import AccessFault, NORMAL_WORLD, SECURE_WORLD


class PmpPermission(enum.Flag):
    """R/W/X bits of a pmpcfg entry."""

    NONE = 0
    R = enum.auto()
    W = enum.auto()
    X = enum.auto()
    RW = R | W
    RWX = R | W | X


@dataclass
class PmpEntry:
    """One PMP address range (TOR/NAPOT collapsed to base+size)."""

    base: int
    size: int
    perm: PmpPermission
    locked: bool = False

    def matches(self, addr: int, length: int) -> bool:
        return addr < self.base + self.size and self.base < addr + length


class PmpUnit:
    """A machine's PMP: prioritized entries with RISC-V lock semantics.

    Accesses from the *normal* world (the untrusted S/U-mode OS) are
    checked against the entries; the lowest-numbered matching entry
    decides.  With no match, access is allowed (mirroring M-mode-absent
    defaults for unclaimed memory).  The secure world is the machine's
    firmware/enclave domain and is never filtered here — partition-level
    isolation happens in the SPM's stage-2-equivalent tables.
    """

    MAX_ENTRIES = 64

    def __init__(self) -> None:
        self._entries: List[Optional[PmpEntry]] = [None] * self.MAX_ENTRIES

    def set_entry(self, index: int, entry: PmpEntry) -> None:
        if not 0 <= index < self.MAX_ENTRIES:
            raise ValueError(f"PMP entry index {index} out of range")
        current = self._entries[index]
        if current is not None and current.locked:
            raise AccessFault(f"PMP entry {index} is locked until reset")
        if entry.base < 0 or entry.size <= 0:
            raise ValueError(f"bad PMP range base={entry.base:#x} size={entry.size}")
        self._entries[index] = entry

    def lock_entry(self, index: int) -> None:
        entry = self._entries[index]
        if entry is None:
            raise ValueError(f"cannot lock empty PMP entry {index}")
        entry.locked = True

    def entry(self, index: int) -> Optional[PmpEntry]:
        return self._entries[index]

    def first_free_index(self) -> int:
        for i, entry in enumerate(self._entries):
            if entry is None:
                return i
        raise AccessFault("PMP entries exhausted")

    def check_normal_access(self, addr: int, length: int, *, write: bool) -> None:
        """Raise on a denied S/U-mode access (lowest match decides)."""
        for entry in self._entries:
            if entry is None or not entry.matches(addr, length):
                continue
            needed = PmpPermission.W if write else PmpPermission.R
            if not entry.perm & needed:
                raise AccessFault(
                    f"PMP: normal world denied {'write' if write else 'read'} "
                    f"at {addr:#x}+{length}"
                )
            return  # first matching entry decides
        # No matching entry: unclaimed memory, access permitted.


class PmpMemoryGuard:
    """TZASC-compatible adapter: secure DRAM carved out with PMP entries."""

    def __init__(self, pmp: Optional[PmpUnit] = None) -> None:
        self.pmp = pmp or PmpUnit()
        self._regions: List[PmpEntry] = []
        self._locked = False

    def configure_secure_region(self, base: int, size: int) -> None:
        """Deny all normal-world access to [base, base+size)."""
        if self._locked:
            raise AccessFault("PMP memory guard locked; reconfiguration rejected")
        index = self.pmp.first_free_index()
        entry = PmpEntry(base=base, size=size, perm=PmpPermission.NONE)
        self.pmp.set_entry(index, entry)
        self._regions.append(entry)

    def lock(self) -> None:
        """Lock every secure-region entry (RISC-V L bit) at boot."""
        for i in range(self.pmp.MAX_ENTRIES):
            if self.pmp.entry(i) in self._regions:
                self.pmp.lock_entry(i)
        self._locked = True

    @property
    def locked(self) -> bool:
        return self._locked

    def is_secure(self, addr: int, length: int = 1) -> bool:
        return any(r.matches(addr, length) for r in self._regions)

    def check(self, addr: int, length: int, world: str) -> None:
        if world == NORMAL_WORLD:
            self.pmp.check_normal_access(addr, length, write=False)


class PmpDeviceGuard:
    """TZPC-compatible adapter: SecureIO via PMP over MMIO windows.

    Assigning a device to the secure world installs a no-access PMP entry
    over its MMIO window, giving the secure world dedicated access.
    """

    def __init__(self, pmp: Optional[PmpUnit] = None) -> None:
        self.pmp = pmp or PmpUnit()
        self._assignment: Dict[str, str] = {}
        self._mmio: Dict[str, tuple] = {}
        self._locked = False

    def register_mmio(self, device_name: str, base: int, size: int) -> None:
        """Record the device's MMIO window (from the device tree)."""
        self._mmio[device_name] = (base, size)

    def assign(self, device_name: str, world: str) -> None:
        if world not in (NORMAL_WORLD, SECURE_WORLD):
            raise ValueError(f"unknown world {world!r}")
        if self._locked:
            raise AccessFault("PMP device guard locked; reassignment rejected")
        self._assignment[device_name] = world
        if world == SECURE_WORLD and device_name in self._mmio:
            base, size = self._mmio[device_name]
            self.pmp.set_entry(
                self.pmp.first_free_index(),
                PmpEntry(base=base, size=size, perm=PmpPermission.NONE),
            )

    def lock(self) -> None:
        self._locked = True

    @property
    def locked(self) -> bool:
        return self._locked

    def world_of(self, device_name: str) -> str:
        return self._assignment.get(device_name, NORMAL_WORLD)

    def check(self, device_name: str, world: str) -> None:
        owner = self.world_of(device_name)
        if owner == SECURE_WORLD and world != SECURE_WORLD:
            raise AccessFault(
                f"PMP: normal world denied access to secure device {device_name!r}"
            )

    def snapshot(self) -> Dict[str, str]:
        return dict(self._assignment)
