"""TrustZone Address Space Controller (TZC-400 model).

The TZASC marks DRAM regions as secure; accesses from the normal world to a
secure region are filtered (paper section II-A).  CRONUS's QEMU prototype
emulates a TZC-400 to split DRAM into normal and secure ``MemRegion``s
(section V-A); we reproduce exactly that: region registers plus a check
hook called by :class:`~repro.hw.memory.PhysicalMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw.memory import AccessFault, NORMAL_WORLD


@dataclass(frozen=True)
class SecureRegion:
    """One TZASC region register: [base, base+size) is secure-only."""

    base: int
    size: int

    def contains_any(self, addr: int, length: int) -> bool:
        return addr < self.base + self.size and self.base < addr + length


class TZASC:
    """Region-based secure/normal DRAM filter."""

    def __init__(self) -> None:
        self._regions: List[SecureRegion] = []
        self._locked = False

    def configure_secure_region(self, base: int, size: int) -> None:
        """Mark [base, base+size) secure.  Rejected after lockdown."""
        if self._locked:
            raise AccessFault("TZASC is locked down; reconfiguration rejected")
        if base < 0 or size <= 0:
            raise ValueError(f"bad region base={base:#x} size={size}")
        self._regions.append(SecureRegion(base=base, size=size))

    def lock(self) -> None:
        """Lock the configuration (done by the secure monitor at boot so a
        malicious normal OS cannot carve memory out of the secure world)."""
        self._locked = True

    @property
    def locked(self) -> bool:
        return self._locked

    def is_secure(self, addr: int, length: int = 1) -> bool:
        """True if any byte of the range lies in a secure region."""
        return any(r.contains_any(addr, length) for r in self._regions)

    def check(self, addr: int, length: int, world: str) -> None:
        """Filter hook: normal-world access to secure DRAM faults."""
        if world == NORMAL_WORLD and self.is_secure(addr, length):
            raise AccessFault(
                f"TZASC: normal world denied access to secure range {addr:#x}+{length}"
            )
