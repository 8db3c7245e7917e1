"""Page tables (stage-1 and stage-2).

CRONUS's proceed-trap failover works entirely through page tables: the SPM
invalidates stage-2 entries of memory shared with a failed partition so
every later access *traps* instead of leaking data (paper section IV-D).
We model a page table as an explicit page-indexed map; lookups on missing
or invalidated entries raise :class:`PageFault` carrying enough context for
the SPM's trap handler.

Each table carries a translation cache — the simulated TLB — keyed by
``(virt_page, write)``.  Any mutation of an entry (``map``, ``unmap``,
``invalidate``, ``revalidate``) shoots down that page's cached lines, so a
stage-2 invalidation during failover traps the very next access: the cache
can never serve a translation whose backing entry is gone or invalid.  The
TLB changes *host* wall-clock time only; simulated time is charged by the
SPM at map/invalidate sites, exactly as before.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple


class PagePermission(enum.Flag):
    """Read/write permissions on one mapping."""

    R = enum.auto()
    W = enum.auto()
    RW = R | W


_READ = PagePermission.R.value
_WRITE = PagePermission.W.value


class PageFault(Exception):
    """An access through a missing or invalidated translation."""

    def __init__(self, message: str, *, page: int, table: str, invalidated: bool) -> None:
        super().__init__(message)
        self.page = page
        self.table = table
        self.invalidated = invalidated


@dataclass
class PageTableEntry:
    """One translation: guest page -> physical page with permissions."""

    phys_page: int
    perm: PagePermission
    valid: bool = True
    shared_with: Optional[str] = None
    """For stage-2 tables: the peer partition this page is shared with."""
    perm_bits: int = field(init=False, repr=False, compare=False)
    """``perm`` as a plain int, so a TLB miss checks it with no enum call."""

    def __post_init__(self) -> None:
        self.perm_bits = self.perm.value


class PageTable:
    """A page-indexed translation table with explicit invalidation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[int, PageTableEntry] = {}
        # Simulated TLB: (virt_page, write) -> phys_page.  Public so the
        # partitions' fast lanes probe it with no method call; only this
        # table mutates it.  Hit/miss and maintenance counters are surfaced
        # through ``tlb_stats`` so the wall-clock benchmarks can show the
        # cache working, not assert it.
        self.tlb: Dict[Tuple[int, bool], int] = {}
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_shootdowns = 0
        self.tlb_flushes = 0

    # -- TLB maintenance ---------------------------------------------------
    def flush(self) -> None:
        """Drop every cached translation (full TLB flush, e.g. on mOS
        reload: the reborn partition must re-walk its stage-2 table)."""
        if self.tlb:
            self.tlb.clear()
        self.tlb_flushes += 1

    def shoot_down(self, virt_page: int) -> None:
        """Evict one page's cached lines (both the read and write ways)."""
        evicted = self.tlb.pop((virt_page, False), None) is not None
        evicted = (self.tlb.pop((virt_page, True), None) is not None) or evicted
        if evicted:
            self.tlb_shootdowns += 1

    @property
    def tlb_stats(self) -> Dict[str, int]:
        """Hit/miss and maintenance counters for the metrics report."""
        return {
            "hits": self.tlb_hits,
            "misses": self.tlb_misses,
            "shootdowns": self.tlb_shootdowns,
            "flushes": self.tlb_flushes,
            "cached": len(self.tlb),
        }

    def absorb_into(self, registry) -> None:
        """Publish ``tlb_stats`` into a :class:`repro.obs.MetricsRegistry`
        under this table's name, keeping the counters_table layer labels."""
        registry.absorb(self.name, self.tlb_stats)

    def map(
        self,
        virt_page: int,
        phys_page: int,
        perm: PagePermission = PagePermission.RW,
        *,
        shared_with: Optional[str] = None,
    ) -> None:
        """Install a translation; remapping a live page is rejected."""
        existing = self._entries.get(virt_page)
        if existing is not None and existing.valid:
            raise ValueError(f"{self.name}: page {virt_page:#x} already mapped")
        self._entries[virt_page] = PageTableEntry(
            phys_page=phys_page, perm=perm, shared_with=shared_with
        )
        self.shoot_down(virt_page)

    def unmap(self, virt_page: int) -> None:
        """Remove a translation entirely."""
        self._entries.pop(virt_page, None)
        self.shoot_down(virt_page)

    def invalidate(self, virt_page: int) -> bool:
        """Mark a translation invalid (it stays present so later accesses
        fault as *invalidated*, distinguishing them from never-mapped
        pages).  Returns True if an entry was invalidated."""
        entry = self._entries.get(virt_page)
        if entry is None or not entry.valid:
            return False
        entry.valid = False
        self.shoot_down(virt_page)
        return True

    def revalidate(self, virt_page: int, phys_page: int, perm: PagePermission) -> None:
        """Re-install a translation after recovery reassigns the page."""
        self._entries[virt_page] = PageTableEntry(phys_page=phys_page, perm=perm)
        self.shoot_down(virt_page)

    def translate(self, virt_page: int, *, write: bool = False) -> int:
        """Resolve ``virt_page`` or raise :class:`PageFault`."""
        phys_page = self.tlb.get((virt_page, write))
        if phys_page is not None:
            self.tlb_hits += 1
            return phys_page
        self.tlb_misses += 1
        entry = self._entries.get(virt_page)
        if entry is None:
            raise PageFault(
                f"{self.name}: no translation for page {virt_page:#x}",
                page=virt_page,
                table=self.name,
                invalidated=False,
            )
        if not entry.valid:
            raise PageFault(
                f"{self.name}: translation for page {virt_page:#x} invalidated",
                page=virt_page,
                table=self.name,
                invalidated=True,
            )
        if not entry.perm_bits & (_WRITE if write else _READ):
            raise PageFault(
                f"{self.name}: permission denied on page {virt_page:#x}",
                page=virt_page,
                table=self.name,
                invalidated=False,
            )
        self.tlb[(virt_page, write)] = entry.phys_page
        return entry.phys_page

    def entry(self, virt_page: int) -> Optional[PageTableEntry]:
        """Raw entry access (used by the SPM bookkeeping)."""
        return self._entries.get(virt_page)

    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate over (virt_page, entry) pairs."""
        return iter(self._entries.items())

    def pages_shared_with(self, peer: str) -> Tuple[int, ...]:
        """Virtual pages whose entries are marked shared with ``peer``."""
        return tuple(
            page for page, e in self._entries.items() if e.shared_with == peer and e.valid
        )

    def __len__(self) -> int:
        return len(self._entries)
