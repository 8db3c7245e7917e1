"""Physical memory with page-granular, world-checked access.

Pages are allocated lazily (most of the simulated 12 GiB address space is
never touched).  Every access names the *initiator world* so the TZASC
filter can reject normal-world reads of secure DRAM — the data-leak path
the paper's threat model cares about.

``ZERO_PAGE`` is the shared all-zero page every scrub and KV-leak audit
(paper section IV-D, attack A3) compares a whole page against, so one
non-zero byte at any offset fails the audit.  Audits go through
:meth:`PhysicalMemory.page_is_zero`, which applies ``page_view``'s range
rule: a page outside physical memory raises :class:`AccessFault`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metric import MetricsRegistry

PAGE_SIZE = 4096
ZERO_PAGE = bytes(PAGE_SIZE)
_ZERO_VIEW = memoryview(ZERO_PAGE)

NORMAL_WORLD = "normal"
SECURE_WORLD = "secure"


class AccessFault(Exception):
    """A memory access rejected by the TZASC or out of physical range."""


class PhysicalMemory:
    """Byte-addressable DRAM, optionally guarded by a TZASC filter."""

    def __init__(self, size_bytes: int, tzasc: Optional["TZASCLike"] = None) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError(f"memory size must be a positive page multiple, got {size_bytes}")
        self.size_bytes = size_bytes
        self._pages: Dict[int, bytearray] = {}
        self._tzasc = tzasc
        # Scrub accounting for the recovery path: the Platform installs its
        # registry here; the default disabled registry records nothing.
        self.metrics = MetricsRegistry()

    # -- access -------------------------------------------------------
    def read(self, addr: int, length: int, *, world: str = SECURE_WORLD) -> bytes:
        """Read ``length`` bytes at ``addr`` as ``world``."""
        self._check(addr, length, world)
        out = bytearray(length)
        for offset, page, start, end in self._page_ranges(addr, length):
            chunk = self._pages.get(page)
            if chunk is not None:
                out[offset : offset + (end - start)] = chunk[start:end]
        return bytes(out)

    def write(self, addr: int, data: bytes, *, world: str = SECURE_WORLD) -> None:
        """Write ``data`` at ``addr`` as ``world``."""
        self._check(addr, len(data), world)
        cursor = 0
        for offset, page, start, end in self._page_ranges(addr, len(data)):
            chunk = self._pages.setdefault(page, bytearray(PAGE_SIZE))
            chunk[start:end] = data[cursor : cursor + (end - start)]
            cursor += end - start

    def page_view(self, page: int) -> bytearray:
        """The backing ``bytearray`` of one physical page (lazily allocated).

        Fast-lane hook for accesses whose address has already been produced
        by a stage-2 translation: such pages are in physical range by
        construction, and partition accesses are secure-world initiated, so
        the TZASC filter (which only rejects *normal*-world reads of secure
        DRAM) has nothing to check.  Callers must stay within the page.
        """
        if page < 0 or (page + 1) * PAGE_SIZE > self.size_bytes:
            raise AccessFault(f"page out of physical range: {page:#x}")
        chunk = self._pages.get(page)
        if chunk is None:
            chunk = self._pages[page] = bytearray(PAGE_SIZE)
        return chunk

    def zero_range(self, addr: int, length: int) -> None:
        """Clear a range without a world check — hardware-initiated scrub,
        used by failure clearing (paper section IV-D, attack A3)."""
        if addr < 0 or addr + length > self.size_bytes:
            raise AccessFault(f"scrub out of range: {addr:#x}+{length}")
        for _, page, start, end in self._page_ranges(addr, length):
            chunk = self._pages.get(page)
            if chunk is not None:
                chunk[start:end] = _ZERO_VIEW[: end - start]
        self.metrics.counter("memory", "zero_ranges").inc()
        self.metrics.counter("memory", "zeroed_bytes").inc(length)

    def page_is_zero(self, page: int) -> bool:
        """True if the page has never been written or was scrubbed.

        A full-page compare against :data:`ZERO_PAGE`: every byte is
        examined, and an untouched page is not allocated.  The range rule
        is :meth:`page_view`'s, so a bogus page number cannot pass an audit.
        """
        if page < 0 or (page + 1) * PAGE_SIZE > self.size_bytes:
            raise AccessFault(f"page out of physical range: {page:#x}")
        chunk = self._pages.get(page)
        return chunk is None or chunk == ZERO_PAGE

    # -- helpers ------------------------------------------------------
    def _check(self, addr: int, length: int, world: str) -> None:
        if length < 0:
            raise ValueError(f"negative access length {length}")
        if addr < 0 or addr + length > self.size_bytes:
            raise AccessFault(f"access out of physical range: {addr:#x}+{length}")
        if self._tzasc is not None and length:
            self._tzasc.check(addr, length, world)

    @staticmethod
    def _page_ranges(addr: int, length: int):
        """Yield (output offset, page index, start, end) per page touched."""
        offset = 0
        while offset < length:
            cur = addr + offset
            page, start = divmod(cur, PAGE_SIZE)
            end = min(PAGE_SIZE, start + (length - offset))
            yield offset, page, start, end
            offset += end - start


class TZASCLike:
    """Protocol for the TZASC filter (structural typing helper)."""

    def check(self, addr: int, length: int, world: str) -> None:  # pragma: no cover
        raise NotImplementedError
