"""Physical memory, TZASC, TZPC."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.memory import AccessFault, PAGE_SIZE, PhysicalMemory
from repro.hw.tzasc import TZASC
from repro.hw.tzpc import TZPC

MEM_SIZE = 64 * PAGE_SIZE


class TestPhysicalMemory:
    def test_read_unwritten_is_zero(self):
        mem = PhysicalMemory(MEM_SIZE)
        assert mem.read(100, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write(500, b"hello world")
        assert mem.read(500, 11) == b"hello world"

    def test_cross_page_write(self):
        mem = PhysicalMemory(MEM_SIZE)
        data = bytes(range(200))
        addr = PAGE_SIZE - 100
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(MEM_SIZE)
        with pytest.raises(AccessFault):
            mem.read(MEM_SIZE - 4, 8)
        with pytest.raises(AccessFault):
            mem.write(-1, b"x")

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)  # not a page multiple
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_zero_range_scrubs(self):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write(PAGE_SIZE, b"secret")
        assert not mem.page_is_zero(1)
        mem.zero_range(PAGE_SIZE, PAGE_SIZE)
        assert mem.page_is_zero(1)

    def test_page_is_zero_for_untouched_page(self):
        assert PhysicalMemory(MEM_SIZE).page_is_zero(3)

    def test_page_is_zero_rejects_out_of_range_page(self):
        # An audit handed a bogus page number must fail, not pass.
        mem = PhysicalMemory(MEM_SIZE)
        for page in (-1, MEM_SIZE // PAGE_SIZE, 10**9):
            with pytest.raises(AccessFault):
                mem.page_is_zero(page)
        assert mem.page_is_zero(MEM_SIZE // PAGE_SIZE - 1)

    @given(
        st.integers(min_value=0, max_value=MEM_SIZE - 512),
        st.binary(min_size=1, max_size=512),
    )
    def test_any_write_reads_back(self, addr, data):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data

    @given(st.integers(min_value=0, max_value=MEM_SIZE - 1024))
    def test_adjacent_writes_do_not_interfere(self, addr):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write(addr, b"A" * 100)
        mem.write(addr + 100, b"B" * 100)
        assert mem.read(addr, 100) == b"A" * 100
        assert mem.read(addr + 100, 100) == b"B" * 100


class TestTZASC:
    def _guarded(self):
        tzasc = TZASC()
        tzasc.configure_secure_region(32 * PAGE_SIZE, 32 * PAGE_SIZE)
        mem = PhysicalMemory(MEM_SIZE, tzasc=tzasc)
        return tzasc, mem

    def test_secure_world_reads_secure_region(self):
        _, mem = self._guarded()
        mem.write(40 * PAGE_SIZE, b"tee data", world="secure")
        assert mem.read(40 * PAGE_SIZE, 8, world="secure") == b"tee data"

    def test_normal_world_denied_secure_region(self):
        _, mem = self._guarded()
        with pytest.raises(AccessFault):
            mem.read(40 * PAGE_SIZE, 8, world="normal")
        with pytest.raises(AccessFault):
            mem.write(40 * PAGE_SIZE, b"x", world="normal")

    def test_normal_world_allowed_normal_region(self):
        _, mem = self._guarded()
        mem.write(PAGE_SIZE, b"normal", world="normal")
        assert mem.read(PAGE_SIZE, 6, world="normal") == b"normal"

    def test_straddling_access_denied(self):
        _, mem = self._guarded()
        with pytest.raises(AccessFault):
            mem.read(32 * PAGE_SIZE - 4, 8, world="normal")

    def test_lock_blocks_reconfiguration(self):
        tzasc, _ = self._guarded()
        tzasc.lock()
        with pytest.raises(AccessFault):
            tzasc.configure_secure_region(0, PAGE_SIZE)

    def test_is_secure(self):
        tzasc, _ = self._guarded()
        assert tzasc.is_secure(40 * PAGE_SIZE)
        assert not tzasc.is_secure(PAGE_SIZE)

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError):
            TZASC().configure_secure_region(0, 0)

    def test_scrub_bypasses_filter(self):
        """zero_range is hardware-initiated and must work on secure pages."""
        _, mem = self._guarded()
        mem.write(40 * PAGE_SIZE, b"secret", world="secure")
        mem.zero_range(40 * PAGE_SIZE, PAGE_SIZE)
        assert mem.page_is_zero(40)


class TestTZPC:
    def test_default_world_is_normal(self):
        assert TZPC().world_of("gpu0") == "normal"

    def test_assign_and_check(self):
        tzpc = TZPC()
        tzpc.assign("gpu0", "secure")
        with pytest.raises(AccessFault):
            tzpc.check("gpu0", "normal")
        tzpc.check("gpu0", "secure")  # must not raise

    def test_normal_device_accessible_from_both(self):
        tzpc = TZPC()
        tzpc.assign("nic0", "normal")
        tzpc.check("nic0", "normal")
        tzpc.check("nic0", "secure")

    def test_lock_blocks_reassignment(self):
        tzpc = TZPC()
        tzpc.assign("gpu0", "secure")
        tzpc.lock()
        with pytest.raises(AccessFault):
            tzpc.assign("gpu0", "normal")

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError):
            TZPC().assign("gpu0", "hyperspace")

    def test_snapshot(self):
        tzpc = TZPC()
        tzpc.assign("gpu0", "secure")
        assert tzpc.snapshot() == {"gpu0": "secure"}
