"""Secure Partition Manager (S-EL2 hypervisor).

The SPM isolates partitions with stage-2 page tables, allocates secure
memory, brokers trusted shared memory between partitions, and implements
the proceed-trap failure recovery protocol of paper section IV-D:

1. **Proceed** — on failure, invalidate every stage-2 and SMMU entry of
   memory shared with the failed partition and set ``r_f = 1`` so new
   sharing requests are blocked.  This closes the TOCTOU window (A1).
2. **Clear & reload** — run the failure-clearing logic (scrub device state
   and shared memory, defeating crashed-information leaks A3), then load a
   fresh mOS and set ``r_f = 0``.
3. **Trap** — later accesses to invalidated shared memory fault; the SPM
   unmaps the faulting enclave's view, restores pages the survivor owns,
   and delivers :class:`~repro.secure.partition.PeerFailedSignal` so the
   enclave neither leaks data nor deadlocks (A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults import injector as _faults
from repro.hw.memory import PAGE_SIZE
from repro.hw.pagetable import PagePermission
from repro.hw.platform import Platform
from repro.secure.monitor import SecureMonitor
from repro.secure.partition import Partition, PartitionState, PeerFailedSignal


class SPMError(Exception):
    """Invalid SPM request: double-share, failed peer, unknown partition."""


@dataclass
class ShareGrant:
    """Bookkeeping for one trusted-shared-memory grant (recorded in the SPM
    for fast recovery, per section IV-C)."""

    owner: str
    peer: str
    pages: Tuple[int, ...]  # physical page numbers (identity-mapped IPAs)
    active: bool = True

    def involves(self, partition_name: str) -> bool:
        return partition_name in (self.owner, self.peer)

    def other(self, partition_name: str) -> str:
        return self.peer if partition_name == self.owner else self.owner


@dataclass(frozen=True)
class RecoveryReport:
    """Timing breakdown of one recovery, for the figure 9 experiment."""

    partition: str
    invalidated_stage2: int
    invalidated_smmu: int
    device_bytes_cleared: int
    smem_pages_scrubbed: int
    proceed_us: float
    clear_us: float
    reload_us: float

    @property
    def total_us(self) -> float:
        return self.proceed_us + self.clear_us + self.reload_us


class SPM:
    """The secure partition manager."""

    MAX_PARTITIONS = 16

    def __init__(self, platform: Platform, monitor: SecureMonitor) -> None:
        self._platform = platform
        self._monitor = monitor
        self._partitions: Dict[str, Partition] = {}
        self._next_id = 1
        secure_range = platform.secure_page_range()
        self._bump = secure_range.start
        self._bump_end = secure_range.stop
        self._recycled: List[int] = []
        self._page_owner: Dict[int, str] = {}
        self.grants: List[ShareGrant] = []
        """Every grant ever made, active or revoked, in grant order (read-only
        outside the SPM)."""
        self._heartbeats: Dict[str, int] = {}

    # -- partitions --------------------------------------------------------
    def create_partition(self, name: str, device) -> Partition:
        """Create an S-EL2 partition bound to one device (1:1, section III-A)."""
        if name in self._partitions:
            raise SPMError(f"partition {name!r} already exists")
        if len(self._partitions) >= self.MAX_PARTITIONS:
            raise SPMError("partition limit reached")
        for p in self._partitions.values():
            if p.device.name == device.name:
                raise SPMError(f"device {device.name!r} already managed by {p.name!r}")
        partition = Partition(self._next_id, name, device, self._platform, self)
        self._platform.tracer.emit("spm", "create-partition", name)
        self._partitions[name] = partition
        self._next_id += 1
        self._heartbeats[name] = 0
        return partition

    def partition(self, name: str) -> Partition:
        try:
            return self._partitions[name]
        except KeyError:
            raise SPMError(f"no partition named {name!r}") from None

    def partitions(self) -> List[Partition]:
        return list(self._partitions.values())

    def partition_for_device(self, device_name: str) -> Partition:
        """The partition managing ``device_name`` (1:1 mapping)."""
        for partition in self._partitions.values():
            if partition.device.name == device_name:
                return partition
        raise SPMError(f"no partition manages device {device_name!r}")

    # -- secure memory --------------------------------------------------------
    def allocate_pages(self, partition: Partition, count: int) -> Tuple[int, ...]:
        """Give ``count`` *contiguous* secure pages to a partition
        (identity IPA=PA mapping).  Contiguity keeps shared ring buffers
        simple and mirrors the proactively reserved share regions of
        section IV-C."""
        if count <= 0:
            raise SPMError(f"bad page count {count}")
        pages = self._take_recycled_run(count)
        if pages is None:
            if self._bump + count > self._bump_end:
                raise SPMError("secure memory exhausted")
            pages = tuple(range(self._bump, self._bump + count))
            self._bump += count
        for page in pages:
            partition.stage2.map(page, page, PagePermission.RW)
            self._page_owner[page] = partition.name
            self._platform.clock.advance(self._platform.costs.stage2_map_us)
        return pages

    def _take_recycled_run(self, count: int) -> Optional[Tuple[int, ...]]:
        """Find a contiguous run among previously freed pages."""
        self._recycled.sort()
        run_start = 0
        for i in range(1, len(self._recycled) + 1):
            at_break = (
                i == len(self._recycled) or self._recycled[i] != self._recycled[i - 1] + 1
            )
            if i - run_start >= count:
                pages = tuple(self._recycled[run_start : run_start + count])
                del self._recycled[run_start : run_start + count]
                return pages
            if at_break:
                run_start = i
        return None

    def free_pages(self, partition: Partition, pages: Tuple[int, ...]) -> None:
        """Return pages to the allocator (scrubbed first)."""
        for page in pages:
            if self._page_owner.get(page) != partition.name:
                raise SPMError(f"page {page:#x} not owned by {partition.name!r}")
            self._platform.memory.zero_range(page * PAGE_SIZE, PAGE_SIZE)
            partition.stage2.unmap(page)
            del self._page_owner[page]
            self._recycled.append(page)

    def owner_of(self, page: int) -> Optional[str]:
        return self._page_owner.get(page)

    # -- trusted shared memory -------------------------------------------------
    def share_pages(
        self, owner: Partition, peer: Partition, pages: Tuple[int, ...]
    ) -> ShareGrant:
        """Map ``owner``-owned pages into ``peer``'s stage-2 (figure 6 flow).

        Enforces the paper's restrictions: no sharing with a failed
        partition (r_f check), and a page may be shared only once (the
        deadlock-avoidance rule at the end of section IV-D).
        """
        if owner.state is not PartitionState.READY:
            raise SPMError(f"owner partition {owner.name!r} is not ready (r_f set)")
        if peer.state is not PartitionState.READY:
            raise SPMError(f"peer partition {peer.name!r} is not ready (r_f set)")
        if owner.name == peer.name:
            raise SPMError("cannot share pages with self")
        for page in pages:
            if self._page_owner.get(page) != owner.name:
                raise SPMError(f"page {page:#x} not owned by {owner.name!r}")
            if self._page_shared(page):
                raise SPMError(f"page {page:#x} already shared (share-once rule)")
        costs = self._platform.costs
        if _faults.ACTIVE is not None:
            # A crash fired here models a partition dying in the window
            # between validation and commit; re-check both states so the
            # share is refused instead of mapping into a failed partition.
            _faults.ACTIVE.fire("spm.share.commit", default_target=peer.device.name)
            if owner.state is not PartitionState.READY:
                raise SPMError(f"owner partition {owner.name!r} failed mid-share")
            if peer.state is not PartitionState.READY:
                raise SPMError(f"peer partition {peer.name!r} failed mid-share")
        # Stage-2 and SMMU TLB shoot-down is implicit: PageTable.map /
        # unmap / invalidate / revalidate each evict the affected cached
        # lines in the table they mutate, so sharing, reclaiming and
        # failure invalidation keep both partitions' TLBs coherent.
        for page in pages:
            peer.stage2.map(page, page, PagePermission.RW, shared_with=owner.name)
            owner_entry = owner.stage2.entry(page)
            owner_entry.shared_with = peer.name
            # The peer's device may DMA into the shared region (GPU P2P).
            self._platform.smmu.map(
                peer.device.name, page, page, PagePermission.RW, shared_with=owner.name
            )
            self._platform.clock.advance(costs.stage2_map_us + costs.smmu_update_us)
        grant = ShareGrant(owner=owner.name, peer=peer.name, pages=tuple(pages))
        self.grants.append(grant)
        if _faults.ACTIVE is not None:
            # Crash-after-commit: the grant exists, so recovery must find
            # and invalidate it (the proceed step walks the grant list).
            _faults.ACTIVE.fire("spm.share.committed", default_target=peer.device.name)
        self._platform.tracer.emit(
            "spm", "share-pages", f"{owner.name}->{peer.name} x{len(pages)}"
        )
        self._platform.obs.event(
            "spm.share", category="spm", partition=owner.name,
            peer=peer.name, pages=len(pages),
        )
        self._platform.metrics.counter("spm", "shares").inc()
        return grant

    def _page_shared(self, page: int) -> bool:
        return any(g.active and page in g.pages for g in self.grants)

    def grants_involving(self, partition_name: str) -> List[ShareGrant]:
        return [g for g in self.grants if g.active and g.involves(partition_name)]

    def reclaim_grant(self, grant: ShareGrant) -> None:
        """Tear down a grant after the streams using it terminate."""
        if not grant.active:
            return
        grant.active = False
        self._platform.obs.event(
            "spm.revoke", category="spm", partition=grant.owner,
            peer=grant.peer, pages=len(grant.pages),
        )
        self._platform.metrics.counter("spm", "revokes").inc()
        owner = self._partitions.get(grant.owner)
        peer = self._partitions.get(grant.peer)
        for page in grant.pages:
            if peer is not None:
                peer.stage2.unmap(page)
                self._platform.smmu.table_for(peer.device.name).unmap(page)
            if owner is not None:
                entry = owner.stage2.entry(page)
                if entry is not None:
                    entry.shared_with = None

    # -- failure identification (section IV-D, three circumstances) ----------
    def request_restart(self, partition_name: str, *, background: bool = False) -> RecoveryReport:
        """Circumstance 1: proactive restart (mOS update/reconfiguration)."""
        return self._recover(self.partition(partition_name), background=background)

    def report_panic(self, partition_name: str, *, background: bool = False) -> RecoveryReport:
        """Circumstance 2: the partition panicked and trapped to the SPM.

        With ``background=True`` the clear+reload time is *not* charged to
        the global clock: recovery proceeds concurrently with the surviving
        partitions (the figure 9 scenario), and callers gate resubmission on
        the report's total time instead.
        """
        return self._recover(self.partition(partition_name), background=background)

    def heartbeat(self, partition_name: str) -> None:
        """Partitions tick their heartbeat; the watchdog samples it."""
        self._heartbeats[partition_name] = self._heartbeats.get(partition_name, 0) + 1

    def watchdog_scan(self, last_seen: Dict[str, int]) -> List[str]:
        """Circumstance 3: detect hangs by comparing heartbeat counters
        against a previous sample; returns the names of hung partitions."""
        hung = []
        for name, partition in self._partitions.items():
            if partition.state is PartitionState.READY and self._heartbeats.get(
                name, 0
            ) == last_seen.get(name, -1):
                hung.append(name)
        return hung

    def heartbeat_snapshot(self) -> Dict[str, int]:
        return dict(self._heartbeats)

    # -- proceed-trap recovery ---------------------------------------------------
    def recover_partitions(self, names: List[str]) -> List[RecoveryReport]:
        """Concurrent-failure handling: step 1 serialized across failures,
        steps 2-3 overlap, so total downtime is the serial proceed time plus
        the *longest* clear+reload (section IV-D)."""
        partitions = [self.partition(n) for n in names]
        reports = [self._proceed(p) for p in partitions]  # serialized step 1
        finished = []
        longest = 0.0
        start = self._platform.clock.now
        for p, (proceed_us, s2, smmu) in zip(partitions, reports):
            clear_us, reload_us, dev_bytes, scrubbed = self._clear_and_reload(
                p, advance_clock=False
            )
            longest = max(longest, clear_us + reload_us)
            finished.append(
                RecoveryReport(
                    partition=p.name,
                    invalidated_stage2=s2,
                    invalidated_smmu=smmu,
                    device_bytes_cleared=dev_bytes,
                    smem_pages_scrubbed=scrubbed,
                    proceed_us=proceed_us,
                    clear_us=clear_us,
                    reload_us=reload_us,
                )
            )
        self._platform.clock.advance_to(start + longest)
        return finished

    def _recover(self, partition: Partition, *, background: bool = False) -> RecoveryReport:
        obs = self._platform.obs
        # Parent the whole recovery under the last trace active on the
        # failed partition: the crashed request's span tree continues
        # straight into its own recovery.
        root = obs.begin(
            "spm.recover",
            category="recovery",
            parent=obs.partition_context(partition.name),
            partition=partition.name,
            background=background,
        )
        proceed_us, s2, smmu = self._proceed(partition)
        if _faults.ACTIVE is not None:
            # Crash-during-recovery: a *second* partition may fail while
            # this one is between proceed and reload (section IV-D's
            # concurrent-failure case); the nested recovery runs to
            # completion inside the hook before this one resumes.
            _faults.ACTIVE.fire(
                "spm.recover.proceed", default_target=partition.device.name
            )
        clear_us, reload_us, dev_bytes, scrubbed = self._clear_and_reload(
            partition, advance_clock=not background
        )
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire(
                "spm.recover.reload", default_target=partition.device.name
            )
        # Background recovery leaves the clock untouched; the span closes
        # at the *virtual* completion instant so its duration still equals
        # proceed + clear + reload.
        end_ts = self._platform.clock.now + (
            (clear_us + reload_us) if background else 0.0
        )
        obs.end(
            root, ts=end_ts,
            total_us=proceed_us + clear_us + reload_us,
            invalidated_stage2=s2, invalidated_smmu=smmu,
        )
        self._platform.metrics.counter("spm", "recoveries").inc()
        self._platform.metrics.histogram("spm", "recovery_us").observe(
            proceed_us + clear_us + reload_us
        )
        return RecoveryReport(
            partition=partition.name,
            invalidated_stage2=s2,
            invalidated_smmu=smmu,
            device_bytes_cleared=dev_bytes,
            smem_pages_scrubbed=scrubbed,
            proceed_us=proceed_us,
            clear_us=clear_us,
            reload_us=reload_us,
        )

    def _proceed(self, partition: Partition) -> Tuple[float, int, int]:
        """Step 1: invalidate all shared mappings, set r_f = 1."""
        costs = self._platform.costs
        obs = self._platform.obs
        # Snapshot the flight-recorder ring before the scrub: the last
        # N spans leading up to the crash survive the partition's death.
        obs.dump_flight(partition.name, "recovery")
        start = self._platform.clock.now
        stage2_count = 0
        smmu_count = 0
        for grant in self.grants_involving(partition.name):
            survivor_name = grant.other(partition.name)
            survivor = self._partitions[survivor_name]
            for page in grant.pages:
                if survivor.stage2.invalidate(page):
                    stage2_count += 1
                    self._platform.clock.advance(costs.stage2_invalidate_us)
            # spt2: the grant's DMA mappings live under the *peer's* device
            # (installed at share time, tagged with the owner's name).  On
            # either side's failure those translations must go, or a stale
            # or malicious device could keep scraping the shared region.
            peer_partition = self._partitions[grant.peer]
            grant_smmu = self._platform.smmu.invalidate_shared_with(
                peer_partition.device.name, grant.owner
            )
            smmu_count += grant_smmu
            self._platform.clock.advance(grant_smmu * costs.smmu_update_us)
        partition.mark_failed()  # r_f = 1: blocks new sharing
        self._platform.tracer.emit(
            "spm", "recovery-proceed",
            f"{partition.name}: {stage2_count} stage2 + {smmu_count} smmu invalidated",
        )
        obs.record(
            "recovery.trap",
            start_us=start,
            end_us=self._platform.clock.now,
            category="recovery",
            parent=obs.current() or obs.partition_context(partition.name),
            partition=partition.name,
            invalidated_stage2=stage2_count,
            invalidated_smmu=smmu_count,
        )
        return self._platform.clock.now - start, stage2_count, smmu_count

    def _clear_and_reload(
        self, partition: Partition, *, advance_clock: bool
    ) -> Tuple[float, float, int, int]:
        """Step 2: scrub device + shared memory, reload the mOS, r_f = 0."""
        costs = self._platform.costs
        partition.mark_restarting()
        device_bytes = partition.device.clear_state()
        scrubbed = 0
        for grant in self.grants_involving(partition.name):
            for page in grant.pages:
                self._platform.memory.zero_range(page * PAGE_SIZE, PAGE_SIZE)
                scrubbed += 1
        # Pages the failed partition owned outright are scrubbed too.
        for page, owner in self._page_owner.items():
            if owner == partition.name:
                self._platform.memory.zero_range(page * PAGE_SIZE, PAGE_SIZE)
                scrubbed += 1
        # The reborn partition must not inherit its predecessor's view of
        # memory other partitions own: drop its stale mappings (and its
        # device's SMMU entries) for every grant it participated in.
        for grant in self.grants_involving(partition.name):
            for page in grant.pages:
                if self._page_owner.get(page) != partition.name:
                    partition.stage2.unmap(page)
                    self._platform.smmu.table_for(partition.device.name).unmap(page)
        # The fresh mOS starts with no enclaves: owned pages that are NOT
        # part of a live grant are returned to the allocator outright
        # (shared ones stay mapped-invalid so survivors still trap).
        shared_pages = {
            p
            for g in self.grants_involving(partition.name)
            for p in g.pages
        }
        orphaned = [
            p
            for p, owner in self._page_owner.items()
            if owner == partition.name and p not in shared_pages
        ]
        for page in orphaned:
            partition.stage2.unmap(page)
            del self._page_owner[page]
            self._recycled.append(page)
        clear_us = (
            costs.device_clear_us_per_mib * (device_bytes / (1 << 20))
            + costs.device_clear_us_per_mib * (scrubbed * PAGE_SIZE / (1 << 20))
        )
        reload_us = costs.mos_reload_us
        scrub_start = self._platform.clock.now
        if advance_clock:
            self._platform.clock.advance(clear_us + reload_us)
        obs = self._platform.obs
        # Background recovery runs concurrently with the survivors, so
        # these windows sit in the *future* of the (unadvanced) clock —
        # exactly where the work lands on the recovery's own timeline.
        parent = obs.current() or obs.partition_context(partition.name)
        obs.record(
            "recovery.scrub",
            start_us=scrub_start, end_us=scrub_start + clear_us,
            category="recovery", parent=parent, partition=partition.name,
            device_bytes=device_bytes, pages_scrubbed=scrubbed,
        )
        obs.record(
            "recovery.reload",
            start_us=scrub_start + clear_us,
            end_us=scrub_start + clear_us + reload_us,
            category="recovery", parent=parent, partition=partition.name,
        )
        # Full TLB flush on reload: the reborn mOS re-walks its stage-2
        # table (and its device re-walks the SMMU) from scratch.  Per-page
        # shoot-downs already covered the individual invalidate/unmap calls
        # above; the flush models the hardware-mandated flush at reload.
        partition.stage2.flush()
        self._platform.smmu.table_for(partition.device.name).flush()
        partition.mark_ready()  # r_f = 0
        self._platform.tracer.emit(
            "spm", "recovery-reload",
            f"{partition.name}: {device_bytes} device bytes cleared, "
            f"{scrubbed} pages scrubbed",
        )
        return clear_us, reload_us, device_bytes, scrubbed

    def invalidate_grant_for_enclave_failure(self, grant: ShareGrant) -> int:
        """mEnclave-level failure (section IV-D, "Handling mEnclave
        failures"): invalidate both mOSes' stage-2 mappings of the failed
        enclave's shared pages so the communicating mEnclave traps and is
        notified, without restarting either partition.  Returns the number
        of invalidated entries."""
        count = 0
        for name in (grant.owner, grant.peer):
            partition = self._partitions.get(name)
            if partition is None:
                continue
            for page in grant.pages:
                if partition.stage2.invalidate(page):
                    count += 1
                    self._platform.clock.advance(self._platform.costs.stage2_invalidate_us)
        return count

    # -- trap handling (step 3) ---------------------------------------------------
    def handle_shared_memory_trap(self, faulting: Partition, page: int) -> PeerFailedSignal:
        """Convert an invalidated-translation fault into a peer-failed signal.

        Pages owned by the faulting (surviving) partition are restored to it;
        pages owned by the failed peer stay unmapped.  Returns the signal the
        partition raises into the mEnclave.
        """
        peer_name = None
        # Prefer active grants: a page may appear in stale (reclaimed)
        # grants if it was recycled into a newer channel.
        ordered = [g for g in self.grants if g.active] + [
            g for g in self.grants if not g.active
        ]
        for grant in ordered:
            if page in grant.pages and grant.involves(faulting.name):
                peer_name = grant.other(faulting.name)
                grant.active = False
                for p in grant.pages:
                    if self._page_owner.get(p) == faulting.name:
                        faulting.stage2.revalidate(p, p, PagePermission.RW)
                    else:
                        faulting.stage2.unmap(p)
                    self._platform.smmu.table_for(faulting.device.name).unmap(p)
                break
        if peer_name is None:
            # Not a shared page: surface as an unrecoverable fault.
            peer_name = "<unknown>"
        self._platform.tracer.emit(
            "spm", "trap-handled", f"{faulting.name} touched page of failed {peer_name}"
        )
        self._platform.obs.event(
            "recovery.trap-handled", category="recovery",
            partition=faulting.name, page=page, peer=peer_name,
        )
        self._platform.metrics.counter("spm", "traps_handled").inc()
        return PeerFailedSignal(peer_name, page)
