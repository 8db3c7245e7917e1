"""The streaming RPC (sRPC) channel.

Channel setup follows figure 6 of the paper: local attestation of the
callee, SPM-brokered sharing of the ring pages, then dCheck — a
challenge/response over the *shared memory itself* proving the peer holds
``secret_dhke``, which defeats mOS-substitution during the setup window.

The fast path (section IV-C): asynchronous mECalls are serialized into the
trusted ring buffer and return immediately; a consumer thread (modelled as
a :class:`~repro.sim.Timeline`) drains and executes them, bumping the
progress index Sid.  Synchronous mECalls join the consumer timeline, verify
streamCheck (Sid == Rid), and read the result from the response mailbox.

Multi-threading: "CRONUS makes each thread create its own stream for RPCs"
— a channel hosts any number of :class:`_Stream` objects (each with its
own ring, mailbox, consumer thread and Rid/Sid), created on demand by
``stream_id``; stream 0 is the default.

Failover (section IV-D): any access to memory shared with a failed
partition traps in the SPM and surfaces as ``PeerFailedSignal``; the
channel catches it, clears stream state, and raises
:class:`SRPCPeerFailure` — no data leak (A1), no deadlock (A2).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto.dh import mac_valid
from repro.enclave.menclave import MEnclave
from repro.enclave.models import ExecutionError
from repro.faults import injector as _faults
from repro.hw.memory import PAGE_SIZE
from repro.hw.pagetable import PageFault
from repro.obs.span import NO_SPAN
from repro.rpc.codec import RecordCodec, loads
from repro.rpc.ringbuffer import RingBufferError, SharedRingBuffer
from repro.secure.partition import Partition, PartitionState, PeerFailedSignal
from repro.secure.spm import SPMError
from repro.sim import Timeline


class ChannelError(Exception):
    """Setup failure: attestation mismatch, dCheck failure, bad grant."""


class SRPCPeerFailure(Exception):
    """The peer's partition failed; the stream was torn down cleanly."""

    def __init__(self, peer: str) -> None:
        super().__init__(f"sRPC peer partition {peer!r} failed; stream closed")
        self.peer = peer


@dataclass
class EnclaveEndpoint:
    """One side of a channel: an mEnclave plus the mOS hosting it."""

    enclave: MEnclave
    mos: Any  # MicroOS (duck-typed to avoid an import cycle)

    @property
    def partition(self) -> Partition:
        return self.mos.partition


class _Stream:
    """One per-thread mECall stream: ring + mailbox + consumer thread."""

    MAILBOX_PAGES = 1

    def __init__(
        self, channel: "SRPCChannel", stream_id: int, ring_pages: int, platform, spm, secret
    ) -> None:
        self._channel = channel
        self._platform = platform
        self._spm = spm
        self._secret = secret
        self.stream_id = stream_id
        # Baseline for detecting a peer crash (even crash + background
        # recovery) between enqueue and drain: a restart scrubs the ring,
        # which must surface as SRPCPeerFailure, not stream corruption.
        self._peer_restarts = channel.callee.partition.restarts
        self._reorder_hold: Optional[bytes] = None
        self.grant, self.ring, self.mailbox_base = self._setup_smem(ring_pages)
        self._dcheck()
        self.consumer = Timeline(
            platform.clock,
            name=f"srpc:{channel.callee.enclave.eid:#x}/s{stream_id}",
        )
        self.thread_started = False

    # -- setup -----------------------------------------------------------
    def _setup_smem(self, ring_pages: int):
        """Allocate + share the ring and mailbox pages (figure 6 steps).

        Inter-mOS sharing goes through the SPM (stage-2 + SMMU mapping);
        intra-mOS sharing — both enclaves in the same partition — simply
        maps both sides onto the same physical pages (section IV-C).
        """
        channel = self._channel
        total = ring_pages + self.MAILBOX_PAGES
        pages = tuple(sorted(channel.caller.mos.shim.alloc_pages(total)))
        if channel.caller.partition is channel.callee.partition:
            grant = None  # intra-mOS: no stage-2 grant needed
        else:
            grant = self._spm.share_pages(
                channel.caller.partition, channel.callee.partition, pages
            )
        ring = SharedRingBuffer(
            channel.caller.partition, channel.callee.partition, pages[:-1]
        )
        mailbox_base = pages[-1] * PAGE_SIZE
        return grant, ring, mailbox_base

    def _dcheck(self) -> None:
        """Prove through the shared memory that the peer holds secret_dhke."""
        channel = self._channel
        challenge = hashlib.sha256(
            f"dcheck:{channel.caller.enclave.eid}:{channel.callee.enclave.eid}"
            f":{self.stream_id}".encode()
        ).digest()
        channel.caller.partition.write(self.mailbox_base, challenge)
        seen = channel.callee.partition.read(self.mailbox_base, len(challenge))
        response = channel.callee.enclave.prove_secret(seen)
        channel.callee.partition.write(self.mailbox_base, response)
        echoed = channel.caller.partition.read(self.mailbox_base, len(response))
        if not mac_valid(self._secret, b"dcheck" + challenge, echoed):
            raise ChannelError("dCheck failed: peer does not hold secret_dhke")

    # -- data path ---------------------------------------------------------
    def enqueue(self, record: bytes) -> None:
        costs = self._platform.costs
        if not self.thread_started:
            # The normal world spawns this stream's consumer thread on
            # first use (streams are created on demand, section IV-C).
            self._platform.clock.advance(costs.thread_spawn_us)
            self.thread_started = True
        self._platform.clock.advance(costs.srpc_enqueue_us(len(record)))
        metrics = self._platform.metrics
        metrics.counter("srpc", "enqueued").inc()
        metrics.histogram("srpc", "record_bytes").observe(len(record))
        duplicate = False
        if _faults.ACTIVE is not None:
            act = _faults.ACTIVE.fire(
                "srpc.enqueue", default_target=self._peer_device_name()
            )
            if act is not None:
                if act.action == _faults.DROP:
                    return
                if act.action == _faults.CORRUPT:
                    record = act.mangle(record)
                elif act.action == _faults.DUPLICATE:
                    duplicate = True
                elif act.action == _faults.REORDER:
                    # Hold this record; it rides behind the next enqueue.
                    self._reorder_hold = record
                    return
        self._push_ring(record)
        if duplicate:
            self._push_ring(record)
        if self._reorder_hold is not None:
            held, self._reorder_hold = self._reorder_hold, None
            self._push_ring(held)

    def _push_ring(self, record: bytes) -> None:
        try:
            self.ring.push(record)
        except RingBufferError:
            self._expand_smem(len(record))
            self.ring.push(record)

    def _peer_device_name(self) -> str:
        return self._channel.callee.partition.device.name

    def drain_one(self) -> Any:
        """The consumer execution loop body: fetch, execute, bump Sid."""
        try:
            record = self.ring.pop()
        except (RingBufferError, PageFault) as exc:
            # A PageFault here means the ring page vanished from the
            # consumer's stage-2 table outright (a peer recovery unmapped
            # it) rather than being invalidated — same diagnosis applies.
            self._raise_drain_failure(str(exc), cause=exc)
        if record is not None and _faults.ACTIVE is not None:
            act = _faults.ACTIVE.fire(
                "srpc.drain", default_target=self._peer_device_name()
            )
            if act is not None:
                if act.action == _faults.DROP:
                    record = None
                elif act.action == _faults.CORRUPT:
                    record = act.mangle(record)
        if record is None:
            self._raise_drain_failure("consumer found an empty ring", cause=None)
        try:
            fn, args, kwargs, ctx = self._channel.codec.decode(record)
        except Exception as exc:  # unpickling garbage raises a zoo of types
            self._raise_drain_failure(f"undecodable record ({exc!r})", cause=exc)
        costs = self._platform.costs
        completion = self.consumer.submit(
            costs.enclave_entry_us
            + costs.copy_cost_us(len(record), per_kib=costs.smem_us_per_kib)
        )
        obs = self._platform.obs
        if ctx is not None:
            # The consumer-side execution window, parented on the caller's
            # in-band context: this is the span that crosses the mEnclave
            # (and partition) boundary.  ``record`` also marks this trace as
            # the last one active on the callee's partition, so a crash
            # parents its recovery spans here.
            callee = self._channel.callee
            obs.record(
                "srpc.execute",
                start_us=self.consumer.last_start,
                end_us=completion,
                category="srpc",
                parent=tuple(ctx),
                partition=callee.partition.name,
                enclave=f"{callee.enclave.eid:#010x}",
                fn=fn,
                stream=self.stream_id,
            )
        result = self._channel.callee.enclave.mecall_trusted(fn, args, kwargs)
        self.ring.bump_sid()
        return result

    def _peer_failed_mid_stream(self) -> bool:
        """Did the callee's partition fail (or fail *and* recover) since
        this stream was set up?  A background recovery leaves the
        partition READY again but scrubs the shared ring, so the restart
        counter — not just the state — is part of the check."""
        peer = self._channel.callee.partition
        return (
            peer.state is not PartitionState.READY
            or peer.restarts != self._peer_restarts
        )

    def _raise_drain_failure(self, reason: str, *, cause: Optional[BaseException]) -> None:
        """An unreadable ring means either genuine stream corruption or a
        peer crash mid-stream (the crash scrubbed/zeroed the shared pages).
        The latter must surface as the peer-failure signal so callers take
        the failover path instead of treating it as a protocol bug."""
        if self._peer_failed_mid_stream():
            peer = self._channel.callee.partition
            raise PeerFailedSignal(peer.name, page=self.ring.pages[0]) from cause
        raise ChannelError(f"{reason} (corrupt stream)") from cause

    def read_mailbox_result(self, result: Any) -> Any:
        """Synchronous results travel back through the trusted mailbox."""
        channel = self._channel
        blob = pickle.dumps(result)
        if len(blob) + 4 > self.MAILBOX_PAGES * PAGE_SIZE:
            # Big results (e.g. a tensor) are staged through freshly shared
            # pages; the timing equivalent is one smem copy of that size.
            costs = self._platform.costs
            self._platform.clock.advance(
                costs.copy_cost_us(len(blob), per_kib=costs.smem_us_per_kib)
            )
            return result
        channel.callee.partition.write(
            self.mailbox_base, len(blob).to_bytes(4, "big") + blob
        )
        raw_len = int.from_bytes(channel.caller.partition.read(self.mailbox_base, 4), "big")
        raw = channel.caller.partition.read(self.mailbox_base + 4, raw_len)
        try:
            return loads(raw)
        except Exception as exc:
            self._raise_drain_failure(f"undecodable result ({exc!r})", cause=exc)

    def _expand_smem(self, need_bytes: int) -> None:
        """Out-of-memory rule: expand smem and re-run dCheck (section IV-C).

        The stream's protocol state survives the migration: Rid/Sid and any
        records pushed-but-not-executed are carried into the fresh ring.  A
        zeroed header would let a later ``stream_check`` pass spuriously
        (Rid == Sid == 0) even with submitted-but-unexecuted work.
        """
        channel = self._channel
        extra_pages = max(1, (need_bytes + 4) // PAGE_SIZE + 1)
        old_pages = self.smem_pages()
        old_rid, old_sid = self.ring.rid, self.ring.sid
        pending = []
        while True:
            record = self.ring.pop()
            if record is None:
                break
            pending.append(record)
        if self.grant is not None:
            self._spm.reclaim_grant(self.grant)
        channel.caller.mos.shim.free_pages(old_pages)
        if _faults.ACTIVE is not None:
            # The expansion's most fragile instant: the old ring is torn
            # down and scrubbed, the new one not yet shared.  A peer crash
            # fired here must surface as a peer failure (below), with the
            # pending records neither lost silently nor replayed.
            _faults.ACTIVE.fire(
                "srpc.expand", default_target=self._peer_device_name()
            )
        try:
            self.grant, self.ring, self.mailbox_base = self._setup_smem(
                len(old_pages) - self.MAILBOX_PAGES + extra_pages
            )
        except SPMError as exc:
            if self._peer_failed_mid_stream():
                # The peer died between tearing down the old ring and
                # sharing the new one.  The old pages are already freed and
                # scrubbed, the pending records travel nowhere: surface the
                # peer failure so the caller resubmits (no loss is silent,
                # and a recovered peer can never replay the records).
                raise PeerFailedSignal(
                    channel.callee.partition.name, page=old_pages[0]
                ) from exc
            raise
        for record in pending:
            self.ring.push(record)
        self.ring.set_indices(old_rid, old_sid)
        self._dcheck()

    def smem_pages(self) -> Tuple[int, ...]:
        if self.grant is not None:
            return self.grant.pages
        first = self.ring.pages[0]
        last = self.mailbox_base // PAGE_SIZE
        return tuple(range(first, last + 1))

    def release(self) -> None:
        channel = self._channel
        self.consumer.join()
        if self.grant is not None:
            self._spm.reclaim_grant(self.grant)
        try:
            channel.caller.mos.shim.free_pages(self.smem_pages())
        except (SPMError, PeerFailedSignal):
            # Expected after a failure: the pages were already reclaimed by
            # the recovery path, or the owner is mid-recovery.  Anything
            # else (a genuine bug) propagates to the caller.
            channel.reclaim_errors += 1


class SRPCChannel:
    """One-directional mECall streaming from ``caller`` into ``callee``."""

    MAILBOX_PAGES = _Stream.MAILBOX_PAGES

    def __init__(
        self,
        caller: EnclaveEndpoint,
        callee: EnclaveEndpoint,
        secret: bytes,
        spm,
        *,
        ring_pages: int = 31,
        expected_measurement: Optional[bytes] = None,
    ) -> None:
        self.caller = caller
        self.callee = callee
        self._secret = secret
        self._spm = spm
        self._platform = caller.mos.platform
        self._ring_pages = ring_pages
        self._failed_peer: Optional[str] = None
        self._closed = False
        self.codec = RecordCodec()
        """This channel's record codec: its memo dies with the channel."""
        self.calls_streamed = 0
        self.sync_points = 0
        self.reclaim_errors = 0
        """Swallowed-but-expected smem reclaim failures (see release)."""

        self._attest_peer(expected_measurement)
        self._streams: Dict[int, _Stream] = {}
        self.stream(0)
        # Register with both mOSes so enclave-level failures tear the
        # channel down (section IV-D, "Handling mEnclave failures").
        callee.mos.manager.register_channel(callee.enclave.eid, self)
        if caller.enclave is not None:
            caller.mos.manager.register_channel(caller.enclave.eid, self)
        self._platform.tracer.emit(
            "srpc", "channel-open",
            f"{getattr(caller.enclave, 'eid', 0):#010x} -> {callee.enclave.eid:#010x}",
        )
        self._platform.obs.event(
            "srpc.channel-open",
            category="srpc",
            partition=(
                caller.partition.name if caller.partition is not None else None
            ),
            caller_eid=f"{getattr(caller.enclave, 'eid', 0):#010x}",
            callee_eid=f"{callee.enclave.eid:#010x}",
            callee_partition=callee.partition.name,
        )
        self._platform.metrics.counter("srpc", "channels_opened").inc()

    # -- setup steps ------------------------------------------------------
    def _attest_peer(self, expected_measurement: Optional[bytes]) -> None:
        """Local attestation (automatic in CRONUS, section IV-C)."""
        report = self.callee.mos.manager.local_report(self.callee.enclave.eid)
        monitor = self.callee.mos.monitor
        if not monitor.verify_local_report(report):
            raise ChannelError("local attestation report not endorsed by this machine's SPM")
        if report.partition != self.callee.partition.name:
            raise ChannelError("local attestation partition mismatch")
        if expected_measurement is not None and report.measurement != expected_measurement:
            raise ChannelError("peer mEnclave measurement mismatch")

    def stream(self, stream_id: int) -> _Stream:
        """The per-thread stream, created on demand (with its own smem,
        dCheck and consumer thread)."""
        if stream_id not in self._streams:
            self._streams[stream_id] = _Stream(
                self, stream_id, self._ring_pages, self._platform, self._spm, self._secret
            )
        return self._streams[stream_id]

    def stream_count(self) -> int:
        return len(self._streams)

    # -- the RPC fast path -----------------------------------------------------
    def call(self, fn: str, *args: Any, stream: int = 0, **kwargs: Any) -> Any:
        """Issue one mECall on ``stream``; blocks only if it is synchronous."""
        self._require_usable()
        synchronous = self.callee.enclave.is_synchronous(fn)
        obs = self._platform.obs
        span = obs.begin(
            "srpc.call",
            category="srpc",
            partition=(
                self.caller.partition.name
                if self.caller.partition is not None
                else None
            ),
            fn=fn,
            stream=stream,
            sync=synchronous,
        )
        # In-band context propagation: when enabled, the producer appends
        # its span's (trace_id, span_id) to the serialized record, so the
        # callee's partition parents its execution span under this call
        # without any out-of-band channel.  The record bytes (and therefore
        # the enqueue costs) are untouched on disabled runs.
        record = self.codec.encode(
            fn, args, kwargs, None if span is NO_SPAN else span.context.wire()
        )
        try:
            s = self.stream(stream)
            s.enqueue(record)
            self.calls_streamed += 1
            result = s.drain_one()
            if synchronous:
                self.sync_points += 1
                s.consumer.join()
                if not s.ring.stream_check():
                    raise ChannelError(
                        f"streamCheck failed: Rid={s.ring.rid} Sid={s.ring.sid}"
                    )
                out = s.read_mailbox_result(result)
                obs.end(span, outcome="ok")
                return out
            obs.end(span, outcome="ok")
            return None
        except PeerFailedSignal as signal:
            self._on_peer_failure(signal)
            obs.end(span, outcome="peer-failed", peer=signal.peer_partition)
            raise SRPCPeerFailure(signal.peer_partition) from signal
        except ExecutionError as exc:
            if "destroyed" in str(exc):
                # Intra-partition enclave failure: no stage-2 trap fires,
                # but the dead executor surfaces the same way to callers.
                self._failed_peer = f"enclave {self.callee.enclave.eid:#010x}"
                for s in self._streams.values():
                    s.consumer.reset()
                obs.end(span, outcome="enclave-destroyed")
                raise SRPCPeerFailure(self._failed_peer) from exc
            obs.end(span, outcome="error")
            raise
        except Exception:
            obs.end(span, outcome="error")
            raise

    # -- failure + teardown -------------------------------------------------------
    def _on_peer_failure(self, signal: PeerFailedSignal) -> None:
        """sRPC automatically clears state when getting the signal, and —
        per the section IV-D reclamation rule — returns the caller-owned
        shared pages to the allocator once the stream terminates."""
        self._failed_peer = signal.peer_partition
        self._platform.tracer.emit("srpc", "channel-failed", signal.peer_partition)
        for s in self._streams.values():
            s.consumer.reset()
            self._reclaim_stream_pages(s)

    def _reclaim_stream_pages(self, stream: _Stream) -> None:
        """Free this stream's smem pages if the caller's partition owns
        them (the peer failed; nothing will drain the ring again).  Pages
        owned by the *failed* partition are left for its own recovery."""
        owner_name = self.caller.partition.name
        pages = tuple(
            p for p in stream.smem_pages() if self._spm.owner_of(p) == owner_name
        )
        if not pages:
            return
        if stream.grant is not None:
            self._spm.reclaim_grant(stream.grant)
        try:
            self.caller.mos.shim.free_pages(pages)
        except (SPMError, PeerFailedSignal):
            # The caller's own partition may be mid-recovery, or recovery
            # already returned the pages; other errors are real bugs.
            self.reclaim_errors += 1

    @property
    def failed(self) -> bool:
        return self._failed_peer is not None

    @property
    def stats(self) -> Dict[str, int]:
        """Channel counters for the metrics report (``counters_table``)."""
        return {
            "calls_streamed": self.calls_streamed,
            "sync_points": self.sync_points,
            "streams": len(self._streams),
            "reclaim_errors": self.reclaim_errors,
        }

    def _require_usable(self) -> None:
        if self._closed:
            raise ChannelError("channel closed")
        if self._failed_peer is not None:
            raise SRPCPeerFailure(self._failed_peer)

    def synchronize(self, stream: Optional[int] = None) -> None:
        """Join one stream's consumer, or all of them (device-sync analog)."""
        self._require_usable()
        targets = self._streams.values() if stream is None else [self.stream(stream)]
        for s in targets:
            s.consumer.join()

    def close(self) -> None:
        """Close every stream: join, streamCheck, reclaim the shared pages."""
        if self._closed:
            return
        self._closed = True
        if self._failed_peer is None:
            for s in self._streams.values():
                s.release()
