"""Executable attack scenarios against a live CRONUS system.

Each function attempts one in-scope attack and returns an
:class:`AttackOutcome` saying whether the defense held (``blocked=True``)
and how.  Scenarios never reach into defense internals to "help" — they
drive the same public paths an attacker controls.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Set

import numpy as np

from repro.attacks.adversaries import (
    DropAdversary,
    ReorderAdversary,
    ReplayAdversary,
    TamperAdversary,
)
from repro.enclave.images import CpuImage
from repro.enclave.manifest import Manifest, MECallSpec
from repro.enclave.menclave import OwnershipError
from repro.hw.devices import MMIORegion
from repro.hw.devicetree import DeviceTree, DeviceTreeNode
from repro.hw.memory import PAGE_SIZE, AccessFault
from repro.hw.platform import Platform
from repro.mos.hal import GpuHal, HalError
from repro.mos.manager import EnclaveManagerError
from repro.rpc.baselines import RpcIntegrityError, SyncRpcChannel, UntrustedTransport
from repro.rpc.channel import ChannelError, EnclaveEndpoint, SRPCChannel, SRPCPeerFailure
from repro.secure.monitor import AttestationError, SecureMonitor
from repro.secure.partition import PeerFailedSignal
from repro.systems.cronus import CronusSystem
from repro.systems.testbed import TestbedConfig


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attempted attack."""

    name: str
    blocked: bool
    detail: str


def _cpu_image() -> CpuImage:
    return CpuImage(
        name="victim",
        functions={
            "store": lambda state, value: state.__setitem__("value", value),
            "load": lambda state: state.get("value"),
        },
    )


def _cpu_manifest(image: CpuImage) -> Manifest:
    return Manifest(
        device_type="cpu",
        images={"victim.so": image.digest()},
        mecalls=(MECallSpec("store"), MECallSpec("load")),
    )


def _fresh_system(isolation: str = "trustzone") -> CronusSystem:
    return CronusSystem(TestbedConfig(num_gpus=1, with_npu=True, isolation=isolation))


# ---------------------------------------------------------- memory / devices


def attempt_normal_world_secure_read(system: CronusSystem) -> AttackOutcome:
    """The untrusted OS reads secure DRAM directly."""
    addr = system.platform.secure_base + 4 * PAGE_SIZE
    try:
        system.platform.memory.read(addr, 64, world="normal")
    except AccessFault as exc:
        return AttackOutcome("normal-world-secure-read", True, str(exc))
    return AttackOutcome("normal-world-secure-read", False, "secure DRAM readable!")


def attempt_tzasc_reconfig(system: CronusSystem) -> AttackOutcome:
    """The untrusted OS shrinks the secure region after boot lockdown."""
    try:
        system.platform.tzasc.configure_secure_region(system.platform.secure_base, PAGE_SIZE)
    except AccessFault as exc:
        return AttackOutcome("tzasc-reconfig", True, str(exc))
    return AttackOutcome("tzasc-reconfig", False, "TZASC reconfigured after lockdown!")


def attempt_secure_device_access(system: CronusSystem) -> AttackOutcome:
    """The untrusted OS touches a secure-world accelerator's MMIO."""
    try:
        system.platform.tzpc.check("gpu0", "normal")
    except AccessFault as exc:
        return AttackOutcome("secure-device-access", True, str(exc))
    return AttackOutcome("secure-device-access", False, "secure device touchable!")


def attempt_bad_device_tree() -> AttackOutcome:
    """The untrusted OS supplies a DT with overlapping IRQs (spoofing)."""
    platform = Platform()
    bad_dt = DeviceTree(
        [
            DeviceTreeNode("gpu0", "gpu", 0x4000_0000, 0x1000, irq=41),
            DeviceTreeNode("evil", "gpu", 0x5000_0000, 0x1000, irq=41),
        ]
    )
    monitor = SecureMonitor(platform)
    try:
        monitor.boot(bad_dt)
    except AttestationError as exc:
        return AttackOutcome("bad-device-tree", True, str(exc))
    return AttackOutcome("bad-device-tree", False, "malicious DT accepted at boot!")


def attempt_fabricated_accelerator(system: CronusSystem) -> AttackOutcome:
    """A fabricated GPU (no vendor endorsement) is configured into the
    secure world via DT + reboot; the HAL authenticity check during
    attestation must reject it."""
    from repro.accel.gpu import GpuDevice
    from repro.mos.shim import ShimKernel
    from repro.secure.spm import SPM

    platform = Platform()
    nvidia = platform.register_vendor("nvidia")
    fake = GpuDevice(
        "fake-gpu",
        platform.clock,
        platform.costs,
        mmio=MMIORegion(0x7000_0000, 0x1000),
        irq=99,
        vendor=None,  # fabricated: no endorsement chain
    )
    platform.attach_device(fake, world="secure")  # pre-boot DT configuration
    monitor = SecureMonitor(platform)
    monitor.boot(platform.build_device_tree())
    spm = SPM(platform, monitor)
    partition = spm.create_partition("part-fake", fake)
    hal = GpuHal(fake, ShimKernel(partition, spm, platform.tzpc))
    try:
        hal.attest_device(nvidia.public)
    except HalError as exc:
        return AttackOutcome("fabricated-accelerator", True, str(exc))
    return AttackOutcome("fabricated-accelerator", False, "fabricated device attested!")


# --------------------------------------------------------------- dispatch


def attempt_wrong_partition_dispatch(system: CronusSystem) -> AttackOutcome:
    """A malicious dispatcher routes a GPU mEnclave request to the NPU
    partition; the Enclave Manager's manifest check must refuse."""
    app = system.application("attacker")
    from repro.enclave.images import CudaImage
    from repro.enclave.models import CUDA_MECALLS

    image = CudaImage(name="mal", kernels=("matmul",))
    manifest = Manifest(
        device_type="gpu", images={"mal.cubin": image.digest()}, mecalls=CUDA_MECALLS
    )
    try:
        app.create_enclave(manifest, image, "mal.cubin", mos=system.moses["npu0"])
    except EnclaveManagerError as exc:
        return AttackOutcome("wrong-partition-dispatch", True, str(exc))
    return AttackOutcome("wrong-partition-dispatch", False, "mis-dispatch accepted!")


def attempt_non_owner_ecall(system: CronusSystem) -> AttackOutcome:
    """A non-owner invokes an mECall with a forged MAC."""
    app = system.application("victim-app")
    image = _cpu_image()
    handle = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    handle.ecall("store", b"secret-value")
    forged_secret = b"\x00" * 32
    tag = handle.enclave.owner_tag(forged_secret, "load", 99)
    try:
        handle.enclave.mecall_untrusted("load", (), {}, counter=99, tag=tag)
    except OwnershipError as exc:
        return AttackOutcome("non-owner-ecall", True, str(exc))
    return AttackOutcome("non-owner-ecall", False, "non-owner mECall executed!")


# ----------------------------------------------------------------- RPC layer


def _sync_channel(system: CronusSystem, adversary) -> SyncRpcChannel:
    app = system.application("rpc-victim")
    image = _cpu_image()
    handle = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    transport = UntrustedTransport()
    transport.adversary = adversary
    return SyncRpcChannel(
        EnclaveEndpoint(enclave=None, mos=handle.mos),
        handle.endpoint(),
        handle.secret,
        transport,
    )


def _run_rpc_attack(name: str, system: CronusSystem, adversary) -> AttackOutcome:
    channel = _sync_channel(system, adversary)
    try:
        channel.call("store", b"x")
        channel.call("store", b"y")
    except RpcIntegrityError as exc:
        return AttackOutcome(name, True, str(exc))
    return AttackOutcome(name, False, f"{name} went undetected!")


def attempt_replay(system: CronusSystem) -> AttackOutcome:
    """Replay an RPC over untrusted memory: monotonic counters reject it."""
    return _run_rpc_attack("rpc-replay", system, ReplayAdversary())


def attempt_reorder(system: CronusSystem) -> AttackOutcome:
    """Reorder RPCs: the stale counter of the late message is rejected."""
    return _run_rpc_attack("rpc-reorder", system, ReorderAdversary())


def attempt_drop(system: CronusSystem) -> AttackOutcome:
    """Drop an RPC: the missing acknowledgement surfaces the attack."""
    return _run_rpc_attack("rpc-drop", system, DropAdversary(drop_every=1))


def attempt_tamper(system: CronusSystem) -> AttackOutcome:
    """Corrupt RPC parameters in untrusted memory: the MAC fails."""
    return _run_rpc_attack("rpc-tamper", system, TamperAdversary())


def attempt_srpc_eavesdrop(system: CronusSystem) -> AttackOutcome:
    """The untrusted OS reads an sRPC ring buffer: it lives in trusted TEE
    memory, so even *seeing* RPC timing/content is impossible."""
    app = system.application("stream-app")
    image = _cpu_image()
    caller = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    callee = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    channel = app.open_channel(caller, callee)
    ring_page = channel.stream(0).smem_pages()[0]
    try:
        system.platform.memory.read(ring_page * PAGE_SIZE, 64, world="normal")
    except AccessFault as exc:
        channel.close()
        return AttackOutcome("srpc-eavesdrop", True, str(exc))
    channel.close()
    return AttackOutcome("srpc-eavesdrop", False, "ring buffer readable from normal world!")


#: Markers of code-carrying payloads that actually ran (the witness of
#: :func:`attempt_code_carrying_record`).
EXECUTED_PAYLOADS: Set[str] = set()


class _CodeCarryingArgument:
    """An mECall argument whose unpickling runs code, the way a pickle
    written by a compromised peer would: ``REDUCE`` calls ``exec``."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __reduce__(self):
        return (exec, (
            "import repro.attacks.scenarios as s; "
            f"s.EXECUTED_PAYLOADS.add({self.marker!r})",
        ))


def attempt_code_carrying_record(system: CronusSystem) -> AttackOutcome:
    """A compromised producer writes a well-framed ring record whose pickle
    names ``exec``; the consumer's codec must refuse it before any code
    runs or the callee serves anything."""
    app = system.application("codec-app")
    image = _cpu_image()
    caller = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    callee = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    channel = app.open_channel(caller, callee)
    stream = channel.stream(0)
    marker = f"code-carrying:{id(channel):#x}"
    served, sid = callee.enclave.calls_served, stream.ring.sid
    stream.ring.push(pickle.dumps(("store", (_CodeCarryingArgument(marker),), {})))
    try:
        stream.drain_one()
    except ChannelError as exc:
        refused = str(exc)
    else:
        refused = None
    side_effects = [
        what
        for what, happened in (
            ("payload ran", marker in EXECUTED_PAYLOADS),
            ("callee served the call", callee.enclave.calls_served != served),
            ("Sid moved", stream.ring.sid != sid),
        )
        if happened
    ]
    channel.close()
    EXECUTED_PAYLOADS.discard(marker)
    if refused is not None and not side_effects:
        return AttackOutcome("code-carrying-record", True, refused)
    return AttackOutcome(
        "code-carrying-record", False,
        f"refused={refused is not None} side effects={side_effects}",
    )


def attempt_mos_substitution(system: CronusSystem) -> AttackOutcome:
    """After a crash, a malicious mOS stands up an impostor mEnclave; the
    creator's channel setup must fail dCheck (the impostor lacks
    secret_dhke)."""
    app = system.application("subst-app")
    image = _cpu_image()
    caller = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    victim = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    impostor_app = system.application("evil-app")
    impostor = impostor_app.create_enclave(_cpu_manifest(image), image, "victim.so")
    # The attacker routes the victim's channel-open to the impostor: same
    # measurement, same mOS — but the victim's secret does not match.
    try:
        SRPCChannel(caller.endpoint(), impostor.endpoint(), victim.secret, system.spm)
    except ChannelError as exc:
        return AttackOutcome("mos-substitution", True, str(exc))
    return AttackOutcome("mos-substitution", False, "impostor passed dCheck!")


# ------------------------------------------------------- failure-time attacks


def attempt_toctou_after_crash(system: CronusSystem) -> AttackOutcome:
    """A1: after the peer partition fails, the victim keeps streaming; the
    proceed-trap protocol must fault the access instead of leaking."""
    app = system.application("toctou-app")
    image = _cpu_image()
    caller = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    callee = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    channel = app.open_channel(caller, callee)
    channel.call("store", b"pre-crash")
    # The callee partition fails; in CRONUS both CPU enclaves share the CPU
    # partition, so fail a GPU partition variant instead: use distinct
    # partitions by pairing CPU caller with a GPU callee.
    from repro.enclave.images import CudaImage
    from repro.enclave.models import CUDA_MECALLS

    cuda_image = CudaImage(name="toctou", kernels=("vecadd",))
    gpu_manifest = Manifest(
        device_type="gpu", images={"toctou.cubin": cuda_image.digest()}, mecalls=CUDA_MECALLS
    )
    gpu_handle = app.create_enclave(gpu_manifest, cuda_image, "toctou.cubin")
    gpu_channel = app.open_channel(caller, gpu_handle)
    gpu_channel.call("cudaMalloc", (16,))
    system.fail_partition("gpu0")
    try:
        gpu_channel.call("cudaMalloc", (16,))
    except SRPCPeerFailure as exc:
        return AttackOutcome("toctou-after-crash", True, str(exc))
    return AttackOutcome("toctou-after-crash", False, "data sent to substituted partition!")


def attempt_deadlock_after_crash(system: CronusSystem) -> AttackOutcome:
    """A2: the peer dies holding a shared-memory spinlock; the survivor must
    be signalled, not deadlocked."""
    cpu_mos = system.moses["cpu0"]
    gpu_mos = system.moses["gpu0"]
    pages = cpu_mos.shim.alloc_pages(1)
    system.spm.share_pages(cpu_mos.partition, gpu_mos.partition, pages)
    peer_lock = gpu_mos.shim.spinlock_at(pages[0])
    peer_lock.acquire()  # the GPU-side enclave holds the lock...
    system.fail_partition("gpu0")  # ...and its partition dies
    survivor_lock = cpu_mos.shim.spinlock_at(pages[0])
    try:
        survivor_lock.acquire(max_spins=10_000)
    except PeerFailedSignal as exc:
        return AttackOutcome("deadlock-after-crash", True, f"signalled: {exc}")
    except Exception as exc:  # spin exhaustion would mean a real hang
        return AttackOutcome("deadlock-after-crash", False, f"hung: {exc}")
    return AttackOutcome("deadlock-after-crash", False, "lock acquired from dead holder?!")


def attempt_crashed_info_leak(system: CronusSystem) -> AttackOutcome:
    """A3: after recovery, the restarted partition scavenges device memory
    and old shared memory for the crashed tenant's secrets."""
    app = system.application("leak-app")
    from repro.enclave.images import CudaImage
    from repro.enclave.models import CUDA_MECALLS

    image = _cpu_image()
    caller = app.create_enclave(_cpu_manifest(image), image, "victim.so")
    cuda_image = CudaImage(name="leak", kernels=("vecadd",))
    gpu_manifest = Manifest(
        device_type="gpu", images={"leak.cubin": cuda_image.digest()}, mecalls=CUDA_MECALLS
    )
    gpu_handle = app.create_enclave(gpu_manifest, cuda_image, "leak.cubin")
    channel = app.open_channel(caller, gpu_handle)
    secret_data = np.full(256, 0x41, dtype=np.float32)
    buf = channel.call("cudaMalloc", (256,))
    channel.call("cudaMemcpyH2D", buf, secret_data)
    channel.call("cudaDeviceSynchronize")
    ring_pages = channel.stream(0).grant.pages
    gpu_device = system.platform.device("gpu0")
    system.fail_partition("gpu0")
    # The malicious restarted partition scavenges:
    leaked_pages = [
        p for p in ring_pages if not system.platform.memory.page_is_zero(p)
    ]
    gpu_bytes_left = gpu_device.bytes_in_use
    if leaked_pages or gpu_bytes_left:
        return AttackOutcome(
            "crashed-info-leak",
            False,
            f"leak: pages={leaked_pages} gpu_bytes={gpu_bytes_left}",
        )
    return AttackOutcome("crashed-info-leak", True, "device + smem scrubbed before reload")


_SCENARIOS: Dict[str, Callable] = {
    "normal-world-secure-read": attempt_normal_world_secure_read,
    "tzasc-reconfig": attempt_tzasc_reconfig,
    "secure-device-access": attempt_secure_device_access,
    "fabricated-accelerator": attempt_fabricated_accelerator,
    "wrong-partition-dispatch": attempt_wrong_partition_dispatch,
    "non-owner-ecall": attempt_non_owner_ecall,
    "rpc-replay": attempt_replay,
    "rpc-reorder": attempt_reorder,
    "rpc-drop": attempt_drop,
    "rpc-tamper": attempt_tamper,
    "srpc-eavesdrop": attempt_srpc_eavesdrop,
    "mos-substitution": attempt_mos_substitution,
    "code-carrying-record": attempt_code_carrying_record,
    "toctou-after-crash": attempt_toctou_after_crash,
    "deadlock-after-crash": attempt_deadlock_after_crash,
    "crashed-info-leak": attempt_crashed_info_leak,
}


def run_all_attacks(isolation: str = "trustzone") -> List[AttackOutcome]:
    """Run every scenario, each on a fresh system (plus the DT one, which
    builds its own platform).  ``isolation`` selects the hardware backend
    ("trustzone" or "riscv-pmp") — the defenses must hold on both."""
    outcomes = [attempt_bad_device_tree()]
    for scenario in _SCENARIOS.values():
        outcomes.append(scenario(_fresh_system(isolation)))
    return outcomes
