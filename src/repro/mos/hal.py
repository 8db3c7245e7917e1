"""Hardware Adaptation Layer (HAL).

The HAL is the mOS half that knows the device: it configures, attests and
virtualizes hardware resources for mEnclaves (paper section IV-B).  Each
concrete HAL hosts its driver analog on the shim kernel:

* :class:`GpuHal` — the nouveau/gdev stand-in: per-enclave GPU contexts
  (GPU virtual-address isolation), MPS spatial sharing.
* :class:`NpuHal` — the VTA fsim driver stand-in.
* :class:`CpuHal` — the OPTEE core stand-in.

Device attestation (authenticity): the HAL challenges the device to sign
its configuration with its burned-in key and checks the vendor endorsement,
rejecting fabricated accelerators (section IV-A).
"""

from __future__ import annotations

from typing import Optional

from repro.accel.cpu import CpuDevice
from repro.accel.gpu import GpuContext, GpuDevice
from repro.accel.npu import NpuDevice
from repro.crypto.certs import CertificateError, verify_certificate
from repro.crypto.keys import PublicKey, SignatureError
from repro.mos.shim import ShimKernel

MAX_GPU_CONTEXTS = 16
"""GPU contexts (one per mEnclave) a GPU HAL opens at once."""


class HalError(Exception):
    """Device mismatch, failed authenticity check, or resource exhaustion."""


class HAL:
    """Base HAL: device attestation + shim-kernel plumbing."""

    device_type = "generic"

    def __init__(self, device, shim: ShimKernel) -> None:
        if device.device_type != self.device_type:
            raise HalError(
                f"{type(self).__name__} cannot manage a {device.device_type!r} device"
            )
        self.device = device
        self.shim = shim
        self.interrupts_handled = []
        self._proven: Optional[tuple] = None
        # The driver maps the device's registers through the shim and
        # claims the device's interrupt line (page faults, queue events).
        shim.ioremap(device.name, device.mmio.base, device.mmio.size)
        try:
            shim.request_irq(self.handle_interrupt)
        except Exception:
            pass  # platforms without a GIC (bare unit tests)

    def handle_interrupt(self, interrupt) -> None:
        """Default interrupt handler: record it (drivers subclass/extend).

        This is the section IV-B duty — "HAL also handles page faults and
        interruptions from the device"."""
        self.interrupts_handled.append(interrupt)

    def attest_device(self, vendor_anchor: PublicKey) -> PublicKey:
        """Authenticity check: the device proves ownership of PubK_acc and
        the vendor endorsement verifies.  Returns PubK_acc for inclusion in
        the attestation report; raises :class:`HalError` on fabricated or
        unendorsed hardware.  The last passing check is remembered until the
        anchor, the endorsement or the configuration (its epoch) changes."""
        cert = self.device.vendor_cert
        if cert is None:
            raise HalError(f"device {self.device.name!r} carries no vendor endorsement")
        blob = self.device.configuration_blob()
        proof = (vendor_anchor, cert, blob)
        if proof == self._proven:
            return self.device.public_key
        try:
            verify_certificate(cert, vendor_anchor)
        except CertificateError as exc:
            raise HalError(str(exc)) from exc
        signature = self.device.sign_configuration(blob)
        try:
            self.device.public_key.verify(blob, signature)
        except SignatureError as exc:
            raise HalError(f"device {self.device.name!r} failed key-ownership proof") from exc
        if cert.subject.fingerprint() != self.device.public_key.fingerprint():
            raise HalError(f"device {self.device.name!r} key does not match endorsement")
        self._proven = proof
        return self.device.public_key


class CpuHal(HAL):
    """HAL over the CPU cluster (OPTEE-core analog)."""

    device_type = "cpu"

    @property
    def cpu_device(self) -> CpuDevice:
        return self.device


class GpuHal(HAL):
    """HAL over the GPU: context creation is the spatial-sharing mechanism."""

    device_type = "gpu"

    def create_gpu_context(self, owner: str, quota_bytes=None) -> GpuContext:
        """A per-mEnclave GPU virtual address space (MPS-style sharing)
        capped at the manifest's declared memory capacity."""
        if self.device.active_contexts() >= MAX_GPU_CONTEXTS:
            raise HalError(f"GPU {self.device.name!r} context limit reached")
        return self.device.create_context(owner, quota_bytes=quota_bytes)

    def share_gpu_buffer(
        self,
        src_context: GpuContext,
        src_handle: int,
        peer_hal: "GpuHal",
        peer_context: GpuContext,
        *,
        spm,
        bus,
    ) -> int:
        """Share one GPU buffer with an mEnclave on another GPU over PCIe
        (paper section V-B: "CRONUS supports shared GPU memory to enable
        direct GPU communication over PCIe").

        The SPM validates that both partitions are ready (the same r_f
        gate that guards CPU shared memory), the transfer is timed as one
        P2P hop on the secure bus, and the peer context receives an alias
        handle onto the same storage — no staging through CPU memory.
        """
        from repro.secure.partition import PartitionState

        for partition in (spm.partition_for_device(self.device.name),
                          spm.partition_for_device(peer_hal.device.name)):
            if partition.state is not PartitionState.READY:
                raise HalError(
                    f"partition {partition.name!r} not ready (r_f set); "
                    f"GPU sharing refused"
                )
        array = src_context.buffer(src_handle)
        bus.p2p_transfer(self.device.name, peer_hal.device.name, array.nbytes)
        return peer_context.adopt_alias(array)


class NpuHal(HAL):
    """HAL over the NPU (VTA fsim driver analog)."""

    device_type = "npu"

    @property
    def npu_device(self) -> NpuDevice:
        return self.device

    def create_npu_context(self, owner: str):
        """A per-mEnclave NPU tensor namespace (section V-B isolation)."""
        return self.device.create_context(owner)


_HALS = {"cpu": CpuHal, "gpu": GpuHal, "npu": NpuHal}


def hal_for_device(device, shim: ShimKernel) -> HAL:
    """Instantiate the HAL matching ``device``'s type."""
    try:
        hal_cls = _HALS[device.device_type]
    except KeyError:
        raise HalError(f"no HAL for device type {device.device_type!r}") from None
    return hal_cls(device, shim)
