"""Baseline RPC protocols over untrusted memory.

These reproduce the two approaches of paper section II-C that sRPC is
measured against:

* :class:`SyncRpcChannel` — the synchronous approach: every call crosses
  worlds through untrusted memory in lock-step (four context switches each
  way) with per-call MACs and monotonic counters for integrity.
* :class:`EncryptedRpcChannel` — the HIX-TrustZone emulation (section
  VI-A): requests are *sealed* under the shared secret, travel through
  untrusted memory, and each call waits for an acknowledgement.

Both route through an :class:`UntrustedTransport` whose queue lives in
normal-world memory, so the attack harness can drop, reorder, replay and
tamper with messages — and the tests verify the defenses hold.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, List, Optional

from repro.crypto.seal import AuthTagError, seal, unseal
from repro.enclave.menclave import MEnclave, OwnershipError
from repro.rpc.channel import EnclaveEndpoint
from repro.rpc.codec import loads
from repro.sim import CostModel, SimClock


class RpcIntegrityError(Exception):
    """The receiver rejected a tampered/replayed call, or a call vanished."""


class UntrustedTransport:
    """A message queue in normal-world memory.

    ``adversary`` (if set) is a callable receiving the outgoing message
    bytes and returning the list of messages actually delivered — identity
    for an honest OS; drop/replay/reorder/tamper for an attacker.
    """

    def __init__(self) -> None:
        self.adversary: Optional[Callable[[bytes], List[bytes]]] = None
        self.messages_sent = 0

    def deliver(self, message: bytes) -> List[bytes]:
        self.messages_sent += 1
        if self.adversary is None:
            return [message]
        return list(self.adversary(message))


class SyncRpcChannel:
    """Lock-step synchronous RPC with MAC + counter integrity."""

    def __init__(
        self,
        caller: EnclaveEndpoint,
        callee: EnclaveEndpoint,
        secret: bytes,
        transport: Optional[UntrustedTransport] = None,
    ) -> None:
        self.caller = caller
        self.callee = callee
        self._secret = secret
        self.transport = transport or UntrustedTransport()
        self._counter = 0
        self.calls_made = 0

    @property
    def _clock(self) -> SimClock:
        return self.caller.mos.platform.clock

    @property
    def _costs(self) -> CostModel:
        return self.caller.mos.platform.costs

    def call(self, fn: str, *args: Any, **kwargs: Any) -> Any:
        """One lock-step RPC: serialize, switch worlds, execute, switch back."""
        self._counter += 1
        enclave: MEnclave = self.callee.enclave
        tag = enclave.owner_tag(self._secret, fn, self._counter)
        message = pickle.dumps((fn, args, kwargs, self._counter, tag))
        self._clock.advance(
            self._costs.sync_rpc_overhead_us()
            + self._costs.copy_cost_us(len(message), per_kib=self._costs.dram_copy_us_per_kib)
        )
        self.calls_made += 1
        delivered = self.transport.deliver(message)
        if not delivered:
            raise RpcIntegrityError(f"RPC {fn!r} dropped: acknowledgement timed out")
        result = None
        executed = False
        for wire in delivered:
            try:
                rfn, rargs, rkwargs, counter, rtag = loads(wire)
                result = enclave.mecall_untrusted(
                    rfn, rargs, rkwargs, counter=counter, tag=rtag
                )
                executed = True
            except OwnershipError as exc:
                raise RpcIntegrityError(f"receiver rejected RPC: {exc}") from exc
            except (pickle.UnpicklingError, ValueError, EOFError) as exc:
                raise RpcIntegrityError(f"malformed RPC message: {exc}") from exc
        if not executed:
            raise RpcIntegrityError(f"RPC {fn!r} was not executed")
        return result

    def close(self) -> None:
        """Nothing persistent to release."""


class EncryptedRpcChannel(SyncRpcChannel):
    """HIX-TrustZone emulation: sealed payloads + lock-step acks.

    An application enclave talks to the (dedicated) GPU enclave through
    encrypted RPC over untrusted memory — confidentiality comes from the
    seal, integrity from the auth tag + counter, liveness from the ack.
    """

    def call(self, fn: str, *args: Any, **kwargs: Any) -> Any:
        self._counter += 1
        enclave: MEnclave = self.callee.enclave
        tag = enclave.owner_tag(self._secret, fn, self._counter)
        plaintext = pickle.dumps((fn, args, kwargs, self._counter, tag))
        nonce = self._counter.to_bytes(8, "big")
        message = seal(self._secret, plaintext, nonce=nonce)
        self._clock.advance(self._costs.encrypted_rpc_overhead_us(len(message)))
        self.calls_made += 1
        delivered = self.transport.deliver(message)
        if not delivered:
            raise RpcIntegrityError(f"RPC {fn!r} dropped: acknowledgement timed out")
        result = None
        executed = False
        for wire in delivered:
            try:
                opened = unseal(self._secret, wire)
                rfn, rargs, rkwargs, counter, rtag = loads(opened)
                result = enclave.mecall_untrusted(
                    rfn, rargs, rkwargs, counter=counter, tag=rtag
                )
                executed = True
            except AuthTagError as exc:
                raise RpcIntegrityError(f"ciphertext tampered: {exc}") from exc
            except OwnershipError as exc:
                raise RpcIntegrityError(f"receiver rejected RPC: {exc}") from exc
            except pickle.UnpicklingError as exc:
                raise RpcIntegrityError(f"malformed RPC message: {exc}") from exc
        if not executed:
            raise RpcIntegrityError(f"RPC {fn!r} was not executed")
        return result
