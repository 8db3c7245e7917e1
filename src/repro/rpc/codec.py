"""The sRPC record codec: the one place an mECall becomes record bytes and back.

**Encoding** keeps the producer's ``pickle.dumps`` bytes exactly:
``copy_cost_us(len(record))`` prices every record, so the wire bytes (and
every simulated number) must not depend on how they were produced.

**Decoding** goes through an unpickler whose ``find_class`` admits only
:data:`ALLOWED_GLOBALS`.  Records, mailbox results and checkpoints are
bytes a crashed or compromised peer (or untrusted storage) may have
written, and a pickle that names ``exec`` would otherwise run in the
consumer before any type check.  Every global a pickle names — including
the callables its ``REDUCE`` opcodes invoke and its extension-registry
codes — is resolved through ``find_class``, so a refused name never runs.
The numpy names it admits are guarded as well, because a forged array
state can be as harmful as a forged global (see :data:`ALLOWED_GLOBALS`
and :func:`loads`).

**Memo.**  A streaming workload sends few distinct records many times (an
LLM token is ``cudaMemcpyH2D(mailbox, float32[4])`` with a small payload
counter).  Each :class:`RecordCodec` — one per sRPC channel, so it dies
with the channel — remembers up to :data:`MEMO_ENTRIES` records in each
direction, FIFO-evicted:

* *encode* is keyed by value, and only for *flat* calls whose pickle is a
  function of that value: a ``str`` name; args that are exact ints plus
  at most one exact, C-contiguous ``np.ndarray`` of a builtin numeric
  dtype; empty kwargs; no span context.  A name equal to a string inside
  the array's own pickle (``"numpy"``, ``"dtype"``...) could share that
  string's memo slot, so it is never remembered.
* *decode* is keyed by the popped record bytes — the consumer's private
  copy, so a cached result cannot be swapped under it — and only records
  that decode to the same flat shape are remembered.  A hit hands the
  callee a fresh copy of the array, so a callee that mutates its argument
  cannot poison the next decode.  A corrupted record has other bytes: it
  misses and is decoded (and refused) exactly like any other.
"""

from __future__ import annotations

import io
import pickle
import pickletools
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Records each per-channel memo remembers, per direction.
MEMO_ENTRIES = 128
#: Largest record (and array payload) a memo remembers, in bytes.
MEMO_RECORD_BYTES = 512


class RecordRefused(pickle.UnpicklingError):
    """A pickle named a global outside :data:`ALLOWED_GLOBALS`, or built a
    numpy object no record legitimately carries."""


def _plain_dtype(dtype_type):
    def dtype(*args):
        made = dtype_type(*args)
        if made.hasobject:
            # An object array's payload would be read as object pointers.
            raise RecordRefused(f"object dtype {made} in a record")
        return made

    return dtype


def _empty_reconstruct(reconstruct):
    def _reconstruct(subtype, shape, code):
        # numpy pickles every array as ``_reconstruct(ndarray, (0,), b"b")``
        # plus a state; any other shape is a forged allocation request.
        if subtype is not np.ndarray or type(shape) is not tuple or shape != (0,):
            raise RecordRefused(f"array reconstruction of {subtype!r} {shape!r}")
        return reconstruct(subtype, shape, code)

    return _reconstruct


#: ``(module, name)`` of every global a record, a mailbox result or a
#: checkpoint may name, mapped to the guard wrapped around it.  Logging
#: ``find_class`` over the tier-1 and marker suites finds numpy arrays
#: only.  Both numpy module spellings are admitted because numpy 1.x
#: pickles under ``numpy.core``.
ALLOWED_GLOBALS = {
    ("numpy", "ndarray"): lambda found: found,
    ("numpy", "dtype"): _plain_dtype,
    ("numpy._core.multiarray", "_reconstruct"): _empty_reconstruct,
    ("numpy.core.multiarray", "_reconstruct"): _empty_reconstruct,
}

#: Opcodes that store into the unpickler's memo at an explicit index; the
#: C unpickler grows its memo array to twice the index it is given.
_INDEXED_PUTS = frozenset({"PUT", "BINPUT", "LONG_BINPUT"})


class _AllowlistUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        guard = ALLOWED_GLOBALS.get((module, name))
        if guard is None:
            raise RecordRefused(f"{module}.{name} is not an allowed record global")
        return guard(super().find_class(module, name))


def loads(data: bytes) -> Any:
    """``pickle.loads`` restricted to :data:`ALLOWED_GLOBALS`.

    The opcodes are walked first: a pickle of ``n`` bytes memoizes fewer
    than ``n`` objects, so a larger memo index is a forged request for a
    huge allocation and is refused before the unpickler sees it.
    """
    size = len(data)
    for opcode, arg, _ in pickletools.genops(data):
        if opcode.name in _INDEXED_PUTS and arg >= size:
            raise RecordRefused(f"memo index {arg} in a {size}-byte pickle")
    return _AllowlistUnpickler(io.BytesIO(data)).load()


def _array_slot(fn: Any, args: Any, kwargs: Any) -> Optional[int]:
    """The index of the one ndarray in a flat call's args (-1 if it has
    none), or None if the call is not flat (see the module docstring)."""
    if type(fn) is not str or type(args) is not tuple:
        return None
    if type(kwargs) is not dict or kwargs:
        return None
    slot = -1
    for index, arg in enumerate(args):
        if type(arg) is int:
            continue
        if (
            type(arg) is not np.ndarray
            or slot >= 0
            or arg.nbytes > MEMO_RECORD_BYTES
            or not arg.flags.c_contiguous
        ):
            return None
        dtype = arg.dtype
        if (
            dtype.kind not in "biufc"
            or not dtype.isnative
            or dtype.metadata is not None
        ):
            return None
        slot = index
    return slot


def _names_in_pickle_of(array: np.ndarray, fn: str) -> bool:
    """Is ``fn`` one of the strings in ``array``'s own pickle?  Pickle
    memoizes strings by identity, so such a name may or may not share a
    slot with it depending on interning: its bytes are not a function of
    its value."""
    return any(arg == fn for _, arg, _ in pickletools.genops(pickle.dumps(array)))


def _with_fresh_array(args: tuple, slot: int) -> tuple:
    return args[:slot] + (args[slot].copy(),) + args[slot + 1:]


def _remember(memo: Dict, key: Any, value: Any) -> None:
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value


class RecordCodec:
    """One channel's record codec: ``pickle`` bytes, memoized both ways."""

    __slots__ = ("_encoded", "_decoded")

    def __init__(self) -> None:
        self._encoded: Dict[tuple, bytes] = {}
        self._decoded: Dict[bytes, Tuple[str, tuple, int]] = {}

    def __len__(self) -> int:
        """Records remembered, both directions together."""
        return len(self._encoded) + len(self._decoded)

    def encode(
        self, fn: str, args: tuple, kwargs: dict, context: Optional[tuple] = None
    ) -> bytes:
        """The record bytes of one mECall: ``pickle.dumps`` of
        ``(fn, args, kwargs)``, with ``context`` appended when given."""
        if context is not None:
            return pickle.dumps((fn, args, kwargs, context))
        slot = _array_slot(fn, args, kwargs)
        if slot is None:
            return pickle.dumps((fn, args, kwargs))
        if slot < 0:
            key = (fn, args)
        else:
            array = args[slot]
            key = (
                fn, args[:slot], array.dtype.char, array.shape, array.tobytes(),
                args[slot + 1:],
            )
        record = self._encoded.get(key)
        if record is None:
            record = pickle.dumps((fn, args, kwargs))
            if len(record) <= MEMO_RECORD_BYTES and (
                slot < 0 or not _names_in_pickle_of(args[slot], fn)
            ):
                _remember(self._encoded, key, record)
        return record

    def decode(self, record: bytes) -> Tuple[Any, Any, Any, Optional[tuple]]:
        """``(fn, args, kwargs, context)`` of one record; ``context`` is
        None for a record without a span context.  Raises whatever the
        allowlisted unpickler raises on bytes it refuses or cannot parse."""
        hit = self._decoded.get(record)
        if hit is not None:
            fn, args, slot = hit
            if slot >= 0:
                args = _with_fresh_array(args, slot)
            return fn, args, {}, None
        payload = loads(record)
        # Records carry an optional 4th element: the in-band span context
        # ``(trace_id, span_id)`` appended by the producer when
        # observability is enabled (the ring's framing is opaque, so the
        # tuple length is the version signal).
        if len(payload) == 4:
            fn, args, kwargs, context = payload
            return fn, args, kwargs, context
        fn, args, kwargs = payload
        slot = _array_slot(fn, args, kwargs)
        if slot is not None and len(record) <= MEMO_RECORD_BYTES:
            template = args if slot < 0 else _with_fresh_array(args, slot)
            _remember(self._decoded, record, (fn, template, slot))
        return fn, args, kwargs, None

