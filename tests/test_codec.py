"""The sRPC record codec (``repro.rpc.codec``).

Three properties:

* **Bytes are pickle's.**  ``RecordCodec.encode`` returns exactly
  ``pickle.dumps`` of the call and ``decode`` returns what ``pickle.loads``
  would, across generated records, repeats (memo hits), aliasing, in-place
  mutation between calls and callee mutation between decodes.
* **The memo is bounded and per channel.**  It stays at its cap, context
  records are never remembered, and a short LLM run pushes exactly the
  bytes ``pickle.dumps`` gives for every call.
* **Decoding is allowlisted.**  Mutated and synthesized records never
  resolve a global outside ``ALLOWED_GLOBALS``, code-carrying records are
  refused at every site that decodes, and no refused record runs anything.
"""

from __future__ import annotations

import pickle
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enclave.images import CpuImage
from repro.enclave.manifest import Manifest, ManifestError, MECallSpec
from repro.faults.checkpoint import CheckpointError, CheckpointManager, CheckpointStore
from repro.rpc import codec
from repro.rpc.baselines import RpcIntegrityError, SyncRpcChannel, UntrustedTransport
from repro.rpc.channel import ChannelError, EnclaveEndpoint, SRPCChannel
from repro.rpc.codec import (
    ALLOWED_GLOBALS,
    MEMO_ENTRIES,
    MEMO_RECORD_BYTES,
    RecordCodec,
    RecordRefused,
    loads,
)
from repro.rpc.ringbuffer import SharedRingBuffer

# -- generators ---------------------------------------------------------------

#: Names that occur inside an ndarray's own pickle, plus ordinary ones.
_NAMES = (
    "cudaMemcpyH2D", "store", "numpy", "dtype", "ndarray", "_reconstruct",
    "numpy._core.multiarray", "f4", "<", "|", "b", "",
)
_DTYPES = (
    "?", "i1", "u1", "i2", "i4", "i8", "l", "q", "f2", "f4", "f8", "c8",
    "c16", ">f4", ">i8", "O", "M8[s]", "U2",
)
_SHAPES = ((), (0,), (1,), (4,), (2, 3), (3, 1), (200,))


@st.composite
def names(draw):
    name = draw(st.one_of(st.sampled_from(_NAMES), st.text(max_size=6)))
    if draw(st.booleans()):
        # An equal but (for longer names) not identical, non-interned str.
        name = "".join(list(name))
    return name


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(st.sampled_from(_SHAPES))
    layout = draw(st.sampled_from(("C", "F", "slice")))
    seed = draw(st.integers(0, 2**16))
    size = int(np.prod(shape, dtype=np.int64))
    rng = np.random.default_rng(seed)
    if dtype.hasobject:
        array = np.empty(shape, dtype=object)
        array.flat[:] = [int(v) for v in rng.integers(-9, 9, size=size)]
    else:
        raw = rng.integers(0, 256, size=size * dtype.itemsize, dtype=np.uint8)
        array = raw.view(dtype).reshape(shape)
    if layout == "F":
        array = np.asfortranarray(array)
    elif layout == "slice" and array.ndim:
        array = np.concatenate([array, array], axis=-1)[..., ::2]
    return array


scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.sampled_from((0.0, -0.0, 1.5, float("inf"))),
    st.text(max_size=4),
    # Pickles its payload as the one-byte b"b" singleton numpy also uses.
    st.builds(lambda: np.array([98], dtype=np.uint8)),
)


@st.composite
def calls(draw):
    """``(fn, args, kwargs, context)``; args may alias one array twice."""
    args = draw(st.lists(st.one_of(scalars, arrays()), max_size=3))
    arrays_in = [a for a in args if isinstance(a, np.ndarray)]
    if arrays_in and draw(st.booleans()):
        args.append(arrays_in[0])
    kwargs = draw(st.sampled_from(({}, {"dtype": "float32"}, {"k": 3})))
    context = draw(st.sampled_from((None, (7, 9))))
    return draw(names()), tuple(args), dict(kwargs), context


def _expected(record):
    payload = pickle.loads(record)
    return payload if len(payload) == 4 else (*payload, None)


def _has_object_array(call):
    return any(isinstance(a, np.ndarray) and a.dtype.hasobject for a in call[1])


def _mutate_arrays(values, fill=0):
    for value in values:
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value[...] = fill


# -- bytes are pickle's -------------------------------------------------------


class TestBytesArePickles:
    @given(st.lists(st.tuples(calls(), st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_encode_and_decode_match_pickle(self, steps):
        sender, receiver = RecordCodec(), RecordCodec()
        for (fn, args, kwargs, context), mutate_first in steps * 2:
            if mutate_first:
                # The token path refills one buffer in place between calls.
                _mutate_arrays(args)
            record = sender.encode(fn, args, kwargs, context)
            wanted = (fn, args, kwargs) if context is None else (fn, args, kwargs, context)
            assert record == pickle.dumps(wanted)
            if _has_object_array((fn, args)):
                with pytest.raises(RecordRefused):
                    receiver.decode(record)
                continue
            for _ in range(3):
                decoded = receiver.decode(record)
                assert pickle.dumps(decoded) == pickle.dumps(_expected(record))
                # A callee that mutates its argument poisons nothing.
                _mutate_arrays(decoded[1], fill=1)

    def test_equal_names_with_different_identity(self):
        array = np.zeros(4, dtype=np.float32)
        interned, fresh = "numpy", "".join(["nu", "mpy"])
        sender = RecordCodec()
        for fn in (interned, fresh, interned, fresh):
            assert sender.encode(fn, (1, array), {}) == pickle.dumps((fn, (1, array), {}))

    def test_dtypes_sharing_a_type_code(self):
        data = np.arange(4, dtype=np.int64)
        sender = RecordCodec()
        for dtype in ("M8[s]", "M8[ms]", "m8[s]", "i8", "q", "l"):
            array = data.view(dtype)
            wanted = pickle.dumps(("f", (array,), {}))
            assert sender.encode("f", (array,), {}) == wanted

    def test_value_key_follows_in_place_refill(self):
        payload = np.empty(4, dtype=np.float32)
        sender = RecordCodec()
        seen = {}
        for value in (1, 2, 1, 3, 2):
            payload.fill(value)
            record = sender.encode("cudaMemcpyH2D", (1, payload), {})
            assert record == pickle.dumps(("cudaMemcpyH2D", (1, payload), {}))
            # A repeat is the remembered bytes object itself.
            assert seen.setdefault(value, record) is record


class TestMemo:
    def test_memo_stays_at_its_cap(self):
        sender, receiver = RecordCodec(), RecordCodec()
        records = [sender.encode("f", (i,), {}) for i in range(3 * MEMO_ENTRIES)]
        assert len(sender) == MEMO_ENTRIES
        for record in records:
            receiver.decode(record)
        assert len(receiver) == MEMO_ENTRIES
        assert receiver.decode(records[0]) == ("f", (0,), {}, None)
        assert sender.encode("f", (0,), {}) == records[0]

    def test_context_and_large_records_are_not_remembered(self):
        sender, receiver = RecordCodec(), RecordCodec()
        big = np.zeros(MEMO_RECORD_BYTES, dtype=np.uint8)
        for call in (("f", (1,), {}, (3, 4)), ("f", (big,), {}, None)):
            receiver.decode(sender.encode(*call))
        assert len(sender) == len(receiver) == 0

    def test_corrupted_repeat_misses_and_fails(self):
        receiver = RecordCodec()
        record = pickle.dumps(("f", (1, np.ones(4, np.float32)), {}))
        receiver.decode(record)
        with pytest.raises(Exception):
            receiver.decode(record[:-1])


def test_llm_ring_records_are_pickle_dumps(monkeypatch):
    """Every record a short LLM run (with a crash) pushes onto an sRPC ring
    equals ``pickle.dumps`` of the call that produced it."""
    from repro.serve import LLMEngine, TenantSpec, llm_arrivals
    from repro.systems import CronusSystem, TestbedConfig

    expected, pushed = [], []
    call, push = SRPCChannel.call, SharedRingBuffer.push

    def spy_call(self, fn, *args, stream=0, **kwargs):
        expected.append(pickle.dumps((fn, args, kwargs)))
        return call(self, fn, *args, stream=stream, **kwargs)

    def spy_push(self, record):
        pushed.append(bytes(record))
        return push(self, record)

    monkeypatch.setattr(SRPCChannel, "call", spy_call)
    monkeypatch.setattr(SharedRingBuffer, "push", spy_push)
    engine = LLMEngine(CronusSystem(TestbedConfig(num_gpus=2)), max_running=4)
    tenant = engine.add_tenant(
        TenantSpec("acme", rate_limit_rps=4_000.0, burst=64, deadline_us=1e7)
    )
    arrivals = llm_arrivals(
        tenant, engine.config, count=12, seed=7, mean_interarrival_us=400.0
    )
    report = engine.run(arrivals, crash_events=[(2_500.0, "gpu0")])
    assert report.audit() == []
    assert pushed == expected
    assert len(set(pushed)) < len(pushed) / 4  # the memo had repeats to serve


# -- allowlisted decoding -----------------------------------------------------


class _Probe(types.ModuleType):
    """A module that records every attribute lookup: resolving any global
    in it would show up in ``touched``."""

    def __init__(self, name):
        super().__init__(name)
        self.touched = []

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)  # module protocol, not a global
        self.touched.append(attr)
        return lambda *a, **k: self.touched.append(("called", a))


_PROBE = "codec_probe"
_CORPUS = (
    pickle.dumps(("cudaMemcpyH2D", (1, np.arange(4, dtype=np.float32)), {})),
    pickle.dumps(("cudaMemcpyH2D", (1, np.arange(4, dtype=np.float32)), {}, (5, 6))),
    pickle.dumps(("cudaLaunchKernel", ("vecadd", [1, 2]), {"n": 3})),
    pickle.dumps({"w": np.ones((2, 3), order="F"), "b": np.zeros(2, np.int64)}),
    pickle.dumps(None),
)
#: Protocol 2 pickles bytes through ``_codecs.encode``: refused, and a
#: mutation seed with other opcodes (PUT/BINPUT) than the default protocol.
_LEGACY = pickle.dumps(("store", (b"secret",), {}), protocol=2)
_GLOBALS = (
    b"\x8c\x0b" + _PROBE.encode() + b"\x8c\x03run\x93",  # STACK_GLOBAL
    b"c" + _PROBE.encode() + b"\nrun\n",  # GLOBAL
    b"cos\nsystem\n",
    b"cbuiltins\nexec\n",
    b"\x8c\x05numpy\x8c\x04load\x93",
)


@st.composite
def hostile_records(draw):
    data = bytearray(draw(st.sampled_from(_CORPUS + (_LEGACY,))))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("flip", "splice", "truncate")))
        where = draw(st.integers(0, len(data)))
        if kind == "flip" and where < len(data):
            data[where] = draw(st.integers(0, 255))
        elif kind == "splice":
            call = draw(st.sampled_from(_GLOBALS)) + b")R"  # call with ()
            data[where:where] = call
        elif kind == "truncate":
            del data[where:]
    return bytes(data)


@pytest.fixture
def probe(monkeypatch):
    module = _Probe(_PROBE)
    monkeypatch.setitem(sys.modules, _PROBE, module)
    return module


def test_mutated_records_never_resolve_outside_the_allowlist(monkeypatch, probe):
    resolved = []
    find_class = codec._AllowlistUnpickler.find_class

    def spy(self, module, name):
        found = find_class(self, module, name)
        resolved.append((module, name))
        return found

    monkeypatch.setattr(codec._AllowlistUnpickler, "find_class", spy)

    @given(hostile_records())
    @settings(max_examples=400, deadline=None)
    def check(record):
        try:
            RecordCodec().decode(record)
        except Exception:
            pass
        assert probe.touched == []
        assert set(resolved) <= set(ALLOWED_GLOBALS)

    check()


def test_allowlist_covers_every_numpy_record():
    for record in _CORPUS:
        assert pickle.dumps(loads(record)) == pickle.dumps(pickle.loads(record))


class _ForgedShape:
    """numpy's own array constructor, asked for 2**28 float64s up front."""

    def __reduce__(self):
        reconstruct = np.zeros(1).__reduce__()[0]
        return (reconstruct, (np.ndarray, (2**28,), np.dtype("f8")))


@pytest.mark.parametrize(
    "record",
    [
        pickle.dumps(np.zeros(2, dtype=object)),
        pickle.dumps(np.arange(4, dtype=np.float64)).replace(b"f8", b"O8"),
        b"\x80\x04N" + b"r" + (2**28).to_bytes(4, "little") + b".",
        b"\x80\x02Np268435456\n.",
        pickle.dumps(_ForgedShape()),
    ],
    ids=["object-array", "object-dtype", "long-memo-index", "text-memo-index",
         "forged-shape"],
)
def test_forged_numpy_and_memo_requests_are_refused(record):
    with pytest.raises(RecordRefused):
        loads(record)


class _CodeCarrying:
    ran = []

    def __reduce__(self):
        return (_CodeCarrying.ran.append, ("ran",))


def _victim():
    image = CpuImage(
        name="victim",
        functions={"store": lambda state, value: state.__setitem__("v", value)},
    )
    manifest = Manifest(
        device_type="cpu", images={"victim.so": image.digest()},
        mecalls=(MECallSpec("store"),),
    )
    return image, manifest


class TestRefusalAtEverySite:
    @pytest.fixture(autouse=True)
    def _reset(self):
        _CodeCarrying.ran.clear()
        yield
        assert _CodeCarrying.ran == []

    def test_srpc_drain(self, cronus):
        from repro.attacks import attempt_code_carrying_record

        assert attempt_code_carrying_record(cronus).blocked

    def test_attack_is_real_without_the_allowlist(self, cronus, monkeypatch):
        from repro.attacks import attempt_code_carrying_record

        monkeypatch.setattr(codec, "loads", pickle.loads)
        assert not attempt_code_carrying_record(cronus).blocked

    def test_srpc_mailbox(self, cronus, monkeypatch):
        image, manifest = _victim()
        app = cronus.application("mailbox")
        caller = app.create_enclave(manifest, image, "victim.so")
        callee = app.create_enclave(manifest, image, "victim.so")
        channel = app.open_channel(caller, callee)
        monkeypatch.setattr(
            callee.enclave, "mecall_trusted", lambda fn, args, kwargs: _CodeCarrying()
        )
        with pytest.raises(ChannelError, match="not an allowed record global"):
            channel.call("store", 1)

    def test_baseline_rpc(self, cronus):
        image, manifest = _victim()
        handle = cronus.application("rpc").create_enclave(manifest, image, "victim.so")
        transport = UntrustedTransport()
        transport.adversary = lambda message: [
            pickle.dumps(("store", (_CodeCarrying(),), {}, 1, b""))
        ]
        channel = SyncRpcChannel(
            EnclaveEndpoint(enclave=None, mos=handle.mos), handle.endpoint(),
            handle.secret, transport,
        )
        with pytest.raises(RpcIntegrityError, match="malformed"):
            channel.call("store", b"x")

    def test_checkpoint(self, cronus):
        from repro.crypto.seal import seal

        secret = b"k" * 32
        store = CheckpointStore()
        manager = CheckpointManager(secret, store, cronus.platform)
        manager.save("ckpt", {"w": np.ones(2)})
        assert np.array_equal(manager.load("ckpt")["w"], np.ones(2))
        # The owner's own key sealed it, so only decoding stands in the way.
        forged = pickle.dumps({"w": _CodeCarrying()})
        store.put("ckpt", 2, seal(secret, forged, nonce=(2).to_bytes(8, "big")))
        with pytest.raises(CheckpointError, match="failed decoding"):
            manager.load("ckpt")


# -- O(1) manifest lookup ------------------------------------------------------


class TestManifestIndex:
    def test_lookup_and_identity(self):
        calls_ = (MECallSpec("a"), MECallSpec("b", synchronous=False))
        one = Manifest(device_type="cpu", images={}, mecalls=calls_)
        two = Manifest(device_type="cpu", images={}, mecalls=calls_)
        assert one.mecall("b") is calls_[1]
        assert one.allows("a") and not one.allows("c") and not one.allows(["a"])
        with pytest.raises(ManifestError):
            one.mecall("c")
        with pytest.raises(ManifestError):
            one.mecall(["a"])
        assert one == two and repr(one) == repr(two)
        assert Manifest.from_json(one.serialize()).serialize() == one.serialize()
        with pytest.raises(ManifestError):
            Manifest(device_type="cpu", images={}, mecalls=calls_ + calls_[:1])
