"""Crypto substrate: measurements, signatures, DH, certificates, sealing."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    AuthTagError,
    Certificate,
    CertificateAuthority,
    CertificateError,
    DiffieHellman,
    SignatureError,
    generate_keypair,
    hexdigest,
    measure,
    measure_many,
    seal,
    unseal,
)
from repro.crypto.certs import verify_certificate
from repro.crypto.dh import mac, mac_valid
from repro.crypto.group import _WINDOW, G, P, Q, jacobi, pow_g
from repro.crypto.keys import PublicKey, Signature, commitment


class TestMeasurement:
    def test_deterministic(self):
        assert measure(b"image") == measure(b"image")

    def test_distinct_inputs(self):
        assert measure(b"a") != measure(b"b")

    def test_accepts_str(self):
        assert measure("abc") == measure(b"abc")

    def test_hexdigest_is_hex_of_measure(self):
        assert bytes.fromhex(hexdigest(b"x")) == measure(b"x")

    def test_measure_many_boundary_sensitivity(self):
        assert measure_many([b"ab", b"c"]) != measure_many([b"a", b"bc"])

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_measure_many_deterministic(self, parts):
        assert measure_many(parts) == measure_many(parts)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        keys = generate_keypair(b"seed")
        sig = keys.sign(b"hello")
        keys.public.verify(b"hello", sig)  # must not raise

    def test_wrong_message_rejected(self):
        keys = generate_keypair(b"seed")
        sig = keys.sign(b"hello")
        with pytest.raises(SignatureError):
            keys.public.verify(b"tampered", sig)

    def test_wrong_key_rejected(self):
        sig = generate_keypair(b"a").sign(b"msg")
        assert not generate_keypair(b"b").public.is_valid(b"msg", sig)

    def test_deterministic_keygen(self):
        assert generate_keypair(b"s").public.element == generate_keypair(b"s").public.element

    def test_distinct_seeds_distinct_keys(self):
        assert generate_keypair(b"s1").public.element != generate_keypair(b"s2").public.element

    def test_fingerprint_stable(self):
        pub = generate_keypair(b"s").public
        assert pub.fingerprint() == pub.fingerprint()
        assert len(pub.fingerprint()) == 16

    @given(st.binary(min_size=1, max_size=128))
    def test_any_message_roundtrips(self, message):
        keys = generate_keypair(b"prop-seed")
        assert keys.public.is_valid(message, keys.sign(message))

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_cross_message_never_verifies(self, m1, m2):
        if m1 == m2:
            return
        keys = generate_keypair(b"prop-seed")
        assert not keys.public.is_valid(m2, keys.sign(m1))


def reference_commitment(y, e, s):
    """The verifier's commitment as first written: two full-size pows."""
    return pow(G, s, P) * pow(y, Q - e, P) % P


def outcome(fn, *args):
    """A value, or ValueError when ``pow`` finds no inverse (y = 0 mod P
    with a negative exponent): exactness includes the failure."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


NON_RESIDUE = next(y for y in range(3, 100) if pow(y, Q, P) == P - 1)
KEY_ELEMENTS = [generate_keypair(seed).public.element for seed in (b"a", b"b", b"root")]


class TestExactGroupArithmetic:
    """The fixed-base table and the short-exponent verify are shortcuts;
    each must give exactly what the plain ``pow`` formulas give."""

    def test_pow_g_at_window_boundaries(self):
        exponents = [0, 1, Q - 1, Q, P - 2, 2**768 - 1, 2**768, -1]
        top_digit = (1 << _WINDOW) - 1
        for shift in range(0, 769, _WINDOW):
            exponents += [(1 << shift) - 1, 1 << shift, top_digit << shift]
        for k in exponents:
            assert pow_g(k) == pow(G, k, P), k

    @given(st.one_of(st.integers(0, 2**768 - 1), st.integers(-(2**800), 2**800)))
    def test_pow_g_matches_pow(self, k):
        assert pow_g(k) == pow(G, k, P)

    @pytest.mark.parametrize("y", [0, 1, P - 1, P, P + 1, NON_RESIDUE, *KEY_ELEMENTS])
    def test_jacobi_is_euler_criterion(self, y):
        euler = pow(y, Q, P)
        assert {1: 1, P - 1: -1, 0: 0}[euler] == jacobi(y, P)

    @pytest.mark.parametrize("y", [0, 1, P - 1, P, P + 1, NON_RESIDUE, *KEY_ELEMENTS])
    @pytest.mark.parametrize("e", [0, 1, Q - 1, Q, Q + 1, 2**256 - 1])
    def test_commitment_matches_reference(self, y, e):
        for s in (1, 12345, Q - 1):
            assert outcome(commitment, y, e, s) == outcome(reference_commitment, y, e, s)

    @given(st.integers(1, Q - 1), st.integers(0, 2**256 - 1), st.integers(-(P**2), P**2))
    def test_commitment_matches_reference_on_random_inputs(self, s, e, y):
        assert outcome(commitment, y, e, s) == outcome(reference_commitment, y, e, s)


class TestTamperedSignaturesFailClosed:
    KEYS = generate_keypair(b"tamper-seed")
    MESSAGE = b"attestation report"
    SIG = KEYS.sign(MESSAGE)

    @pytest.mark.parametrize(
        "e, s",
        [
            (SIG.e + 1, SIG.s),
            (SIG.e - 1, SIG.s),
            (SIG.e, SIG.s + 1),
            (SIG.e, SIG.s - 1),
            (SIG.e, 0),
            (SIG.e, Q),
        ],
    )
    def test_tampered_scalars_rejected(self, e, s):
        with pytest.raises(SignatureError):
            self.KEYS.public.verify(self.MESSAGE, Signature(e=e, s=s))

    def test_non_residue_key_rejected(self):
        with pytest.raises(SignatureError):
            PublicKey(element=NON_RESIDUE).verify(self.MESSAGE, self.SIG)

    def test_untampered_still_verifies(self):
        self.KEYS.public.verify(self.MESSAGE, self.SIG)


class TestPinnedOutputs:
    """Digests recorded with the plain ``pow`` implementation."""

    @pytest.mark.parametrize(
        "seed, message, digest",
        [
            (b"golden-a", b"", "f6ff3f0bbebefb1dc580eee7ecdacf5d68ff1d8b17709695b414b72b65a3da23"),
            (b"golden-a", b"report", "36ff06e107b11e2ac00c0ff59fa461d59eb5d830c974775382ea45e1c0312c44"),
            (b"golden-b", b"", "f18d08db6bf21b29ace450be8af634a4b0fde80ae853db1c033cd647750a0a73"),
            (b"golden-b", b"report", "92311603a4ee13be0c90197ce5d5c6730d331c24e90386b386672e9c2cc2b211"),
            (b"root-of-trust", b"x" * 300, "ad28d755f22415be22e7a90f933ca71b20fc612b47c9400fa71b2bede892423a"),
        ],
    )
    def test_sign_output_pinned(self, seed, message, digest):
        signature = generate_keypair(seed).sign(message)
        assert hashlib.sha256(signature.to_bytes()).hexdigest() == digest

    def test_dh_public_pinned(self):
        assert DiffieHellman(b"dh-golden").public % 10**12 == 358893762732

    @pytest.mark.parametrize(
        "nonce, length, digest",
        [
            (b"\x00" * 8, 0, "d252459aaadf137b4d72085c5dbdff7f73de11d3a278b7e6116cc984888f8587"),
            (b"\x00" * 8, 1, "3f294cc966cdb2189ebf16aded2c9f491d17d6d6c8e718e9df28124014b63427"),
            (b"\x00" * 8, 31, "8d90e90aaee4780323a8f240fbc1f03e102a3d2edb3ce299325741de35a7bc69"),
            (b"\x00" * 8, 32, "3e2ca06ed5ac172f7e315f34d1a33cd7446c4553dd2176eedefccb78325ce2e4"),
            (b"\x00" * 8, 33, "3fe343cabc2389abdbbbd044a202805c56836f7082d3ff2c02106075d368fb67"),
            (b"\x00" * 8, 4096, "78796460737ae028616cb41c420a65ac2c6670d061095be36f644bc14b3379b3"),
            (b"nonce-01", 0, "1121458dbf6215cba2c26b69512215ef24eb3557e42886f7689f99ef1d7863a0"),
            (b"nonce-01", 1, "2ac1d33a2753660b859eaa4375aa49232a8e648e52b0ea7c246697bf55a1c042"),
            (b"nonce-01", 31, "92e660235a53d0944c27bbaebf4d63487b82cd06ac2230e777bf1af9e8f0761e"),
            (b"nonce-01", 32, "84fc0ed7a063c7df8ddbae9cb7631fb2b3b5c965e2649474a10afd5c78a5ec36"),
            (b"nonce-01", 33, "39a3d1603ad89eda7491ee8290a655803d3695b268e4eceb3e04cf71f7700334"),
            (b"nonce-01", 4096, "3aded8d7e0ac680c5f65fd5fdbf42015a6ff81033e591631fc1b88067302bc32"),
        ],
    )
    def test_seal_output_pinned(self, nonce, length, digest):
        plaintext = bytes((i * 7 + 3) & 0xFF for i in range(length))
        sealed = seal(b"golden-key", plaintext, nonce=nonce)
        assert hashlib.sha256(sealed).hexdigest() == digest
        assert unseal(b"golden-key", sealed) == plaintext


class TestDiffieHellman:
    def test_shared_secret_agreement(self):
        alice, bob = DiffieHellman(b"alice"), DiffieHellman(b"bob")
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_distinct_pairs_distinct_secrets(self):
        alice, bob, carol = DiffieHellman(b"a"), DiffieHellman(b"b"), DiffieHellman(b"c")
        assert alice.shared_secret(bob.public) != alice.shared_secret(carol.public)

    def test_rejects_degenerate_public(self):
        with pytest.raises(ValueError):
            DiffieHellman(b"x").shared_secret(1)

    def test_mac_roundtrip(self):
        secret = DiffieHellman(b"a").shared_secret(DiffieHellman(b"b").public)
        tag = mac(secret, b"msg")
        assert mac_valid(secret, b"msg", tag)
        assert not mac_valid(secret, b"other", tag)
        assert not mac_valid(b"\x00" * 32, b"msg", tag)


class TestCertificates:
    def test_endorse_and_verify(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        subject = generate_keypair(b"device").public
        cert = ca.endorse("gpu0", subject)
        verify_certificate(cert, ca.public)  # must not raise

    def test_wrong_anchor_rejected(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        other = CertificateAuthority("amd", b"other-seed")
        cert = ca.endorse("gpu0", generate_keypair(b"device").public)
        with pytest.raises(CertificateError):
            verify_certificate(cert, other.public)

    def test_subject_swap_rejected(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        cert = ca.endorse("gpu0", generate_keypair(b"device").public)
        forged = Certificate(
            subject_name=cert.subject_name,
            subject=generate_keypair(b"evil").public,
            issuer_name=cert.issuer_name,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            verify_certificate(forged, ca.public)


class TestSeal:
    def test_roundtrip(self):
        key = b"k" * 32
        assert unseal(key, seal(key, b"secret data")) == b"secret data"

    def test_wrong_key_rejected(self):
        sealed = seal(b"k" * 32, b"secret")
        with pytest.raises(AuthTagError):
            unseal(b"x" * 32, sealed)

    def test_tamper_rejected(self):
        sealed = bytearray(seal(b"k" * 32, b"secret"))
        sealed[10] ^= 0xFF
        with pytest.raises(AuthTagError):
            unseal(b"k" * 32, bytes(sealed))

    def test_truncated_rejected(self):
        with pytest.raises(AuthTagError):
            unseal(b"k" * 32, b"short")

    def test_ciphertext_differs_from_plaintext(self):
        sealed = seal(b"k" * 32, b"secret-bytes-here")
        assert b"secret-bytes-here" not in sealed

    @given(st.binary(max_size=512), st.binary(min_size=8, max_size=8))
    def test_any_payload_roundtrips(self, payload, nonce):
        key = b"prop-key-32-bytes-prop-key-32-by"
        assert unseal(key, seal(key, payload, nonce=nonce)) == payload
