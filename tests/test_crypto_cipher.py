"""Unit and property tests for repro.crypto.cipher."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import SealedBox, StreamCipher, derive_key
from repro.exceptions import CryptoError, TokenError


def reference_apply(key: bytes, data: bytes, nonce: bytes) -> bytes:
    """The textbook construction, one block and one byte at a time:
    SHA-256(key || nonce || i) XOR plaintext."""
    stream = b"".join(
        hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest()
        for i in range((len(data) + 31) // 32))
    return bytes(a ^ b for a, b in zip(data, stream))


KAT_KEY = bytes(range(32))
KAT_NONCE = b"kat-nonce-0123456"


def kat_data(length: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(length))


#: ``StreamCipher(KAT_KEY).apply(kat_data(n), KAT_NONCE)`` — every sealed
#: token on disk and on the wire was made with these bytes.
KNOWN_STREAM = {
    0: "",
    1: "42",
    31: "4292b901229ec647592d99f4fbf69f049d53c3a3a54e14c5bef724fa91493b",
    32: "4292b901229ec647592d99f4fbf69f049d53c3a3a54e14c5bef724fa91493bd4",
    33: "4292b901229ec647592d99f4fbf69f049d53c3a3a54e14c5bef724fa91493bd4df",
    1200: (
        "4292b901229ec647592d99f4fbf69f049d53c3a3a54e14c5bef724fa91493bd4"
        "df3bd3d0ca900f3738a786bfd2c629ac73caacdb073736ece78696f3a97189ac"
        "fe8dda92d6fd1ff2708c1101c8ebb3270a991d9c2827772653ab102f6c6b6909"
        "5b59960c32ebf3b4f484772543c19de616e452e57bff6d56650e1e861ea6ebc1"
        "21a8362c439d123fe850c392bf949eecebdcabb5353da2b4202deb06defcda14"
        "026e9ced998dadd65010ed6dad4ba1f9532268e491b9da4aeec806b1b62c67c9"
        "78817a9d1d42d60e6305c083486b21499f73905f0a801ca711b2e449114b28a1"
        "163d53f59cb60c177c8f7feaa77bdafd6ec3fbae5c15f33593c20399285c0fd0"
        "e5a2ccc0839a3dd2683c825f1d7db1ef679c2368460b16bf1f3d67257e9115c2"
        "cb0dd05199606c660ee9a7d5c01d1582eef55c96dc36f79a657140ab459649ce"
        "11b9677cf27abe9389d975db1332144eed5c1b13b8926e6df9e32338ae449a70"
        "692fc538491a0bfa38397ab09b9f99f1ddf6fe00d5fba06125eedc79914dc918"
        "a1a1adf8a252ebb1c7cada5c2121da0e9cc0a065fa27faebb43ffea294bb3c8b"
        "7e7436568345e8d8ce47ee8188c86bca7f760eb3a2f63e63f46679cf2e0beb3d"
        "c4277ed7300e1233affe71859195f26f6c55b5b6fcae7b5960228696d4ef9995"
        "67ba0b3c588f04b65136a4d84f6af2aef9a21efa3dd7786a4062eef5cbff5394"
        "776b3a219d55d370f33734ca17b1b0beacb03c65b6c5c90f1578c170cab1753a"
        "1d5a107a11a77ce2fe104fff4a6b9d1eff4f7e29d5930d27d5ea68ca5be480a5"
        "36614bccfacae8c0173420e32e020d405cb33fe526048318049d3aaa8bb65894"
        "e8c9849cee5283fbc1e21648d7796d56d2c893e5a51745d4bc85dcd79b61e452"
        "9511f7464813457020deb10654a9a7d22929c3053653e76b502367a1d1390c47"
        "120e8f9c77d914280d54f253d14e6d4d937bf48f6adae75a7d1700bef0200ee0"
        "476619a1dfbb4e1b63443be1fb1d0d743df2c501d426dd0f14b6253adc355d18"
        "b1174abb7cbe0d7eb22167b10200e12d7865a48b6f08a40127d7cac230637bff"
        "02c4fca2a2f041189092de8a74d46b5314cd7c137515dc1e615eaed534d919e4"
        "d13918b138779030125d78b3de02e99fff0332ff733d057cf0d81083ec73b7ee"
        "13a705e5baa6d6ad58663527e279cb51a7ba72365b7f5b9c7fee2aaaf3b68908"
        "a73ae11ed80d5c0176d968ceb582a2d1ca5cac4cc3bb9f1cf48a63cd746b48ea"
        "e1eb9b0ca172af2216cd60e74676b5e6fe9c0f75cbabeed656886b636b601962"
        "98cf3ab362d09619db142274cf89e460cb9e3204ab705c7d6dd79918938707f2"
        "0359244b5241198ba44d56b3f9504fafa0aa746de81357afe850a0b4957a0ed5"
        "3baa29db078cfdb4e7b3c1fd5c61da4a05063d10f6fe9e057f545998bf3da98e"
        "444943ef1132f4d9cfc49b18f44707cc0a32fdc792d5c9bfd41a7775dd54bad6"
        "e6801e44c55fb7a486998c33416ee611e2eef7d758d03936bff0324aeb8e208d"
        "9b542add11016498925bd3ccea0d130ea0640147a2ae4df5712ec35f7efe99d1"
        "c824b64ad2accedaa176f87623c529d31742017c30f9729d8ee3204b4650e867"
        "5a14f66b1bf5aeba5aed3cdc778b6c7d517ed5fce78b549a76d2694e96bbbb00"
        "78dad4fc5019cf91d89a18edc289f7d9"
    ),
}

#: sha256 of the 80,000-byte known answer (2,500 keystream blocks).
KNOWN_STREAM_80K_SHA256 = (
    "98aca625b7fc12ae8e6f1caefd5c7f3220d5acb2862a4452d8f107b9391ddd5c")

#: ``SealedBox("css-platform-secret").seal(text, sequence)``.
KNOWN_TOKENS = [
    ("", 0,
     "f0d8b51417c56fc258062ea1bf2b8f2d895be6eb0e0422d554910b41dbfee945"
     "58803123a3d666021a38b08026e124d8"),
    ("Mario Bianchi", 1,
     "632d250005004046c97c143cc7b060383e268e21413eacfce118e38bde686bb6"
     "1f7e7962732c90a5a7cc6a923eefb7c48725b557d60f475bde9fee1af6"),
    ("àèìòù — Trentino ♥", 2**64 - 1,
     "7b0cdd89fa31b53498971a034dca8fb0740cc6e8335c76dd63a1c986a4136556"
     "147ffdb94fd3b0854fc35ac0d6294b6555ca583e3e0450b225d36fc564a721ce"
     "4a8c3b322fb602e3bf869f"),
]

#: Every multiple of the 32-byte block, and one byte either side, to 9,000.
BLOCK_EDGES = sorted({n for k in range(9000 // 32 + 1)
                      for n in (32 * k - 1, 32 * k, 32 * k + 1) if 0 <= n <= 9000})


class TestKnownAnswers:
    @pytest.mark.parametrize("length", sorted(KNOWN_STREAM))
    def test_apply_reproduces_the_pinned_bytes(self, length):
        cipher = StreamCipher(KAT_KEY)
        assert cipher.apply(kat_data(length), KAT_NONCE).hex() == KNOWN_STREAM[length]

    def test_a_long_body_reproduces_its_pinned_digest(self):
        out = StreamCipher(KAT_KEY).apply(kat_data(80_000), KAT_NONCE)
        assert hashlib.sha256(out).hexdigest() == KNOWN_STREAM_80K_SHA256

    @pytest.mark.parametrize("text, sequence, token", KNOWN_TOKENS,
                             ids=["empty", "name", "last-sequence"])
    def test_seal_reproduces_the_pinned_token(self, text, sequence, token):
        box = SealedBox("css-platform-secret")
        assert box.seal(text, sequence) == token
        assert box.open(token) == text


class TestEqualsTheReference:
    def test_every_block_edge(self):
        cipher, data = StreamCipher(KAT_KEY), random.Random(7).randbytes(9001)
        for length in BLOCK_EDGES:
            assert cipher.apply(data[:length], KAT_NONCE) == reference_apply(
                KAT_KEY, data[:length], KAT_NONCE), length

    def test_a_body_longer_than_any_counter_table(self):
        data = random.Random(11).randbytes(4097 * 32 + 5)
        assert StreamCipher(KAT_KEY).apply(data, KAT_NONCE) == reference_apply(
            KAT_KEY, data, KAT_NONCE)

    @given(
        length=st.one_of(st.integers(min_value=0, max_value=9000),
                         st.sampled_from(BLOCK_EDGES)),
        seed=st.integers(min_value=0, max_value=2**32),
        key=st.binary(min_size=16, max_size=48),
        nonce=st.binary(min_size=8, max_size=32),
    )
    @settings(max_examples=80, deadline=None)
    def test_apply_equals_the_per_block_loop(self, length, seed, key, nonce):
        data = random.Random(seed).randbytes(length)
        assert StreamCipher(key).apply(data, nonce) == reference_apply(key, data, nonce)


class TestDeriveKey:
    def test_is_deterministic(self):
        assert derive_key("secret", "ctx") == derive_key("secret", "ctx")

    def test_contexts_are_independent(self):
        assert derive_key("secret", "a") != derive_key("secret", "b")

    def test_secrets_are_independent(self):
        assert derive_key("one", "ctx") != derive_key("two", "ctx")

    def test_accepts_bytes_secret(self):
        assert derive_key(b"secret", "ctx") == derive_key("secret", "ctx")

    def test_empty_secret_rejected(self):
        with pytest.raises(CryptoError):
            derive_key("", "ctx")

    def test_output_is_32_bytes(self):
        assert len(derive_key("s", "c")) == 32


class TestStreamCipher:
    def test_apply_twice_round_trips(self):
        cipher = StreamCipher(b"k" * 16)
        nonce = b"n" * 8
        data = b"sensitive payload"
        assert cipher.apply(cipher.apply(data, nonce), nonce) == data

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            StreamCipher(b"short")

    def test_short_nonce_rejected(self):
        cipher = StreamCipher(b"k" * 16)
        with pytest.raises(CryptoError):
            cipher.apply(b"data", b"abc")

    def test_different_nonces_give_different_ciphertexts(self):
        cipher = StreamCipher(b"k" * 16)
        data = b"same plaintext"
        assert cipher.apply(data, b"nonce--1") != cipher.apply(data, b"nonce--2")

    def test_handles_data_longer_than_one_block(self):
        cipher = StreamCipher(b"k" * 16)
        data = b"x" * 1000
        nonce = b"n" * 16
        assert cipher.apply(cipher.apply(data, nonce), nonce) == data

    def test_empty_data(self):
        cipher = StreamCipher(b"k" * 16)
        assert cipher.apply(b"", b"n" * 8) == b""


class TestSealedBox:
    def test_round_trip(self):
        box = SealedBox("secret")
        token = box.seal("Mario Bianchi", sequence=1)
        assert box.open(token) == "Mario Bianchi"

    def test_token_is_opaque(self):
        box = SealedBox("secret")
        assert "Mario" not in box.seal("Mario Bianchi", sequence=1)

    def test_sequences_give_distinct_tokens(self):
        box = SealedBox("secret")
        assert box.seal("same", 1) != box.seal("same", 2)

    def test_same_sequence_is_deterministic(self):
        box = SealedBox("secret")
        assert box.seal("same", 7) == box.seal("same", 7)

    def test_negative_sequence_rejected(self):
        with pytest.raises(CryptoError):
            SealedBox("secret").seal("x", -1)

    def test_sequence_past_the_nonce_counter_is_a_crypto_error(self):
        box = SealedBox("secret")
        box.seal("x", 2**64 - 1)
        with pytest.raises(CryptoError, match="2\\*\\*64"):
            box.seal("x", 2**64)

    def test_tampered_token_detected(self):
        box = SealedBox("secret")
        token = box.seal("Mario Bianchi", 1)
        flipped = ("0" if token[10] != "0" else "1")
        tampered = token[:10] + flipped + token[11:]
        with pytest.raises(TokenError):
            box.open(tampered)

    def test_wrong_key_detected(self):
        token = SealedBox("secret-one").seal("data", 1)
        with pytest.raises(TokenError):
            SealedBox("secret-two").open(token)

    def test_non_hex_token_rejected(self):
        with pytest.raises(TokenError):
            SealedBox("secret").open("zz-not-hex")

    def test_truncated_token_rejected(self):
        with pytest.raises(TokenError):
            SealedBox("secret").open("ab" * 10)

    def test_is_valid_true_and_false(self):
        box = SealedBox("secret")
        token = box.seal("x", 1)
        assert box.is_valid(token)
        assert not box.is_valid(token[:-2] + "00")
        assert not box.is_valid("nothex!")

    def test_unicode_round_trip(self):
        box = SealedBox("secret")
        text = "àèìòù — Trentino ♥"
        assert box.open(box.seal(text, 3)) == text


class TestSealedBoxProperties:
    @given(text=st.text(max_size=200), sequence=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_seal_open_round_trip(self, text, sequence):
        box = SealedBox("property-secret")
        assert box.open(box.seal(text, sequence)) == text

    @given(
        first=st.text(max_size=60),
        second=st.text(max_size=60),
        sequence=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_plaintexts_distinct_tokens(self, first, second, sequence):
        box = SealedBox("property-secret")
        if first != second:
            assert box.seal(first, sequence) != box.seal(second, sequence)
