"""Unit and property tests for repro.crypto.cipher."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import SealedBox, StreamCipher, derive_key
from repro.exceptions import CryptoError, TokenError


def reference_apply(key: bytes, data: bytes, nonce: bytes) -> bytes:
    """The textbook construction, one byte at a time:
    SHAKE-256(key || nonce) XOR plaintext."""
    stream = hashlib.shake_256(key + nonce).digest(len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


KAT_KEY = bytes(range(32))
KAT_NONCE = b"kat-nonce-0123456"


def kat_data(length: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(length))


#: ``StreamCipher(KAT_KEY).apply(kat_data(n), KAT_NONCE)`` — every sealed
#: token on disk and on the wire was made with these bytes.
KNOWN_STREAM = {
    0: "",
    1: "db",
    31: "db405253eb2534c8373302737b0fbd41a94043a262e941cadc0cdd13605c26",
    32: "db405253eb2534c8373302737b0fbd41a94043a262e941cadc0cdd13605c26f8",
    33: "db405253eb2534c8373302737b0fbd41a94043a262e941cadc0cdd13605c26f87b",
    1200: (
        "db405253eb2534c8373302737b0fbd41a94043a262e941cadc0cdd13605c26f8"
        "7b0fdace828a7378ecb9c82f328c32192df1eb8b49370da294f0e9a0772a06a8"
        "d4cc5882bd6b977a483e8812a4705e3925d78d0ecb1403fad930ce6e10d3df99"
        "4e433d269ab2c01babe774f566bf947af60b98dc11e025d913b5c2a48152b4fe"
        "6bb9fd910f6f9f32743196db11a7a811666390cdc6afb5847b69a75fd130145e"
        "c5051f981525c519177bb843a4e3b72d49932500dad342cc7b286707fcb51ed3"
        "bb85169bb01244c26bd118ed20640284ff62570bcb6ee25b7676f6875e1cadca"
        "2ddd08e5c88fe2d2fcc7865d3c4f243d4c043b4498000356470c7895cb2b3828"
        "cd03450e5d6253a32c13a7eeac269efbb0bd06b3adf769af155a4fb148cc4776"
        "fbccc035cd70637c9a4821eb904a3df88d3f87af90e43da1b510a2c23a44d2c0"
        "60f1f8e6bb87a9bab29ca171ce83831015b7b58d939cea6090b830a798564672"
        "515e9d6658bdd4f0b5051485fe3988f7c32784404035e5d155333e2c9f35c704"
        "28a704a12f4afea688c90cc3ef6daf11a912e55e5ad4262cdb8eb4cf3ccb72b0"
        "cdf917146fa1168b25abbd841cbb3f793feb7ff60f2f5a11f3c9a91eb56e5f9e"
        "98ca8c7bba23ec4679bf53a287e9478eb890bd8df9da4991d7e0fd1e37e427cb"
        "bafc5e7eb42736567c4cdb520d348a6bd624170168ebc64a37b000fb7d99dabb"
        "1a0a47d669bc7d0bbdc97a5c7988745afdff098b2a1f089d6d1290f913e56508"
        "8215f4d29ff71e2467378961a0a2bd8f4e0cdba6ae35c97bfe5ae5a081951c92"
        "40a5d2ae639ccb0086a5f3d6eca1836563bec19e0282386d6be6bf73cfd3d974"
        "b5a8b368eb26b7e1949ee8087c853bf9d6f84f6b19247ed6d475b5beae3e54ab"
        "289e94b49b4b274b704ae5effcb7df1afa680b76b2ea6272c036a352a2b41d76"
        "b9a3e738e0f932c1bc1f00fefa791b2a63aa5e28bcb4dd549859bb57e89931c5"
        "2025843c266af7b0a7cb3a688956c119bd586624fddf5d862611833f7bccf0a3"
        "a473012c09602add1d847e0a55321fac0fc5c5c266b5a54bce5979ebbde54524"
        "808e3a0f66a7350163e43385984b7a584a016a901ba95fb44ffd420fa944bd3c"
        "186e769fd034ac779f308d467d7152656854cfd4d043ad9d088366853dfba324"
        "30614b5c3a8356d943db7b59e4519ebfbf2cdc436eb73dda9df72d9aceb0d276"
        "e405bf3f39c865953f5b441bf813b7965490feb81ec3aa9ca376b2d93df5cc2b"
        "f8db15153bf6700a74e03f4843a2448d00fb93e7e05022b330dab14e6803771c"
        "fa8df6b15ca5c5a156adce8ea1cc6c0d5fa69c12d8ef7fcfa36f4e6ae8471569"
        "e56dbcde320ee1beb212f45f30025de83abb678582dfad4f74c384152ec4c756"
        "a2283e57ceed9e32b216bf1abab9693b25bac6bd3c9a7b3d651199320ba4f78c"
        "f9c6b92e347f8097b79610cafb93abe599d9d470d8b27d6be4d1178b93997432"
        "40343017d172f0fd53d9ef7b532207cbb3b269e3dd582da292b2b754d17f90f5"
        "51f0628a4439da3296f1cdd0b67d4c9de4b2bbafa27dcbac40e555497bd8ee88"
        "45bd3b0c9c45119c6c4587098cd4191b165bfc0a7ea184b613e2523218151453"
        "3ae95c685a2ddcfb2e4931f114458323a009bc0edfe28ac45355999ad7a4165c"
        "51363ad09c9caa8ef63c854f8b94b3d8"
    ),
}

#: sha256 of the 80,000-byte known answer.
KNOWN_STREAM_80K_SHA256 = (
    "f82a5f47f597ed66f4c57bd5c95d8186c14d189814595e7c38d0dd111f8af7ae")

#: ``SealedBox("css-platform-secret").seal(text, context)``.
KNOWN_TOKENS = [
    ('', '',
     "a80935ff490cf229b03b6389330734a20892724992093585718787b24a8ff70e"
     "c50b5d94c7793de8fa8982251cf9f38d"),
    ('Mario Bianchi', 'evt-000001-650d/subjectRef',
     "0343230f9efe7bff671dddf9ec291d5d1eb35fc9b28c9e31ef972001bff81258"
     "de5b8e6cae576b2fd7da012884a6d31ce0059767de4a4858ff5e6aba93"),
    ('àèìòù — Trentino ♥', 'federation-channel/node-3',
     "ed627134d8fa83515f27a3b716f28867ca385145919deb59080ec2c64c638b92"
     "4dbb4f61c42817edb257a3a0a6953e60532a8d9122579e82cf345de27010b629"
     "b43bac275b0c2e1d4f15cb"),
]

#: Tokens the counter-nonce box of older releases sealed (``seal(text,
#: sequence)``, per-block SHA-256 keystream, MAC key ``"mac"``): they fail
#: the one MAC a box checks.
LEGACY_TOKENS = [
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

#: Every multiple of 32 bytes (the HMAC's SHA-256 block), and one byte
#: either side, to 9,000.
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

    # The ids are the counter-nonce vectors' (the third sealed nonce 2**64 - 1).
    @pytest.mark.parametrize("text, context, token", KNOWN_TOKENS,
                             ids=["empty", "name", "last-sequence"])
    def test_seal_reproduces_the_pinned_token(self, text, context, token):
        box = SealedBox("css-platform-secret")
        assert box.seal(text, context) == token
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
        token = box.seal("Mario Bianchi", "evt-1/subjectRef")
        assert box.open(token) == "Mario Bianchi"

    def test_token_is_opaque(self):
        box = SealedBox("secret")
        assert "Mario" not in box.seal("Mario Bianchi", "evt-1/subjectRef")

    def test_sequences_give_distinct_tokens(self):
        # One subject in two events: two contexts, two nonces, two tokens.
        box = SealedBox("secret")
        first, second = box.seal("same", "evt-1/subjectRef"), box.seal("same", "evt-2/subjectRef")
        assert first != second and first[:32] != second[:32]

    def test_same_sequence_is_deterministic(self):
        box = SealedBox("secret")
        assert box.seal("same", "evt-7/subjectRef") == box.seal("same", "evt-7/subjectRef")

    def test_negative_sequence_rejected(self):
        # A counter where the context belongs is refused, not hashed.
        with pytest.raises(CryptoError, match="context"):
            SealedBox("secret").seal("x", -1)

    def test_the_context_is_length_prefixed(self):
        box = SealedBox("secret")
        assert box.seal("bc", "a")[:32] != box.seal("c", "ab")[:32]

    def test_tampered_token_detected(self):
        box = SealedBox("secret")
        token = box.seal("Mario Bianchi", "evt-1/subjectRef")
        flipped = ("0" if token[10] != "0" else "1")
        tampered = token[:10] + flipped + token[11:]
        with pytest.raises(TokenError):
            box.open(tampered)

    def test_wrong_key_detected(self):
        token = SealedBox("secret-one").seal("data", "evt-1/subjectRef")
        with pytest.raises(TokenError):
            SealedBox("secret-two").open(token)

    def test_non_hex_token_rejected(self):
        with pytest.raises(TokenError):
            SealedBox("secret").open("zz-not-hex")

    def test_truncated_token_rejected(self):
        with pytest.raises(TokenError):
            SealedBox("secret").open("ab" * 10)

    def test_unicode_round_trip(self):
        box = SealedBox("secret")
        text = "àèìòù — Trentino ♥"
        assert box.open(box.seal(text, "evt-3/subjectDisplay")) == text


class TestLegacyTokens:
    """Tokens sealed under counter nonces are refused: a box checks one MAC,
    and runs its keystream only for a token that passed it."""

    @pytest.mark.parametrize("text, sequence, token", LEGACY_TOKENS,
                             ids=["empty", "name", "last-sequence"])
    def test_a_counter_nonce_token_is_a_token_error(self, text, sequence, token):
        box = SealedBox("css-platform-secret")
        with pytest.raises(TokenError, match="integrity"):
            box.open(token)

    def test_each_token_runs_one_keystream(self, monkeypatch):
        box = SealedBox("css-platform-secret")
        fresh = box.seal("Mario Bianchi", "evt-1/subjectRef")
        applied = []
        apply = StreamCipher.apply

        def counted(self, *args):
            applied.append(args)
            return apply(self, *args)

        monkeypatch.setattr(StreamCipher, "apply", counted)
        assert box.open(fresh) == "Mario Bianchi"
        with pytest.raises(TokenError):
            box.open(LEGACY_TOKENS[1][2])
        assert len(applied) == 1

    @pytest.mark.parametrize("which", ["legacy", "current"])
    def test_a_token_failing_both_macs_is_a_token_error(self, which):
        box = SealedBox("css-platform-secret")
        token = (LEGACY_TOKENS[1][2] if which == "legacy"
                 else box.seal("Mario Bianchi", "evt-1/subjectRef"))
        flipped = token[:40] + ("0" if token[40] != "0" else "1") + token[41:]
        with pytest.raises(TokenError, match="integrity"):
            box.open(flipped)
        with pytest.raises(TokenError, match="integrity"):
            SealedBox("another-secret").open(token)


class TestSealedBoxProperties:
    @given(text=st.text(max_size=200), context=st.text(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_seal_open_round_trip(self, text, context):
        box = SealedBox("property-secret")
        assert box.open(box.seal(text, context)) == text

    @given(
        first=st.text(max_size=60),
        second=st.text(max_size=60),
        context=st.text(max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_plaintexts_distinct_tokens(self, first, second, context):
        box = SealedBox("property-secret")
        if first != second:
            assert box.seal(first, context) != box.seal(second, context)

    @given(text=st.text(max_size=300), context=st.text(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_the_tag_is_hmac_sha256(self, text, context):
        raw = bytes.fromhex(SealedBox("property-secret").seal(text, context))
        assert raw[-32:] == hmac.digest(derive_key("property-secret", "mac:siv"),
                                        raw[:-32], "sha256")
