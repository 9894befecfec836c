"""Unit and property tests for repro.crypto.hashing."""

import hashlib
import hmac
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import GENESIS, HashChain, KeyedMac, canonical_json
from repro.exceptions import TamperedLogError


class TestHmacDigest:
    def test_deterministic(self):
        assert KeyedMac(b"key").digest(b"msg") == KeyedMac(b"key").digest(b"msg")

    def test_key_sensitive(self):
        assert KeyedMac(b"key1").digest(b"msg") != KeyedMac(b"key2").digest(b"msg")

    def test_is_hex_string(self):
        digest = KeyedMac(b"key").digest(b"msg").hex()
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


class TestKeyedMac:
    @pytest.mark.parametrize("length", [0, 1, 32, 63, 64, 65, 100, 200])
    def test_equals_the_library_hmac(self, length):
        key = bytes((7 * index + length) % 256 for index in range(length))
        mac = KeyedMac(key)
        for message in (b"", b"msg", bytes(range(256)) * 3):
            expected = hmac.new(key, message, hashlib.sha256)
            assert mac.digest(message) == expected.digest()
            assert mac.digest(message).hex() == expected.hexdigest()

    @settings(max_examples=100, deadline=None)
    @given(key=st.binary(max_size=150), message=st.binary(max_size=200))
    def test_property_equals_the_library_hmac(self, key, message):
        assert KeyedMac(key).digest(message) == hmac.new(key, message, hashlib.sha256).digest()

    def test_tags_do_not_disturb_each_other(self):
        mac = KeyedMac(b"key")
        first = mac.digest(b"one")
        mac.digest(b"two")
        assert mac.digest(b"one") == first


class Opaque:
    """A value JSON cannot carry: it crosses as its ``str``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return f"Opaque({self.text})"


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_non_json_values_are_stringified(self):
        assert "frozenset" in canonical_json({"x": frozenset()})

    @given(payload=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.builds(Opaque, st.text(max_size=8)) | st.dates() | st.frozensets(st.integers()),
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=24))
    @settings(max_examples=300, deadline=None)
    def test_the_shared_encoder_renders_as_json_dumps(self, payload):
        """One module-level encoder, the same text ``json.dumps`` renders
        with the canonical arguments: non-ASCII escaped, NaN and the
        infinities as ``json`` spells them, a tuple as a list, anything
        else through ``str``."""
        assert canonical_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str)


def body(n: int) -> str:
    """A record's canonical JSON text: what a chain link hashes."""
    return canonical_json({"n": n})


class TestHashChain:
    def test_empty_chain_head_is_genesis(self):
        assert HashChain().head == GENESIS

    def test_append_changes_head(self):
        chain = HashChain()
        digest = chain.append(body(1))
        assert chain.head == digest != GENESIS

    def test_len_counts_links(self):
        chain = HashChain()
        chain.append(body(1))
        chain.append(body(2))
        assert len(chain) == 2

    def test_digest_at(self):
        chain = HashChain()
        first = chain.append(body(1))
        chain.append(body(2))
        assert chain.digest_at(0) == first

    def test_verify_accepts_intact_log(self):
        chain = HashChain()
        payloads = [body(i) for i in range(10)]
        for payload in payloads:
            chain.append(payload)
        chain.verify(payloads)  # must not raise

    def test_verify_detects_modified_payload(self):
        chain = HashChain()
        payloads = [body(i) for i in range(5)]
        for payload in payloads:
            chain.append(payload)
        payloads[2] = body(999)
        with pytest.raises(TamperedLogError, match="record 2"):
            chain.verify(payloads)

    def test_verify_detects_removed_record(self):
        chain = HashChain()
        payloads = [body(i) for i in range(5)]
        for payload in payloads:
            chain.append(payload)
        with pytest.raises(TamperedLogError):
            chain.verify(payloads[:-1])

    def test_verify_detects_inserted_record(self):
        chain = HashChain()
        payloads = [body(i) for i in range(3)]
        for payload in payloads:
            chain.append(payload)
        with pytest.raises(TamperedLogError):
            chain.verify(payloads + [body(99)])

    def test_chain_depends_on_order(self):
        one, two = HashChain(), HashChain()
        one.append(body(1))
        one.append(body(2))
        two.append(body(2))
        two.append(body(1))
        assert one.head != two.head

    @given(st.lists(st.dictionaries(st.text(max_size=8), st.integers())
                    .map(canonical_json), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_verify_roundtrip(self, payloads):
        chain = HashChain()
        for payload in payloads:
            chain.append(payload)
        chain.verify(list(payloads))
