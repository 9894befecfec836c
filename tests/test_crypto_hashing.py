"""Unit and property tests for repro.crypto.hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import GENESIS, HashChain, canonical_json, hmac_digest
from repro.exceptions import TamperedLogError


class TestHmacDigest:
    def test_deterministic(self):
        assert hmac_digest(b"key", b"msg") == hmac_digest(b"key", b"msg")

    def test_key_sensitive(self):
        assert hmac_digest(b"key1", b"msg") != hmac_digest(b"key2", b"msg")

    def test_is_hex_string(self):
        digest = hmac_digest(b"key", b"msg")
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_non_json_values_are_stringified(self):
        assert "frozenset" in canonical_json({"x": frozenset()})


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
