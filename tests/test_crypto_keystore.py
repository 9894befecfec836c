"""Unit tests for repro.crypto.keystore."""

import pytest

from repro.crypto.keystore import KeyStore
from repro.exceptions import KeyNotFoundError, TokenError


@pytest.fixture()
def keystore() -> KeyStore:
    store = KeyStore("master-secret")
    store.create("index-identity")
    return store


class TestKeyStore:
    def test_create_is_idempotent(self, keystore):
        box = keystore._boxes["index-identity"]
        token = keystore.seal("index-identity", "x", "evt-1/subjectRef")
        keystore.create("index-identity")
        assert keystore._boxes["index-identity"] is box
        assert keystore.seal("index-identity", "x", "evt-1/subjectRef") == token

    def test_empty_master_secret_rejected(self):
        with pytest.raises(KeyNotFoundError):
            KeyStore("")

    def test_seal_open_round_trip(self, keystore):
        token = keystore.seal("index-identity", "Mario Bianchi", "evt-1/subjectRef")
        assert keystore.open_("index-identity", token) == "Mario Bianchi"

    def test_token_carries_version_prefix(self, keystore):
        assert keystore.seal("index-identity", "x", "evt-1/subjectRef").startswith("v1:")

    def test_unknown_key_rejected_on_seal(self, keystore):
        with pytest.raises(KeyNotFoundError):
            keystore.seal("nope", "x", "evt-1/subjectRef")

    def test_unknown_key_rejected_on_open(self, keystore):
        with pytest.raises(KeyNotFoundError):
            keystore.open_("nope", "v1:00")

    def test_token_without_version_prefix_rejected(self, keystore):
        with pytest.raises(TokenError):
            keystore.open_("index-identity", "deadbeef")

    def test_token_with_bad_version_rejected(self, keystore):
        with pytest.raises(TokenError):
            keystore.open_("index-identity", "vX:deadbeef")

    def test_token_with_unknown_version_rejected(self, keystore):
        token = keystore.seal("index-identity", "x", "evt-1/subjectRef")
        body = token.split(":", 1)[1]
        with pytest.raises(TokenError):
            keystore.open_("index-identity", f"v9:{body}")

    def test_different_keys_cannot_open_each_other(self, keystore):
        keystore.create("other")
        token = keystore.seal("index-identity", "x", "evt-1/subjectRef")
        with pytest.raises(TokenError):
            keystore.open_("other", token)
