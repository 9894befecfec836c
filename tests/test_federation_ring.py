"""Tests for the consistent-hash ring and the keyed subject shard key."""

import pytest

from repro.exceptions import ConfigurationError, FederationError
from repro.federation.ring import HashRing, subject_shard_key

#: ``subject_shard_key`` of three (secret, subject) pairs, computed with
#: ``hmac.new`` per call before the key moved onto one keyed MAC per secret;
#: the 100-byte secret is longer than a SHA-256 block.
PINNED_SHARD_KEYS = [
    ("css-platform-secret", "pat-1", "sk:5397a19d6065be09d90058d76bf71dc2"),
    ("s", "pat-mario-bianchi", "sk:70ce69eed471cafe38ac4550de9595d9"),
    ("x" * 100, "subject-42", "sk:18edcc74609182dd0f790e1216721bcf"),
]


def ring_with(*node_ids: str) -> HashRing:
    ring = HashRing()
    for node_id in node_ids:
        ring.add_node(node_id)
    return ring


class TestSubjectShardKey:
    def test_deterministic(self):
        assert subject_shard_key("s", "pat-1") == subject_shard_key("s", "pat-1")

    def test_keyed_by_secret(self):
        assert (subject_shard_key("secret-a", "pat-1")
                != subject_shard_key("secret-b", "pat-1"))

    def test_distinct_subjects_get_distinct_keys(self):
        keys = {subject_shard_key("s", f"pat-{i}") for i in range(100)}
        assert len(keys) == 100

    def test_never_contains_the_plaintext_subject(self):
        key = subject_shard_key("s", "pat-mario-bianchi")
        assert "mario" not in key.lower()
        assert key.startswith("sk:")

    def test_empty_subject_is_rejected(self):
        with pytest.raises(FederationError):
            subject_shard_key("s", "")


class TestPinnedShardKeys:
    @pytest.mark.parametrize("secret, subject, key", PINNED_SHARD_KEYS)
    def test_the_key_is_unchanged(self, secret, subject, key):
        assert subject_shard_key(secret, subject) == key


class TestHashRing:
    def test_membership_accessors(self):
        ring = ring_with("node-1", "node-0")
        assert len(ring) == 2
        assert "node-0" in ring
        assert "node-9" not in ring
        assert ring.nodes == ("node-0", "node-1")

    def test_owner_is_deterministic(self):
        first = ring_with("node-0", "node-1", "node-2")
        second = ring_with("node-0", "node-1", "node-2")
        for i in range(50):
            key = subject_shard_key("s", f"pat-{i}")
            assert first.owner_of(key) == second.owner_of(key)

    def test_ownership_reasonably_balanced(self):
        ring = ring_with("node-0", "node-1", "node-2", "node-3")
        counts = {node: 0 for node in ring.nodes}
        for i in range(400):
            counts[ring.owner_of(subject_shard_key("s", f"pat-{i}"))] += 1
        # Virtual nodes keep every shard in the game: no shard owns nothing,
        # none owns a majority.
        assert all(count > 0 for count in counts.values())
        assert max(counts.values()) < 400 // 2

    def test_adding_a_node_moves_only_captured_keys(self):
        ring = ring_with("node-0", "node-1", "node-2")
        keys = [subject_shard_key("s", f"pat-{i}") for i in range(300)]
        before = {key: ring.owner_of(key) for key in keys}
        ring.add_node("node-3")
        moved = 0
        for key in keys:
            after = ring.owner_of(key)
            if after != before[key]:
                # Consistent hashing: reassignments only flow TO the new node.
                assert after == "node-3"
                moved += 1
        assert 0 < moved < len(keys) // 2

    def test_duplicate_and_unknown_nodes_are_rejected(self):
        ring = ring_with("node-0")
        with pytest.raises(FederationError):
            ring.add_node("node-0")
        with pytest.raises(FederationError):
            ring.add_node("")

    def test_empty_ring_has_no_owner(self):
        with pytest.raises(FederationError):
            HashRing().owner_of("sk:abc")

    def test_replicas_validated(self):
        with pytest.raises(ConfigurationError):
            HashRing(replicas=0)
