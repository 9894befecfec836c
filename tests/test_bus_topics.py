"""Unit tests for repro.bus.topics."""

import pytest

from repro.bus.topics import Topic, TopicTree, topic_matches, validate_pattern
from repro.exceptions import UnknownTopicError


class TestTopic:
    def test_valid_topic(self):
        assert Topic("events.health.BloodTest").segments == ("events", "health", "BloodTest")

    def test_empty_segment_rejected(self):
        with pytest.raises(UnknownTopicError):
            Topic("events..BloodTest")

    def test_illegal_character_rejected(self):
        with pytest.raises(UnknownTopicError):
            Topic("events.heal th")


class TestPatternValidation:
    def test_plain_pattern_ok(self):
        validate_pattern("events.health.BloodTest")

    def test_star_pattern_ok(self):
        validate_pattern("events.*.BloodTest")

    def test_hash_at_end_ok(self):
        validate_pattern("events.#")

    def test_hash_not_at_end_rejected(self):
        with pytest.raises(UnknownTopicError):
            validate_pattern("events.#.BloodTest")

    def test_illegal_segment_rejected(self):
        with pytest.raises(UnknownTopicError):
            validate_pattern("events.b@d")


class TestTopicMatches:
    @pytest.mark.parametrize("pattern,topic,expected", [
        ("events.health.BloodTest", "events.health.BloodTest", True),
        ("events.health.BloodTest", "events.health.Other", False),
        ("events.*.BloodTest", "events.health.BloodTest", True),
        ("events.*.BloodTest", "events.social.BloodTest", True),
        ("events.*", "events.health.BloodTest", False),   # * is one segment
        ("events.#", "events.health.BloodTest", True),
        ("events.#", "events", True),                     # '#' matches zero segments too
        ("events.health.#", "events.health.BloodTest", True),
        ("events.health.#", "events.social.BloodTest", False),
        ("*.health.BloodTest", "events.health.BloodTest", True),
        ("events.health", "events.health.BloodTest", False),  # shorter pattern
        ("events.health.BloodTest.extra", "events.health.BloodTest", False),
    ])
    def test_matching_table(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected


class TestTopicTree:
    def test_declare_and_exists(self):
        tree = TopicTree()
        tree.declare("events.health.BloodTest")
        assert tree.exists("events.health.BloodTest")
        assert not tree.exists("events.health.Other")

    def test_declare_is_idempotent(self):
        tree = TopicTree()
        first = tree.declare("a.b")
        second = tree.declare("a.b")
        assert first is second
        assert tree.all_paths() == ["a.b"]

    def test_require_unknown_rejected(self):
        with pytest.raises(UnknownTopicError):
            TopicTree().require("nope")
