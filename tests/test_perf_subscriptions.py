"""Indexed subscription matching (``repro.bus.subscriptions.TopicTrie`` + registry).

Satellite property of the perf layer: the trie-backed
``matching_topic`` and the reference linear scan agree — same
subscriptions, same deterministic registration order — on arbitrary
pattern/topic sets, across removals and re-registrations, and the
per-topic fan-out memo invalidates on every subscribe/withdraw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.subscriptions import PerfLayer, Subscription, SubscriptionRegistry, TopicTrie
from repro.bus.topics import topic_matches

TOPICS = ("events", "events.health", "events.health.BloodTest",
          "events.health.Discharge", "events.social.HomeCare",
          "events.social.Alarm", "other.ns.Thing")
PATTERNS = ("events.#", "events.*", "events.health.*",
            "events.health.BloodTest", "events.*.Alarm", "#",
            "events.health.#", "other.ns.Thing")


def subscription(index: int, pattern: str) -> Subscription:
    return Subscription(
        subscription_id=f"sub-{index}", subscriber=f"consumer-{index}",
        pattern=pattern, handler=lambda envelope: None,
    )


class TestTopicTrieSemantics:
    def test_hash_matches_zero_trailing_segments(self):
        trie = TopicTrie()
        trie.add("a.#", 0, "wild")
        assert topic_matches("a.#", "a")
        assert trie.match("a") == ["wild"]
        assert trie.match("a.b.c") == ["wild"]
        assert trie.match("b") == []

    def test_star_requires_exactly_one_segment(self):
        trie = TopicTrie()
        trie.add("a.*", 0, "one")
        assert trie.match("a.b") == ["one"]
        assert trie.match("a") == []
        assert trie.match("a.b.c") == []

    def test_matches_come_back_in_registration_order(self):
        trie = TopicTrie()
        trie.add("a.#", 2, "late-hash")
        trie.add("a.b", 0, "exact")
        trie.add("a.*", 1, "star")
        assert trie.match("a.b") == ["exact", "star", "late-hash"]

    def test_remove_deletes_one_entry_by_identity(self):
        trie = TopicTrie()
        first, second = object(), object()
        trie.add("a.b", 0, first)
        trie.add("a.b", 1, second)
        trie.remove("a.b", first)
        assert trie.match("a.b") == [second]
        trie.remove("a.b", first)  # already gone: nothing else moves
        assert trie.match("a.b") == [second]


class TestIndexedRegistryAgreesWithLinear:
    @given(patterns=st.lists(st.sampled_from(PATTERNS), max_size=20),
           topic=st.sampled_from(TOPICS))
    @settings(max_examples=60, deadline=None)
    def test_both_paths_agree_on_random_pattern_sets(self, patterns, topic):
        registry = SubscriptionRegistry()
        for index, pattern in enumerate(patterns):
            registry.add(subscription(index, pattern))
        assert registry.matching_topic(topic) \
            == registry.matching_topic_linear(topic)

    @given(patterns=st.lists(st.sampled_from(PATTERNS), min_size=1,
                             max_size=14),
           removals=st.lists(st.integers(min_value=0, max_value=13),
                             max_size=6),
           topic=st.sampled_from(TOPICS))
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_removals_and_readds(self, patterns,
                                                    removals, topic):
        registry = SubscriptionRegistry()
        for index, pattern in enumerate(patterns):
            registry.add(subscription(index, pattern))
        for removal in removals:
            sub_id = f"sub-{removal % len(patterns)}"
            try:
                registry.remove(sub_id)
            except Exception:
                continue  # already removed in an earlier round
        # Re-register one pattern under a fresh id: it must sort last.
        registry.add(subscription(900, patterns[0]))
        matches = registry.matching_topic(topic)
        assert matches == registry.matching_topic_linear(topic)
        if topic_matches(patterns[0], topic):
            assert matches[-1].subscription_id == "sub-900"


class TestFanoutMemo:
    def test_second_lookup_is_memoized(self):
        perf = PerfLayer()
        registry = SubscriptionRegistry(perf=perf)
        registry.add(subscription(0, "events.#"))
        registry.matching_topic("events.health.BloodTest")
        registry.matching_topic("events.health.BloodTest")
        assert perf.stats.hits.get("fanout") == 1
        assert perf.stats.misses.get("fanout") == 1

    def test_subscribe_invalidates_the_memo(self):
        registry = SubscriptionRegistry()
        registry.add(subscription(0, "events.#"))
        before = registry.matching_topic("events.health.BloodTest")
        registry.add(subscription(1, "events.health.*"))
        after = registry.matching_topic("events.health.BloodTest")
        assert len(after) == len(before) + 1
        assert after == registry.matching_topic_linear(
            "events.health.BloodTest")

    def test_withdraw_invalidates_the_memo(self):
        registry = SubscriptionRegistry()
        registry.add(subscription(0, "events.#"))
        registry.add(subscription(1, "events.health.*"))
        registry.matching_topic("events.health.BloodTest")
        registry.remove("sub-0")
        after = registry.matching_topic("events.health.BloodTest")
        assert [sub.subscription_id for sub in after] == ["sub-1"]

    def test_memo_returns_a_copy_callers_cannot_corrupt(self):
        registry = SubscriptionRegistry()
        registry.add(subscription(0, "events.#"))
        first = registry.matching_topic("events.health.BloodTest")
        first.clear()
        assert registry.matching_topic("events.health.BloodTest")
