"""Unit tests for the service bus broker, subscriptions and delivery."""

import pytest

from repro.bus.broker import ServiceBus
from repro.bus.delivery import MAX_ATTEMPTS
from repro.bus.subscriptions import Subscription, SubscriptionRegistry
from repro.exceptions import SubscriptionError, UnknownTopicError


@pytest.fixture()
def bus() -> ServiceBus:
    instance = ServiceBus()
    instance.declare_topic("events.health.BloodTest")
    instance.declare_topic("events.social.HomeCare")
    return instance


class TestSubscriptionRegistry:
    def test_duplicate_subscription_id_rejected(self):
        registry = SubscriptionRegistry()
        sub = Subscription("s1", "consumer", "events.#", lambda e: None)
        registry.add(sub)
        with pytest.raises(SubscriptionError):
            registry.add(Subscription("s1", "other", "events.#", lambda e: None))

    def test_remove_returns_subscription(self):
        registry = SubscriptionRegistry()
        sub = Subscription("s1", "consumer", "events.#", lambda e: None)
        registry.add(sub)
        assert registry.remove("s1") is sub
        with pytest.raises(SubscriptionError):
            registry.remove("s1")

    def test_bad_pattern_rejected_at_construction(self):
        with pytest.raises(UnknownTopicError):
            Subscription("s1", "c", "events.#.bad", lambda e: None)


class TestPublishSubscribe:
    def test_basic_delivery(self, bus):
        received = []
        bus.subscribe("doctor", "events.health.BloodTest", received.append)
        bus.publish("events.health.BloodTest", "hospital", "payload")
        assert len(received) == 1
        assert received[0].body == "payload"
        assert received[0].sender == "hospital"

    def test_fanout_to_multiple_subscribers(self, bus):
        boxes = [[], [], []]
        for box in boxes:
            bus.subscribe(f"c{id(box)}", "events.health.BloodTest", box.append)
        bus.publish("events.health.BloodTest", "hospital", "x")
        assert all(len(box) == 1 for box in boxes)
        assert bus.stats.fanned_out == 3

    def test_wildcard_subscription(self, bus):
        received = []
        bus.subscribe("monitor", "events.#", received.append)
        bus.publish("events.health.BloodTest", "hospital", "a")
        bus.publish("events.social.HomeCare", "coop", "b")
        assert [env.body for env in received] == ["a", "b"]

    def test_no_subscribers_is_fine(self, bus):
        envelope = bus.publish("events.health.BloodTest", "hospital", "x")
        assert envelope.message_id.startswith("msg-")
        assert bus.pending_messages() == 0

    def test_undeclared_topic_rejected_when_strict(self, bus):
        with pytest.raises(UnknownTopicError):
            bus.publish("events.health.Undeclared", "hospital", "x")

    def test_lenient_topics_allow_anything(self):
        bus = ServiceBus(strict_topics=False)
        received = []
        bus.subscribe("c", "anything.#", received.append)
        bus.publish("anything.goes", "s", "x")
        assert len(received) == 1

    def test_unsubscribe_stops_delivery(self, bus):
        received = []
        sub = bus.subscribe("doctor", "events.#", received.append)
        bus.unsubscribe(sub.subscription_id)
        bus.publish("events.health.BloodTest", "hospital", "x")
        assert received == []

    def test_subscriptions_of(self, bus):
        bus.subscribe("doctor", "events.#", lambda e: None)
        bus.subscribe("doctor", "events.health.*", lambda e: None)
        bus.subscribe("other", "events.#", lambda e: None)
        assert len(bus.subscriptions_of("doctor")) == 2
        assert bus.subscription_count == 3


class TestDurabilityAndDispatch:
    def test_manual_dispatch_mode_queues_messages(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        received = []
        bus.subscribe("c", "events.t", received.append)
        bus.publish("events.t", "s", "x")
        assert received == []
        assert bus.pending_messages() == 1
        report = bus.dispatch()
        assert report.delivered == 1
        assert received[0].body == "x"

    def test_failing_handler_retries_then_dead_letters(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        attempts = []

        def always_fails(envelope):
            attempts.append(envelope.message_id)
            raise RuntimeError("boom")

        bus.subscribe("c", "events.t", always_fails)
        bus.publish("events.t", "s", "x")
        for _ in range(MAX_ATTEMPTS + 2):
            bus.dispatch()
        assert len(attempts) == MAX_ATTEMPTS  # retried exactly MAX_ATTEMPTS times
        assert bus.dead_letter_depth == 1
        assert bus.pending_messages() == 0

    def test_transient_failure_recovers(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        state = {"fail": True}
        received = []

        def flaky(envelope):
            if state["fail"]:
                raise RuntimeError("transient")
            received.append(envelope)

        bus.subscribe("c", "events.t", flaky)
        bus.publish("events.t", "s", "x")
        bus.dispatch()
        assert received == []
        state["fail"] = False
        bus.dispatch()
        assert len(received) == 1
        assert bus.dead_letter_depth == 0

    def test_poison_message_does_not_block_queue(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        received = []

        def poison_first(envelope):
            if envelope.body == "poison":
                raise RuntimeError("bad message")
            received.append(envelope)

        bus.subscribe("c", "events.t", poison_first)
        bus.publish("events.t", "s", "poison")
        bus.publish("events.t", "s", "good")
        for _ in range(MAX_ATTEMPTS):
            bus.dispatch()
        assert [env.body for env in received] == ["good"]
        assert bus.dead_letter_depth == 1

    def test_failure_in_one_subscription_does_not_affect_others(self, bus):
        good = []
        bus.subscribe("bad", "events.health.BloodTest",
                      lambda e: (_ for _ in ()).throw(RuntimeError()))
        bus.subscribe("good", "events.health.BloodTest", good.append)
        bus.publish("events.health.BloodTest", "hospital", "x")
        assert len(good) == 1

    def test_stats_accumulate(self, bus):
        bus.subscribe("c", "events.#", lambda e: None)
        bus.publish("events.health.BloodTest", "h", "x")
        envelope = bus.publish("events.social.HomeCare", "h", "y")
        assert bus.stats.published == 2
        assert bus.stats.fanned_out == 2
        assert envelope.size_estimate() > 0


class TestHighWaterMarks:
    def _manual_bus(self) -> ServiceBus:
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.health.BloodTest")
        bus.declare_topic("events.social.HomeCare")
        return bus

    def test_queue_high_water_survives_draining(self):
        bus = self._manual_bus()
        bus.subscribe("c", "events.health.BloodTest", lambda e: None)
        for _ in range(5):
            bus.publish("events.health.BloodTest", "h", "x")
        assert bus.queue_high_water() == 5
        assert bus.queue_high_water("events.health.BloodTest") == 5
        bus.dispatch()
        assert bus.queue_depth == 0
        assert bus.queue_high_water() == 5  # the mark persists

    def test_per_topic_marks_are_independent(self):
        bus = self._manual_bus()
        bus.subscribe("c1", "events.health.BloodTest", lambda e: None)
        bus.subscribe("c2", "events.social.HomeCare", lambda e: None)
        for _ in range(3):
            bus.publish("events.health.BloodTest", "h", "x")
        bus.publish("events.social.HomeCare", "h", "y")
        marks = bus.queue_high_water_marks()
        assert marks["events.health.BloodTest"] == 3
        assert marks["events.social.HomeCare"] == 1
        assert bus.queue_high_water("events.unknown") == 0

    def test_fanout_counts_every_subscriber_queue(self):
        bus = self._manual_bus()
        bus.subscribe("c1", "events.health.BloodTest", lambda e: None)
        bus.subscribe("c2", "events.health.BloodTest", lambda e: None)
        bus.publish("events.health.BloodTest", "h", "x")
        assert bus.queue_high_water("events.health.BloodTest") == 2

    def test_dead_letter_high_water(self):
        bus = ServiceBus(auto_dispatch=False)
        bus.declare_topic("events.t")
        sub = bus.subscribe("c", "events.t",
                            lambda e: (_ for _ in ()).throw(RuntimeError()))
        for _ in range(2):
            bus.publish("events.t", "s", "x")
        for _ in range(2 * MAX_ATTEMPTS):
            bus.dispatch()
        assert bus.dead_letter_high_water == 2
        bus.replay_dead_letters(sub.subscription_id)
        assert bus.dead_letter_depth == 0
        assert bus.dead_letter_high_water == 2  # the mark persists

    def test_reset_high_water(self):
        bus = self._manual_bus()
        bus.subscribe("c", "events.health.BloodTest", lambda e: None)
        bus.publish("events.health.BloodTest", "h", "x")
        assert bus.queue_high_water() == 1
        bus.reset_high_water()
        assert bus.queue_high_water() == 0
        assert bus.queue_high_water_marks() == {}
        assert bus.dead_letter_high_water == 0
