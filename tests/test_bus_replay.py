"""Dead-letter replay."""

from repro.bus.broker import ServiceBus
from repro.bus.delivery import MAX_ATTEMPTS


def fresh_bus() -> ServiceBus:
    bus = ServiceBus(auto_dispatch=False)
    bus.declare_topic("events.t")
    return bus


def dispatch_until_dead_lettered(bus: ServiceBus, rounds: int = MAX_ATTEMPTS) -> None:
    """Spend a failing head message's whole retry budget."""
    for _ in range(rounds):
        bus.dispatch()


class TestDeadLetterReplay:
    def test_replay_redelivers_through_the_repaired_handler(self):
        bus = fresh_bus()
        state = {"fail": True}
        received = []

        def flaky(envelope):
            if state["fail"]:
                raise RuntimeError("boom")
            received.append(envelope)

        subscription = bus.subscribe("c", "events.t", flaky)
        bus.publish("events.t", "s", "poison")
        dispatch_until_dead_lettered(bus)
        assert bus.dead_letter_depth == 1
        assert received == []

        state["fail"] = False
        replayed = bus.replay_dead_letters(subscription.subscription_id)
        bus.dispatch()
        assert replayed == 1
        assert [env.body for env in received] == ["poison"]
        assert bus.dead_letter_depth == 0
        # Replays are accounted as redeliveries, not fresh publishes.
        assert subscription.queue.stats.redelivered >= 1

    def test_replay_takes_only_that_subscriptions_letters(self):
        bus = fresh_bus()
        received = []

        def fails(envelope):
            raise RuntimeError("boom")

        broken = bus.subscribe("broken", "events.t", fails)
        other = bus.subscribe("other", "events.t", fails)
        bus.publish("events.t", "s", "x")
        dispatch_until_dead_lettered(bus)
        assert bus.dead_letter_depth == 2
        broken_redelivered = broken.queue.stats.redelivered

        assert bus.replay_dead_letters(other.subscription_id) == 1
        dispatch_until_dead_lettered(bus)  # still failing: parks again
        assert bus.dead_letter_depth == 2
        # The broken subscription's letter was never touched by the replay.
        assert broken.queue.stats.redelivered == broken_redelivered
        assert broken.queue.depth == 0

    def test_replay_with_empty_dead_letter_queue_is_a_noop(self):
        bus = fresh_bus()
        subscription = bus.subscribe("c", "events.t", lambda e: None)
        assert bus.replay_dead_letters(subscription.subscription_id) == 0

    def test_auto_dispatch_replay_delivers_immediately(self):
        bus = ServiceBus()
        bus.declare_topic("events.t")
        state = {"fail": True}
        received = []

        def flaky(envelope):
            if state["fail"]:
                raise RuntimeError("boom")
            received.append(envelope)

        subscription = bus.subscribe("c", "events.t", flaky)
        bus.publish("events.t", "s", "x")  # the publish runs the first round
        dispatch_until_dead_lettered(bus, MAX_ATTEMPTS - 1)
        assert bus.dead_letter_depth == 1
        state["fail"] = False
        bus.replay_dead_letters(subscription.subscription_id)
        assert len(received) == 1
        assert bus.dead_letter_depth == 0
