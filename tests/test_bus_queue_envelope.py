"""Unit tests for repro.bus.envelope and repro.bus.queue."""

import pytest

from repro.bus.envelope import Envelope
from repro.bus.queue import MessageQueue
from repro.exceptions import BusError


def envelope(message_id: str = "m1", body: object = "payload") -> Envelope:
    return Envelope(message_id=message_id, topic="events.t", sender="s", body=body)


class TestEnvelope:
    def test_required_fields(self):
        with pytest.raises(BusError):
            Envelope(message_id="", topic="t", sender="s", body=1)
        with pytest.raises(BusError):
            Envelope(message_id="m", topic="", sender="s", body=1)
        with pytest.raises(BusError):
            Envelope(message_id="m", topic="t", sender="", body=1)

    def test_header_access(self):
        env = Envelope(message_id="m", topic="t", sender="s", body=1,
                       headers={"k": "v"})
        assert env.header("k") == "v"
        assert env.header("missing", "dflt") == "dflt"

    def test_with_topic_preserves_everything_else(self):
        env = envelope()
        moved = env.with_topic("events.other")
        assert moved.topic == "events.other"
        assert moved.message_id == env.message_id
        assert moved.body == env.body

    def test_decoded_parses_once_and_stays_out_of_equality_and_copies(self):
        env, calls = envelope(body="12"), []

        def parse(text):
            calls.append(text)
            return (int(text),)

        assert env.decoded(parse) is env.decoded(parse)
        assert calls == ["12"]
        assert env == envelope(body="12") and "_decoded" not in repr(env)
        assert env.with_topic("events.other").decoded(parse) == (12,)
        assert calls == ["12", "12"]

    def test_decoded_retains_nothing_from_a_parse_that_raises(self):
        env = envelope(body="twelve")
        for _ in range(2):
            with pytest.raises(ValueError):
                env.decoded(int)
        assert env.decoded(len) == 6

    def test_size_estimate_scales_with_body(self):
        small = envelope(body="x").size_estimate()
        large = envelope(body="x" * 1000).size_estimate()
        assert large > small + 900

    def test_size_estimate_bytes_body(self):
        assert envelope(body=b"12345678").size_estimate() > 8


class TestMessageQueue:
    def test_enqueue_peek_ack(self):
        queue = MessageQueue("q")
        queue.enqueue(envelope("m1"))
        queue.enqueue(envelope("m2"))
        assert queue.depth == 2
        assert queue.peek().envelope.message_id == "m1"
        assert queue.ack().message_id == "m1"
        assert queue.depth == 1
        assert queue.stats.delivered == 1

    def test_empty_queue_operations_rejected(self):
        queue = MessageQueue("q")
        assert queue.peek() is None
        with pytest.raises(BusError):
            queue.ack()
        with pytest.raises(BusError):
            queue.nack()
        with pytest.raises(BusError):
            queue.evict_head()

    def test_nack_increments_attempts(self):
        queue = MessageQueue("q")
        queue.enqueue(envelope())
        assert queue.nack() == 1
        assert queue.nack() == 2
        assert queue.stats.redelivered == 2
        assert queue.depth == 1  # message stays at head

    def test_evict_head_counts_dead_letter(self):
        queue = MessageQueue("q")
        queue.enqueue(envelope("m1"))
        evicted = queue.evict_head()
        assert evicted.message_id == "m1"
        assert queue.stats.dead_lettered == 1
        assert queue.stats.delivered == 0

    def test_max_depth_enforced(self):
        queue = MessageQueue("q", max_depth=1)
        queue.enqueue(envelope("m1"))
        with pytest.raises(BusError):
            queue.enqueue(envelope("m2"))

    def test_bad_construction_rejected(self):
        with pytest.raises(BusError):
            MessageQueue("")
        with pytest.raises(BusError):
            MessageQueue("q", max_depth=0)

    def test_drain_returns_everything_in_order(self):
        queue = MessageQueue("q")
        for index in range(3):
            queue.enqueue(envelope(f"m{index}"))
        drained = queue.drain()
        assert [env.message_id for env in drained] == ["m0", "m1", "m2"]
        assert queue.depth == 0
