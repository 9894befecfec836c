"""The service bus broker.

:class:`ServiceBus` ties together the topic tree, the subscription registry
and the delivery engine, and exposes the operations the data controller
uses: declare topics, subscribe/unsubscribe, publish (fan-out), and run
dispatch rounds.  ``auto_dispatch`` (the default) runs a dispatch round
after every publish so simple callers see synchronous-looking delivery;
benchmarks switch it off to measure batched dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.delivery import DeliveryEngine, DeliveryPolicy, DeliveryReport
from repro.bus.envelope import Envelope
from repro.bus.subscriptions import Handler, Subscription, SubscriptionRegistry
from repro.bus.topics import TopicTree
from repro.clock import Clock
from repro.exceptions import BusError, UnknownTopicError
from repro.ids import IdFactory


@dataclass
class BusStats:
    """Broker-wide counters (benchmark instrumentation)."""

    published: int = 0
    fanned_out: int = 0
    dispatch_rounds: int = 0
    bytes_published: int = 0
    bytes_fanned_out: int = 0

    def reset(self) -> None:
        """Zero every counter (benchmark warm-up / measurement windows).

        Resets *counters only*.  The broker's saturation high-water marks
        are deliberately out of scope — they live on the bus and are
        cleared by :meth:`ServiceBus.reset_high_water`, so a measurement
        window can zero its throughput counters without losing the worst
        backlog observed during warm-up.
        """
        self.published = 0
        self.fanned_out = 0
        self.dispatch_rounds = 0
        self.bytes_published = 0
        self.bytes_fanned_out = 0


class ServiceBus:
    """In-process ESB with durable pub/sub and explicit dispatch."""

    def __init__(
        self,
        clock: Clock | None = None,
        ids: IdFactory | None = None,
        delivery_policy: DeliveryPolicy | None = None,
        auto_dispatch: bool = True,
        strict_topics: bool = True,
        telemetry=None,
        perf=None,
        sched=None,
        recorder=None,
    ) -> None:
        self._clock = clock or Clock()
        self._ids = ids or IdFactory()
        self._topics = TopicTree()
        self._subscriptions = SubscriptionRegistry(
            indexed=perf is not None, perf=perf
        )
        self._engine = DeliveryEngine(delivery_policy)
        self.auto_dispatch = auto_dispatch
        self.strict_topics = strict_topics
        self.stats = BusStats()
        # Saturation high-water marks: the instantaneous depth gauges
        # reset as queues drain, so a capacity run that ends drained
        # would report an idle broker no matter how deep the backlog got
        # mid-run.  The high-water marks keep the worst observed depth.
        self._queue_high_water: dict[str, int] = {}
        self._queue_high_water_global = 0
        self._dead_letter_high_water = 0
        self._telemetry = telemetry
        # The tenant scheduler (kernel kind "sched").  The bus only calls
        # methods on it — metering publishes/fan-out, asking whether a
        # subscriber's backlog must shed, draining the virtual server —
        # so the bus layer stays import-free of repro.sched.
        self._sched = sched
        # The flight recorder (kernel kind "recorder"), duck-typed like
        # telemetry so the bus stays import-free of repro.obs: saturation
        # transitions (shedding, high-water advances) leave a trail in
        # its ring for incident bundles to export.
        self._recorder = recorder

    # -- topics ------------------------------------------------------------

    @property
    def topics(self) -> TopicTree:
        """The broker's topic tree."""
        return self._topics

    def declare_topic(self, path: str) -> None:
        """Declare a topic (idempotent)."""
        self._topics.declare(path)

    # -- subscriptions ---------------------------------------------------------

    def subscribe(self, subscriber: str, pattern: str, handler: Handler,
                  delivery_policy: DeliveryPolicy | None = None) -> Subscription:
        """Create a durable subscription and return it.

        ``delivery_policy`` overrides the engine-wide retry budget for
        this subscription only (``None`` keeps the engine default).
        """
        subscription = Subscription(
            subscription_id=self._ids.next("sub"),
            subscriber=subscriber,
            pattern=pattern,
            handler=handler,
            policy=delivery_policy,
        )
        self._subscriptions.add(subscription)
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        """Remove a subscription; queued messages are dropped."""
        self._subscriptions.remove(subscription_id)

    def subscriptions_of(self, subscriber: str) -> list[Subscription]:
        """Every subscription held by ``subscriber``."""
        return self._subscriptions.for_subscriber(subscriber)

    @property
    def subscription_count(self) -> int:
        """Number of registered subscriptions."""
        return len(self._subscriptions)

    # -- publish -------------------------------------------------------------------

    def publish(
        self,
        topic: str,
        sender: str,
        body: object,
        correlation_id: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> Envelope:
        """Publish ``body`` on ``topic``; returns the envelope.

        With ``strict_topics`` (default) the topic must have been declared —
        undeclared topics mean the producer skipped catalog installation.
        Fan-out enqueues into every matching subscription; with
        ``auto_dispatch`` a dispatch round runs immediately.
        """
        if self.strict_topics and not self._topics.exists(topic):
            raise UnknownTopicError(f"publish to undeclared topic {topic!r}")
        now = self._clock.now()
        if self._sched is not None:
            self._sched.note_publish(sender, now)
        envelope = self._make_envelope(topic, sender, body, correlation_id,
                                       headers, now)
        matching = self._subscriptions.matching_topic(topic)
        self._fan_out(envelope, matching, now)
        if self.auto_dispatch and matching:
            self.dispatch()
        return envelope

    def publish_many(
        self,
        items: list[tuple[str, str, object]],
    ) -> list[Envelope]:
        """Vectorized publish: fan a batch out with amortized bookkeeping.

        ``items`` is a list of ``(topic, sender, body)`` triples.  Every
        topic is validated up front (all-or-nothing under
        ``strict_topics``), the subscription trie is resolved once per
        distinct topic, the scheduler meters each run of consecutive
        same-sender items as one tenant-batch, and — with
        ``auto_dispatch`` — a single dispatch round runs at the end
        instead of one per publish.  Per-envelope fan-out, shedding and
        high-water accounting are identical to sequential
        :meth:`publish` calls.
        """
        if self.strict_topics:
            for topic, _sender, _body in items:
                if not self._topics.exists(topic):
                    raise UnknownTopicError(
                        f"publish to undeclared topic {topic!r}"
                    )
        now = self._clock.now()
        envelopes: list[Envelope] = []
        matching_memo: dict[str, list[Subscription]] = {}
        any_matching = False
        position = 0
        while position < len(items):
            sender = items[position][1]
            run_end = position
            while run_end < len(items) and items[run_end][1] == sender:
                run_end += 1
            if self._sched is not None:
                self._sched.note_publish_many(sender, run_end - position, now)
            for topic, item_sender, body in items[position:run_end]:
                envelope = self._make_envelope(topic, item_sender, body,
                                               None, None, now)
                matching = matching_memo.get(topic)
                if matching is None:
                    matching = self._subscriptions.matching_topic(topic)
                    matching_memo[topic] = matching
                self._fan_out(envelope, matching, now)
                any_matching = any_matching or bool(matching)
                envelopes.append(envelope)
            position = run_end
        if self.auto_dispatch and any_matching:
            self.dispatch()
        return envelopes

    def _make_envelope(
        self,
        topic: str,
        sender: str,
        body: object,
        correlation_id: str | None,
        headers: dict[str, str] | None,
        now: float,
    ) -> Envelope:
        envelope = Envelope(
            message_id=self._ids.next("msg"),
            topic=topic,
            sender=sender,
            body=body,
            created_at=now,
            correlation_id=correlation_id,
            headers=headers or {},
        )
        self.stats.published += 1
        self.stats.bytes_published += envelope.size_estimate()
        return envelope

    def _fan_out(self, envelope: Envelope,
                 matching: list[Subscription], now: float) -> None:
        """Enqueue one envelope into every matching subscription.

        The shared fan-out engine of :meth:`publish` and
        :meth:`publish_many`: sched metering and shedding per
        subscriber, queue/dead-letter high-water marks, telemetry.
        """
        topic = envelope.topic
        size = envelope.size_estimate()
        shed_any = False
        for subscription in matching:
            if self._sched is not None:
                self._sched.note_fanout(subscription.subscriber, now)
                if self._sched.should_shed(subscription.subscriber,
                                           subscription.queue.depth):
                    # Backpressure: the subscriber's backlog is over the
                    # bound — overflow to the dead-letter queue, tagged
                    # with the subscription id so replay_all_dead_letters
                    # can re-drive it after the abuse episode.
                    self._engine.dead_letter.enqueue_from(
                        subscription.subscription_id, envelope
                    )
                    self._sched.note_shed(subscription.subscriber)
                    shed_any = True
                    continue
            subscription.queue.enqueue(envelope)
            self.stats.fanned_out += 1
            self.stats.bytes_fanned_out += size
        if shed_any:
            if self._recorder is not None:
                self._recorder.record("bus.deadletter", topic=topic,
                                      depth=self.dead_letter_depth)
            self._mark_dead_letter_high_water()
        if matching:
            topic_depth = sum(sub.queue.depth for sub in matching)
            if topic_depth > self._queue_high_water.get(topic, 0):
                self._queue_high_water[topic] = topic_depth
                if self._telemetry is not None:
                    self._telemetry.gauge("bus.queue.high_water",
                                          topic_depth, topic=topic)
                if self._recorder is not None:
                    self._recorder.record("bus.queue_high_water",
                                          topic=topic, depth=topic_depth)
            self._queue_high_water_global = max(
                self._queue_high_water_global, self.queue_depth
            )
        if self._telemetry is not None:
            self._telemetry.count("bus.published_total", topic=topic)
            self._telemetry.count("bus.fanout_total", len(matching), topic=topic)
            self._telemetry.gauge("bus.queue.depth", self.queue_depth)

    def _mark_dead_letter_high_water(self) -> None:
        if self.dead_letter_depth > self._dead_letter_high_water:
            self._dead_letter_high_water = self.dead_letter_depth
            if self._telemetry is not None:
                self._telemetry.gauge("bus.deadletter.high_water",
                                      self._dead_letter_high_water)
            if self._recorder is not None:
                self._recorder.record("bus.deadletter_high_water",
                                      depth=self._dead_letter_high_water)

    # -- dispatch -------------------------------------------------------------------

    def dispatch(self) -> DeliveryReport:
        """Run one dispatch round over the subscriptions with a backlog.

        With a scheduler wired, the round first advances the scheduler's
        virtual server to now — fifo or deficit-round-robin over the
        tenant queues — so fairness accounting tracks dispatch activity.
        """
        self.stats.dispatch_rounds += 1
        if self._sched is not None:
            self._sched.drain(self._clock.now())
        report = self._engine.dispatch_all(self._subscriptions.waiting())
        if report.dead_lettered and self._recorder is not None:
            self._recorder.record("bus.deadletter",
                                  count=report.dead_lettered,
                                  depth=self.dead_letter_depth)
        self._mark_dead_letter_high_water()
        if self._telemetry is not None:
            self._telemetry.count("bus.dispatch_rounds_total")
            if report.dead_lettered:
                self._telemetry.count("bus.deadletter_total",
                                      report.dead_lettered)
            self._telemetry.gauge("bus.queue.depth", self.queue_depth)
        return report

    def pending_messages(self) -> int:
        """Total messages waiting across all subscription queues."""
        return self._subscriptions.pending

    @property
    def queue_depth(self) -> int:
        """Broker-wide queue depth — the single source the telemetry
        gauge (``bus.queue.depth``) and the benchmarks both read."""
        return self.pending_messages()

    @property
    def dead_letter_depth(self) -> int:
        """Messages parked in the dead-letter queue."""
        return self._engine.dead_letter.depth

    # -- saturation high-water marks ----------------------------------------

    def queue_high_water(self, topic: str | None = None) -> int:
        """Deepest backlog ever observed — per topic, or broker-wide.

        Per-topic marks sum the queues of the subscriptions matching that
        topic at publish time; the broker-wide mark tracks
        :attr:`queue_depth` across publishes.  Both survive draining, so
        a capacity harness can report saturation after the fact.
        """
        if topic is not None:
            return self._queue_high_water.get(topic, 0)
        return self._queue_high_water_global

    def queue_high_water_marks(self) -> dict[str, int]:
        """Every per-topic queue-depth high-water mark (topic → depth)."""
        return dict(self._queue_high_water)

    @property
    def dead_letter_high_water(self) -> int:
        """Deepest the dead-letter queue has ever been."""
        return self._dead_letter_high_water

    def reset_high_water(self) -> None:
        """Zero every high-water mark (benchmark measurement windows)."""
        self._queue_high_water.clear()
        self._queue_high_water_global = 0
        self._dead_letter_high_water = 0

    def drain_dead_letters(self) -> list[Envelope]:
        """Remove and return every dead-lettered envelope (operator action)."""
        return self._engine.dead_letter.drain()

    def replay_dead_letters(self, subscription_id: str) -> int:
        """Re-drive one subscription's dead letters after its consumer is fixed.

        Counts the messages as redeliveries and, with ``auto_dispatch``,
        immediately runs a dispatch round so they flow through the repaired
        handler.  Returns how many messages were re-driven.
        """
        subscription = self._subscriptions.get(subscription_id)
        count = self._engine.replay_dead_letters(subscription)
        if count and self.auto_dispatch:
            self.dispatch()
        return count

    def replay_all_dead_letters(self) -> int:
        """Re-drive every dead letter with a known, live origin.

        The bulk counterpart of :meth:`replay_dead_letters` — after an
        abuse episode sheds overflow for many subscriptions, one call
        drains the whole backlog back through the repaired consumers.
        Messages parked with no recorded origin, or whose subscription
        has since been removed, stay parked.  Returns the total re-driven.
        """
        total = 0
        for origin in self._engine.dead_letter.origin_ids():
            try:
                subscription = self._subscriptions.get(origin)
            except BusError:
                continue
            total += self._engine.replay_dead_letters(subscription)
        if total and self.auto_dispatch:
            self.dispatch()
        return total

    def dead_letter_counts(self) -> dict[str, int]:
        """Cumulative dead-letter arrivals per topic (survive replay)."""
        return self._engine.dead_letter.counts_by_topic()
