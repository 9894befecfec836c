"""Durable subscriptions.

A subscription names a subscriber, a topic pattern, and a callback.  It is
*durable*: messages published while the subscriber's callback is failing
wait in the subscription's queue.  The data
controller creates subscriptions only after verifying the privacy policy
authorizes the consumer for the event class — that gating lives in
:mod:`repro.core.controller`; the bus only transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.bus.envelope import Envelope
from repro.bus.queue import DepthTally, MessageQueue
from repro.bus.topics import validate_pattern
from repro.exceptions import SubscriptionError

#: Signature of subscriber callbacks. Raising marks the delivery failed.
Handler = Callable[[Envelope], None]


@dataclass
class Subscription:
    """A durable subscription and its queue."""

    subscription_id: str
    subscriber: str
    pattern: str
    handler: Handler
    queue: MessageQueue = field(init=False)

    def __post_init__(self) -> None:
        if not self.subscription_id:
            raise SubscriptionError("subscription needs an id")
        if not self.subscriber:
            raise SubscriptionError("subscription needs a subscriber")
        validate_pattern(self.pattern)
        self.queue = MessageQueue(f"sub:{self.subscription_id}")


class SubscriptionRegistry:
    """All subscriptions known to the broker, indexed for fan-out.

    The registry maintains a segment trie over the subscription patterns
    plus a per-topic fan-out memo, so :meth:`matching_topic` is
    independent of the total subscription count; the memo's hits and
    misses count on ``perf`` (a bare registry keeps a layer of its own).
    :meth:`matching_topic_linear` is the reference scan — the property
    tests assert the two agree, in registration order, on arbitrary
    pattern/topic sets.
    """

    def __init__(self, perf=None) -> None:
        # Lazy: repro.perf reads repro.bus.topics, which loads this package.
        from repro.perf import PerfLayer
        from repro.perf.topic_index import TopicTrie

        self._subscriptions: dict[str, Subscription] = {}
        self._perf = perf or PerfLayer()
        self._order = 0
        self._trie = TopicTrie()
        self._fanout_memo: dict[str, list[Subscription]] = {}
        self._backlog = DepthTally()

    @property
    def pending(self) -> int:
        """Messages waiting across every registered subscription's queue."""
        return self._backlog.depth

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._subscriptions

    def add(self, subscription: Subscription) -> None:
        """Register a subscription; duplicate ids are rejected."""
        if subscription.subscription_id in self._subscriptions:
            raise SubscriptionError(
                f"duplicate subscription id {subscription.subscription_id!r}"
            )
        self._subscriptions[subscription.subscription_id] = subscription
        subscription.queue.report_to(
            self._backlog, (self._order, subscription.subscription_id))
        self._trie.add(subscription.pattern, self._order, subscription)
        self._fanout_memo.clear()
        self._order += 1

    def remove(self, subscription_id: str) -> Subscription:
        """Unregister and return a subscription."""
        try:
            subscription = self._subscriptions.pop(subscription_id)
        except KeyError as exc:
            raise SubscriptionError(f"no subscription {subscription_id!r}") from exc
        subscription.queue.report_to(None)
        self._trie.remove(subscription.pattern, subscription)
        self._fanout_memo.clear()
        return subscription

    def get(self, subscription_id: str) -> Subscription:
        """Fetch a subscription by id."""
        try:
            return self._subscriptions[subscription_id]
        except KeyError as exc:
            raise SubscriptionError(f"no subscription {subscription_id!r}") from exc

    def for_subscriber(self, subscriber: str) -> list[Subscription]:
        """Every subscription held by ``subscriber``."""
        return [sub for sub in self._subscriptions.values() if sub.subscriber == subscriber]

    def matching_topic(self, topic: str) -> list[Subscription]:
        """Every subscription whose pattern matches ``topic``.

        Registration order, read off the trie and memoized per topic until
        the next subscribe/withdraw.
        """
        memoized = self._fanout_memo.get(topic)
        if memoized is not None:
            self._perf.record_hit("fanout")
            return list(memoized)
        self._perf.record_miss("fanout")
        matching = self._trie.match(topic)
        self._fanout_memo[topic] = matching
        return list(matching)

    def matching_topic_linear(self, topic: str) -> list[Subscription]:
        """The reference linear scan over every subscription.

        No product path calls it: the equivalence tests compare
        :meth:`matching_topic` against it on the same live registry.
        """
        from repro.bus.topics import topic_matches

        return [
            sub
            for sub in self._subscriptions.values()
            if topic_matches(sub.pattern, topic)
        ]

    def waiting(self) -> Iterator[Subscription]:
        """The subscriptions whose queue holds something, in registration
        order — what a dispatch round has to visit.

        The queues keep the set themselves (:class:`DepthTally`): every
        enqueue path is covered, a retry-pending subscription stays in.
        Read lazily, so a queue a handler fills mid-round is reached as on
        a pass over every subscription (if registered later).
        """
        tally, last = self._backlog, -1
        while True:
            arrivals = tally.arrivals
            for last, subscription_id in sorted(
                    key for key in tally.waiting if key[0] > last):
                subscription = self._subscriptions.get(subscription_id)
                if subscription is not None:  # not withdrawn by a handler
                    yield subscription
                if tally.arrivals != arrivals:
                    break  # an idle queue was filled: read the set again
            else:
                return
