"""Durable subscriptions.

A subscription names a subscriber, a topic pattern, and a callback.  It is
*durable*: messages published while the subscriber's callback is failing (or
while dispatch is paused) wait in the subscription's queue.  The data
controller creates subscriptions only after verifying the privacy policy
authorizes the consumer for the event class — that gating lives in
:mod:`repro.core.controller`; the bus only transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.bus.envelope import Envelope
from repro.bus.queue import DepthTally, MessageQueue
from repro.bus.topics import validate_pattern
from repro.exceptions import SubscriptionError

if TYPE_CHECKING:
    from repro.bus.delivery import DeliveryPolicy

#: Signature of subscriber callbacks. Raising marks the delivery failed.
Handler = Callable[[Envelope], None]


@dataclass
class Subscription:
    """A durable subscription and its queue.

    ``policy`` is an optional per-subscription retry budget: when set it
    overrides the delivery engine's default
    :class:`~repro.bus.delivery.DeliveryPolicy` for this subscription only
    (a flaky analytics sink can fail fast while clinical consumers keep
    the full budget).
    """

    subscription_id: str
    subscriber: str
    pattern: str
    handler: Handler
    active: bool = True
    policy: DeliveryPolicy | None = None
    queue: MessageQueue = field(init=False)

    def __post_init__(self) -> None:
        if not self.subscription_id:
            raise SubscriptionError("subscription needs an id")
        if not self.subscriber:
            raise SubscriptionError("subscription needs a subscriber")
        validate_pattern(self.pattern)
        self.queue = MessageQueue(f"sub:{self.subscription_id}")

    def pause(self) -> None:
        """Stop dispatching; messages keep queueing."""
        self.active = False

    def resume(self) -> None:
        """Resume dispatching."""
        self.active = True


class SubscriptionRegistry:
    """All subscriptions known to the broker, indexed for fan-out.

    With ``indexed`` (enabled by the ``perf: indexed`` kernel layer) the
    registry additionally maintains a segment trie over the subscription
    patterns plus a per-topic fan-out memo, so :meth:`matching_topic` is
    independent of the total subscription count.  Both paths return
    subscriptions in registration order — the property tests assert the
    two agree on arbitrary pattern/topic sets.
    """

    def __init__(self, indexed: bool = False, perf=None) -> None:
        self._subscriptions: dict[str, Subscription] = {}
        self._indexed = indexed
        self._perf = perf
        self._order = 0
        self._trie = None
        if indexed:
            from repro.perf.topic_index import TopicTrie

            self._trie = TopicTrie()
        self._fanout_memo: dict[str, list[Subscription]] = {}
        self._backlog = DepthTally()

    @property
    def pending(self) -> int:
        """Messages waiting across every registered subscription's queue."""
        return self._backlog.depth

    @property
    def indexed(self) -> bool:
        """Whether the trie/memo fast path is active."""
        return self._indexed

    def __len__(self) -> int:
        return len(self._subscriptions)

    def add(self, subscription: Subscription) -> None:
        """Register a subscription; duplicate ids are rejected."""
        if subscription.subscription_id in self._subscriptions:
            raise SubscriptionError(
                f"duplicate subscription id {subscription.subscription_id!r}"
            )
        self._subscriptions[subscription.subscription_id] = subscription
        subscription.queue.report_to(
            self._backlog, (self._order, subscription.subscription_id))
        if self._trie is not None:
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
        if self._trie is not None:
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

        Registration order on both paths; the indexed path memoizes the
        fan-out list per topic until the next subscribe/withdraw.
        """
        if self._trie is None:
            return self.matching_topic_linear(topic)
        memoized = self._fanout_memo.get(topic)
        if memoized is not None:
            if self._perf is not None:
                self._perf.record_hit("fanout")
            return list(memoized)
        if self._perf is not None:
            self._perf.record_miss("fanout")
        matching = self._trie.match(topic)
        self._fanout_memo[topic] = matching
        return list(matching)

    def matching_topic_linear(self, topic: str) -> list[Subscription]:
        """The reference linear scan (the ``perf: none`` fan-out path).

        Kept callable on indexed registries too so the equivalence tests
        can compare both implementations on the same live registry.
        """
        from repro.bus.topics import topic_matches

        return [
            sub
            for sub in self._subscriptions.values()
            if topic_matches(sub.pattern, topic)
        ]

    def all_subscriptions(self) -> list[Subscription]:
        """Every registered subscription."""
        return list(self._subscriptions.values())

    def waiting(self) -> Iterator[Subscription]:
        """The subscriptions whose queue holds something, in registration
        order — what a dispatch round has to visit.

        The queues keep the set themselves (:class:`DepthTally`): every
        enqueue path is covered, a paused or retry-pending subscription
        stays in.  Read lazily, so a queue a handler fills mid-round is
        reached as on a pass over every subscription (if registered later).
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
