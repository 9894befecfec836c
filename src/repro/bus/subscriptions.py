"""Durable subscriptions, indexed for fan-out.

A subscription names a subscriber, a topic pattern, and a callback.  It is
*durable*: messages published while the subscriber's callback is failing
wait in the subscription's queue.  The data
controller creates subscriptions only after verifying the privacy policy
authorizes the consumer for the event class — that gating lives in
:mod:`repro.core.controller`; the bus only transports.

The registry matches a topic through a segment trie over the patterns
(:class:`TopicTrie`) and a per-topic fan-out memo, whose hits and misses
count on a :class:`PerfLayer` — the controller's, which also counts the
federation relay's sealed-frame cache.  Telemetry labels never carry
plaintext identities: the counters' only label is the cache *name*
(``perf.cache.hits{cache=fanout}`` and ``{cache=seal}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.bus.envelope import Envelope
from repro.bus.queue import DepthTally, MessageQueue
from repro.bus.topics import topic_matches, validate_pattern
from repro.exceptions import SubscriptionError

#: Signature of subscriber callbacks. Raising marks the delivery failed.
Handler = Callable[[Envelope], None]

#: Counter of hot-path cache hits, labelled by cache name only.
CACHE_HITS = "perf.cache.hits"
#: Counter of hot-path cache misses, labelled by cache name only.
CACHE_MISSES = "perf.cache.misses"


@dataclass
class PerfStats:
    """Hits and misses per cache name (``fanout``, ``seal``): benchmarks and readers read them."""

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)


class PerfLayer:
    """The hit/miss counters of one controller's caches."""

    def __init__(self) -> None:
        self.stats = PerfStats()

    def record_hit(self, cache: str) -> None:
        hits = self.stats.hits
        hits[cache] = hits.get(cache, 0) + 1

    def record_miss(self, cache: str) -> None:
        misses = self.stats.misses
        misses[cache] = misses.get(cache, 0) + 1


@dataclass
class _TrieNode:
    """One segment position; terminals are ``(order, value)`` pairs."""

    children: dict[str, "_TrieNode"] = field(default_factory=dict)
    star: "_TrieNode | None" = None
    #: Patterns ending in ``#`` at this position (match any remainder).
    hash_terminals: list[tuple[int, object]] = field(default_factory=list)
    #: Patterns ending exactly at this position.
    terminals: list[tuple[int, object]] = field(default_factory=list)


class TopicTrie:
    """Pattern → value index with registration-ordered matching.

    Each pattern is stored once, decomposed into its dot-separated
    segments — ``*`` and ``#`` become dedicated edges — so matching a topic
    walks at most one node per segment plus the wildcard branches,
    independent of how many subscriptions are registered.  Semantics are
    exactly :func:`~repro.bus.topics.topic_matches`; matches come back
    sorted by registration ``order``, the linear scan's order.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()

    # -- maintenance -------------------------------------------------------

    def _walk_to(self, pattern: str, create: bool) -> tuple[_TrieNode | None, str]:
        """The node owning ``pattern``'s terminal, plus the final segment."""
        validate_pattern(pattern)
        segments = pattern.split(".")
        node: _TrieNode | None = self._root
        path = segments[:-1] if segments[-1] == "#" else segments
        for segment in path:
            if node is None:
                return None, segments[-1]
            if segment == "*":
                if node.star is None and create:
                    node.star = _TrieNode()
                node = node.star
            else:
                child = node.children.get(segment)
                if child is None and create:
                    child = _TrieNode()
                    node.children[segment] = child
                node = child
        return node, segments[-1]

    def add(self, pattern: str, order: int, value: object) -> None:
        """Insert ``value`` under ``pattern`` with registration ``order``."""
        node, last = self._walk_to(pattern, create=True)
        assert node is not None
        terminal = node.hash_terminals if last == "#" else node.terminals
        terminal.append((order, value))

    def remove(self, pattern: str, value: object) -> None:
        """Remove one ``(pattern, value)`` entry, if held."""
        node, last = self._walk_to(pattern, create=False)
        if node is None:
            return
        terminal = node.hash_terminals if last == "#" else node.terminals
        for index, (_, held) in enumerate(terminal):
            if held is value:
                del terminal[index]
                return

    # -- matching ----------------------------------------------------------

    def match(self, topic: str) -> list[object]:
        """Values whose pattern matches ``topic``, in registration order."""
        segments = topic.split(".")
        found: list[tuple[int, object]] = []
        self._collect(self._root, segments, 0, found)
        found.sort(key=lambda pair: pair[0])
        return [value for _, value in found]

    def _collect(
        self,
        node: _TrieNode,
        segments: list[str],
        index: int,
        found: list[tuple[int, object]],
    ) -> None:
        # A trailing-# pattern at this depth matches any remainder
        # (including the empty one: "a.#" matches topic "a").
        found.extend(node.hash_terminals)
        if index == len(segments):
            found.extend(node.terminals)
            return
        child = node.children.get(segments[index])
        if child is not None:
            self._collect(child, segments, index + 1, found)
        if node.star is not None:
            self._collect(node.star, segments, index + 1, found)


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

    def __init__(self, perf: PerfLayer | None = None) -> None:
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
