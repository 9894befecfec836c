"""Per-subscription FIFO queues.

Each durable subscription owns a :class:`MessageQueue`.  Messages are
appended at publish time and consumed with explicit acknowledgement, which
gives the at-least-once semantics the delivery engine needs: an unacked
message stays at the head and is re-offered on the next dispatch round.
The queue also keeps a bounded redelivery counter per message so the
delivery engine can divert poison messages to the dead-letter queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bus.envelope import Envelope
from repro.exceptions import BusError


@dataclass
class QueuedMessage:
    """An envelope waiting in a queue plus its redelivery bookkeeping
    (``origin``: the subscription a dead letter was evicted from)."""

    envelope: Envelope
    attempts: int = 0
    origin: str = ""


@dataclass
class QueueStats:
    """Counters exposed for monitoring and benchmarks."""

    enqueued: int = 0
    delivered: int = 0
    redelivered: int = 0
    dead_lettered: int = 0


class DepthTally:
    """What the queues reporting to it hold: the running total of their
    depths, which of them hold anything (``waiting``, by the key each
    reports under) and how often an empty one was filled (``arrivals``)."""

    __slots__ = ("depth", "waiting", "arrivals")

    def __init__(self) -> None:
        self.depth = 0
        self.waiting: set = set()
        self.arrivals = 0


class MessageQueue:
    """A FIFO queue with peek/ack/nack semantics."""

    def __init__(self, name: str) -> None:
        if not name:
            raise BusError("queue needs a name")
        self.name = name
        self._messages: deque[QueuedMessage] = deque()
        self._tally: DepthTally | None = None
        self._key: object = None
        self.stats = QueueStats()

    def report_to(self, tally: DepthTally | None, key: object = None) -> None:
        """Keep ``tally`` current with this queue, known to it as ``key``
        (``None`` detaches): every mutation below reports through
        :meth:`_moved`, so the broker reads its total backlog, and which
        subscriptions have one, without visiting its subscription queues."""
        if self._tally is not None:
            self._tally.depth -= len(self._messages)
            self._tally.waiting.discard(self._key)
        self._tally, self._key = tally, key
        self._moved(len(self._messages))

    def _moved(self, delta: int) -> None:
        """Tell the tally this queue's depth just changed by ``delta``."""
        tally = self._tally
        if tally is None:
            return
        tally.depth += delta
        if not self._messages:
            tally.waiting.discard(self._key)
        elif self._key not in tally.waiting:
            tally.waiting.add(self._key)
            tally.arrivals += 1

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def depth(self) -> int:
        """Number of messages waiting."""
        return len(self._messages)

    def enqueue(self, envelope: Envelope) -> None:
        """Append a message."""
        self._messages.append(QueuedMessage(envelope))
        self.stats.enqueued += 1
        self._moved(1)

    def peek(self) -> QueuedMessage | None:
        """The head message without removing it (None if empty)."""
        return self._messages[0] if self._messages else None

    def ack(self) -> Envelope:
        """Remove and return the head message (successful delivery)."""
        if not self._messages:
            raise BusError(f"ack on empty queue {self.name!r}")
        queued = self._messages.popleft()
        self.stats.delivered += 1
        self._moved(-1)
        return queued.envelope

    def nack(self) -> int:
        """Record a failed delivery of the head message; return its attempt count."""
        if not self._messages:
            raise BusError(f"nack on empty queue {self.name!r}")
        head = self._messages[0]
        head.attempts += 1
        self.stats.redelivered += 1
        return head.attempts

    def evict_head(self) -> Envelope:
        """Remove the head without counting it delivered (dead-letter path)."""
        if not self._messages:
            raise BusError(f"evict on empty queue {self.name!r}")
        queued = self._messages.popleft()
        self.stats.dead_lettered += 1
        self._moved(-1)
        return queued.envelope


class DeadLetterQueue(MessageQueue):
    """The broker's parking lot for poison messages.

    Besides FIFO storage it remembers *which subscription* each envelope
    was evicted from (``QueuedMessage.origin``), so :meth:`take_for` can
    hand the delivery engine exactly the messages to re-drive once that
    subscriber is fixed (``DeliveryEngine.replay_dead_letters``).
    Envelopes are shared across subscription queues, so the origin lives
    here, never in the envelope.
    """

    def __init__(self, name: str = "dead-letter") -> None:
        super().__init__(name)
        # Cumulative per-topic arrivals (never decremented on replay):
        # an abuse episode's shed volume stays visible after the backlog
        # has been re-driven.
        self._by_topic: dict[str, int] = {}

    def enqueue(self, envelope: Envelope) -> None:
        """Park an envelope with no recorded origin (direct callers)."""
        self.enqueue_from("", envelope)

    def enqueue_from(self, subscription_id: str, envelope: Envelope) -> None:
        """Park an envelope evicted from ``subscription_id``'s queue."""
        super().enqueue(envelope)
        self._messages[-1].origin = subscription_id
        self._by_topic[envelope.topic] = self._by_topic.get(envelope.topic, 0) + 1

    def origin_ids(self) -> list[str]:
        """Distinct origin subscription ids with parked messages, in
        first-parked order (empty-string origins — direct callers with no
        recorded origin — are skipped)."""
        seen: list[str] = []
        for queued in self._messages:
            if queued.origin and queued.origin not in seen:
                seen.append(queued.origin)
        return seen

    def counts_by_topic(self) -> dict[str, int]:
        """Cumulative dead-letter arrivals per topic (survive replay)."""
        return dict(self._by_topic)

    def take_for(self, subscription_id: str) -> list[Envelope]:
        """Remove and return every dead letter of one subscription."""
        taken = [queued.envelope for queued in self._messages
                 if queued.origin == subscription_id]
        self._messages = deque(queued for queued in self._messages
                               if queued.origin != subscription_id)
        self._moved(-len(taken))
        return taken
