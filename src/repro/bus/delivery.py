"""Delivery engine: at-least-once dispatch with retry and dead-lettering.

Dispatch is synchronous (the bus is in-process): a dispatch round calls
subscriber callbacks with the messages waiting in their queues — or, for
a fan-out into an idle bus, with the envelope itself, which enters the
queue only if the callback raises.  A callback that raises counts as a
failed attempt; after ``max_attempts`` the message moves to the
dead-letter queue so one poison message cannot wedge a subscription —
the behaviour the paper gets from ServiceMix's redelivery policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bus.envelope import Envelope
from repro.bus.queue import DeadLetterQueue
from repro.bus.subscriptions import Subscription
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class DeliveryPolicy:
    """Retry budget; the engine default unless a subscription overrides it."""

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")


@dataclass
class DeliveryReport:
    """Outcome of one dispatch round."""

    delivered: int = 0
    failed: int = 0
    dead_lettered: int = 0
    errors: list[str] = field(default_factory=list)

    def merge(self, other: "DeliveryReport") -> None:
        """Fold another report into this one."""
        self.delivered += other.delivered
        self.failed += other.failed
        self.dead_lettered += other.dead_lettered
        self.errors.extend(other.errors)


class DeliveryEngine:
    """Drains subscription queues through their handlers."""

    def __init__(self, policy: DeliveryPolicy | None = None) -> None:
        self.policy = policy or DeliveryPolicy()
        self.dead_letter = DeadLetterQueue("dead-letter")
        #: Handlers of this engine on the stack right now.
        self.running = 0

    def policy_for(self, subscription: Subscription) -> DeliveryPolicy:
        """The retry budget governing one subscription (override or default)."""
        return subscription.policy or self.policy

    def dispatch_subscription(self, subscription: Subscription) -> DeliveryReport:
        """Deliver every queued message of one subscription.

        Stops early if the head message keeps failing but still has retry
        budget (it will be retried on the next round), so a transiently
        failing subscriber does not spin.
        """
        report = DeliveryReport()
        if not subscription.active:
            return report
        queue = subscription.queue
        while queue.depth and self.deliver(subscription, queue.peek().envelope, report):
            pass
        return report

    def deliver(self, subscription: Subscription, envelope: Envelope,
                report: DeliveryReport, queued: bool = True) -> bool:
        """Offer ``envelope`` — the queue's head, or one handed over directly
        (``queued=False``), queued only if the handler raises — and count it
        in ``report``; returns whether the next message may follow."""
        queue = subscription.queue
        self.running += 1
        try:
            subscription.handler(envelope)
        except Exception as exc:  # noqa: BLE001 - subscriber code is untrusted
            if not queued:
                queue.enqueue(envelope)
            attempts = queue.nack()
            report.failed += 1
            report.errors.append(f"{subscription.subscription_id}: {type(exc).__name__}: {exc}")
            if attempts < self.policy_for(subscription).max_attempts:
                return False  # leave the head for the next round
            self.dead_letter.enqueue_from(subscription.subscription_id, queue.evict_head())
            report.dead_lettered += 1
            return True
        finally:
            self.running -= 1
        if queued:
            queue.ack()
        else:  # counted as enqueued and acknowledged, never held
            queue.stats.enqueued += 1
            queue.stats.delivered += 1
        report.delivered += 1
        return True

    def replay_dead_letters(self, subscription: Subscription) -> int:
        """Re-drive one subscription's dead letters through its queue.

        The operator's recovery path: after the subscriber is fixed (or a
        backpressure-shed backlog is being drained back), its parked
        messages are re-enqueued (counted as redeliveries, with a fresh
        retry budget) and the next dispatch round delivers them in their
        original order, ahead of nothing — they rejoin at the tail like
        any other publication.  Returns how many messages were re-driven.
        """
        envelopes = self.dead_letter.take_for(subscription.subscription_id)
        for envelope in envelopes:
            subscription.queue.enqueue(envelope)
            subscription.queue.stats.redelivered += 1
        return len(envelopes)
