"""In-process enterprise service bus (ESB) substrate.

The paper's deployment customized Apache ServiceMix; the claims it makes
about the bus are architectural — asynchronous pub/sub decoupling, many
subscribers per event class, reliable delivery, plus synchronous SOA
endpoints for the request/response paths (detail requests, index inquiry).
This subpackage rebuilds that pattern in-process:

* :mod:`~repro.bus.envelope` — immutable message envelopes;
* :mod:`~repro.bus.topics` — hierarchical topics with ``*``/``#`` wildcards;
* :mod:`~repro.bus.subscriptions` — durable, named subscriptions;
* :mod:`~repro.bus.queue` — per-subscription FIFO queues with ack/nack;
* :mod:`~repro.bus.delivery` — at-least-once dispatch, retries, dead-letter;
* :mod:`~repro.bus.broker` — the :class:`~repro.bus.broker.ServiceBus`;
* :mod:`~repro.bus.endpoints` — synchronous service endpoints (SOA layer).
"""

from repro.bus.broker import ServiceBus
from repro.bus.delivery import MAX_ATTEMPTS, DeliveryReport
from repro.bus.endpoints import EndpointRegistry, ServiceEndpoint
from repro.bus.envelope import Envelope
from repro.bus.subscriptions import Subscription
from repro.bus.topics import Topic, topic_matches

__all__ = [
    "MAX_ATTEMPTS",
    "DeliveryReport",
    "EndpointRegistry",
    "Envelope",
    "ServiceBus",
    "ServiceEndpoint",
    "Subscription",
    "Topic",
    "topic_matches",
]
