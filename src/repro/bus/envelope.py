"""Message envelopes.

Every payload crossing the bus travels inside an :class:`Envelope` carrying
routing and provenance headers: message id, topic, sender, creation time,
correlation id (ties a detail response back to its request), content type,
and free-form headers.  Envelopes are immutable; redelivery metadata lives
in the queues, not the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.exceptions import BusError


@dataclass(frozen=True)
class Envelope:
    """An immutable bus message."""

    message_id: str
    topic: str
    sender: str
    body: object
    created_at: float = 0.0
    correlation_id: str | None = None
    content_type: str = "application/xml"
    headers: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.message_id:
            raise BusError("envelope needs a message id")
        if not self.topic:
            raise BusError("envelope needs a topic")
        if not self.sender:
            raise BusError("envelope needs a sender")

    def header(self, name: str, default: str | None = None) -> str | None:
        """Return header ``name`` or ``default``."""
        return self.headers.get(name, default)

    def with_topic(self, topic: str) -> "Envelope":
        """Copy of this envelope re-addressed to ``topic`` (for re-routing)."""
        return replace(self, topic=topic, headers=dict(self.headers))

    def size_estimate(self) -> int:
        """Rough wire-size of the envelope in bytes.

        Used by the benchmarks to compare bytes-on-the-wire between the
        two-phase protocol and the full-push baseline; precision is not the
        point, proportionality is.
        """
        body = self.body
        if isinstance(body, (bytes, bytearray)):
            body_size = len(body)
        elif isinstance(body, str):
            body_size = len(body.encode())
        else:
            body_size = len(repr(body).encode())
        header_size = sum(len(k) + len(v) for k, v in self.headers.items())
        return body_size + header_size + len(self.topic) + len(self.sender) + 64
