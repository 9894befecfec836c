"""Message envelopes.

Every payload crossing the bus travels inside an :class:`Envelope` carrying
its routing and provenance: message id, topic, sender and creation time.
Envelopes are immutable; redelivery metadata lives in the queues, not the
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import BusError


@dataclass(frozen=True)
class Envelope:
    """An immutable bus message."""

    message_id: str
    topic: str
    sender: str
    body: object
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.message_id:
            raise BusError("envelope needs a message id")
        if not self.topic:
            raise BusError("envelope needs a topic")
        if not self.sender:
            raise BusError("envelope needs a sender")

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
        return body_size + len(self.topic) + len(self.sender) + 64
