"""The Local Cooperation Gateway — Algorithm 2 and detail persistence.

"These functionalities are encapsulated in the *local cooperation gateway*
provided as part of the CSS platform ... This module persists each detail
message notified so that they can be retrieved even when the source systems
are un-accessible" (§4).  Requests for details "may arrive ... even months
after the publication of the notification", so the gateway is the temporal
decoupling point between publication and retrieval.

Algorithm 2 (``getResponse(src_eID, F)``) runs here, *at the producer*:
fetch the stored detail, blank every field outside ``F``, and return the
privacy-aware event — "it is never the case that data not accessible by a
certain data consumer leaves the data producer" (§5).

The enforcement pipeline reaches a gateway only through the controller's
:class:`~repro.core.controller.EndpointDetailFetcher` — a SOA endpoint
call — so Algorithm 1 never holds a gateway itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import EventClass, EventOccurrence
from repro.core.messages import DetailMessage
from repro.exceptions import DetailNotFoundError, GatewayError, SourceUnavailableError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.validation import validate_document


@dataclass
class GatewayStats:
    """Counters for the persistence/availability ablation (A4)."""

    stored: int = 0
    served_from_cache: int = 0
    served_from_source: int = 0
    unavailable_failures: int = 0


class LocalCooperationGateway:
    """Producer-side detail store and enforcement endpoint.

    ``persistence_enabled`` exists for ablation A4: with it off, every
    retrieval goes to the live source system and fails while the source is
    offline — the failure mode the paper's design removes.
    """

    def __init__(self, producer_id: str, persistence_enabled: bool = True) -> None:
        if not producer_id:
            raise GatewayError("gateway needs its producer id")
        self.producer_id = producer_id
        self.persistence_enabled = persistence_enabled
        self._store: dict[str, tuple[EventClass, XmlDocument]] = {}
        self._source_online = True
        self.stats = GatewayStats()

    # -- source availability ------------------------------------------------

    def take_source_offline(self) -> None:
        """Simulate the source information system going down."""
        self._source_online = False

    def bring_source_online(self) -> None:
        """Restore the source information system."""
        self._source_online = True

    # -- persistence -------------------------------------------------------------

    def persist(self, occurrence: EventOccurrence) -> None:
        """Store the detail message of a notified event (publish path).

        The payload is validated against the class schema before storage —
        the gateway refuses to persist malformed details.
        """
        occurrence.validate()
        if occurrence.src_event_id in self._store:
            raise GatewayError(
                f"detail for {occurrence.src_event_id!r} already persisted"
            )
        self._store[occurrence.src_event_id] = (
            occurrence.event_class,
            occurrence.details,
        )
        self.stats.stored += 1

    def restore_detail(self, src_event_id: str, event_class: EventClass,
                       details: XmlDocument) -> None:
        """Re-insert an archived detail (archive-restore path).

        Validates like :meth:`persist` but takes the pieces directly, as
        the original :class:`~repro.core.events.EventOccurrence` metadata
        lives in the controller's id map, not the gateway.
        """
        validate_document(details, event_class.schema)
        if src_event_id in self._store:
            raise GatewayError(f"detail for {src_event_id!r} already persisted")
        self._store[src_event_id] = (event_class, details)
        self.stats.stored += 1

    def stored_entries(self) -> list[tuple[str, EventClass, XmlDocument]]:
        """Snapshot of the store for archiving."""
        return [
            (src_event_id, event_class, details)
            for src_event_id, (event_class, details) in self._store.items()
        ]

    def __contains__(self, src_event_id: str) -> bool:
        return src_event_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    # -- Algorithm 2 ----------------------------------------------------------------

    def get_event_details(self, src_event_id: str) -> tuple[EventClass, XmlDocument]:
        """Step 1 of Algorithm 2: retrieve the stored detail.

        With persistence enabled the gateway's own store answers even when
        the source is offline.  Without it, an offline source raises
        :class:`~repro.exceptions.SourceUnavailableError`.
        """
        if not self.persistence_enabled and not self._source_online:
            self.stats.unavailable_failures += 1
            raise SourceUnavailableError(
                f"source of {self.producer_id!r} is offline and the gateway "
                "has persistence disabled"
            )
        try:
            event_class, details = self._store[src_event_id]
        except KeyError as exc:
            raise DetailNotFoundError(
                f"no detail stored for source event {src_event_id!r}"
            ) from exc
        if self.persistence_enabled and not self._source_online:
            self.stats.served_from_cache += 1
        else:
            self.stats.served_from_source += 1
        return event_class, details

    def get_response(
        self, src_event_id: str, allowed_fields: frozenset[str] | set[str], event_id: str
    ) -> DetailMessage:
        """Algorithm 2: ``getResponse(src_eID, F) -> e`` with ``e ⊨ p``.

        Retrieves the detail and blanks every field outside
        ``allowed_fields`` (``parse(d, F)``), producing the privacy-aware
        event.  The detail was validated when it was stored, and a
        projection keeps its schema and keys and changes no value it
        releases, so it is not validated again: the wire schema is
        unchanged, only values are suppressed.
        """
        if not allowed_fields:
            raise GatewayError("refusing to build a response with an empty field set")
        event_class, details = self.get_event_details(src_event_id)
        filtered = details.project(frozenset(allowed_fields))
        released = tuple(
            name for name in filtered.non_empty_fields()
        )
        return DetailMessage(
            event_id=event_id,
            event_type=event_class.name,
            producer_id=self.producer_id,
            payload=filtered,
            released_fields=released,
        )
