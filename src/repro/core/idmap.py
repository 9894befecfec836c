"""Global ↔ local event identifier mapping.

"The event identifier distributed in the notification messages (eID) is a
global artificial identifier generated by the data controller to identify
the events independently from their data producers" (paper §5.2, step 1 of
Algorithm 1).  The :class:`EventIdMap` is the PIP's backing store: it
resolves a global ``eID`` into the producer, the producer-local
``src_eID``, the event type and the subject reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.exceptions import UnknownEventError


@dataclass(frozen=True)
class EventIdEntry:
    """What the data controller remembers about one published event."""

    event_id: str
    producer_id: str
    src_event_id: str
    event_type: str
    subject_ref: str
    published_at: float


class EventIdMap:
    """Map from each global event id to its producer-local origin."""

    def __init__(self) -> None:
        self._by_global: dict[str, EventIdEntry] = {}

    def __len__(self) -> int:
        return len(self._by_global)

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._by_global

    def record(self, entry: EventIdEntry) -> None:
        """Store the mapping for a newly published event."""
        if entry.event_id in self._by_global:
            raise UnknownEventError(f"event id {entry.event_id!r} already mapped")
        self._by_global[entry.event_id] = entry

    def resolve(self, event_id: str) -> EventIdEntry:
        """``retrieveEventProducerId(eID)`` of Algorithm 1."""
        try:
            return self._by_global[event_id]
        except KeyError as exc:
            raise UnknownEventError(f"unknown global event id {event_id!r}") from exc

    def entries(self) -> Iterator[EventIdEntry]:
        """Every mapping, in publication order (archiving, analytics)."""
        return iter(self._by_global.values())

    def entries_for_subject(self, subject_ref: str) -> list[EventIdEntry]:
        """Every mapped event about one data subject (subject reports)."""
        return [
            entry for entry in self._by_global.values() if entry.subject_ref == subject_ref
        ]
