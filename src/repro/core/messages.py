"""Notification and detail messages — the two-message dichotomy of §4.

The paper's metaphor: a person's profile is a sequence of snapshots; the
*notification* is the photo's caption (who, what, when, where) and the
*detail* is the photo itself, which stays with its owner until permission
is granted.

* :class:`NotificationMessage` — identifying but not sensitive; distributed
  through the bus and stored (encrypted) in the events index.
* :class:`DetailMessage` — sensitive; persisted only at the producer's
  local cooperation gateway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MessageError
from repro.xmlmsg.document import XmlDocument, from_xml, to_xml


@dataclass(frozen=True)
class NotificationMessage:
    """The *who / what / when / where* summary of an event.

    ``event_id`` is the global artificial identifier assigned by the data
    controller; the producer-local id never circulates (it is resolved by
    the PIP during enforcement).  ``subject_ref`` is an opaque reference to
    the person; ``subject_display`` carries the identifying info authorized
    subscribers see.
    """

    event_id: str
    event_type: str
    producer_id: str          # where
    occurred_at: float        # when
    summary: str              # what
    subject_ref: str          # who (opaque reference)
    subject_display: str = "" # who (identifying info for authorized receivers)

    def __post_init__(self) -> None:
        if not self.event_id:
            raise MessageError("notification needs a global event id")
        if not self.event_type:
            raise MessageError("notification needs an event type")
        if not self.producer_id:
            raise MessageError("notification needs a producer id")
        if not self.subject_ref:
            raise MessageError("notification needs a subject reference")

    def to_document(self) -> XmlDocument:
        """Render as an :class:`~repro.xmlmsg.document.XmlDocument`."""
        return XmlDocument(
            "Notification",
            {
                "eventId": self.event_id,
                "eventType": self.event_type,
                "producerId": self.producer_id,
                "occurredAt": self.occurred_at,
                "summary": self.summary,
                "subjectRef": self.subject_ref,
                "subjectDisplay": self.subject_display or None,
            },
        )

    def to_xml(self) -> str:
        """Serialize to the XML wire form."""
        return to_xml(self.to_document())

    @classmethod
    def from_xml(cls, text: str) -> "NotificationMessage":
        """Parse the XML wire form, the inverse of :meth:`to_xml`: element
        text is kept as it is, and an empty element reads as ``""``."""
        doc = from_xml(text)
        if doc.schema_name != "Notification":
            raise MessageError(f"not a notification document: {doc.schema_name!r}")
        value = {name: raw or "" for name, raw in doc.items()}
        return cls(
            event_id=value["eventId"],
            event_type=value["eventType"],
            producer_id=value["producerId"],
            occurred_at=float(value["occurredAt"]),
            summary=value["summary"],
            subject_ref=value["subjectRef"],
            subject_display=value["subjectDisplay"],
        )


def notification_of(body: object) -> NotificationMessage:
    """The notification a bus body carries: the value the platform published,
    or a text body's parse — XML from outside, parsed afresh on every call,
    so a body that does not parse fails each delivery on its own."""
    if isinstance(body, NotificationMessage):
        return body
    return NotificationMessage.from_xml(str(body))


@dataclass(frozen=True)
class DetailMessage:
    """The full (possibly privacy-filtered) payload of an event.

    ``released_fields`` records which fields carry authorized values: on the
    producer side it is the full field set; after enforcement it is the
    policy's ``F``.  A detail message with ``released_fields`` smaller than
    its schema is a *privacy-aware event* (Fig. 4).
    """

    event_id: str
    event_type: str
    producer_id: str
    payload: XmlDocument = field(hash=False)
    released_fields: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.event_id:
            raise MessageError("detail message needs an event id")
        if self.payload.schema_name != self.event_type:
            raise MessageError(
                f"payload schema {self.payload.schema_name!r} does not match "
                f"event type {self.event_type!r}"
            )

    @property
    def is_filtered(self) -> bool:
        """Whether some fields were blanked by enforcement."""
        return len(self.released_fields) < len(self.payload)

    def exposed_values(self) -> dict[str, object]:
        """The non-empty field values this message actually discloses."""
        return {
            name: value for name, value in self.payload.fields.items() if value is not None
        }

    def to_xml(self) -> str:
        """Serialize the payload to XML (blanked fields become empty tags)."""
        return to_xml(self.payload)
