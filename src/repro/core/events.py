"""Event classes and event occurrences.

Definition 1 of the paper: a data producer :math:`D_i` generates *classes of
event details* :math:`E(D_i) = \\{D_i.e_1, ..., D_i.e_n\\}`, each a list of
fields :math:`e = \\{f_1, ..., f_k\\}`.  An :class:`EventClass` pairs the
producer with a :class:`~repro.xmlmsg.schema.MessageSchema` describing those
fields; an :class:`EventOccurrence` is one concrete event at the source,
before it is split into notification and detail messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MessageError, SchemaError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import MessageSchema
from repro.xmlmsg.validation import validate_document

#: Topic prefix under which event-class topics are declared on the bus.
TOPIC_PREFIX = "events"


@dataclass(frozen=True)
class EventClass:
    """A type of event details a producer can generate (``D.e_j``)."""

    name: str
    producer_id: str
    schema: MessageSchema
    category: str = "health"
    description: str = ""
    version: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"illegal event class name {self.name!r}")
        if self.schema.name != self.name:
            raise SchemaError(
                f"schema name {self.schema.name!r} must equal event class name {self.name!r}"
            )
        if not self.producer_id:
            raise SchemaError("event class needs a producer id")
        if self.version < 1:
            raise SchemaError("event class version must be at least 1")

    @property
    def fields(self) -> tuple[str, ...]:
        """The field list ``{f1, ..., fk}`` of Def. 1."""
        return self.schema.field_names

    @property
    def sensitive_fields(self) -> tuple[str, ...]:
        """Fields flagged sensitive in the schema."""
        return self.schema.sensitive_fields

    @property
    def topic(self) -> str:
        """The bus topic notifications of this class are published on."""
        return f"{TOPIC_PREFIX}.{self.category}.{self.name}"


@dataclass(frozen=True)
class EventOccurrence:
    """One concrete event at the source, before message splitting.

    ``src_event_id`` is the producer-local identifier (``src_eID``);
    ``subject_id`` identifies the data subject (the patient/citizen);
    ``summary`` is the short *what* description that goes into the
    notification; ``details`` is the full field payload.
    """

    event_class: EventClass
    src_event_id: str
    subject_id: str
    subject_name: str
    occurred_at: float
    summary: str
    details: XmlDocument = field(hash=False)

    def __post_init__(self) -> None:
        if not self.src_event_id:
            raise MessageError("event occurrence needs a source event id")
        if not self.subject_id:
            raise MessageError("event occurrence needs a data subject id")
        if self.details.schema_name != self.event_class.name:
            raise MessageError(
                f"details document is a {self.details.schema_name!r}, "
                f"expected {self.event_class.name!r}"
            )

    def validate(self) -> None:
        """Validate the detail payload against the class schema."""
        validate_document(self.details, self.event_class.schema)
