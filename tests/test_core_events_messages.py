"""Unit tests for repro.core.events, repro.core.messages, repro.core.catalog,
and repro.core.idmap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import EventCatalog
from repro.core.events import EventClass, EventOccurrence
from repro.core.idmap import EventIdEntry, EventIdMap
from repro.core.messages import DetailMessage, NotificationMessage
from repro.exceptions import (
    DuplicateEventClassError,
    MessageError,
    SchemaError,
    UnknownEventClassError,
    UnknownEventError,
    ValidationError,
)
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType


def blood_schema() -> MessageSchema:
    return MessageSchema("BloodTest", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Hemoglobin", IntegerType(0, 30), sensitive=True),
        ElementDecl("Notes", StringType(), occurs=Occurs.OPTIONAL),
    ])


def blood_class(producer: str = "Hospital") -> EventClass:
    return EventClass(name="BloodTest", producer_id=producer, schema=blood_schema())


def occurrence(details: dict | None = None) -> EventOccurrence:
    payload = details or {"PatientId": "p1", "Hemoglobin": 14, "Notes": None}
    return EventOccurrence(
        event_class=blood_class(),
        src_event_id="src-1",
        subject_id="p1",
        subject_name="Mario Bianchi",
        occurred_at=10.0,
        summary="blood test done",
        details=XmlDocument("BloodTest", payload),
    )


class TestEventClass:
    def test_fields_and_flags(self):
        cls = blood_class()
        assert cls.fields == ("PatientId", "Hemoglobin", "Notes")
        assert cls.sensitive_fields == ("Hemoglobin",)

    def test_topic_derivation(self):
        assert blood_class().topic == "events.health.BloodTest"

    def test_schema_name_must_match(self):
        with pytest.raises(SchemaError):
            EventClass(name="Other", producer_id="H", schema=blood_schema())

    def test_needs_producer(self):
        with pytest.raises(SchemaError):
            EventClass(name="BloodTest", producer_id="", schema=blood_schema())


class TestEventOccurrence:
    def test_valid_occurrence(self):
        occurrence().validate()

    def test_detail_schema_mismatch_rejected(self):
        with pytest.raises(MessageError):
            EventOccurrence(
                event_class=blood_class(),
                src_event_id="s",
                subject_id="p",
                subject_name="n",
                occurred_at=0.0,
                summary="x",
                details=XmlDocument("Other", {}),
            )

    def test_validate_catches_bad_payload(self):
        bad = occurrence({"PatientId": "p1", "Hemoglobin": 99})
        with pytest.raises(ValidationError):
            bad.validate()

    def test_requires_ids(self):
        with pytest.raises(MessageError):
            EventOccurrence(
                event_class=blood_class(), src_event_id="", subject_id="p",
                subject_name="n", occurred_at=0.0, summary="x",
                details=XmlDocument("BloodTest", {}),
            )


#: Element text: empty, whitespace-only and markup-bearing strings, then
#: any text XML 1.0 carries — except ``\r``, which parsers turn into ``\n``.
TEXT = st.one_of(
    st.sampled_from(["", " ", " \t\n ", "<b>x</b> & y", "]]> \"q\" 'a'"]),
    st.text(st.characters(exclude_categories=("Cs", "Cc", "Cn"),
                          include_characters="\t\n"), max_size=20),
)


class TestNotificationMessage:
    def notification(self) -> NotificationMessage:
        return NotificationMessage(
            event_id="evt-1", event_type="BloodTest", producer_id="Hospital",
            occurred_at=12.5, summary="blood test done",
            subject_ref="p1", subject_display="Mario Bianchi",
        )

    def test_xml_round_trip(self):
        original = self.notification()
        parsed = NotificationMessage.from_xml(original.to_xml())
        assert parsed == original

    def test_round_trip_without_display(self):
        original = NotificationMessage(
            event_id="e", event_type="T", producer_id="P",
            occurred_at=0.0, summary="s", subject_ref="r",
        )
        assert NotificationMessage.from_xml(original.to_xml()) == original

    @given(st.builds(
        NotificationMessage,
        event_id=TEXT.filter(bool), event_type=TEXT.filter(bool),
        producer_id=TEXT.filter(bool), occurred_at=st.floats(allow_nan=False),
        summary=TEXT, subject_ref=TEXT.filter(bool), subject_display=TEXT))
    @settings(max_examples=80, deadline=None)
    def test_property_from_xml_inverts_to_xml(self, notification):
        assert NotificationMessage.from_xml(notification.to_xml()) == notification

    def test_wrong_document_rejected(self):
        with pytest.raises(MessageError):
            NotificationMessage.from_xml("<Other/>")

    def test_required_fields(self):
        with pytest.raises(MessageError):
            NotificationMessage(event_id="", event_type="T", producer_id="P",
                                occurred_at=0.0, summary="s", subject_ref="r")


class TestDetailMessage:
    def test_is_filtered(self):
        payload = XmlDocument("BloodTest", {"PatientId": "p", "Hemoglobin": None, "Notes": None})
        message = DetailMessage(
            event_id="e", event_type="BloodTest", producer_id="H",
            payload=payload, released_fields=("PatientId",),
        )
        assert message.is_filtered
        assert message.exposed_values() == {"PatientId": "p"}

    def test_unfiltered_message(self):
        payload = XmlDocument("BloodTest", {"PatientId": "p"})
        message = DetailMessage(
            event_id="e", event_type="BloodTest", producer_id="H",
            payload=payload, released_fields=("PatientId",),
        )
        assert not message.is_filtered

    def test_schema_mismatch_rejected(self):
        with pytest.raises(MessageError):
            DetailMessage(event_id="e", event_type="BloodTest", producer_id="H",
                          payload=XmlDocument("Other", {}))

    def test_to_xml_includes_blanked_fields(self):
        payload = XmlDocument("BloodTest", {"PatientId": "p", "Hemoglobin": None})
        message = DetailMessage(event_id="e", event_type="BloodTest",
                                producer_id="H", payload=payload)
        xml = message.to_xml()
        assert "Hemoglobin" in xml and "PatientId" in xml


class TestEventCatalog:
    def test_install_and_get(self):
        catalog = EventCatalog()
        catalog.install(blood_class())
        assert "BloodTest" in catalog
        assert catalog.get("BloodTest").producer_id == "Hospital"
        assert catalog.producer_of("BloodTest") == "Hospital"
        assert catalog.topic_of("BloodTest") == "events.health.BloodTest"

    def test_duplicate_rejected(self):
        catalog = EventCatalog()
        catalog.install(blood_class())
        with pytest.raises(DuplicateEventClassError):
            catalog.install(blood_class(producer="Other"))

    def test_unknown_rejected(self):
        with pytest.raises(UnknownEventClassError):
            EventCatalog().get("nope")

    def test_classes_of_producer(self):
        catalog = EventCatalog()
        catalog.install(blood_class())
        assert [c.name for c in catalog.classes_of("Hospital")] == ["BloodTest"]
        assert catalog.classes_of("Other") == []

    def test_browse_shows_structure_and_flags(self):
        catalog = EventCatalog()
        catalog.install(blood_class())
        listing = catalog.browse()
        assert "BloodTest" in listing
        assert "Hemoglobin" in listing
        assert "sensitive" in listing
        assert "identifying" in listing


class TestEventIdMap:
    def entry(self, event_id: str = "evt-1") -> EventIdEntry:
        return EventIdEntry(
            event_id=event_id, producer_id="Hospital", src_event_id="src-9",
            event_type="BloodTest", subject_ref="p1", published_at=5.0,
        )

    def test_record_and_resolve(self):
        id_map = EventIdMap()
        id_map.record(self.entry())
        resolved = id_map.resolve("evt-1")
        assert resolved.src_event_id == "src-9"
        assert resolved.producer_id == "Hospital"
        assert "evt-1" in id_map and len(id_map) == 1

    def test_duplicate_global_id_rejected(self):
        id_map = EventIdMap()
        id_map.record(self.entry())
        with pytest.raises(UnknownEventError):
            id_map.record(self.entry())

    def test_resolve_unknown_rejected(self):
        with pytest.raises(UnknownEventError):
            EventIdMap().resolve("nope")

    def test_entries_for_subject(self):
        id_map = EventIdMap()
        id_map.record(self.entry("evt-1"))
        assert len(id_map.entries_for_subject("p1")) == 1
        assert id_map.entries_for_subject("p2") == []
