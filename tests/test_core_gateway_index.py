"""Unit tests for the local cooperation gateway (Algorithm 2) and the
events index."""

import pytest
from hypothesis import given, strategies as st

from repro.core.events import EventClass, EventOccurrence
from repro.core.gateway import LocalCooperationGateway
from repro.core.index import (
    EventsIndex,
    entry_fields,
    sealed_entry,
    sealed_fields,
)
from repro.core.messages import NotificationMessage
from repro.crypto.keystore import KeyStore
from repro.exceptions import (
    DetailNotFoundError,
    GatewayError,
    SourceUnavailableError,
    UnknownEventError,
    ValidationError,
)
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType


def blood_class() -> EventClass:
    schema = MessageSchema("BloodTest", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Hemoglobin", IntegerType(0, 30), sensitive=True),
        ElementDecl("Notes", StringType(), occurs=Occurs.OPTIONAL),
    ])
    return EventClass(name="BloodTest", producer_id="Hospital", schema=schema)


def occurrence(src_id: str = "src-1") -> EventOccurrence:
    return EventOccurrence(
        event_class=blood_class(),
        src_event_id=src_id,
        subject_id="p1",
        subject_name="Mario",
        occurred_at=1.0,
        summary="done",
        details=XmlDocument("BloodTest", {"PatientId": "p1", "Hemoglobin": 14, "Notes": "ok"}),
    )


class TestGatewayPersistence:
    def test_persist_and_contains(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        assert "src-1" in gateway
        assert len(gateway) == 1
        assert gateway.stats.stored == 1

    def test_persist_validates_payload(self):
        gateway = LocalCooperationGateway("Hospital")
        bad = EventOccurrence(
            event_class=blood_class(), src_event_id="s", subject_id="p",
            subject_name="n", occurred_at=0.0, summary="x",
            details=XmlDocument("BloodTest", {"PatientId": "p", "Hemoglobin": 999}),
        )
        with pytest.raises(ValidationError):
            gateway.persist(bad)

    def test_double_persist_rejected(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        with pytest.raises(GatewayError):
            gateway.persist(occurrence())

    def test_missing_detail_rejected(self):
        gateway = LocalCooperationGateway("Hospital")
        with pytest.raises(DetailNotFoundError):
            gateway.get_event_details("missing")


class TestAlgorithm2:
    def test_get_response_filters_fields(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        detail = gateway.get_response("src-1", {"PatientId"}, event_id="evt-1")
        assert detail.exposed_values() == {"PatientId": "p1"}
        assert detail.released_fields == ("PatientId",)
        assert detail.is_filtered
        assert detail.event_id == "evt-1"

    def test_get_response_full_fields(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        detail = gateway.get_response(
            "src-1", {"PatientId", "Hemoglobin", "Notes"}, event_id="evt-1"
        )
        assert detail.exposed_values() == {"PatientId": "p1", "Hemoglobin": 14, "Notes": "ok"}

    def test_get_response_empty_fields_rejected(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        with pytest.raises(GatewayError):
            gateway.get_response("src-1", set(), event_id="e")

    def test_unknown_fields_in_policy_are_harmless(self):
        # A policy may name fields the event instance left empty.
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        detail = gateway.get_response("src-1", {"PatientId", "Bogus"}, event_id="e")
        assert detail.exposed_values() == {"PatientId": "p1"}


class TestSourceAvailability:
    def test_persistence_survives_source_downtime(self):
        gateway = LocalCooperationGateway("Hospital")
        gateway.persist(occurrence())
        gateway.take_source_offline()
        detail = gateway.get_response("src-1", {"PatientId"}, event_id="e")
        assert detail.exposed_values() == {"PatientId": "p1"}
        assert gateway.stats.served_from_cache == 1

    def test_without_persistence_offline_source_fails(self):
        gateway = LocalCooperationGateway("Hospital", persistence_enabled=False)
        gateway.persist(occurrence())
        gateway.take_source_offline()
        with pytest.raises(SourceUnavailableError):
            gateway.get_response("src-1", {"PatientId"}, event_id="e")
        assert gateway.stats.unavailable_failures == 1

    def test_bring_source_online_restores(self):
        gateway = LocalCooperationGateway("Hospital", persistence_enabled=False)
        gateway.persist(occurrence())
        gateway.take_source_offline()
        gateway.bring_source_online()
        assert gateway.get_response("src-1", {"PatientId"}, event_id="e")


def notification(event_id: str = "evt-1", event_type: str = "BloodTest",
                 occurred_at: float = 10.0,
                 subject_ref: str = "p1") -> NotificationMessage:
    return NotificationMessage(
        event_id=event_id, event_type=event_type, producer_id="Hospital",
        occurred_at=occurred_at, summary="done", subject_ref=subject_ref,
        subject_display="Mario Bianchi",
    )


@pytest.fixture()
def index() -> EventsIndex:
    return EventsIndex(KeyStore("test-secret"))


class TestEventsIndex:
    def test_store_and_get_round_trip(self, index):
        index.store(notification())
        fetched = index.get("evt-1")
        assert fetched.subject_ref == "p1"
        assert fetched.subject_display == "Mario Bianchi"
        assert fetched.event_type == "BloodTest"
        assert "evt-1" in index and len(index) == 1

    def test_identity_is_encrypted_at_rest(self, index):
        index.store(notification())
        obj = index.registry.get("evt-1")
        assert obj.slot_value("subjectRef") != "p1"
        assert "Mario" not in (obj.slot_value("subjectDisplay") or "")

    def test_plaintext_mode_for_ablation(self):
        index = EventsIndex(KeyStore("s"), encrypt_identity=False)
        index.store(notification())
        assert index.registry.get("evt-1").slot_value("subjectRef") == "p1"
        assert index.stats.seal_operations == 0

    def test_get_unknown_rejected(self, index):
        with pytest.raises(UnknownEventError):
            index.get("nope")

    def test_inquire_by_type(self, index):
        index.store(notification("e1", "BloodTest"))
        index.store(notification("e2", "HomeCare"))
        results = index.inquire(["BloodTest"])
        assert [n.event_id for n in results] == ["e1"]

    def test_inquire_multiple_types_sorted_by_time(self, index):
        index.store(notification("e1", "BloodTest", occurred_at=30.0))
        index.store(notification("e2", "HomeCare", occurred_at=10.0))
        results = index.inquire(["BloodTest", "HomeCare"])
        assert [n.event_id for n in results] == ["e2", "e1"]

    def test_inquire_time_window(self, index):
        index.store(notification("e1", occurred_at=10.0))
        index.store(notification("e2", occurred_at=20.0))
        index.store(notification("e3", occurred_at=30.0))
        results = index.inquire(["BloodTest"], since=15.0, until=25.0)
        assert [n.event_id for n in results] == ["e2"]

    def test_inquire_by_producer(self, index):
        index.store(notification("e1"))
        assert index.inquire(["BloodTest"], producer_id="Hospital")
        assert index.inquire(["BloodTest"], producer_id="Other") == []

    def test_inquire_decrypts_identity(self, index):
        index.store(notification())
        result = index.inquire(["BloodTest"])[0]
        assert result.subject_ref == "p1"

    def test_count_for_type(self, index):
        index.store(notification("e1"))
        index.store(notification("e2"))
        assert index.count_for_type("BloodTest") == 2
        assert index.count_for_type("Other") == 0


_text = st.text(min_size=1, max_size=12)
#: The occurredAt slot keeps microseconds, so whole microseconds round-trip.
notifications = st.builds(
    NotificationMessage,
    event_id=_text, event_type=_text, producer_id=_text, summary=_text,
    occurred_at=st.integers(0, 10**12).map(lambda micros: micros / 1_000_000),
    subject_ref=_text, subject_display=st.text(max_size=12),
)


class TestEntryCodec:
    """The one index-entry codec: notification → flat sealed fields →
    registry object → flat fields → notification."""

    @given(notifications, st.booleans())
    def test_fields_survive_the_registry_object(self, drawn, encrypt):
        index = EventsIndex(KeyStore("test-secret"), encrypt_identity=encrypt)
        fields = sealed_fields(drawn, index.seal_identity(drawn))
        assert entry_fields(sealed_entry(**fields)) == fields
        if encrypt:
            assert fields["subject_ref"] != drawn.subject_ref

    @given(notifications, st.booleans())
    def test_an_opened_entry_is_the_stored_notification(self, drawn, encrypt):
        index = EventsIndex(KeyStore("test-secret"), encrypt_identity=encrypt)
        obj = index.store(drawn)
        assert (index.open_entry(entry_fields(obj))
                == index.get(obj.object_id) == drawn)
