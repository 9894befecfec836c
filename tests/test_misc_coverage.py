"""Smaller behaviours not exercised elsewhere: the exception hierarchy,
delivery reports, envelope edge cases, disclosure-row rendering, client
helper methods and domain objects."""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.bus.delivery import DeliveryReport
from repro.bus.envelope import Envelope
from repro.exceptions import (
    AccessDeniedError,
    BusError,
    CatalogError,
    ContractError,
    CryptoError,
    CssError,
    DuplicateEventClassError,
    GatewayError,
    PolicyError,
    PrivacyError,
    RegistryError,
    SourceUnavailableError,
    TokenError,
    UnknownEventClassError,
)
from repro.sim.domain import Patient
from tests.conftest import blood_test_schema


class TestExceptionHierarchy:
    def test_everything_derives_from_css_error(self):
        for exc_type in (CatalogError, ContractError, BusError, CryptoError,
                         PrivacyError, RegistryError, GatewayError):
            assert issubclass(exc_type, CssError)

    def test_specific_errors_nest_correctly(self):
        assert issubclass(UnknownEventClassError, CatalogError)
        assert issubclass(DuplicateEventClassError, CatalogError)
        assert issubclass(AccessDeniedError, PrivacyError)
        assert issubclass(PolicyError, PrivacyError)
        assert issubclass(TokenError, CryptoError)
        assert issubclass(SourceUnavailableError, GatewayError)

    def test_access_denied_carries_reason_and_request(self):
        error = AccessDeniedError("nope", request="the-request")
        assert error.reason == "nope"
        assert error.request == "the-request"

    def test_catching_css_error_catches_everything(self):
        with pytest.raises(CssError):
            raise AccessDeniedError("x")


class TestDeliveryReport:
    def test_merge_accumulates(self):
        total = DeliveryReport(delivered=1, failed=2, dead_lettered=0,
                               errors=["a"])
        total.merge(DeliveryReport(delivered=3, failed=1, dead_lettered=2,
                                   errors=["b", "c"]))
        assert total.delivered == 4
        assert total.failed == 3
        assert total.dead_lettered == 2
        assert total.errors == ["a", "b", "c"]


class TestEnvelopeEdgeCases:
    def test_size_estimate_for_object_body(self):
        env = Envelope(message_id="m", topic="t", sender="s",
                       body={"a": 1, "b": [1, 2, 3]})
        assert env.size_estimate() > 20


class TestPatient:
    def test_age_at(self):
        patient = Patient("pat-1", "Anna Conti", 1940, "Trento")
        assert patient.age_at(2010) == 70
        assert patient.age_at(2020) == 80


class TestClientHelpers:
    @pytest.fixture()
    def world(self):
        controller = DataController(seed="helpers")
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                              role="family-doctor")
        hospital.define_policy(
            "BloodTest", fields=["PatientId"],
            consumers=[("family-doctor", "role")],
            purposes=["healthcare-treatment"])
        doctor.subscribe("BloodTest")
        return controller, hospital, blood, doctor

    def test_src_event_ids_are_sequential_and_scoped(self, world):
        controller, hospital, blood, doctor = world
        first = hospital.next_src_event_id()
        second = hospital.next_src_event_id()
        assert first != second
        assert first.startswith("Hospital:src-")

    def test_notifications_of_type_and_clear_inbox(self, world):
        controller, hospital, blood, doctor = world
        hospital.publish(blood, subject_id="p1", subject_name="M B", summary="s",
                         details={"PatientId": "p1", "Name": "M",
                                  "Hemoglobin": 14.0, "Glucose": 90.0,
                                  "HivResult": "negative"})
        assert len(doctor.notifications_of_type("BloodTest")) == 1
        assert doctor.notifications_of_type("Other") == []
        doctor.clear_inbox()
        assert doctor.inbox == []

    def test_is_subscribed_to(self, world):
        controller, hospital, blood, doctor = world
        assert doctor.is_subscribed_to("BloodTest")
        assert not doctor.is_subscribed_to("Other")

    def test_browse_catalog_from_consumer(self, world):
        controller, hospital, blood, doctor = world
        assert "BloodTest" in doctor.browse_catalog()

    def test_explicit_src_event_id(self, world):
        controller, hospital, blood, doctor = world
        hospital.publish(blood, subject_id="p1", subject_name="M B", summary="s",
                         src_event_id="custom-id-9",
                         details={"PatientId": "p1", "Name": "M",
                                  "Hemoglobin": 14.0, "Glucose": 90.0,
                                  "HivResult": "negative"})
        assert "custom-id-9" in hospital.gateway

    def test_consent_registry_of(self, world):
        controller, hospital, blood, doctor = world
        assert controller.consent_registry_of("Hospital") is hospital.consent
        assert controller.consent_registry_of("Nobody") is None

    def test_gateway_of_unknown_producer(self, world):
        controller, *_ = world
        from repro.exceptions import UnknownProducerError

        with pytest.raises(UnknownProducerError):
            controller.gateway_of("Nobody")
