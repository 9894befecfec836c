"""A4 availability regression through the detail fetcher.

The paper's gateway persists every published detail so requests keep
working "even months after the publication", source downtime included
(§4).  The enforcer reaches gateways only through its fetcher; these
tests pin that the availability guarantee — and its ``GatewayStats``
accounting — holds for both the controller's endpoint fetcher
(:class:`~repro.core.controller.EndpointDetailFetcher`) and the direct
in-process test fake (``tests/conftest.py::DirectDetailFetcher``).
"""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.controller import EndpointDetailFetcher
from repro.core.gateway import LocalCooperationGateway
from repro.exceptions import SourceUnavailableError, UnknownProducerError
from tests.conftest import DirectDetailFetcher, blood_test_schema


def build_world(persistence_enabled: bool = True):
    controller = DataController(seed="a4")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    hospital.gateway.persistence_enabled = persistence_enabled
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    doctor.subscribe("BloodTest")
    return controller, hospital, blood, doctor


def publish(hospital, blood, subject="p1"):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi", summary="done",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


class TestAvailabilityThroughFetcher:
    def test_detail_served_from_gateway_store_while_source_offline(self):
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        hospital.gateway.take_source_offline()
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()["PatientId"] == "p1"
        stats = hospital.gateway.stats
        assert stats.stored == 1
        assert stats.served_from_cache == 1
        assert stats.unavailable_failures == 0

    def test_without_persistence_offline_source_fails_loud(self):
        controller, hospital, blood, doctor = build_world(persistence_enabled=False)
        notification = publish(hospital, blood)
        hospital.gateway.take_source_offline()
        with pytest.raises(SourceUnavailableError):
            doctor.request_details(notification, "healthcare-treatment")
        assert hospital.gateway.stats.unavailable_failures == 1
        assert controller.enforcer.stats.gateway_failures == 1

    def test_endpoint_outage_maps_to_source_unavailable(self):
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        controller.endpoints.get("gateway.Hospital.getResponse").take_offline()
        with pytest.raises(SourceUnavailableError):
            doctor.request_details(notification, "healthcare-treatment")

    def test_endpoint_fetcher_counts_calls_in_the_soa_layer(self):
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        endpoint = controller.endpoints.get("gateway.Hospital.getResponse")
        before = endpoint.stats.calls
        doctor.request_details(notification, "healthcare-treatment")
        assert endpoint.stats.calls == before + 1


class TestFetcherImplementations:
    def test_endpoint_fetcher_rejects_unknown_producer(self):
        controller, hospital, blood, doctor = build_world()
        fetcher = EndpointDetailFetcher(controller.endpoints, controller.gateway_of)
        with pytest.raises(UnknownProducerError):
            fetcher.fetch("Nowhere-Clinic", "src-1", ["PatientId"], "evt-1")

    def test_direct_fetcher_runs_algorithm_2_without_the_endpoint_hop(self):
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        entry = controller.id_map.resolve(notification.event_id)
        fetcher = DirectDetailFetcher(controller.gateway_of)
        endpoint = controller.endpoints.get("gateway.Hospital.getResponse")
        before = endpoint.stats.calls
        detail = fetcher.fetch("Hospital", entry.src_event_id,
                               ["PatientId", "Hemoglobin"], notification.event_id)
        assert endpoint.stats.calls == before  # no SOA call was made
        exposed = detail.exposed_values()
        assert set(exposed) == {"PatientId", "Hemoglobin"}

    def test_direct_fetcher_still_filters_fields_at_the_producer(self):
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        entry = controller.id_map.resolve(notification.event_id)
        fetcher = DirectDetailFetcher(controller.gateway_of)
        detail = fetcher.fetch("Hospital", entry.src_event_id,
                               ["Hemoglobin"], notification.event_id)
        assert "PatientId" not in detail.exposed_values()
        assert "HivResult" not in detail.exposed_values()


class TestTemporalDecoupling:
    def test_months_later_request_after_gateway_reattach(self):
        """A restarted gateway with restored details keeps serving (A4)."""
        controller, hospital, blood, doctor = build_world()
        notification = publish(hospital, blood)
        original = hospital.gateway

        replacement = LocalCooperationGateway("Hospital")
        for src_event_id, event_class, details in original.stored_entries():
            replacement.restore_detail(src_event_id, event_class, details)
        replacement.take_source_offline()
        controller.attach_gateway("Hospital", replacement)

        from repro.clock import MONTH
        controller.clock.advance(3 * MONTH)
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()["Hemoglobin"] == 14.0
        assert replacement.stats.served_from_cache == 1
