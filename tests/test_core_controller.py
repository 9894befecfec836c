"""Integration tests for the DataController facade and the party clients."""

import pytest

from repro import (
    ActorKind,
    ConsentScope,
    DataConsumer,
    DataController,
    DataProducer,
    ElementDecl,
    MessageSchema,
    StringType,
)
from repro.audit.log import AuditAction, AuditOutcome
from repro.audit.query import AuditQuery
from repro.core.enforcement import DetailRequest
from repro.core.messages import NotificationMessage
from repro.exceptions import (
    AccessDeniedError,
    ConfigurationError,
    ContractInactiveError,
    NotRegisteredError,
    SourceUnavailableError,
    UnknownProducerError,
)
from repro.core.policy import PrivacyPolicy


class TestJoining:
    def test_join_records_contract_and_audit(self, platform_small):
        controller = platform_small.controller
        assert "Hospital-S-Maria" in controller.contracts
        joins = AuditQuery().by_action(AuditAction.JOIN).count(controller.audit_log)
        assert joins == 3  # hospital + two consumers

    def test_unregistered_party_cannot_publish(self):
        controller = DataController()
        with pytest.raises(NotRegisteredError):
            controller.declare_event_class("Ghost", None)  # type: ignore[arg-type]

    def test_producer_kind_enforced(self, platform_small):
        with pytest.raises(ContractInactiveError):
            platform_small.controller.contracts.require_active(
                "FamilyDoctors/Dr-Rossi", 0.0, must_produce=True
            )

    def test_consumer_client_requires_consuming_kind(self, platform_small):
        with pytest.raises(ConfigurationError):
            DataConsumer(platform_small.controller, "X", "X", kind=ActorKind.PRODUCER)

    def test_producer_client_requires_producing_kind(self, platform_small):
        with pytest.raises(ConfigurationError):
            DataProducer(platform_small.controller, "Y", "Y", kind=ActorKind.CONSUMER)

    def test_suspended_contract_blocks_operations(self, platform_small):
        platform_small.controller.contracts.suspend("Hospital-S-Maria")
        with pytest.raises(ContractInactiveError):
            platform_small.publish_blood_test()


class TestDeclareAndPublish:
    def test_declaration_installs_catalog_and_topic(self, platform_small):
        controller = platform_small.controller
        assert "BloodTest" in controller.catalog
        assert controller.bus.topics.exists("events.health.BloodTest")

    def test_cannot_declare_for_another_producer(self, platform_small):
        from repro.core.events import EventClass

        foreign = EventClass(name="Foreign", producer_id="SomeoneElse",
                             schema=MessageSchema("Foreign", [ElementDecl("a", StringType())]))
        with pytest.raises(UnknownProducerError):
            platform_small.controller.declare_event_class("Hospital-S-Maria", foreign)

    def test_publish_assigns_global_id_and_indexes(self, platform_small):
        notification = platform_small.publish_blood_test()
        controller = platform_small.controller
        assert notification.event_id in controller.index
        entry = controller.id_map.resolve(notification.event_id)
        assert entry.producer_id == "Hospital-S-Maria"
        assert entry.src_event_id != notification.event_id  # global id is artificial

    def test_publish_persists_detail_at_gateway(self, platform_small):
        platform_small.publish_blood_test()
        assert len(platform_small.hospital.gateway) == 1

    def test_publish_delivers_to_subscribers(self, platform_small):
        platform_small.publish_blood_test()
        assert len(platform_small.doctor.inbox) == 1
        assert len(platform_small.statistics.inbox) == 1
        assert platform_small.doctor.inbox[0].event_type == "BloodTest"

    def test_publish_validates_payload(self, platform_small):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            platform_small.hospital.publish(
                platform_small.blood_class,
                subject_id="p", subject_name="n", summary="s",
                details={"PatientId": "p"},  # missing required fields
            )

    def test_notifications_carry_identity_for_authorized_subscribers(self, platform_small):
        platform_small.publish_blood_test(name="Luisa Verdi")
        assert platform_small.doctor.inbox[0].subject_display == "Luisa Verdi"


class TestUndecodableNotification:
    def test_fails_for_every_subscriber_and_nothing_is_retained(
            self, platform_small, monkeypatch):
        """A body that does not parse is a failed delivery of each
        subscription on its own: retried to its budget, then dead-lettered
        per subscription, the parse attempted afresh every time."""
        parses = []
        from_xml = NotificationMessage.from_xml.__func__
        monkeypatch.setattr(NotificationMessage, "from_xml", classmethod(
            lambda cls, text: parses.append(text) or from_xml(cls, text)))
        bus = platform_small.controller.bus
        bus.publish(platform_small.blood_class.topic,
                    "Hospital-S-Maria", "<Notification><eventId>")
        report = bus.dispatch()  # the publish ran round one
        assert (report.delivered, report.failed, report.dead_lettered) == (0, 2, 0)
        report = bus.dispatch()
        assert (report.delivered, report.failed, report.dead_lettered) == (0, 2, 2)
        assert len(parses) == 6  # 2 subscribers x MAX_ATTEMPTS, none reused
        assert bus.dead_letter_counts() == {platform_small.blood_class.topic: 2}
        assert bus.pending_messages() == 0
        assert platform_small.doctor.inbox == platform_small.statistics.inbox == []
        notified = (AuditQuery().by_action(AuditAction.NOTIFY)
                    .count(platform_small.controller.audit_log))
        assert notified == 0

    def test_a_well_formed_document_that_is_no_notification_is_not_retained(
            self, platform_small):
        bus = platform_small.controller.bus
        body = platform_small.publish_blood_test().to_xml().replace(
            "Notification>", "Notice>")
        bus.publish(platform_small.blood_class.topic, "Hospital-S-Maria", body)
        assert bus.dispatch().failed == 2  # round two, as many as round one


class TestSubscriptionGating:
    def test_unauthorized_subscription_queues_pending_request(self, platform_small):
        newcomer = DataConsumer(platform_small.controller, "Newcomer", "Newcomer")
        with pytest.raises(AccessDeniedError, match="pending"):
            newcomer.subscribe("BloodTest")
        pending = platform_small.hospital.pending_access_requests()
        assert len(pending) == 1
        assert pending[0].consumer_id == "Newcomer"

    def test_granting_pending_request_enables_subscription(self, platform_small):
        newcomer = DataConsumer(platform_small.controller, "Newcomer", "Newcomer")
        with pytest.raises(AccessDeniedError):
            newcomer.subscribe("BloodTest")
        request = platform_small.hospital.pending_access_requests()[0]
        platform_small.hospital.grant_pending_request(
            request, fields=["PatientId"], purposes=["administration"],
        )
        newcomer.subscribe("BloodTest")
        platform_small.publish_blood_test()
        assert len(newcomer.inbox) == 1

    def test_subscription_denial_is_audited(self, platform_small):
        newcomer = DataConsumer(platform_small.controller, "Newcomer", "Newcomer")
        with pytest.raises(AccessDeniedError):
            newcomer.subscribe("BloodTest")
        denied = (AuditQuery().by_actor("Newcomer")
                  .by_action(AuditAction.SUBSCRIBE)
                  .by_outcome(AuditOutcome.DENY)
                  .count(platform_small.controller.audit_log))
        assert denied == 1


class TestSubscriptionGateReadsTheClock:
    """The subscription gate and the index inquiry read validity windows at
    the clock's time, as a request for details does."""

    def test_a_grant_valid_now_admits_subscription_and_inquiry(self, platform_small):
        controller, hospital = platform_small.controller, platform_small.hospital
        nurse = DataConsumer(controller, "Ward/Nurse-1", "Nurse", role="nurse")
        hospital.define_policy(
            "BloodTest", fields=["Hemoglobin"], consumers=[("nurse", "role")],
            purposes=["healthcare-treatment"], valid_from=100.0, valid_until=1000.0)
        controller.clock.advance(200.0)
        nurse.subscribe("BloodTest")
        notification = platform_small.publish_blood_test()
        assert [n.event_id for n in nurse.inbox] == [notification.event_id]
        assert [n.event_id for n in nurse.inquire_index(["BloodTest"])] == [
            notification.event_id]
        detail = nurse.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values() == {"Hemoglobin": 14.0}
        controller.clock.advance(900.0)  # past the window: all three refuse
        assert nurse.inquire_index(["BloodTest"]) == []
        with pytest.raises(AccessDeniedError, match="no matching policy"):
            nurse.request_details(notification, "healthcare-treatment")
        with pytest.raises(AccessDeniedError, match="pending"):
            nurse.subscribe("BloodTest")

    def test_an_expired_restriction_no_longer_vetoes(self, platform_small):
        controller, hospital = platform_small.controller, platform_small.hospital
        verdi = DataConsumer(controller, "Clinic/Dr-Verdi", "Dr. Verdi")
        hospital.define_policy(
            "BloodTest", fields=["PatientId"], consumers=[("Clinic", "unit")],
            purposes=["healthcare-treatment"])
        controller.policies.add(PrivacyPolicy(
            policy_id="veto-verdi", producer_id="Hospital-S-Maria",
            event_type="BloodTest", fields=frozenset(),
            purposes=frozenset({"healthcare-treatment"}),
            actor_id="Clinic/Dr-Verdi", valid_until=50.0, deny=True))
        with pytest.raises(AccessDeniedError, match="pending"):
            verdi.subscribe("BloodTest")
        controller.clock.advance(200.0)
        verdi.subscribe("BloodTest")
        notification = platform_small.publish_blood_test()
        assert [n.event_id for n in verdi.inquire_index(["BloodTest"])] == [
            notification.event_id]
        detail = verdi.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values() == {"PatientId": "pat-1"}


class TestRequestDetails:
    def test_doctor_gets_granted_fields_only(self, platform_small):
        notification = platform_small.publish_blood_test()
        detail = platform_small.doctor.request_details(notification, "healthcare-treatment")
        assert set(detail.exposed_values()) == {"PatientId", "Name", "Hemoglobin", "Glucose"}
        assert "HivResult" not in detail.exposed_values()

    def test_statistician_gets_role_based_grant(self, platform_small):
        notification = platform_small.publish_blood_test()
        detail = platform_small.statistics.request_details(notification, "statistical-analysis")
        assert set(detail.exposed_values()) == {"Hemoglobin", "Glucose"}

    def test_wrong_purpose_denied(self, platform_small):
        notification = platform_small.publish_blood_test()
        with pytest.raises(AccessDeniedError):
            platform_small.doctor.request_details(notification, "statistical-analysis")

    def test_caller_spoofing_rejected(self, platform_small):
        notification = platform_small.publish_blood_test()
        request = DetailRequest(
            actor=platform_small.doctor.actor,
            event_type=notification.event_type,
            event_id=notification.event_id,
            purpose="healthcare-treatment",
        )
        with pytest.raises(AccessDeniedError, match="does not match"):
            platform_small.controller.request_details("Province/Statistics", request)

    def test_detail_requests_route_through_endpoints(self, platform_small):
        notification = platform_small.publish_blood_test()
        platform_small.doctor.request_details(notification, "healthcare-treatment")
        endpoints = platform_small.controller.endpoints
        assert endpoints.get("controller.getEventDetails").stats.calls == 1
        assert endpoints.get("gateway.Hospital-S-Maria.getResponse").stats.calls == 1

    def test_gateway_endpoint_offline_maps_to_unavailable(self, platform_small):
        notification = platform_small.publish_blood_test()
        platform_small.controller.endpoints.get(
            "gateway.Hospital-S-Maria.getResponse"
        ).take_offline()
        with pytest.raises(SourceUnavailableError):
            platform_small.doctor.request_details(notification, "healthcare-treatment")

    def test_months_later_request_still_resolves(self, platform_small):
        from repro.clock import MONTH

        notification = platform_small.publish_blood_test()
        platform_small.controller.clock.advance(6 * MONTH)
        detail = platform_small.doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()


class TestIndexInquiry:
    def test_authorized_inquiry_returns_notifications(self, platform_small):
        platform_small.publish_blood_test()
        platform_small.publish_blood_test(subject_id="pat-2", name="Luisa Verdi")
        results = platform_small.doctor.inquire_index(["BloodTest"])
        assert len(results) == 2
        assert results[0].subject_ref == "pat-1"

    def test_unauthorized_class_is_skipped_and_audited(self, platform_small):
        newcomer = DataConsumer(platform_small.controller, "Newcomer", "Newcomer")
        results = newcomer.inquire_index(["BloodTest"])
        assert results == []
        denied = (AuditQuery().by_actor("Newcomer")
                  .by_action(AuditAction.INDEX_INQUIRY)
                  .by_outcome(AuditOutcome.DENY)
                  .count(platform_small.controller.audit_log))
        assert denied == 1

    def test_unknown_class_is_skipped(self, platform_small):
        assert platform_small.doctor.inquire_index(["Bogus"]) == []

    def test_time_window_inquiry(self, platform_small):
        clock = platform_small.controller.clock
        platform_small.publish_blood_test()
        clock.advance(100.0)
        platform_small.publish_blood_test(subject_id="pat-2")
        results = platform_small.doctor.inquire_index(["BloodTest"], since=50.0)
        assert len(results) == 1
        assert results[0].subject_ref == "pat-2"

    def test_inquiry_then_detail_request_by_id(self, platform_small):
        platform_small.publish_blood_test()
        found = platform_small.doctor.inquire_index(["BloodTest"])[0]
        detail = platform_small.doctor.request_details_by_id(
            found.event_type, found.event_id, "healthcare-treatment"
        )
        assert detail.exposed_values()


class TestConsentIntegration:
    def test_notification_opt_out_blocks_publication(self, platform_small):
        platform_small.hospital.record_opt_out(
            "pat-1", ConsentScope.NOTIFICATIONS, "BloodTest"
        )
        assert platform_small.publish_blood_test() is None
        assert platform_small.doctor.inbox == []
        assert len(platform_small.controller.index) == 0

    def test_detail_opt_out_blocks_details_only(self, platform_small):
        platform_small.hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")
        notification = platform_small.publish_blood_test()
        assert notification is not None
        assert len(platform_small.doctor.inbox) == 1
        with pytest.raises(AccessDeniedError, match="opted out"):
            platform_small.doctor.request_details(notification, "healthcare-treatment")

    def test_opt_back_in_restores_flow(self, platform_small):
        platform_small.hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")
        platform_small.hospital.record_opt_in("pat-1", ConsentScope.DETAILS, "BloodTest")
        notification = platform_small.publish_blood_test()
        assert platform_small.doctor.request_details(notification, "healthcare-treatment")

    def test_consent_changes_are_audited(self, platform_small):
        platform_small.hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")
        count = (AuditQuery().by_action(AuditAction.CONSENT_CHANGE)
                 .count(platform_small.controller.audit_log))
        assert count == 1


class TestAuditTrail:
    def test_full_flow_is_traced_and_chain_verifies(self, platform_small):
        notification = platform_small.publish_blood_test()
        platform_small.doctor.request_details(notification, "healthcare-treatment")
        with pytest.raises(AccessDeniedError):
            platform_small.doctor.request_details(notification, "administration")
        log = platform_small.controller.audit_log
        log.verify_integrity()
        # who/what/when/why of the permitted request is all there.
        permits = (AuditQuery().by_action(AuditAction.DETAIL_REQUEST)
                   .by_outcome(AuditOutcome.PERMIT).run(log))
        assert len(permits) == 1
        assert permits[0].actor == "FamilyDoctors/Dr-Rossi"
        assert permits[0].purpose == "healthcare-treatment"
        assert permits[0].subject_ref == "pat-1"

    def test_notify_deliveries_are_traced(self, platform_small):
        platform_small.publish_blood_test()
        notified = (AuditQuery().by_action(AuditAction.NOTIFY)
                    .count(platform_small.controller.audit_log))
        assert notified == 2  # doctor + statistics
