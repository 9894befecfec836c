"""Failure-injection tests: the platform under partial failure.

The deployment scenarios the paper's architecture must survive: flaky
subscribers (retry → dead-letter without blocking others), source systems
going down mid-flow (gateway persistence), contracts expiring between
publication and detail request, index key rotation with live data,
poison messages on the bus, and cross-node detail requests whose home
node or link fails.
"""

import json

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.bus.delivery import DeliveryPolicy
from repro.clock import DAY, MONTH
from repro.audit.log import AuditAction, AuditOutcome
from repro.exceptions import (
    AccessDeniedError,
    ContractInactiveError,
    CssError,
    LinkFailureError,
    PrivacyError,
    SourceUnavailableError,
)
from tests.conftest import (
    HOME_NODE_FAILURES,
    blood_test_schema,
    build_federation,
)


def build_world(auto_dispatch: bool = True):
    controller = DataController(seed="chaos", auto_dispatch=auto_dispatch)
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi", role="family-doctor")
    hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")], purposes=["healthcare-treatment"])
    return controller, hospital, blood, doctor


def publish(hospital, blood, subject="p1"):
    return hospital.publish(
        blood, subject_id=subject, subject_name="Mario Bianchi", summary="done",
        details={"PatientId": subject, "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})


class TestFlakySubscribers:
    def test_crashing_consumer_callback_does_not_lose_later_messages(self):
        controller, hospital, blood, doctor = build_world()
        crash_on = {"first": True}
        received = []

        def handler(notification):
            if crash_on["first"]:
                crash_on["first"] = False
                raise RuntimeError("consumer application bug")
            received.append(notification)

        controller.subscribe("Dr-Rossi", "BloodTest", handler)
        publish(hospital, blood, "p1")   # handler crashes; message is retried
        publish(hospital, blood, "p2")
        controller.bus.dispatch()
        # p1 was redelivered on a later round, p2 flowed normally.
        assert {n.subject_ref for n in received} >= {"p1", "p2"}

    def test_permanently_poisoned_subscription_dead_letters(self):
        controller = DataController(seed="poison", auto_dispatch=False)
        controller.bus._engine.policy = DeliveryPolicy(max_attempts=2)  # noqa: SLF001
        hospital = DataProducer(controller, "Hospital", "Hospital")
        blood = hospital.declare_event_class(blood_test_schema())
        hospital.define_policy(
            "BloodTest", fields=["PatientId"],
            consumers=[("Broken", "unit")], purposes=["healthcare-treatment"])
        broken = DataConsumer(controller, "Broken", "Broken consumer")
        controller.subscribe(
            "Broken", "BloodTest",
            lambda n: (_ for _ in ()).throw(RuntimeError("always broken")))
        publish(hospital, blood)
        for _ in range(5):
            controller.bus.dispatch()
        assert controller.bus.dead_letter_depth == 1
        assert controller.bus.pending_messages() == 0

    def test_other_subscribers_unaffected_by_poison(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        controller.subscribe(
            "Dr-Rossi", "BloodTest",
            lambda n: (_ for _ in ()).throw(RuntimeError("bad second handler")))
        publish(hospital, blood)
        assert len(doctor.inbox) == 1


class TestContractLifecycleFailures:
    def test_contract_expiry_between_publish_and_request(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        # Re-sign the doctor with a 30-day contract.
        controller.contracts.get("Dr-Rossi").valid_until = 30 * DAY
        notification = publish(hospital, blood)
        controller.clock.advance(2 * MONTH)
        with pytest.raises(ContractInactiveError):
            doctor.request_details(notification, "healthcare-treatment")

    def test_suspended_producer_cannot_publish_but_details_still_serve(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        controller.contracts.suspend("Hospital")
        with pytest.raises(ContractInactiveError):
            publish(hospital, blood, "p2")
        # Already-published details remain retrievable: the gateway serves
        # them under the controller's mediation, not the producer's session.
        detail = doctor.request_details(notification, "healthcare-treatment")
        assert detail.exposed_values()

    def test_reinstated_producer_resumes(self):
        controller, hospital, blood, doctor = build_world()
        controller.contracts.suspend("Hospital")
        controller.contracts.reinstate("Hospital")
        assert publish(hospital, blood) is not None


class TestKeyRotationLive:
    def test_index_key_rotation_keeps_old_notifications_readable(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        publish(hospital, blood, "p1")
        controller.keystore.rotate("index-identity")
        publish(hospital, blood, "p2")
        results = doctor.inquire_index(["BloodTest"])
        assert {r.subject_ref for r in results} == {"p1", "p2"}

    def test_policy_revocation_mid_flow(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        assert doctor.request_details(notification, "healthcare-treatment")
        policy = controller.policies.policies_of_producer("Hospital")[0]
        controller.policies.revoke(policy.policy_id)
        with pytest.raises(AccessDeniedError):
            doctor.request_details(notification, "healthcare-treatment")


class TestSourceDowntimeMidFlow:
    def test_downtime_window_spanning_requests(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        first = publish(hospital, blood, "p1")
        hospital.gateway.take_source_offline()
        # Cannot publish new events while the source is down is a source-side
        # concern; but existing details keep serving from the gateway store.
        assert doctor.request_details(first, "healthcare-treatment")
        hospital.gateway.bring_source_online()
        second = publish(hospital, blood, "p2")
        assert doctor.request_details(second, "healthcare-treatment")

    def test_endpoint_outage_is_an_error_not_a_leak(self):
        controller, hospital, blood, doctor = build_world()
        doctor.subscribe("BloodTest")
        notification = publish(hospital, blood)
        controller.endpoints.get("gateway.Hospital.getResponse").take_offline()
        with pytest.raises(SourceUnavailableError):
            doctor.request_details(notification, "healthcare-treatment")
        # The failed attempt is audited as an error, not silently dropped.
        from repro.audit.query import AuditQuery

        errors = (AuditQuery().by_outcome(AuditOutcome.ERROR)
                  .count(controller.audit_log))
        assert errors == 1


class TestCrossNodeDetailFailuresAreAudited:
    """A forwarded request-for-details that *fails* still leaves its record
    on the consumer's node, as the local path's audit stage does."""

    @staticmethod
    def failed_request(break_something, expected_error):
        deployment = build_federation()
        platform = deployment.platform
        notification = deployment.publish_blood_test()
        break_something(platform)
        consumer_log = platform.controller_of("node-1").audit_log
        audited = len(consumer_log)
        with pytest.raises(expected_error) as failure:
            platform.request_details(
                "FamilyDoctors/Dr-Rossi", "BloodTest", notification.event_id,
                "healthcare-treatment",
            )
        [record] = consumer_log.records()[audited:]
        assert (record.actor, record.action, record.outcome) == (
            "FamilyDoctors/Dr-Rossi", AuditAction.DETAIL_REQUEST, AuditOutcome.ERROR)
        assert (record.event_id, record.event_type, record.purpose) == (
            notification.event_id, "BloodTest", "healthcare-treatment")
        assert record.detail == f"home node node-0 failed: {failure.value}"
        consumer_log.verify_integrity()

    def test_home_gateway_offline(self):
        def gateway_offline(platform):
            platform.controller_of("node-0").endpoints.get(
                "gateway.Hospital-S-Maria.getResponse").take_offline()

        self.failed_request(gateway_offline, SourceUnavailableError)

    def test_link_retry_budget_exhausted(self):
        def drop_every_attempt(platform):
            link = platform.membership.link("node-1", "node-0")
            link.fail_next(link.policy.max_attempts)

        self.failed_request(drop_every_attempt, LinkFailureError)

    def test_home_gateway_overreleases(self):
        """Not a gateway or link error, so it used to leave no record."""
        def leak(platform):
            fetcher = platform.controller_of("node-0").detail_fetcher
            real_fetch = fetcher.fetch
            fetcher.fetch = lambda producer, src_id, allowed, event_id: real_fetch(
                producer, src_id, ["PatientId", "HivResult"], event_id)

        self.failed_request(leak, PrivacyError)


class TestLocalRemoteParity:
    """A consumer cannot tell from the failure whether the producer was
    local or remote: same exception class, same audit outcome, each on the
    consumer's own node."""

    @pytest.mark.parametrize("break_something, expected", HOME_NODE_FAILURES)
    def test_a_home_node_failure_is_the_same_failure_on_both_nodes(
        self, break_something, expected
    ):
        deployment = build_federation()
        platform = deployment.platform
        platform.add_consumer("FamilyDoctors/Dr-Verdi", "Dr. Verdi",
                              role="family-doctor", node_id="node-0")
        platform.producer("Hospital-S-Maria").define_policy(
            event_type="BloodTest", fields=["PatientId", "Name", "Hemoglobin"],
            consumers=[("FamilyDoctors/Dr-Verdi", "unit")],
            purposes=["healthcare-treatment"], label="the local doctor")
        notification = deployment.publish_blood_test()
        break_something(platform)
        link = platform.membership.link("node-1", "node-0")
        lines, calls = len(link.transcript), link.stats.calls

        seen = {}
        for consumer_id, node_id in (("FamilyDoctors/Dr-Verdi", "node-0"),
                                     ("FamilyDoctors/Dr-Rossi", "node-1")):
            log = platform.controller_of(node_id).audit_log
            audited = len(log)
            with pytest.raises(CssError) as failure:
                platform.request_details(
                    consumer_id, "BloodTest", notification.event_id,
                    "healthcare-treatment")
            [record] = [r for r in log.records()[audited:]
                        if r.actor == consumer_id]
            assert record.action is AuditAction.DETAIL_REQUEST
            seen[node_id] = (type(failure.value), record.outcome)
        assert seen["node-0"] == seen["node-1"] == (expected, AuditOutcome.ERROR)
        # The remote failure crossed as a response, not as a live exception.
        assert len(link.transcript) == lines + 2
        assert link.stats.delivered == link.stats.calls == calls + 1
        assert "error" in json.loads(link.transcript[-1])
