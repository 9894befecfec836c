"""Unit tests for the Policy Enforcer (Algorithm 1)."""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.audit.log import AuditAction, AuditLog, AuditOutcome
from repro.clock import Clock
from repro.core.actors import Actor, ActorKind
from repro.core.consent import ConsentRegistry, ConsentScope
from repro.core.enforcement import DetailRequest, PolicyEnforcer
from repro.core.events import EventClass, EventOccurrence
from repro.core.gateway import LocalCooperationGateway
from repro.core.idmap import EventIdEntry, EventIdMap
from repro.core.policy import PolicyDecision, PolicyRepository, PrivacyPolicy
from repro.core.purposes import PurposeRegistry
from repro.exceptions import AccessDeniedError, SourceUnavailableError
from repro.ids import IdFactory
from repro.runtime.services import DirectDetailFetcher, gateway_endpoint_name
from repro.xacml.context import Decision
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import ElementDecl, MessageSchema, Occurs
from repro.xmlmsg.types import IntegerType, StringType
from tests.conftest import blood_test_schema


def blood_class() -> EventClass:
    schema = MessageSchema("BloodTest", [
        ElementDecl("PatientId", StringType(min_length=1), identifying=True),
        ElementDecl("Hemoglobin", IntegerType(0, 30), sensitive=True),
        ElementDecl("HivResult", StringType(), occurs=Occurs.OPTIONAL, sensitive=True),
    ])
    return EventClass(name="BloodTest", producer_id="Hospital", schema=schema)


class EnforcerHarness:
    """A minimal hand-wired enforcement stack (no DataController)."""

    def __init__(self, consent: ConsentRegistry | None = None) -> None:
        self.clock = Clock()
        self.repository = PolicyRepository()
        self.id_map = EventIdMap()
        self.gateway = LocalCooperationGateway("Hospital")
        self.audit = AuditLog()
        self.consent = consent
        self.enforcer = PolicyEnforcer(
            repository=self.repository,
            id_map=self.id_map,
            purposes=PurposeRegistry(),
            fetcher=DirectDetailFetcher(lambda producer_id: self.gateway),
            audit_log=self.audit,
            clock=self.clock,
            ids=IdFactory(seed="harness"),
            consent_resolver=lambda producer_id: self.consent,
        )
        self._publish()

    def _publish(self) -> None:
        occurrence = EventOccurrence(
            event_class=blood_class(), src_event_id="src-1", subject_id="p1",
            subject_name="Mario", occurred_at=0.0, summary="done",
            details=XmlDocument("BloodTest", {
                "PatientId": "p1", "Hemoglobin": 14, "HivResult": "negative",
            }),
        )
        self.gateway.persist(occurrence)
        self.id_map.record(EventIdEntry(
            event_id="evt-1", producer_id="Hospital", src_event_id="src-1",
            event_type="BloodTest", subject_ref="p1", published_at=0.0,
        ))

    def grant(self, fields: frozenset[str],
              purposes: frozenset[str] = frozenset({"healthcare-treatment"}),
              actor_id: str = "Doctor", **kwargs) -> None:
        self.repository.add(PrivacyPolicy(
            policy_id=f"pol-{len(self.repository) + 1}",
            producer_id="Hospital", event_type="BloodTest",
            fields=fields, purposes=purposes, actor_id=actor_id, **kwargs,
        ))

    def request(self, actor_id: str = "Doctor", purpose: str = "healthcare-treatment",
                event_id: str = "evt-1", event_type: str = "BloodTest",
                role: str = "") -> DetailRequest:
        return DetailRequest(
            actor=Actor(actor_id=actor_id, name=actor_id, kind=ActorKind.CONSUMER, role=role),
            event_type=event_type, event_id=event_id, purpose=purpose,
        )


class TestAlgorithm1:
    def test_permit_returns_filtered_detail(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId", "Hemoglobin"}))
        detail = harness.enforcer.get_event_details(harness.request())
        assert detail.exposed_values() == {"PatientId": "p1", "Hemoglobin": 14}
        assert "HivResult" not in detail.exposed_values()
        assert harness.enforcer.stats.permits == 1

    def test_deny_by_default_without_policy(self):
        harness = EnforcerHarness()
        with pytest.raises(AccessDeniedError, match="deny-by-default"):
            harness.enforcer.get_event_details(harness.request())
        assert harness.enforcer.stats.denies == 1

    def test_wrong_purpose_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(
                harness.request(purpose="statistical-analysis")
            )

    def test_unknown_purpose_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError, match="unknown purpose"):
            harness.enforcer.get_event_details(harness.request(purpose="marketing"))

    def test_unknown_event_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request(event_id="evt-404"))

    def test_mismatched_event_type_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError, match="claims type"):
            harness.enforcer.get_event_details(harness.request(event_type="Other"))

    def test_wrong_actor_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request(actor_id="Stranger"))

    def test_hierarchical_actor_grant(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}), actor_id="Clinic")
        detail = harness.enforcer.get_event_details(harness.request(actor_id="Clinic/Unit"))
        assert detail.exposed_values() == {"PatientId": "p1"}

    def test_role_based_grant(self):
        harness = EnforcerHarness()
        harness.repository.add(PrivacyPolicy(
            policy_id="role-pol", producer_id="Hospital", event_type="BloodTest",
            fields=frozenset({"Hemoglobin"}),
            purposes=frozenset({"statistical-analysis"}),
            actor_role="statistician",
        ))
        detail = harness.enforcer.get_event_details(
            harness.request(actor_id="Province/Stats", purpose="statistical-analysis",
                            role="statistician")
        )
        assert detail.exposed_values() == {"Hemoglobin": 14}

    def test_union_of_matching_policies(self):
        """Two grants to the same actor release the union of their fields."""
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        harness.grant(frozenset({"Hemoglobin"}))
        detail = harness.enforcer.get_event_details(harness.request())
        assert set(detail.exposed_values()) == {"PatientId", "Hemoglobin"}

    def test_expired_policy_denied(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}), valid_until=100.0)
        harness.clock.advance(200.0)
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request())

    def test_policy_becomes_valid_later(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}), valid_from=100.0)
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request())
        harness.clock.advance(150.0)
        assert harness.enforcer.get_event_details(harness.request())

    def test_gateway_failure_surfaces(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        harness.gateway.persistence_enabled = False
        harness.gateway.take_source_offline()
        with pytest.raises(SourceUnavailableError):
            harness.enforcer.get_event_details(harness.request())
        assert harness.enforcer.stats.gateway_failures == 1


class TestConsentVeto:
    def test_detail_opt_out_denies_before_policy(self):
        consent = ConsentRegistry("Hospital")
        consent.opt_out("p1", ConsentScope.DETAILS, "BloodTest")
        harness = EnforcerHarness(consent=consent)
        harness.grant(frozenset({"PatientId"}))
        with pytest.raises(AccessDeniedError, match="opted out"):
            harness.enforcer.get_event_details(harness.request())
        assert harness.enforcer.stats.consent_vetoes == 1

    def test_other_subject_unaffected(self):
        consent = ConsentRegistry("Hospital")
        consent.opt_out("p-other", ConsentScope.DETAILS, "BloodTest")
        harness = EnforcerHarness(consent=consent)
        harness.grant(frozenset({"PatientId"}))
        assert harness.enforcer.get_event_details(harness.request())


class TestAuditing:
    def test_permit_is_audited_with_released_fields(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        harness.enforcer.get_event_details(harness.request())
        records = harness.audit.records()
        assert len(records) == 1
        assert records[0].action is AuditAction.DETAIL_REQUEST
        assert records[0].outcome is AuditOutcome.PERMIT
        assert "PatientId" in records[0].detail
        assert records[0].subject_ref == "p1"
        assert records[0].purpose == "healthcare-treatment"

    def test_deny_is_audited(self):
        harness = EnforcerHarness()
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request())
        records = harness.audit.records()
        assert records[0].outcome is AuditOutcome.DENY

    def test_every_outcome_keeps_chain_valid(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        harness.enforcer.get_event_details(harness.request())
        with pytest.raises(AccessDeniedError):
            harness.enforcer.get_event_details(harness.request(purpose="administration"))
        harness.audit.verify_integrity()


class TestDecide:
    def test_decide_true_without_side_effects_on_gateway(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}))
        assert harness.enforcer.decide(harness.request()) is True
        assert harness.gateway.stats.served_from_source == 0

    def test_decide_false_cases(self):
        harness = EnforcerHarness()
        assert harness.enforcer.decide(harness.request()) is False
        harness.grant(frozenset({"PatientId"}))
        assert harness.enforcer.decide(harness.request(event_id="missing")) is False


@pytest.mark.parametrize("perf", ["none", "indexed"])
class TestDecideAndDetailsShareOneDecision:
    """``decide`` and the details chain's decide stage read the same
    routine: whichever runs first, and again on repeat, on the product's
    Def. 3 decision and on the XACML reference (``none``), the verdict and
    the deny message / released fields are the same."""

    DENY_BY_DEFAULT = "no matching policy (deny-by-default)"

    @pytest.fixture(autouse=True)
    def hot_path(self, perf, linear_reference):
        """The whole test on the product's hot path, or on the reference."""
        if perf == "none":
            with linear_reference():
                yield
        else:
            yield

    @staticmethod
    def observe(harness, call: str):
        request = harness.request()
        if call == "decide":
            return harness.enforcer.decide(request)
        try:
            return sorted(harness.enforcer.get_event_details(request).released_fields)
        except AccessDeniedError as exc:
            return str(exc)

    def check(self, harness, verdict: bool, details) -> None:
        for first in ("decide", "details"):
            other = "details" if first == "decide" else "decide"
            for call in (first, other, first, other):
                expected = verdict if call == "decide" else details
                assert self.observe(harness, call) == expected, (first, call)

    def test_permit(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId", "Hemoglobin"}))
        self.check(harness, True, ["Hemoglobin", "PatientId"])

    def test_policy_deny(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}), actor_id="Doctor")
        harness.grant(frozenset(), actor_id="Doctor", deny=True)
        assert self.observe(harness, "details") == "mapped Deny to Deny"
        self.check(harness, False, "mapped Deny to Deny")

    def test_no_policy(self):
        self.check(EnforcerHarness(), False, self.DENY_BY_DEFAULT)

    def test_no_fields_permit(self, monkeypatch):
        """A permit that releases nothing: the verdict is permit, and the
        details chain still refuses to call the gateway."""
        harness = EnforcerHarness()
        monkeypatch.setattr(harness.repository, "decide",
                            lambda producer_id, request: PolicyDecision(Decision.PERMIT))
        self.check(harness, True, "matching policy releases no fields")
        assert harness.gateway.stats.served_from_source == 0

    def test_time_bounded_policy(self):
        harness = EnforcerHarness()
        harness.grant(frozenset({"PatientId"}), valid_until=100.0)
        self.check(harness, True, ["PatientId"])
        harness.clock.advance(200.0)  # decided at the clock's time, every time
        assert self.observe(harness, "decide") is False
        assert self.observe(harness, "details") == self.DENY_BY_DEFAULT
        self.check(harness, False, self.DENY_BY_DEFAULT)


def build_world():
    """One producer, a role grant to family doctors, one published event."""
    controller = DataController(seed="perf-cache")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    result = hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    notification = hospital.publish(
        blood, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="done",
        details={"PatientId": "pat-1", "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})
    return controller, hospital, doctor, notification, result


class TestDecisionFollowsState:
    """Nothing derived outlives the state a permit rested on: after a
    policy revocation, a consent opt-out or an endpoint withdrawal the
    very next request is decided (or served) on the new state."""

    @staticmethod
    def request(doctor, notification):
        return doctor.request_details(notification, "healthcare-treatment")

    def test_revocation_denies_the_next_request(self):
        controller, hospital, doctor, notification, result = build_world()
        assert self.request(doctor, notification).exposed_values()
        for policy in result.policies:
            controller.policies.revoke(policy.policy_id)
        with pytest.raises(AccessDeniedError, match="no matching policy"):
            self.request(doctor, notification)

    def test_consent_opt_out_denies_the_next_request(self):
        controller, hospital, doctor, notification, _ = build_world()
        assert self.request(doctor, notification).exposed_values()
        hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")
        with pytest.raises(AccessDeniedError, match="opted out"):
            self.request(doctor, notification)
        assert controller.enforcer.stats.consent_vetoes == 1

    def test_withdrawn_endpoint_fails_next_request(self):
        controller, hospital, doctor, notification, _ = build_world()
        assert self.request(doctor, notification).exposed_values()
        controller.endpoints.withdraw(gateway_endpoint_name("Hospital"))
        with pytest.raises(SourceUnavailableError, match="no endpoint named"):
            self.request(doctor, notification)
        (record,) = controller.audit_log.records()[-1:]
        assert (record.action, record.outcome) == (
            AuditAction.DETAIL_REQUEST, AuditOutcome.ERROR)
